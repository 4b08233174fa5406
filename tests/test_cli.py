"""Command line entry points, exit codes, and artifact determinism."""

import csv
import hashlib
import io
import itertools
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
import yaml

from semcom import cli, oracle, validation

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

SCENARIO = {
    "name": "mini",
    "grid": 40,
    "roads": [10, 30],
    "cars": 5,
    "pedestrians": 2,
    "r_fov": 4,
    "r_vic": 12,
    "steps": 5,
}


def write_config(tmp_path, doc, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def small_run(**overrides):
    doc = {
        "scenario": dict(SCENARIO),
        "rule_sets": ["core"],
        "architectures": [{"kind": "sensor-gna"}],
        "strategies": ["semantic", "random"],
        "k": [0, 1, 2],
        "seeds": [1, 2],
    }
    doc.update(overrides)
    return doc


def rows_from(text):
    return list(csv.DictReader(io.StringIO(text)))


# -------------------------------------------------------------------- oracle


def test_oracle_table_on_stdout(capsys):
    assert cli.main(["oracle", "--t", "2"]) == 0
    rows = rows_from(capsys.readouterr().out)
    assert set(rows[0]) == {"T", "K", "Z", "overlap", "c_e", "c_phi_given_e", "F_term"}
    picked = next(r for r in rows if r["K"] == "1" and r["Z"] == "1")
    assert Fraction(picked["c_e"]) == Fraction(255, 256)
    assert Fraction(picked["c_phi_given_e"]) == Fraction(252, 255)
    assert Fraction(picked["F_term"]) == Fraction(189, 16320)
    saturated = next(r for r in rows if r["K"] == "4" and r["Z"] == "1")
    assert saturated["overlap"] == "1"
    assert Fraction(saturated["F_term"]) == 0


def test_oracle_writes_file_when_out_given(tmp_path, capsys):
    assert cli.main(["oracle", "--t", "1", "--out", str(tmp_path)]) == 0
    out = tmp_path / "oracle.csv"
    assert out.exists()
    rows = rows_from(out.read_text())
    row = next(r for r in rows if r["K"] == "1" and r["Z"] == "1")
    assert Fraction(row["c_e"]) == Fraction(3, 4)


@pytest.mark.parametrize("under", ["", "x"])
def test_unwritable_out_exits_two(tmp_path, capsys, under):
    # --out names a regular file, or a directory under one
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / under if under else blocker
    assert cli.main(["oracle", "--t", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: cannot write %s: %s is not a writable directory\n" % (out, blocker)
    assert blocker.read_text() == ""


def test_oracle_refuses_a_wide_table_with_exit_two(capsys):
    # at T=62, K=0 the first row's c(e) needs a 2**(2**62)-bit denominator: refused
    # by the bit budget, not by running out of memory
    assert cli.main(["oracle", "--t", "62"]) == 2
    assert "bit budget" in capsys.readouterr().err


@pytest.mark.parametrize(
    "t, digest",
    [
        ("2", "4799fb42619fd51fcdc84d81cc3a66eb9a8bae394b8327ec7743b26ea5c23897"),
        ("3", "ad36671a657c52c76607a513521bfc1e0ab5f1d6b0d14dd61094db5c0d99d473"),
    ],
)
def test_oracle_csv_bytes_are_pinned(tmp_path, t, digest):
    # pinned bytes, as criterion 8 pins the smoke CSVs
    assert cli.main(["oracle", "--t", t, "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "oracle.csv").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv",
    [
        ["--t", "-1"],
        ["--t", "0"],
    ],
)
def test_oracle_rejects_bad_t_and_z_with_exit_two(argv, capsys):
    assert cli.main(["oracle", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_oracle_refuses_t_30_at_the_first_row(capsys):
    # the default K axis has 2**30 + 1 values; the first row's bit-budget
    # check must refuse before any of the rest are touched
    started = time.perf_counter()
    assert cli.main(["oracle", "--t", "30"]) == 2
    assert time.perf_counter() - started < 1.0
    assert "bit budget" in capsys.readouterr().err


def test_oracle_prints_t_4_exactly_and_refuses_t_5(tmp_path, capsys):
    # T = 4's widest value has 39303 decimal digits, past str()'s default
    # int limit, yet every row prints; T = 5 is the first width the bit
    # budget refuses, with a typed error (exit 2) and no file
    digest = "7eaf3b581baf5d72c49432099f6030bc91e5d81c79d052be88cdf6a13b853e5a"
    assert cli.main(["oracle", "--t", "4", "--out", str(tmp_path / "t4")]) == 0
    assert hashlib.sha256((tmp_path / "t4" / "oracle.csv").read_bytes()).hexdigest() == digest
    assert cli.main(["oracle", "--t", "5", "--out", str(tmp_path / "t5")]) == 2
    assert capsys.readouterr().err.startswith(
        "error: c(e) at T=5, K=0 needs a 2**(2**(2**T - K + 0)) denominator, "
        "over the 1048576-bit budget"
    )
    assert not (tmp_path / "t5").exists()


@pytest.mark.parametrize("t", [14300, 20000])
def test_oracle_refuses_tables_past_the_int_digit_limit_with_exit_two(t, capsys):
    # 2**T - K has more than 4300 decimal digits here: the refusal names T
    # and K, not the exponent, so it prints as a typed error
    assert cli.main(["oracle", "--t", str(t)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: c(e) at T=%d, K=0 needs a 2**(2**(2**T - K + 0)) denominator, "
        "over the 1048576-bit budget\n" % t
    )


@pytest.mark.parametrize("command", [["oracle", "--t", "2"], ["validate-key", "--trials", "50"]])
def test_oracle_and_validate_key_refuse_an_unwritable_out_before_any_work(
    tmp_path, capsys, monkeypatch, command
):
    def refuse(*_args, **_kwargs):
        raise AssertionError("work ran before --out was checked")

    monkeypatch.setattr(oracle, "closed_form_table", refuse)
    monkeypatch.setattr(validation, "validate_key_ordering", refuse)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "sub"
    assert cli.main([*command, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot write %s: %s is not a writable directory\n" % (
        out, blocker)
    assert blocker.read_text() == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


def test_set_up_path_leaves_exact_only_modules_unloaded():
    # perfbench's setup_s imports semcom.cli and loads a run config on every
    # workload; the oracle, the validator and the worker pool load on demand
    code = (
        "import sys\n"
        "import semcom.cli\n"
        "from semcom import config\n"
        "config.load_run_config(%r)\n"
        "print(sorted(m for m in ('semcom.oracle', 'semcom.validation', "
        "'concurrent.futures') if m in sys.modules))\n" % str(CONFIGS / "desk.yaml")
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert proc.stdout == "[]\n"


# ------------------------------------------------------------- run and sweep


def test_run_emits_per_seed_rows(tmp_path):
    config = write_config(tmp_path, small_run())
    out = tmp_path / "out"
    assert cli.main(["run", "--config", config, "--out", str(out)]) == 0
    rows = rows_from((out / "mini_per_seed.csv").read_text())
    # 1 arch x 1 rule set x 2 strategies x 3 budgets x 2 seeds
    assert len(rows) == 12
    assert {r["seed"] for r in rows} == {"1", "2"}
    assert all(0.0 <= float(r["adsr"]) <= 1.0 for r in rows)


def test_sweep_emits_aggregate_and_summary(tmp_path, capsys):
    config = write_config(tmp_path, small_run())
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", config, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    rows = rows_from((out / "mini.csv").read_text())
    assert len(rows) == 6
    assert all(r["seeds"] == "2" for r in rows)
    summary = (out / "summary.txt").read_text()
    assert "scenario mini: 12 rows, 6 aggregate cells" in summary
    assert stdout == summary  # the summary file is echoed on stdout


def test_sweep_summary_says_why_an_advantage_point_is_missing(tmp_path, capsys):
    config = write_config(tmp_path, small_run(strategies=["semantic"], k=[0, 3]))
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", config, "--out", str(out)]) == 0
    summary = (out / "summary.txt").read_text().splitlines()
    assert summary[0] == "scenario mini: 4 rows, 2 aggregate cells"
    assert summary[-1] == (
        "  no advantage point for mini: "
        "advantage point needs k=0 and k=3 rows for both strategies"
    )


def test_sweep_summary_says_why_the_advantage_correlation_is_missing(tmp_path, capsys):
    # one car and no pedestrians: every configuration's advantage point is
    # (1.0, 0.0), so the correlation is undefined; the summary says so and
    # the sweep still succeeds
    scenarios = [
        dict(SCENARIO, name="f%d" % r_fov, cars=1, pedestrians=0, r_fov=r_fov)
        for r_fov in (3, 5, 6)
    ]
    doc = small_run(k=[0, 3])
    del doc["scenario"]
    config = write_config(tmp_path, dict(doc, scenarios=scenarios))
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", config, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["f3.csv", "f5.csv", "f6.csv", "summary.txt"]
    summary = (out / "summary.txt").read_text().splitlines()
    assert summary[:3] == ["scenario f%d: 8 rows, 4 aggregate cells" % r for r in (3, 5, 6)]
    assert len(summary) == 4 and summary[3].startswith(
        "no advantage correlation (baseline A-DSR vs semantic-minus-random at k=3, "
        "3 configurations): correlation undefined: "
    )
    assert capsys.readouterr().out == "\n".join(summary) + "\n"


def test_sweep_full_budget_grid_is_twelve_rows_per_cell(tmp_path):
    config = write_config(tmp_path, small_run(k=[0, 1, 2, 3, 4, 5], seeds=[1]))
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", config, "--out", str(out)]) == 0
    rows = rows_from((out / "mini.csv").read_text())
    assert len(rows) == 12
    by_strategy = {"semantic": 0, "random": 0}
    for r in rows:
        by_strategy[r["strategy"]] += 1
    assert by_strategy == {"semantic": 6, "random": 6}


def test_seed_ranges_parse(tmp_path):
    config = write_config(tmp_path, small_run())
    out = tmp_path / "out"
    assert cli.main(
        ["run", "--config", config, "--out", str(out), "--seeds", "1,3-5"]
    ) == 0
    rows = rows_from((out / "mini_per_seed.csv").read_text())
    assert {r["seed"] for r in rows} == {"1", "3", "4", "5"}


def test_invalid_config_exits_two(tmp_path, capsys):
    # metrics.sweep refuses repeated axes, a negative seed and bad requests;
    # either way both commands fail before writing any file
    for overrides, message in (
        ({"k": [1, 2, 1]}, "duplicate budget: 1"),
        ({"strategies": ["semantic", "semantic"]}, "duplicate strategy: semantic"),
        ({"seeds": [1, 1]}, "duplicate seed: 1"),
        ({"seeds": [-3, 3]}, "seed must be non-negative, got -3"),
        (
            {"architectures": [{"kind": "sensor-gna"}, {"kind": "sensor-gna"}]},
            "duplicate architecture kind: sensor-gna",
        ),
        ({"rule_sets": ["core", "spatial", "core"]}, "duplicate rule set name: core"),
        ({"strategies": ["psychic"]}, "unknown strategy 'psychic'"),
        ({"k": [-1]}, "k must be non-negative"),
        ({"architectures": [{"kind": "carrier-pigeon"}]}, "unknown architecture 'carrier-pigeon'"),
        # unhashable entries are refused by name before the repeat checks
        ({"strategies": [["semantic"]]}, "unknown strategy ['semantic']"),
        ({"architectures": [{"kind": ["sensor-gna"]}]}, "unknown architecture ['sensor-gna']"),
    ):
        config = write_config(tmp_path, small_run(**overrides))
        out = tmp_path / "o"
        for command in ("sweep", "run"):
            assert cli.main([command, "--config", config, "--out", str(out), "--jobs", "2"]) == 2
            assert "error: %s" % message in capsys.readouterr().err
            assert not out.exists()


@pytest.mark.parametrize("under", ["", "x", "x/y"])
def test_unwritable_out_exits_two_before_any_task(tmp_path, capsys, monkeypatch, under):
    # --out names a regular file or a path under one: refused before the
    # sweep's first task, not after it, and nothing is made; the file is
    # writable and executable, so only its not being a directory refuses it
    blocker = tmp_path / "file"
    blocker.write_text("")
    blocker.chmod(0o755)
    out = blocker / under if under else blocker
    config = write_config(tmp_path, small_run())
    monkeypatch.setattr(cli.metrics, "_run_batch", lambda tasks: pytest.fail("a task ran"))
    for command in ("sweep", "run"):
        assert cli.main([command, "--config", config, "--out", str(out), "--jobs", "1"]) == 2
        err = capsys.readouterr().err
        assert err == "error: cannot write %s: %s is not a writable directory\n" % (out, blocker)
    assert blocker.read_text() == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "run.yaml"]


@pytest.mark.parametrize(
    "name", ["../escaped", "nested/name", "/abs", ".", "..", "", "nul\0byte", ["s"], 5]
)
def test_scenario_name_that_is_not_one_file_name_exits_two(tmp_path, capsys, name):
    # the name becomes <out>/<name>.csv; "../escaped" would land beside --out
    config = write_config(tmp_path, small_run(scenario=dict(SCENARIO, name=name)))
    out = tmp_path / "box" / "o"
    for command in ("sweep", "run"):
        assert cli.main([command, "--config", config, "--out", str(out)]) == 2
        assert "name must be a file name" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.yaml"]


@pytest.mark.parametrize("level", ["run", "scenario", "architecture"])
def test_unknown_keys_of_mixed_type_exit_two(tmp_path, capsys, level):
    # YAML keys need not be strings: the refusal sorts their text, not 1 against "weather"
    doc = small_run()
    entry = {"run": doc, "scenario": doc["scenario"], "architecture": doc["architectures"][0]}
    entry[level].update({1: "x", "weather": "rain"})
    config = tmp_path / "run.yaml"
    config.write_text(yaml.safe_dump(doc, sort_keys=False))
    out = tmp_path / "o"
    for command in ("sweep", "run"):
        assert cli.main([command, "--config", str(config), "--out", str(out)]) == 2
        assert "unknown keys ['1', 'weather']" in capsys.readouterr().err
    assert not out.exists()


def test_repeated_road_line_exits_two(tmp_path, capsys):
    scenario = dict(SCENARIO, roads=[10, 10, 30])
    config = write_config(tmp_path, small_run(scenario=scenario, seeds=[2]))
    assert cli.main(["sweep", "--config", config, "--out", str(tmp_path / "o")]) == 2
    assert "duplicate road line: 10" in capsys.readouterr().err


def test_jobs_below_one_exits_two(tmp_path, capsys):
    config = write_config(tmp_path, small_run())
    for command in ("sweep", "run"):
        args = [command, "--config", config, "--out", str(tmp_path / "o"), "--jobs", "0"]
        assert cli.main(args) == 2
        assert "jobs must be at least 1" in capsys.readouterr().err


def test_missing_config_file_exits_two(tmp_path, capsys):
    missing = str(tmp_path / "nope.yaml")
    assert cli.main(["run", "--config", missing, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err


def test_reruns_are_byte_identical(tmp_path):
    # the smoke scenario with two rule sets and 12 seeds is 24 tasks, so
    # two and three workers split them into batches, three unevenly
    doc = yaml.safe_load((CONFIGS / "smoke.yaml").read_text())
    doc.update(rule_sets=["core", "extended"], seeds=list(range(1, 13)))
    config = write_config(tmp_path, doc)
    for command in ("sweep", "run"):
        outputs = []
        for run, jobs in enumerate(("1", "1", "2", "3")):
            out = tmp_path / command / str(run)
            assert cli.main([command, "--config", config, "--out", str(out), "--jobs", jobs]) == 0
            outputs.append({path.name: path.read_bytes() for path in out.iterdir()})
        assert outputs[0] and all(files == outputs[0] for files in outputs)


# -------------------------------------------------------------- validate-key


def test_key_validation_reports_and_signals_disagreements(tmp_path, capsys):
    # the lexicographic key does not reproduce the exact order on every
    # pair, and the exit code must say so rather than hide it
    rc = cli.main(["validate-key", "--trials", "200", "--seed", "0",
                   "--out", str(tmp_path)])
    report = (tmp_path / "validate_key.txt").read_text()
    assert capsys.readouterr().out == report  # the report file is echoed on stdout
    assert "disagreements:" in report
    disagreements = int(
        next(line for line in report.splitlines() if line.startswith("disagreements:"))
        .split(":")[1]
    )
    assert rc == (1 if disagreements else 0)
    assert rc == 1


def test_key_validation_empty_run_exits_zero(capsys):
    assert cli.main(["validate-key", "--trials", "0"]) == 0
    out = capsys.readouterr().out
    assert "trials: 0" in out


@pytest.mark.parametrize(
    "args, message",
    [
        (["--trials", "-1"], "trials"),
        # random.Random(-5) seeds like random.Random(5): it would repeat seed 5
        (["--seed", "-5"], "seed must be non-negative, got -5"),
    ],
)
def test_key_validation_rejects_impossible_arguments(capsys, monkeypatch, args, message):
    def refuse(*_):
        raise AssertionError("a trial ran before the arguments were checked")

    monkeypatch.setattr(itertools, "combinations", refuse)
    monkeypatch.setattr(validation, "exact_objective_compare", refuse)
    assert cli.main(["validate-key", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and message in captured.err
