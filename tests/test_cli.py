"""Command line entry points, exit codes, and artifact determinism."""

import csv
import hashlib
import io
import itertools
import time
from fractions import Fraction

import pytest
import yaml

from semcom import cli, validation

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
    assert err.startswith("error: cannot write %s" % (out / "oracle.csv"))
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
        "error: c(e) needs a 2**(2**32) denominator, over the 1048576-bit budget"
    )
    assert not (tmp_path / "t5").exists()


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
    monkeypatch.setattr(cli.metrics, "_run_task", lambda task: pytest.fail("a task ran"))
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
    config = write_config(tmp_path, small_run())
    out_a, out_b, out_c = (tmp_path / d for d in ("a", "b", "c"))
    assert cli.main(["sweep", "--config", config, "--out", str(out_a)]) == 0
    assert cli.main(["sweep", "--config", config, "--out", str(out_b)]) == 0
    assert cli.main(
        ["sweep", "--config", config, "--out", str(out_c), "--jobs", "2"]
    ) == 0
    blob = (out_a / "mini.csv").read_bytes()
    assert (out_b / "mini.csv").read_bytes() == blob
    assert (out_c / "mini.csv").read_bytes() == blob


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
