"""YAML loading for rule sets, scenarios, and runs."""

from pathlib import Path

import pytest
import yaml

from semcom.comms import ARCHITECTURE_KINDS, MULTI_ZONE_LNA, SENSOR_GNA
from semcom.config import (
    SHIPPED_RULE_SETS,
    YAML_LOADER,
    load_rule_set,
    load_yaml_file,
    load_run_config,
    rule_set_from_config,
    scenario_from_config,
)
from semcom.errors import ConfigurationError
from semcom.world import PREDICATES


SCENARIO_DOC = {
    "name": "mini",
    "grid": 40,
    "roads": [10, 30],
    "cars": 4,
    "pedestrians": 2,
    "r_fov": 4,
    "r_vic": 12,
    "steps": 6,
}


# --------------------------------------------------------------- rule sets


def test_all_shipped_rule_sets_load():
    sizes = {}
    for name in SHIPPED_RULE_SETS:
        rules = load_rule_set(name)
        assert rules.name == name
        assert all(h.action in rules.action_priority for h in rules.hypotheses)
        sizes[name] = len(rules.hypotheses)
    assert sizes == {"core": 12, "extended": 48, "spatial": 30, "discriminative": 30}


def test_unknown_rule_set_name():
    with pytest.raises(ConfigurationError):
        load_rule_set("imaginary")


def test_rule_set_from_mapping():
    doc = {
        "name": "toy",
        "action_priority": ["Stop", "Slow", "Fast", "Normal"],
        "hypotheses": [
            {"id": 1, "action": "Stop", "when": {"IsPedestrian": True, "Close": True}},
            {"id": 2, "action": "Slow", "when": {"IsCar": True, "Near": False}},
        ],
    }
    rules = rule_set_from_config(doc)
    assert [h.id for h in rules.hypotheses] == [1, 2]
    by_id = {h.id: dict(h.fixed_slots) for h in rules.hypotheses}
    assert by_id[1] == {PREDICATES.index("IsPedestrian"): 1, PREDICATES.index("Close"): 1}
    assert by_id[2] == {PREDICATES.index("IsCar"): 1, PREDICATES.index("Near"): 0}


def test_rule_set_rejects_unknown_predicate_and_non_bool():
    base = {
        "name": "bad",
        "action_priority": ["Stop", "Normal"],
        "hypotheses": [{"id": 1, "action": "Stop", "when": {"Wings": True}}],
    }
    with pytest.raises(
        ConfigurationError,
        match=r"unknown predicate 'Wings' \(known: IsPedestrian, IsCar, InIntersection, "
        r"IsMoving, Close, Near, AheadOf, LeftOf, Facing, SameHeading\)",
    ):
        rule_set_from_config(base)
    base["hypotheses"] = [{"id": 1, "action": "Stop", "when": {"Close": "yes"}}]
    with pytest.raises(ConfigurationError):
        rule_set_from_config(base)


TOY_RULES = {
    "name": "toy",
    "action_priority": ["Stop", "Normal"],
    "hypotheses": [{"id": 1, "action": "Stop", "when": {"Close": True}}],
}


def test_rule_set_file_rejects_unknown_top_level_keys(tmp_path):
    path = tmp_path / "rules.yaml"
    path.write_text(yaml.safe_dump(dict(TOY_RULES, colour="red")))
    with pytest.raises(ConfigurationError, match=r"rules.yaml: unknown keys \['colour'\]"):
        load_rule_set(str(path))


def test_rule_set_rejects_unknown_hypothesis_keys():
    # 'unless' reads like a negation: dropping it would silently change the rule
    hypothesis = dict(TOY_RULES["hypotheses"][0], unless={"Close": True})
    with pytest.raises(ConfigurationError, match=r"hypothesis\[0\]: unknown keys \['unless'\]"):
        rule_set_from_config(dict(TOY_RULES, hypotheses=[hypothesis]))


def test_rule_set_file_roundtrip(tmp_path):
    path = tmp_path / "local_rules.yaml"
    path.write_text(
        "name: local\n"
        "action_priority: [Stop, Normal]\n"
        "hypotheses:\n"
        "  - id: 7\n"
        "    action: Stop\n"
        "    when: {IsPedestrian: true}\n"
    )
    rules = load_rule_set(str(path))
    assert rules.name == "local"
    assert rules.hypotheses[0].id == 7


# --------------------------------------------------------------- scenarios


def test_scenario_from_mapping_defaults():
    cfg = scenario_from_config(dict(SCENARIO_DOC))
    assert cfg.name == "mini"
    assert cfg.r_fov == 4 and cfg.r_vic == 12


def test_scenario_rejects_unknown_and_missing_keys():
    doc = dict(SCENARIO_DOC, weather="rain")
    with pytest.raises(ConfigurationError):
        scenario_from_config(doc)
    # the language and its radii are fixed: their retired keys are unknown keys
    for key, value in (("vocabulary", "default"), ("close_radius", 2), ("near_radius", 6)):
        with pytest.raises(ConfigurationError, match=r"unknown keys \['%s'\]" % key):
            scenario_from_config(dict(SCENARIO_DOC, **{key: value}))
    doc = dict(SCENARIO_DOC)
    del doc["r_vic"]
    with pytest.raises(ConfigurationError):
        scenario_from_config(doc)


def test_scenario_type_checks():
    with pytest.raises(ConfigurationError):
        scenario_from_config(dict(SCENARIO_DOC, cars=True))
    with pytest.raises(ConfigurationError):
        scenario_from_config(dict(SCENARIO_DOC, roads="10,30"))


def test_scenario_rejects_a_repeated_road_line():
    # a repeated line yields a zero-width car route, which init_world cannot place on
    with pytest.raises(ConfigurationError, match="duplicate road line: 10"):
        scenario_from_config(dict(SCENARIO_DOC, roads=[10, 10, 30]))


# -------------------------------------------------------------------- runs


def run_doc(**overrides):
    doc = {
        "scenario": dict(SCENARIO_DOC),
        "rule_sets": ["core"],
        "architectures": [
            {"kind": "sensor-gna"},
            {"kind": "multi-zone-lna"},
        ],
        "strategies": ["semantic", "random"],
        "k": [0, 1, 2],
        "seeds": [1, 2],
    }
    doc.update(overrides)
    return doc


def write_run(tmp_path, doc):
    import yaml

    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def test_run_config_loads(tmp_path):
    run = load_run_config(write_run(tmp_path, run_doc()))
    assert [s.name for s in run.scenarios] == ["mini"]
    assert [r.name for r in run.rule_sets] == ["core"]
    assert run.architectures == (SENSOR_GNA, MULTI_ZONE_LNA)
    assert run.ks == (0, 1, 2)
    assert run.seeds == (1, 2)


def test_run_defaults(tmp_path):
    doc = {"scenario": dict(SCENARIO_DOC)}
    run = load_run_config(write_run(tmp_path, doc))
    assert [r.name for r in run.rule_sets] == ["core"]
    assert run.architectures == ARCHITECTURE_KINDS
    assert run.ks == (0, 1, 2, 3, 4, 5)
    assert run.seeds == (1,)


def test_seeds_override(tmp_path):
    run = load_run_config(write_run(tmp_path, run_doc()), seeds_override=(7, 8, 9))
    assert run.seeds == (7, 8, 9)
    # an override is checked like the file's list
    for bad in ((), (1, "2")):
        with pytest.raises(ConfigurationError, match="seeds"):
            load_run_config(write_run(tmp_path, run_doc()), seeds_override=bad)


def test_run_rejects_both_scenario_forms(tmp_path):
    doc = run_doc()
    doc["scenarios"] = [dict(SCENARIO_DOC, name="b")]
    with pytest.raises(ConfigurationError):
        load_run_config(write_run(tmp_path, doc))


def test_run_rejects_repeated_scenario_names(tmp_path):
    # scenario names key the output files: a repeat would overwrite one;
    # metrics.sweep refuses repeats on the other axes
    doc = run_doc(scenarios=[dict(SCENARIO_DOC), dict(SCENARIO_DOC, grid=50)])
    del doc["scenario"]
    with pytest.raises(ConfigurationError, match="duplicate scenario name: mini"):
        load_run_config(write_run(tmp_path, doc))


def test_run_strategies_must_be_a_list(tmp_path):
    # a bare string would otherwise be read one character per strategy
    with pytest.raises(ConfigurationError, match="strategies must be a non-empty list"):
        load_run_config(write_run(tmp_path, run_doc(strategies="semantic")))
    with pytest.raises(ConfigurationError, match="strategies must be a non-empty list"):
        load_run_config(write_run(tmp_path, run_doc(strategies=[])))


def test_run_rejects_unknown_top_level_keys(tmp_path):
    # a misspelt key must not silently fall back to the defaults, and the
    # retired enumeration_cap knob must not be silently ignored
    doc = run_doc(stratgies=["semantic"], enumeration_cap=10)
    with pytest.raises(ConfigurationError, match=r"\['enumeration_cap', 'stratgies'\]"):
        load_run_config(write_run(tmp_path, doc))
    # the advantage budget is metrics.ADVANTAGE_K for every suite
    with pytest.raises(ConfigurationError, match=r"unknown keys \['advantage_k'\]"):
        load_run_config(write_run(tmp_path, run_doc(advantage_k=3)))


def test_architectures_are_kind_names_on_the_fixed_zone_grid(tmp_path):
    run = load_run_config(write_run(tmp_path, run_doc(architectures=[{"kind": "multi-zone-lna"}])))
    assert run.architectures == (MULTI_ZONE_LNA,)
    # the grid is comms.ZONES for every sweep, so zones is an unknown key
    doc = run_doc(architectures=[{"kind": "multi-zone-lna", "zones": 2}])
    with pytest.raises(ConfigurationError, match=r"architecture\[0\]: unknown keys \['zones'\]"):
        load_run_config(write_run(tmp_path, doc))


def test_shipped_run_configs_parse():
    # the benchmark's dense workload loads its config through the same schema
    root = Path(__file__).resolve().parents[1]
    for path, n_scenarios in (
        ("configs/desk.yaml", 1), ("configs/density_suite.yaml", 8),
        ("configs/smoke.yaml", 1), ("perfbench/dense.yaml", 1),
    ):
        run = load_run_config(str(root / path))
        assert len(run.scenarios) == n_scenarios


def test_shipped_yaml_parses_the_same_under_the_chosen_loader():
    root = Path(__file__).resolve().parents[1]
    paths = sorted((root / "configs").glob("*.yaml")) + sorted(
        (root / "src" / "semcom" / "data").glob("*.yaml")
    )
    assert len(paths) == 8
    for path in paths:
        text = path.read_text(encoding="utf-8")
        assert yaml.load(text, Loader=YAML_LOADER) == yaml.load(text, Loader=yaml.SafeLoader)
        assert load_yaml_file(str(path)) == yaml.load(text, Loader=yaml.SafeLoader)


def test_malformed_yaml_is_a_configuration_error(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("scenario: {name: [unclosed\n")
    with pytest.raises(ConfigurationError, match="broken.yaml: invalid YAML"):
        load_yaml_file(str(path))
