"""YAML configuration loading for scenarios, rule sets, and sweeps.

Schema (all keys lowercase):

scenario:
    name: desk
    grid: 60
    roads: [10, 30, 50]
    cars: 10
    pedestrians: 4
    r_fov: 5
    r_vic: 15
    steps: 40

rule set file:
    name: core
    action_priority: [Stop, Slow, Fast, Normal]
    hypotheses:
      - id: 1
        action: Stop
        when: {IsPedestrian: true, Close: true}   # names from world.PREDICATES

run / sweep file:
    scenario: {...}          # or scenarios: [{...}, ...] for a suite
    rule_sets: [core]        # shipped names, or paths ending in .yaml
    architectures:           # comms.ARCHITECTURE_KINDS; all three when absent
      - {kind: sensor-gna}
      - {kind: multi-zone-lna}
    strategies: [semantic, random]
    k: [0, 1, 2, 3, 4, 5]
    seeds: [1, 2, 3]

Unknown keys are rejected at the top level of a run file, in a scenario,
in an architecture entry, and at the top level and in each hypothesis of
a rule-set file; no key changes the fixed ``world.PREDICATES``, the fixed
``comms.ZONES`` grid or the budget ``metrics.ADVANTAGE_K`` at which a
suite's correlation summary reads the semantic advantage.  A scenario's
name names its output files, so it must be one path component.

Shipped rule sets (``core``, ``extended``, ``spatial``, ``discriminative``)
resolve from the package's data directory; anything containing a path
separator or ending in .yaml is read from the filesystem.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from importlib import resources
from typing import AbstractSet, Any, Dict, List, Mapping, Optional, Sequence, Tuple

import yaml

from .errors import ConfigurationError, reject_repeats
from .comms import ARCHITECTURE_KINDS
from .selection import STRATEGIES
from .logic import Hypothesis
from .world import PREDICATES, RuleSet, ScenarioConfig

SHIPPED_RULE_SETS = ("core", "extended", "spatial", "discriminative")

# libyaml's safe loader where PyYAML was built with it: the same data,
# parsed several times faster than by the pure-Python loader
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

RUN_CONFIG_KEYS = frozenset({
    "scenario", "scenarios", "rule_sets", "architectures", "strategies", "k", "seeds",
})


def _load_yaml_text(text: str, source: str) -> Dict[str, Any]:
    try:
        data = yaml.load(text, Loader=YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigurationError("%s: invalid YAML: %s" % (source, exc)) from exc
    if not isinstance(data, dict):
        raise ConfigurationError("%s: top level must be a mapping" % source)
    return data


def load_yaml_file(path: str) -> Dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigurationError("cannot read %s: %s" % (path, exc)) from exc
    return _load_yaml_text(text, path)


def _require(mapping: Mapping[str, Any], key: str, source: str) -> Any:
    if key not in mapping:
        raise ConfigurationError("%s: missing required key %r" % (source, key))
    return mapping[key]


def _reject_unknown(data: Mapping[Any, Any], known: AbstractSet[str], what: str) -> None:
    unknown = set(data) - known
    if unknown:
        # YAML keys need not be strings: sort their text, not the mixed keys
        raise ConfigurationError("%s: unknown keys %s" % (what, sorted(map(str, unknown))))


def _as_int(value: Any, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError("%s must be an integer, got %r" % (what, value))
    return value


def _as_int_list(value: Any, what: str) -> Tuple[int, ...]:
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigurationError("%s must be a non-empty list of integers" % what)
    return tuple(_as_int(v, what + " entry") for v in value)


def _as_list(value: Any, what: str) -> List[Any]:
    if not isinstance(value, list) or not value:
        raise ConfigurationError("%s must be a non-empty list, got %r" % (what, value))
    return value


# ---------------------------------------------------------------------------
# Rule sets
# ---------------------------------------------------------------------------

def rule_set_from_config(data: Mapping[str, Any], source: str = "rule set") -> RuleSet:
    _reject_unknown(data, {"name", "action_priority", "hypotheses"}, source)
    name = str(_require(data, "name", source))
    priority = _require(data, "action_priority", source)
    if not isinstance(priority, list) or not all(isinstance(a, str) for a in priority):
        raise ConfigurationError("%s: action_priority must be a list of action names" % source)
    raw_hypotheses = _require(data, "hypotheses", source)
    if not isinstance(raw_hypotheses, list) or not raw_hypotheses:
        raise ConfigurationError("%s: hypotheses must be a non-empty list" % source)
    hypotheses = []
    for i, entry in enumerate(raw_hypotheses):
        if not isinstance(entry, dict):
            raise ConfigurationError("%s: hypothesis entries must be mappings" % source)
        _reject_unknown(entry, {"id", "action", "when"}, "%s hypothesis[%d]" % (source, i))
        hid = _as_int(_require(entry, "id", source), "%s: hypothesis id" % source)
        action = str(_require(entry, "action", source))
        when = _require(entry, "when", source)
        if not isinstance(when, dict) or not when:
            raise ConfigurationError(
                "%s: hypothesis %d needs a non-empty 'when' mapping" % (source, hid)
            )
        constraints: Dict[int, int] = {}
        for pred_name, raw_bit in when.items():
            try:
                slot = PREDICATES.index(pred_name)
            except ValueError:
                raise ConfigurationError(
                    "%s: hypothesis %d references unknown predicate %r (known: %s)"
                    % (source, hid, pred_name, ", ".join(PREDICATES))
                ) from None
            if not isinstance(raw_bit, bool):
                raise ConfigurationError(
                    "%s: hypothesis %d predicate %r needs a boolean, got %r"
                    % (source, hid, pred_name, raw_bit)
                )
            constraints[slot] = 1 if raw_bit else 0
        hypotheses.append(Hypothesis.from_constraints(hid, constraints, action))
    return RuleSet(
        name=name, hypotheses=tuple(hypotheses), action_priority=tuple(priority)
    )


def load_rule_set(ref: str, base_dir: Optional[str] = None) -> RuleSet:
    """Resolve a shipped rule-set name or a filesystem path."""
    if ref in SHIPPED_RULE_SETS:
        text = (
            resources.files("semcom").joinpath("data", "rules_%s.yaml" % ref).read_text()
        )
        data = _load_yaml_text(text, "shipped rule set %r" % ref)
        return rule_set_from_config(data, source="rule set %r" % ref)
    path = ref
    if base_dir is not None and not os.path.isabs(path):
        path = os.path.join(base_dir, path)
    if not (ref.endswith(".yaml") or ref.endswith(".yml") or os.sep in ref):
        raise ConfigurationError(
            "unknown rule set %r (shipped sets: %s; or give a .yaml path)"
            % (ref, ", ".join(SHIPPED_RULE_SETS))
        )
    return rule_set_from_config(load_yaml_file(path), source=path)


# ---------------------------------------------------------------------------
# Scenario
# ---------------------------------------------------------------------------

def scenario_from_config(data: Mapping[str, Any], source: str = "scenario") -> ScenarioConfig:
    if not isinstance(data, Mapping):
        raise ConfigurationError("%s: must be a mapping" % source)
    known = {"name", "grid", "roads", "cars", "pedestrians", "r_fov", "r_vic", "steps"}
    _reject_unknown(data, known, source)
    name = data.get("name", "scenario")
    # the name becomes <out>/<name>.csv, so it may not climb or nest
    if (
        not isinstance(name, str) or name in ("", ".", "..") or "\0" in name
        or os.path.split(name) != ("", name)
    ):
        raise ConfigurationError(
            "%s: name must be a file name without a path separator, got %r" % (source, name)
        )
    return ScenarioConfig(
        name=name,
        grid=_as_int(_require(data, "grid", source), "grid"),
        roads=_as_int_list(_require(data, "roads", source), "roads"),
        cars=_as_int(_require(data, "cars", source), "cars"),
        pedestrians=_as_int(_require(data, "pedestrians", source), "pedestrians"),
        r_fov=_as_int(_require(data, "r_fov", source), "r_fov"),
        r_vic=_as_int(_require(data, "r_vic", source), "r_vic"),
        steps=_as_int(_require(data, "steps", source), "steps"),
    )


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    scenarios: Tuple[ScenarioConfig, ...]
    rule_sets: Tuple[RuleSet, ...]
    architectures: Tuple[str, ...]  # kinds, as metrics.sweep takes them
    strategies: Tuple[str, ...]
    ks: Tuple[int, ...]
    seeds: Tuple[int, ...]


def _architectures_from_config(obj: Any, source: str) -> Tuple[str, ...]:
    """Kind names; metrics.sweep refuses an unknown or repeated one."""
    if obj is None:
        return ARCHITECTURE_KINDS
    out = []
    for i, entry in enumerate(_as_list(obj, "%s: architectures" % source)):
        if not isinstance(entry, dict) or "kind" not in entry:
            raise ConfigurationError("%s: each architecture needs a 'kind'" % source)
        _reject_unknown(entry, {"kind"}, "%s architecture[%d]" % (source, i))
        out.append(entry["kind"])
    return tuple(out)


def load_run_config(
    path: str,
    seeds_override: Optional[Sequence[int]] = None,
) -> RunConfig:
    data = load_yaml_file(path)
    _reject_unknown(data, RUN_CONFIG_KEYS, path)
    base_dir = os.path.dirname(os.path.abspath(path))
    if ("scenario" in data) == ("scenarios" in data):
        raise ConfigurationError("%s: give exactly one of 'scenario' or 'scenarios'" % path)
    if "scenario" in data:
        raw_scenarios = [data["scenario"]]
    else:
        raw_scenarios = _as_list(data["scenarios"], "%s: scenarios" % path)
    scenarios = tuple(
        scenario_from_config(s, source="%s scenario[%d]" % (path, i))
        for i, s in enumerate(raw_scenarios)
    )
    # scenario names key the output files; metrics.sweep checks the other axes
    reject_repeats("scenario name", [s.name for s in scenarios])
    rule_refs = _as_list(data.get("rule_sets", ["core"]), "%s: rule_sets" % path)
    rule_sets = tuple(load_rule_set(str(r), base_dir) for r in rule_refs)
    return RunConfig(
        scenarios=scenarios,
        rule_sets=rule_sets,
        architectures=_architectures_from_config(data.get("architectures"), path),
        strategies=tuple(
            _as_list(data.get("strategies", list(STRATEGIES)), "%s: strategies" % path)
        ),
        ks=_as_int_list(data.get("k", [0, 1, 2, 3, 4, 5]), "k"),
        seeds=_as_int_list(
            data.get("seeds", [1]) if seeds_override is None else seeds_override, "seeds"
        ),
    )
