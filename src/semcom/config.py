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
    close_radius: 2          # optional, default 2
    near_radius: 6           # optional, default 6
    vocabulary: default      # or a list of {name, category} entries

rule set file:
    name: core
    action_priority: [Stop, Slow, Fast, Normal]
    hypotheses:
      - id: 1
        action: Stop
        when: {IsPedestrian: true, Close: true}

run / sweep file:
    scenario: {...}          # or scenarios: [{...}, ...] for a suite
    rule_sets: [core]        # shipped names, or paths ending in .yaml
    architectures:
      - {kind: sensor-gna}
      - {kind: multi-zone-lna, zones: 2}
    strategies: [semantic, random]
    k: [0, 1, 2, 3, 4, 5]
    seeds: [1, 2, 3]
    advantage_k: 3           # optional; correlation summary for suites

Unknown keys are rejected at the top level of a run file, in a scenario
and in an architecture entry.

Shipped rule sets (``core``, ``extended``, ``spatial``, ``discriminative``)
resolve from the package's data directory; anything containing a path
separator or ending in .yaml is read from the filesystem.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from importlib import resources
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import yaml

from .errors import ConfigurationError, reject_repeats
from .comms import ARCHITECTURE_KINDS, Architecture
from .selection import STRATEGIES
from .logic import Hypothesis, PredicateCategory, PredicateVocabulary
from .world import ObservationConfig, RuleSet, ScenarioConfig, default_vocabulary

SHIPPED_RULE_SETS = ("core", "extended", "spatial", "discriminative")

# libyaml's safe loader where PyYAML was built with it: the same data,
# parsed several times faster than by the pure-Python loader
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

RUN_CONFIG_KEYS = frozenset({
    "scenario", "scenarios", "rule_sets", "architectures", "strategies", "k", "seeds",
    "advantage_k",
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
# Vocabulary
# ---------------------------------------------------------------------------

def vocabulary_from_config(obj: Any, source: str = "vocabulary") -> PredicateVocabulary:
    if obj is None or obj == "default":
        return default_vocabulary()
    if isinstance(obj, dict) and "predicates" in obj:
        obj = obj["predicates"]
    if not isinstance(obj, list):
        raise ConfigurationError(
            "%s: expected 'default' or a list of {name, category} entries" % source
        )
    predicates: List[Tuple[str, PredicateCategory]] = []
    for entry in obj:
        if not isinstance(entry, dict):
            raise ConfigurationError("%s: predicate entries must be mappings" % source)
        name = _require(entry, "name", source)
        raw_category = _require(entry, "category", source)
        try:
            category = PredicateCategory(raw_category)
        except ValueError:
            raise ConfigurationError(
                "%s: unknown category %r for predicate %r (choose from %s)"
                % (source, raw_category, name, ", ".join(c.value for c in PredicateCategory))
            ) from None
        predicates.append((str(name), category))
    return PredicateVocabulary(predicates=tuple(predicates))


# ---------------------------------------------------------------------------
# Rule sets
# ---------------------------------------------------------------------------

def rule_set_from_config(
    data: Mapping[str, Any], vocab: PredicateVocabulary, source: str = "rule set"
) -> RuleSet:
    name = str(_require(data, "name", source))
    priority = _require(data, "action_priority", source)
    if not isinstance(priority, list) or not all(isinstance(a, str) for a in priority):
        raise ConfigurationError("%s: action_priority must be a list of action names" % source)
    raw_hypotheses = _require(data, "hypotheses", source)
    if not isinstance(raw_hypotheses, list) or not raw_hypotheses:
        raise ConfigurationError("%s: hypotheses must be a non-empty list" % source)
    hypotheses = []
    for entry in raw_hypotheses:
        if not isinstance(entry, dict):
            raise ConfigurationError("%s: hypothesis entries must be mappings" % source)
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
                slot = vocab.slot_of(str(pred_name))
            except Exception:
                raise ConfigurationError(
                    "%s: hypothesis %d references unknown predicate %r"
                    % (source, hid, pred_name)
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


def load_rule_set(
    ref: str, vocab: PredicateVocabulary, base_dir: Optional[str] = None
) -> RuleSet:
    """Resolve a shipped rule-set name or a filesystem path."""
    if ref in SHIPPED_RULE_SETS:
        text = (
            resources.files("semcom").joinpath("data", "rules_%s.yaml" % ref).read_text()
        )
        data = _load_yaml_text(text, "shipped rule set %r" % ref)
        return rule_set_from_config(data, vocab, source="rule set %r" % ref)
    path = ref
    if base_dir is not None and not os.path.isabs(path):
        path = os.path.join(base_dir, path)
    if not (ref.endswith(".yaml") or ref.endswith(".yml") or os.sep in ref):
        raise ConfigurationError(
            "unknown rule set %r (shipped sets: %s; or give a .yaml path)"
            % (ref, ", ".join(SHIPPED_RULE_SETS))
        )
    return rule_set_from_config(load_yaml_file(path), vocab, source=path)


# ---------------------------------------------------------------------------
# Scenario
# ---------------------------------------------------------------------------

def scenario_from_config(data: Mapping[str, Any], source: str = "scenario") -> ScenarioConfig:
    if not isinstance(data, Mapping):
        raise ConfigurationError("%s: must be a mapping" % source)
    known = {
        "name", "grid", "roads", "cars", "pedestrians", "r_fov", "r_vic",
        "steps", "close_radius", "near_radius", "vocabulary",
    }
    unknown = set(data) - known
    if unknown:
        raise ConfigurationError("%s: unknown keys %s" % (source, sorted(unknown)))
    vocab = vocabulary_from_config(data.get("vocabulary"), source="%s.vocabulary" % source)
    return ScenarioConfig(
        name=str(data.get("name", "scenario")),
        grid=_as_int(_require(data, "grid", source), "grid"),
        roads=_as_int_list(_require(data, "roads", source), "roads"),
        cars=_as_int(_require(data, "cars", source), "cars"),
        pedestrians=_as_int(_require(data, "pedestrians", source), "pedestrians"),
        observation=ObservationConfig(
            r_fov=_as_int(_require(data, "r_fov", source), "r_fov"),
            r_vic=_as_int(_require(data, "r_vic", source), "r_vic"),
        ),
        steps=_as_int(_require(data, "steps", source), "steps"),
        vocabulary=vocab,
        # optional keys keep the dataclass's defaults when absent
        **{key: _as_int(data[key], key) for key in ("close_radius", "near_radius") if key in data},
    )


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    scenarios: Tuple[ScenarioConfig, ...]
    rule_sets: Tuple[RuleSet, ...]
    architectures: Tuple[Architecture, ...]
    strategies: Tuple[str, ...]
    ks: Tuple[int, ...]
    seeds: Tuple[int, ...]
    advantage_k: int = 3


def _architectures_from_config(obj: Any, source: str) -> Tuple[Architecture, ...]:
    if obj is None:
        return tuple(Architecture(kind=k) for k in ARCHITECTURE_KINDS)
    out = []
    for entry in _as_list(obj, "%s: architectures" % source):
        if not isinstance(entry, dict) or "kind" not in entry:
            raise ConfigurationError("%s: each architecture needs a 'kind'" % source)
        extra = set(entry) - {"kind", "zones"}
        if extra:
            raise ConfigurationError("%s: unknown architecture keys %s" % (source, sorted(extra)))
        zones = _as_int(entry.get("zones", Architecture.zones), "zones")
        out.append(Architecture(kind=entry["kind"], zones=zones))
    return tuple(out)


def load_run_config(
    path: str,
    seeds_override: Optional[Sequence[int]] = None,
) -> RunConfig:
    data = load_yaml_file(path)
    unknown = set(data) - RUN_CONFIG_KEYS
    if unknown:
        raise ConfigurationError("%s: unknown keys %s" % (path, sorted(map(str, unknown))))
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
    vocab = scenarios[0].vocabulary
    for s in scenarios[1:]:
        if s.vocabulary != vocab:
            raise ConfigurationError("%s: all scenarios must share one vocabulary" % path)
    rule_refs = _as_list(data.get("rule_sets", ["core"]), "%s: rule_sets" % path)
    rule_sets = tuple(load_rule_set(str(r), vocab, base_dir) for r in rule_refs)
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
        advantage_k=_as_int(data.get("advantage_k", RunConfig.advantage_k), "advantage_k"),
    )
