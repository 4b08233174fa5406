"""Vocabularies, grounding in vocabulary order, and hypothesis satisfaction."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grounding_reference import PREDICATES, vocabulary_of
from satisfaction_reference import bit, satisfies
from semcom.errors import ConfigurationError
from semcom.logic import (
    Hypothesis,
    MAX_ENGINE_T,
    PredicateCategory,
    PredicateVocabulary,
    QSentence,
)
from semcom.world import (
    CAR,
    DEFAULT_PREDICATE_ORDER,
    PEDESTRIAN,
    AgentState,
    ObservationConfig,
    ScenarioConfig,
    WorldState,
    default_vocabulary,
    ground_entity,
    init_world,
    step,
)

MON = PredicateCategory.MONADIC
EGO_ENT = PredicateCategory.EGO_ENTITY
ENT_EGO = PredicateCategory.ENTITY_EGO


def two_slot_vocab():
    return PredicateVocabulary(predicates=(("Hot", MON), ("Behind", EGO_ENT)))


# ---------------------------------------------------------------- vocabulary


def test_slots_follow_declaration_order():
    vocab = PredicateVocabulary(
        predicates=(("A", MON), ("B", EGO_ENT), ("C", ENT_EGO))
    )
    assert vocab.T == 3
    assert [vocab.slot_of(n) for n in "ABC"] == [0, 1, 2]


def test_default_vocabulary_is_ten_wide():
    vocab = default_vocabulary()
    assert vocab.T == 10
    assert tuple(name for name, _ in vocab.predicates) == DEFAULT_PREDICATE_ORDER


def test_wide_vocabulary_is_supported():
    # widths well past the shipped ten slots must still ground and key
    preds = tuple(("P%d" % i, MON) for i in range(34))
    vocab = PredicateVocabulary(predicates=preds)
    assert vocab.T == 34
    h = Hypothesis.from_constraints(1, {33: 1}, "Stop")
    h.validate_width(34)


def test_vocabulary_rejects_empty():
    with pytest.raises(ConfigurationError):
        PredicateVocabulary(predicates=())


def test_vocabulary_rejects_duplicate_names():
    with pytest.raises(ConfigurationError, match="duplicate"):
        PredicateVocabulary(predicates=(("A", MON), ("A", EGO_ENT)))


def test_vocabulary_rejects_widths_past_engine_bound():
    preds = tuple(("P%d" % i, MON) for i in range(MAX_ENGINE_T + 1))
    with pytest.raises(ConfigurationError):
        PredicateVocabulary(predicates=preds)


def test_slot_lookup_unknown_name():
    with pytest.raises(ConfigurationError):
        two_slot_vocab().slot_of("Cold")


# ------------------------------------------------------------------ grounding


def scenario_with(vocab):
    return ScenarioConfig(
        name="t", grid=40, roads=(10, 30), cars=6, pedestrians=4,
        observation=ObservationConfig(r_fov=5, r_vic=15), steps=2,
        vocabulary=vocab,
    )


def still(aid, kind, pos):
    return AgentState(id=aid, kind=kind, route=(pos,), route_pos=0)


def test_grounding_follows_the_vocabulary_declaration_order():
    default = default_vocabulary()
    reversed_vocab = vocabulary_of(tuple(reversed(DEFAULT_PREDICATE_ORDER)))
    subset = vocabulary_of(("Near", "IsPedestrian", "AheadOf"))
    for seed in range(3):
        world = init_world(scenario_with(default), seed=seed)
        world = step(world, {a.id: "Normal" for a in world.agents if a.kind == CAR})
        for ego in world.agents:
            for ent in world.agents:
                if ent.id == ego.id:
                    continue
                for vocab in (reversed_vocab, subset):
                    cfg = scenario_with(vocab)
                    q = ground_entity(world, ego, ent, cfg)
                    assert 0 <= q < 1 << vocab.T
                    for name, _ in vocab.predicates:
                        truth = PREDICATES[name](world, ego, ent, cfg)
                        assert bit(q, vocab.slot_of(name)) == int(truth)
                # slot i of the default order is slot T-1-i reversed
                q_default = ground_entity(world, ego, ent, scenario_with(default))
                q_reversed = ground_entity(world, ego, ent, scenario_with(reversed_vocab))
                assert format(q_reversed, "010b") == format(q_default, "010b")[::-1]


def test_grounding_is_functional():
    def scene():
        return WorldState(
            grid=40,
            agents=(still(0, CAR, (10, 10)), still(1, PEDESTRIAN, (11, 10))),
            intersections=frozenset(),
        )

    cfg = scenario_with(default_vocabulary())
    a, b = scene(), scene()
    assert ground_entity(a, a.agents[0], a.agents[1], cfg) == ground_entity(
        b, b.agents[0], b.agents[1], cfg
    )


def test_three_entity_scene_grounds_to_hand_checked_patterns():
    # ego observes three entities under a two-slot (IsPedestrian, Close)
    # vocabulary; close_radius is 2
    ego = still(0, CAR, (10, 10))
    scene = WorldState(
        grid=40,
        agents=(
            ego,
            still(101, PEDESTRIAN, (11, 10)),   # pedestrian, close
            still(102, CAR, (12, 12)),          # car, close
            still(103, CAR, (20, 10)),          # car, far
        ),
        intersections=frozenset(),
    )
    cfg = scenario_with(vocabulary_of(("IsPedestrian", "Close")))
    patterns = [ground_entity(scene, ego, ent, cfg) for ent in scene.agents[1:]]
    assert patterns == [0b11, 0b10, 0b00]


# ----------------------------------------------------------------- Q-sentences


def test_q_sentence_width_must_be_positive():
    with pytest.raises(ConfigurationError):
        QSentence(bits=0, width=0)


def test_q_sentence_bits_must_fit_width():
    with pytest.raises(ConfigurationError):
        QSentence(bits=4, width=2)
    with pytest.raises(ConfigurationError):
        QSentence(bits=-1, width=2)


def test_q_sentence_renders_fixed_width():
    assert str(QSentence(bits=0b10, width=4)) == "0010"


# ----------------------------------------------------------------- hypotheses


def test_hypothesis_needs_at_least_one_fixed_slot():
    with pytest.raises(ConfigurationError):
        Hypothesis.from_constraints(1, {}, "Stop")


def test_hypothesis_rejects_bad_slot_values():
    with pytest.raises(ConfigurationError):
        Hypothesis.from_constraints(1, {0: 2}, "Stop")
    with pytest.raises(ConfigurationError):
        Hypothesis.from_constraints(1, {-1: 1}, "Stop")


def test_hypothesis_width_validation():
    h = Hypothesis.from_constraints(3, {0: 1, 3: 0}, "Slow")
    h.validate_width(4)
    with pytest.raises(ConfigurationError):
        h.validate_width(2)


def test_compatible_pattern_count_is_two_to_unfixed_slots():
    h = Hypothesis.from_constraints(3, {0: 1, 3: 0}, "Slow")
    assert h.Z == 2
    assert h.specificity_exponent(4) == 2
    assert sorted(q.bits for q in h.compatible_qs(4)) == [0b0001, 0b0011, 0b0101, 0b0111]


def test_satisfaction_exhaustive_at_width_two():
    # every hypothesis shape against every pattern, checked against a
    # direct bit comparison
    for z, slots in [(1, [(0,), (1,)]), (2, [(0, 1)])]:
        for chosen in slots:
            for bits_choice in itertools.product((0, 1), repeat=z):
                h = Hypothesis.from_constraints(
                    9, dict(zip(chosen, bits_choice)), "Stop"
                )
                for pattern in range(4):
                    expected = all(
                        (pattern >> s) & 1 == b for s, b in zip(chosen, bits_choice)
                    )
                    assert h.satisfied_by(pattern) is expected
                    assert satisfies(pattern, h) is expected


@st.composite
def hypothesis_and_satisfier(draw):
    T = draw(st.integers(min_value=2, max_value=8))
    z = draw(st.integers(min_value=2, max_value=T))
    slots = draw(
        st.lists(
            st.integers(min_value=0, max_value=T - 1),
            min_size=z,
            max_size=z,
            unique=True,
        )
    )
    fixed = {s: draw(st.integers(min_value=0, max_value=1)) for s in slots}
    bits = 0
    for s in range(T):
        bits |= (fixed.get(s, draw(st.integers(min_value=0, max_value=1))) << s)
    return T, fixed, bits


@given(hypothesis_and_satisfier())
@settings(max_examples=200)
def test_dropping_a_constraint_never_unsatisfies(case):
    T, fixed, q = case
    full = Hypothesis.from_constraints(1, fixed, "Stop")
    assert full.satisfied_by(q)
    for drop in fixed:
        weaker = {s: b for s, b in fixed.items() if s != drop}
        assert Hypothesis.from_constraints(2, weaker, "Stop").satisfied_by(q)
