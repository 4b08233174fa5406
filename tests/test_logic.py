"""The language's slot order, grounding in it, and hypothesis satisfaction."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grounding_reference as ref
from satisfaction_reference import bit, care_and_value, refusal, satisfies
from semcom.config import rule_set_from_config
from semcom.errors import ConfigurationError
from semcom.logic import Hypothesis, QSentence
from semcom.world import (
    CAR,
    PEDESTRIAN,
    PREDICATES,
    T,
    AgentState,
    ScenarioConfig,
    WorldState,
    ground_entity,
    init_world,
    step,
)


# ------------------------------------------------------------------ language


def test_slots_follow_declaration_order():
    # a rule set's `when:` name fixes the slot of its index in the language
    for slot, name in enumerate(PREDICATES):
        doc = {
            "name": "one",
            "action_priority": ["Stop", "Normal"],
            "hypotheses": [{"id": 1, "action": "Stop", "when": {name: True}}],
        }
        assert rule_set_from_config(doc).hypotheses[0].fixed_slots == ((slot, 1),)


def test_default_vocabulary_is_ten_wide():
    # ten distinct names, each with a per-predicate reference evaluator
    assert T == len(PREDICATES) == len(set(PREDICATES)) == 10
    assert set(PREDICATES) == set(ref.PREDICATES)


def test_wide_vocabulary_is_supported():
    # hypotheses past the simulator's ten slots stay valid at their own width
    h = Hypothesis.from_constraints(1, {33: 1}, "Stop")
    h.validate_width(34)


# ------------------------------------------------------------------ grounding


SCENARIO = ScenarioConfig(
    name="t", grid=40, roads=(10, 30), cars=6, pedestrians=4,
    r_fov=5, r_vic=15, steps=2,
)


def still(aid, kind, pos):
    return AgentState(id=aid, kind=kind, route=(pos,), route_pos=0)


def test_grounding_follows_the_vocabulary_declaration_order():
    # bit i of a pattern is the predicate PREDICATES[i] names
    for seed in range(3):
        world = init_world(SCENARIO, seed=seed)
        world = step(world, {a.id: "Normal" for a in world.agents if a.kind == CAR})
        for ego in world.agents:
            for ent in world.agents:
                if ent.id == ego.id:
                    continue
                q = ground_entity(world, ego, ent)
                assert 0 <= q < 1 << T
                for slot, name in enumerate(PREDICATES):
                    assert bit(q, slot) == int(ref.PREDICATES[name](world, ego, ent))


def test_grounding_is_functional():
    def scene():
        return WorldState(
            grid=40,
            agents=(still(0, CAR, (10, 10)), still(1, PEDESTRIAN, (11, 10))),
            intersections=frozenset(),
        )

    a, b = scene(), scene()
    assert ground_entity(a, a.agents[0], a.agents[1]) == ground_entity(
        b, b.agents[0], b.agents[1]
    )


def test_three_entity_scene_grounds_to_hand_checked_patterns():
    # ego observes three entities; every agent stands still on a one-cell
    # route, so all headings are (0, 0): none is ahead, left or facing,
    # all share a heading, and each counts as moving (the default)
    ego = still(0, CAR, (10, 10))
    scene = WorldState(
        grid=40,
        agents=(
            ego,
            still(101, PEDESTRIAN, (11, 10)),   # pedestrian, d = 1
            still(102, CAR, (12, 12)),          # car, d = 2
            still(103, CAR, (20, 10)),          # car, d = 10
        ),
        intersections=frozenset(),
    )
    patterns = [ground_entity(scene, ego, ent) for ent in scene.agents[1:]]
    # bits 9..0: SameHeading Facing LeftOf AheadOf Near Close IsMoving
    # InIntersection IsCar IsPedestrian
    assert patterns == [0b1000111001, 0b1000111010, 0b1000001010]


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


@pytest.mark.parametrize(
    "fixed, message",
    [
        # a repeated negative slot is refused as a repeat
        (((-1, 0), (-1, 1)), "duplicate slot in hypothesis 1: -1"),
        # a repeat beside a bad value, on either side of it in slot order
        (((2, 5), (0, 1), (0, 1)), "duplicate slot in hypothesis 1: 0"),
        (((0, 7), (3, 1), (3, 0)), "duplicate slot in hypothesis 1: 3"),
        # every repeated slot is named, in slot order
        (((5, 0), (2, 1), (5, 1), (2, 0), (-3, 9)), "duplicate slot in hypothesis 1: 2, 5"),
        # a negative slot and a bad value after it: one refusal for both
        (((4, 1), (-2, 1), (1, 2)), "hypothesis 1 has an invalid (slot, value) pair"),
    ],
)
def test_hypothesis_with_two_faults_keeps_the_first_refusal(fixed, message):
    assert refusal(1, fixed) == message
    with pytest.raises(ConfigurationError) as refused:
        Hypothesis(1, fixed, "Stop")
    assert str(refused.value) == message


@given(st.lists(st.tuples(st.integers(-2, 6), st.integers(-1, 2)), max_size=6))
@settings(max_examples=300)
def test_hypothesis_refuses_as_the_reference_does(fixed):
    message = refusal(7, fixed)
    if message is None:
        Hypothesis(7, tuple(fixed), "Stop")
    else:
        with pytest.raises(ConfigurationError) as refused:
            Hypothesis(7, tuple(fixed), "Stop")
        assert str(refused.value) == message


@given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 1)), min_size=1,
                unique_by=lambda pair: pair[0]))
@settings(max_examples=200)
def test_hypothesis_masks_match_the_reference_on_unsorted_slots(fixed):
    h = Hypothesis(3, tuple(fixed), "Stop")
    assert (h.care, h.value) == care_and_value(fixed)
    assert h.fixed_slots == tuple(sorted(fixed))
    assert h == Hypothesis.from_constraints(3, dict(fixed), "Stop")


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
