"""Enumeration oracle and closed forms, pinned to hand-derived rationals.

The brute-force counts here are small enough to check by hand: at width T
there are 2**T patterns, 2**(2**T) attributive-constituent masks, and one
constituent per non-empty subset of realized masks, so width 2 tops out at
65536 constituents.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semcom.errors import ConfigurationError, FeasibilityError
from semcom.logic import MAX_ENGINE_T, Hypothesis, QSentence
from semcom.oracle import (
    ClosedFormParams,
    closed_form_confirmation,
    closed_form_evidence_probability,
    closed_form_objective,
    closed_form_table,
    compatible_count,
    conditional_semantic_entropy,
    degree_of_confirmation,
    evidence_probability,
    exact_objective_compare,
    hypothesis_probability,
    joint_compatible_count,
    semantic_entropy,
    semantic_mutual_information,
    total_constituents,
)


def qset(bits_list, T):
    return frozenset(QSentence(bits=b, width=T) for b in bits_list)


def hyp_region(fixed, T):
    """All patterns compatible with the given slot constraints."""
    return Hypothesis.from_constraints(0, fixed, "Stop").compatible_qs(T)


# ------------------------------------------------------------- counting


def test_no_evidence_leaves_every_nonempty_constituent():
    assert compatible_count(qset([], 2), 2) == 65535
    assert total_constituents(2) == 1 << 16


def test_every_pattern_observed_halves_constituent_space():
    count = compatible_count(qset([0, 1, 2, 3], 2), 2)
    assert count == 2 ** 15
    assert evidence_probability(qset([0, 1, 2, 3], 2), 2) == Fraction(1, 2)


def test_single_observation_at_width_one():
    assert evidence_probability(qset([1], 1), 1) == Fraction(3, 4)


def test_evidence_probability_of_nothing():
    assert evidence_probability(qset([], 2), 2) == Fraction(65535, 65536)


def test_enumeration_refuses_wide_vocabularies():
    with pytest.raises(FeasibilityError):
        compatible_count(qset([0], 3), 3)


def test_both_exact_paths_refuse_evidence_of_another_width():
    evidence = [QSentence(6, 3)]
    hypothesis = Hypothesis.from_constraints(0, {0: 1}, "Stop")
    message = "Q-sentence width 3 does not match T=2"
    with pytest.raises(ConfigurationError, match=message):
        evidence_probability(evidence, 2)
    with pytest.raises(ConfigurationError, match=message):
        ClosedFormParams.from_subset(evidence, [hypothesis], 2)


# --------------------------------------------------------- confirmation


def test_overlapping_hypothesis_is_certain():
    # observed pattern 0b11 satisfies the hypothesis region
    hyp = hyp_region({0: 1}, 2)
    assert degree_of_confirmation(hyp, qset([0b11], 2), 2) == 1


def test_tautology_is_certain_given_any_observation():
    everything = qset(range(4), 2)
    assert degree_of_confirmation(everything, qset([0b10], 2), 2) == 1


def test_disjoint_hypothesis_confirmation_value():
    # one observation, hypothesis fixes one slot, regions disjoint
    hyp = hyp_region({1: 1}, 2)  # patterns {10, 11}
    ev = qset([0b00], 2)
    assert degree_of_confirmation(hyp, ev, 2) == Fraction(252, 255)


def test_confirmation_from_counts():
    hyp = hyp_region({1: 1}, 2)
    ev = qset([0b00], 2)
    joint = joint_compatible_count(hyp, ev, 2)
    assert Fraction(joint, compatible_count(ev, 2)) == Fraction(252, 255)


# ------------------------------------------------------- closed forms


def params_for(ev_bits, hyp_fixed_list, T):
    hyps = [
        Hypothesis.from_constraints(i + 1, fixed, "Stop")
        for i, fixed in enumerate(hyp_fixed_list)
    ]
    return ClosedFormParams.from_subset(qset(ev_bits, T), hyps, T)


def test_closed_form_matches_enumeration_everywhere_at_width_two():
    # every evidence subset against every hypothesis shape
    hyp_shapes = [
        {0: 0}, {0: 1}, {1: 0}, {1: 1},
        {0: 0, 1: 0}, {0: 0, 1: 1}, {0: 1, 1: 0}, {0: 1, 1: 1},
    ]
    for k in range(5):
        for ev_bits in itertools.combinations(range(4), k):
            ev = qset(ev_bits, 2)
            params = params_for(ev_bits, hyp_shapes, 2)
            assert closed_form_evidence_probability(params) == evidence_probability(ev, 2)
            for hp, fixed in zip(params.hypotheses, hyp_shapes):
                enum_c = degree_of_confirmation(hyp_region(fixed, 2), ev, 2)
                assert closed_form_confirmation(params, hp) == enum_c


def test_objective_value_single_disjoint_hypothesis():
    params = params_for([0b00], [{1: 1}], 2)
    assert closed_form_objective(params) == Fraction(189, 16320)


def test_objective_is_expected_content_weighted_by_evidence():
    # F term per hypothesis equals c(phi|e) * (1 - c(phi|e)) * c(e)
    params = params_for([0b00], [{1: 1}], 2)
    c = Fraction(252, 255)
    ce = Fraction(255, 256)
    assert closed_form_objective(params) == c * (1 - c) * ce


def test_identical_hypotheses_double_the_objective():
    one = params_for([0b00], [{1: 1}], 2)
    two = params_for([0b00], [{1: 1}, {1: 1}], 2)
    assert closed_form_objective(two) == 2 * closed_form_objective(one)


def test_overlapping_hypothesis_contributes_nothing():
    base = params_for([0b01], [{1: 1}], 2)
    with_overlap = params_for([0b01], [{1: 1}, {0: 1}], 2)
    assert closed_form_objective(with_overlap) == closed_form_objective(base)


def test_closed_form_rejects_oversized_exponents():
    # width 5 puts 2**31 bits in play, far past the default budget; at the
    # widest engine width alpha itself would be a 2**62-bit integer, so
    # the refusal must come before alpha is built
    for T in (5, MAX_ENGINE_T):
        params = params_for([0], [{0: 1}], T)
        with pytest.raises(FeasibilityError):
            closed_form_objective(params)
        with pytest.raises(FeasibilityError):
            closed_form_evidence_probability(params)
        with pytest.raises(FeasibilityError):
            closed_form_confirmation(params, params.hypotheses[0])
    # the budget bounds alpha for c(e) and c(phi|e) and 2*alpha for F:
    # here alpha = 2**(Q-K) = 8 exactly
    params = params_for([0], [{0: 1}], 2)
    assert closed_form_evidence_probability(params, bit_budget=8) == Fraction(255, 256)
    assert closed_form_confirmation(params, params.hypotheses[0], bit_budget=8) > 0
    assert closed_form_objective(params, bit_budget=16) > 0
    for refused in (
        lambda: closed_form_evidence_probability(params, bit_budget=7),
        lambda: closed_form_confirmation(params, params.hypotheses[0], bit_budget=7),
        lambda: closed_form_objective(params, bit_budget=15),
        lambda: closed_form_evidence_probability(params, bit_budget=0),
    ):
        with pytest.raises(FeasibilityError):
            refused()


@given(st.integers(min_value=0, max_value=3), st.data())
@settings(max_examples=200)
def test_adding_evidence_never_raises_its_probability(k, data):
    bits = data.draw(st.lists(st.integers(0, 3), min_size=k, max_size=k, unique=True))
    extra = data.draw(st.integers(0, 3))
    base = evidence_probability(qset(bits, 2), 2)
    grown = evidence_probability(qset(bits + [extra], 2), 2)
    assert grown <= base


# ------------------------------------------------- entropy and information


def test_certain_hypothesis_has_no_conditional_surprise():
    phi = [hyp_region({0: 1}, 2)]
    ev = qset([0b01], 2)  # satisfies the hypothesis
    assert conditional_semantic_entropy(phi, ev, 2) == 0
    assert semantic_mutual_information(phi, ev, 2) == semantic_entropy(phi, 2)


def test_information_identity_on_random_cases():
    rng = random.Random(12)
    for _ in range(25):
        n_hyp = rng.randint(1, 4)
        phi = []
        for _ in range(n_hyp):
            z = rng.randint(1, 2)
            slots = rng.sample([0, 1], z)
            phi.append(hyp_region({s: rng.randint(0, 1) for s in slots}, 2))
        ev = qset(rng.sample(range(4), rng.randint(1, 3)), 2)
        lhs = semantic_mutual_information(phi, ev, 2)
        rhs = semantic_entropy(phi, 2) - conditional_semantic_entropy(phi, ev, 2)
        assert lhs == rhs


def test_hypothesis_probability_matches_joint_with_empty_evidence():
    hyp = hyp_region({1: 1}, 2)
    whole = total_constituents(2)
    assert hypothesis_probability(hyp, 2) == Fraction(
        joint_compatible_count(hyp, qset([], 2), 2), whole
    )


# ------------------------------------------------ asymptotics and comparison


def gamma_min(p):
    """Exponent of the dominant objective term 2**(-gamma_min)."""
    return min(p.gamma(hp) for hp in p.nonoverlapping())


def test_dominant_term_prefers_more_evidence():
    small_k = params_for([0], [{2: 1}], 3)
    big_k = params_for([0, 1, 2], [{2: 1}], 3)
    assert gamma_min(small_k) > gamma_min(big_k)


def test_dominant_term_prefers_vaguer_hypotheses():
    vague = params_for([0], [{2: 1}], 3)
    sharp = params_for([0], [{0: 1, 1: 1, 2: 1}], 3)
    assert gamma_min(vague) > gamma_min(sharp)


def test_gamma_min_hand_value():
    p = params_for([0], [{2: 1}], 3)
    # K = 1, H_min = 2**(3-1) = 4: 2**(8-1) - 2**(8-1-4)
    assert gamma_min(p) == 120


def test_all_overlap_flag():
    p = params_for([0b111], [{0: 1}], 3)
    assert p.nonoverlapping() == ()


def _random_params(rng, T):
    Q = 1 << T
    k = rng.randint(1, min(3, Q - 1))
    ev = rng.sample(range(Q), k)
    hyps = []
    for i in range(rng.randint(1, 4)):
        z = rng.randint(1, T)
        slots = rng.sample(range(T), z)
        hyps.append({s: rng.randint(0, 1) for s in slots})
    return params_for(ev, hyps, T)


def test_exact_compare_agrees_with_rational_arithmetic():
    # width 3 keeps the exponents small enough for Fraction arithmetic
    rng = random.Random(4)
    budget = 1 << 12
    for _ in range(300):
        a = _random_params(rng, 3)
        b = _random_params(rng, 3)
        fa = closed_form_objective(a, bit_budget=budget)
        fb = closed_form_objective(b, bit_budget=budget)
        expected = (fa > fb) - (fa < fb)
        assert exact_objective_compare(a, b) == expected


def test_exact_compare_handles_budget_breaking_widths():
    # these objectives cannot be materialized, yet the sign is computable
    a = params_for([0], [{0: 1}], 5)
    b = params_for([0, 1], [{0: 1}], 5)
    assert exact_objective_compare(a, a) == 0
    assert exact_objective_compare(a, b) in (-1, 1)


# -------------------------------------------------------------- table rows


def test_table_row_values_for_single_observation():
    rows = closed_form_table(2, [1], [1, 2])
    by_z = {row["Z"]: row for row in rows}
    row = by_z["1"]
    assert row["overlap"] == "0"
    assert Fraction(row["c_e"]) == Fraction(255, 256)
    assert Fraction(row["c_phi_given_e"]) == Fraction(252, 255)
    assert Fraction(row["F_term"]) == Fraction(189, 16320)


def test_table_marks_unavoidable_overlap():
    # with every pattern observed, any hypothesis region is witnessed
    rows = closed_form_table(2, [4], [1])
    assert rows[0]["overlap"] == "1"
    assert Fraction(rows[0]["c_phi_given_e"]) == 1
    assert Fraction(rows[0]["F_term"]) == 0


def test_table_defaults_to_every_k_and_z_with_z_fastest():
    rows = closed_form_table(2)
    assert [(row["K"], row["Z"]) for row in rows] == [
        (str(k), str(z)) for k in range(5) for z in (1, 2)
    ]
    assert closed_form_table(2, [1], [1, 2]) == rows[2:4]


def test_table_checks_t_and_every_z_before_any_row():
    with pytest.raises(ConfigurationError):
        closed_form_table(0, [0], [])
    with pytest.raises(ConfigurationError):
        closed_form_table(-1, [0], [1])
    # Z = 3 > T would be a negative shift; Z = 0 is checked as early
    with pytest.raises(ConfigurationError):
        closed_form_table(2, [1], [1, 3])
    with pytest.raises(ConfigurationError):
        closed_form_table(2, [1], [0])
    # a repeated value would print its rows twice
    with pytest.raises(ConfigurationError, match="duplicate K value: 2"):
        closed_form_table(2, [2, 0, 2], [1])
    with pytest.raises(ConfigurationError, match="duplicate Z value: 1"):
        closed_form_table(2, [0], [1, 2, 1])
