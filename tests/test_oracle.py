"""Enumeration oracle and closed forms, pinned to hand-derived rationals.

The brute-force counts here are small enough to check by hand: at width T
there are 2**T patterns, 2**(2**T) attributive-constituent masks, and one
constituent per non-empty subset of realized masks, so width 2 tops out at
65536 constituents.
"""

import itertools
import random
from fractions import Fraction

import oracle_reference as reference
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semcom import oracle
from semcom.errors import ConfigurationError, FeasibilityError
from semcom.logic import Hypothesis, QSentence
from semcom.oracle import (
    ClosedFormParams,
    HypothesisParams,
    closed_form_confirmation,
    closed_form_evidence_probability,
    closed_form_objective,
    closed_form_table,
    compatible_count,
    conditional_semantic_entropy,
    degree_of_confirmation,
    evidence_probability,
    exact_objective_compare,
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
    # width 5 puts 2**31 bits in play, far past the default budget; at
    # width 62 alpha itself would be a 2**62-bit integer, so the refusal
    # must come before alpha is built
    for T in (5, 62):
        params = params_for([0], [{0: 1}], T)
        with pytest.raises(FeasibilityError):
            closed_form_objective(params)
        with pytest.raises(FeasibilityError):
            closed_form_evidence_probability(params)
        with pytest.raises(FeasibilityError):
            closed_form_confirmation(params, params.hypotheses[0])
    # the 2**20-bit budget bounds alpha = 2**(Q-K) for c(e) and c(phi|e)
    # and 2*alpha for F: at width 5 (Q = 32), K = 12 gives alpha = 2**20
    # exactly and K = 11 one bit more, so F is refused at K = 12 too
    hp = HypothesisParams(z=1, overlaps=False)
    k11, k12 = (ClosedFormParams(T=5, K=K, hypotheses=(hp,)) for K in (11, 12))
    assert closed_form_evidence_probability(k12) == 1 - Fraction(1, 1 << (1 << 20))
    assert 0 < closed_form_confirmation(k12, hp) < 1
    for refused in (
        lambda: closed_form_evidence_probability(k11),
        lambda: closed_form_confirmation(k11, hp),
        lambda: closed_form_objective(k12),
    ):
        with pytest.raises(FeasibilityError, match="over the 1048576-bit budget"):
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
    # I_s is H_s(Phi) - H_s(Phi | e) by definition; with F from the closed
    # form in place of H_s(Phi | e) the identity checks both paths.  One-shot
    # iterables must give the same value: both entropy sums read every Q-set
    rng = random.Random(12)
    for _ in range(25):
        n_hyp = rng.randint(1, 4)
        hyps = []
        for _ in range(n_hyp):
            z = rng.randint(1, 2)
            slots = rng.sample([0, 1], z)
            fixed = {s: rng.randint(0, 1) for s in slots}
            hyps.append(Hypothesis.from_constraints(0, fixed, "Stop"))
        ev = qset(rng.sample(range(4), rng.randint(1, 3)), 2)
        phi = [h.compatible_qs(2) for h in hyps]
        f = closed_form_objective(ClosedFormParams.from_subset(ev, hyps, 2))
        expected = semantic_entropy(phi, 2) - f
        assert semantic_mutual_information(phi, ev, 2) == expected
        once = (iter(qs) for qs in phi)
        assert semantic_mutual_information(once, iter(ev), 2) == expected


def test_entropy_of_one_hypothesis_is_its_probability_times_its_content():
    hyp = hyp_region({1: 1}, 2)
    c = Fraction(joint_compatible_count(hyp, (), 2), total_constituents(2))
    assert semantic_entropy([hyp], 2) == c * (1 - c)


@pytest.mark.parametrize("T, error", [(3, FeasibilityError), (0, ConfigurationError)])
def test_both_entropies_check_t_with_no_hypotheses(T, error):
    with pytest.raises(error):
        semantic_entropy([], T)
    with pytest.raises(error):
        conditional_semantic_entropy([], (), T)


# ------------------------------------------- one fraction vs term by term


def constraint_shapes(T):
    """Every slot-constraint dict with at least one slot fixed."""
    shapes = []
    for z in range(1, T + 1):
        for slots in itertools.combinations(range(T), z):
            for values in itertools.product((0, 1), repeat=z):
                shapes.append(dict(zip(slots, values)))
    return shapes


@pytest.mark.parametrize("T", [1, 2])
def test_entropies_equal_their_term_by_term_definitions(T):
    regions = [hyp_region(fixed, T) for fixed in constraint_shapes(T)]
    evidence_sets = [
        qset(bits, T)
        for k in range((1 << T) + 1)
        for bits in itertools.combinations(range(1 << T), k)
    ]
    for n in (1, 2, 3):
        for phi in itertools.combinations(regions, n):
            h = semantic_entropy(phi, T)
            assert h == reference.semantic_entropy(phi, T)
            for ev in evidence_sets:
                h_e = conditional_semantic_entropy(phi, ev, T)
                assert h_e == reference.conditional_semantic_entropy(phi, ev, T), (phi, ev)
                gain = semantic_mutual_information(phi, ev, T)
                assert gain == h - h_e == reference.mutual_information(phi, ev, T)


def admissible_hypotheses(T, K):
    """Every (Z, overlap flag) a hypothesis can take beside K distinct patterns."""
    Q = 1 << T
    return [
        HypothesisParams(z=z, overlaps=overlaps)
        for z in range(1, T + 1)
        for overlaps in (True, False)
        if overlaps or K + (1 << (T - z)) <= Q
    ]


def hypothesis_sets(T, K):
    """Every multiset of up to 3 admissible hypotheses, except where F's
    denominator passes 2**15 bits (width 4, K < 2): there a reference sum
    costs tens of ms, so every single hypothesis and two sets of three,
    one of distinct Z and one repeating Z beside a witnessed hypothesis."""
    choices = admissible_hypotheses(T, K)
    if (1 << T) - K <= 14:
        return [
            hyps for n in range(4) for hyps in itertools.combinations_with_replacement(choices, n)
        ]
    free = [HypothesisParams(z=z, overlaps=False) for z in (1, 2, T)]
    repeated = [free[1], free[1], HypothesisParams(z=1, overlaps=True)]
    return [()] + [(hp,) for hp in choices] + [tuple(free), tuple(repeated)]


@pytest.mark.parametrize("T", [1, 2, 3, 4])
def test_closed_forms_equal_their_term_by_term_definitions(T):
    for K in range((1 << T) + 1):
        params = ClosedFormParams(T=T, K=K, hypotheses=())
        assert closed_form_evidence_probability(params) == reference.evidence_probability(params)
        for hp in admissible_hypotheses(T, K):
            assert closed_form_confirmation(params, hp) == reference.confirmation(params, hp)
        for hyps in hypothesis_sets(T, K):
            params = ClosedFormParams(T=T, K=K, hypotheses=hyps)
            assert closed_form_objective(params) == reference.objective(params), params


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
    for _ in range(300):
        a = _random_params(rng, 3)
        b = _random_params(rng, 3)
        fa = closed_form_objective(a)
        fb = closed_form_objective(b)
        expected = (fa > fb) - (fa < fb)
        assert exact_objective_compare(a, b) == expected


def test_exact_compare_handles_budget_breaking_widths():
    # these objectives cannot be materialized, yet the sign is computable
    a = params_for([0], [{0: 1}], 5)
    b = params_for([0, 1], [{0: 1}], 5)
    assert exact_objective_compare(a, a) == 0
    assert exact_objective_compare(a, b) in (-1, 1)


def _closed_form_cases(rng, T):
    """Params at width T: K = 0, 1, Q/2, Q - 1 and Q, random shapes, plus
    same-Z pairs, witnessed and empty hypothesis sets (F = 0 at any K), and
    for every case an equal but distinct copy."""
    Q = 1 << T
    cases = []
    for K in sorted({0, 1, Q // 2, Q - 1, Q}):
        for _ in range(3):
            hyps = []
            for _ in range(rng.randint(1, 3)):
                z = rng.randint(1, T)
                fits = K + (1 << (T - z)) <= Q
                hyps.append(HypothesisParams(z=z, overlaps=not fits or rng.random() < 0.3))
            cases.append(ClosedFormParams(T=T, K=K, hypotheses=tuple(hyps)))
    for K, z in ((0, 1), (0, T), (Q - 1, T)):
        same = (HypothesisParams(z=z, overlaps=False),) * 2
        cases.append(ClosedFormParams(T=T, K=K, hypotheses=same))
    witnessed = (HypothesisParams(z=1, overlaps=True), HypothesisParams(z=T, overlaps=True))
    for K in (0, 1, Q):
        cases.append(ClosedFormParams(T=T, K=K, hypotheses=witnessed))
        cases.append(ClosedFormParams(T=T, K=K, hypotheses=()))
    copies = [ClosedFormParams(T=p.T, K=p.K, hypotheses=p.hypotheses) for p in cases]
    assert all(c == p and c is not p for c, p in zip(copies, cases))
    return cases + copies


@pytest.mark.parametrize("T", [1, 2, 3, 4])
def test_exact_compare_agrees_with_rational_arithmetic_at_every_small_width(T):
    # F's denominators take up to 2**(Q - K + 1) bits: 2**17 at width 4, K = 0
    cases = _closed_form_cases(random.Random(T), T)
    values = [closed_form_objective(p) for p in cases]
    distinct = sorted(set(values))
    rank = [distinct.index(v) for v in values]
    assert values.count(0) >= 12  # witnessed and empty sets tie at F = 0 across K
    for i, a in enumerate(cases):
        for j, b in enumerate(cases):
            expected = (rank[i] > rank[j]) - (rank[i] < rank[j])
            assert exact_objective_compare(a, b) == expected, (a, b)


@pytest.mark.parametrize("T", [5, 10])
def test_exact_compare_is_a_total_preorder_past_the_rational_route(T):
    cases = _closed_form_cases(random.Random(T), T)
    n = len(cases)
    sign = [[exact_objective_compare(a, b) for b in cases] for a in cases]
    half = n // 2  # cases[half + i] is an equal but distinct copy of cases[i]
    for i in range(n):
        assert sign[i][i] == 0
        assert sign[i][(i + half) % n] == 0
        for j in range(n):
            assert sign[i][j] == -sign[j][i]
    flat = [s for row in sign for s in row]
    assert {-1, 0, 1} <= set(flat)
    rng = random.Random(T)
    for _ in range(3000):
        i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        if sign[i][j] >= 0 and sign[j][k] >= 0:
            assert sign[i][k] == (0 if sign[i][j] == sign[j][k] == 0 else 1)


@pytest.mark.parametrize("T, z", [(5, 1), (5, 5), (10, 1), (10, 10), (16, 1), (16, 16)])
def test_one_unwitnessed_hypothesis_ranks_k_one_below_k_two(T, z):
    # gamma = 2**(Q-K) - 2**(Q-K-H) shrinks as K grows, so u = 2**-gamma and F grow
    hyp = (HypothesisParams(z=z, overlaps=False),)
    one = ClosedFormParams(T=T, K=1, hypotheses=hyp)
    two = ClosedFormParams(T=T, K=2, hypotheses=hyp)
    assert exact_objective_compare(one, two) == -1
    assert exact_objective_compare(two, one) == 1


def test_exact_compare_refuses_exponents_over_the_bit_budget():
    hyp = (HypothesisParams(z=1, overlaps=False),)
    wide = ClosedFormParams(T=62, K=0, hypotheses=hyp)
    narrow = ClosedFormParams(T=62, K=1 << 62, hypotheses=())
    for a, b in ((wide, wide), (wide, narrow), (narrow, wide)):
        with pytest.raises(FeasibilityError, match="bit budget"):
            exact_objective_compare(a, b)
    # at width 20 the exponents have Q - K + 2 bits: K = 2 fills the
    # 2**20-bit budget exactly and K = 1 goes one bit over
    k1, k2, k3 = (ClosedFormParams(T=20, K=K, hypotheses=hyp) for K in (1, 2, 3))
    assert exact_objective_compare(k2, k3) == -1
    with pytest.raises(FeasibilityError, match="bit budget"):
        exact_objective_compare(k1, k3)


# -------------------------------------------------------------- table rows


def test_table_row_values_for_single_observation():
    # K = 1 holds rows 2 and 3 of the T = 2 table, Z = 1 first
    row = closed_form_table(2)[2]
    assert (row["K"], row["Z"]) == ("1", "1")
    assert row["overlap"] == "0"
    assert Fraction(row["c_e"]) == Fraction(255, 256)
    assert Fraction(row["c_phi_given_e"]) == Fraction(252, 255)
    assert Fraction(row["F_term"]) == Fraction(189, 16320)


def test_table_marks_unavoidable_overlap():
    # with every pattern observed, any hypothesis region is witnessed
    for row in closed_form_table(2)[8:]:
        assert row["K"] == "4"
        assert row["overlap"] == "1"
        assert Fraction(row["c_phi_given_e"]) == 1
        assert Fraction(row["F_term"]) == 0


def test_table_defaults_to_every_k_and_z_with_z_fastest():
    rows = closed_form_table(2)
    assert [(row["K"], row["Z"]) for row in rows] == [
        (str(k), str(z)) for k in range(5) for z in (1, 2)
    ]
    assert [(row["K"], row["Z"]) for row in closed_form_table(1)] == [
        ("0", "1"), ("1", "1"), ("2", "1")
    ]


def test_table_row_f_term_is_checked_against_conditional_entropy(monkeypatch):
    # the T <= 2 self-check compares each row's F term with H_s(Phi | e) by
    # enumeration: an F off on one row (K = 1, Z = 1) must not be printed
    honest = oracle.closed_form_objective

    def off_on_one_row(params):
        f = honest(params)
        if (params.K, params.hypotheses[0].z) == (1, 1):
            f += Fraction(1, 1 << 20)
        return f

    monkeypatch.setattr(oracle, "closed_form_objective", off_on_one_row)
    with pytest.raises(AssertionError, match=r"F = H_s\(Phi \| e\)"):
        closed_form_table(2)


def test_table_checks_t_and_every_z_before_any_row():
    # T = 0 would give no Z and so an empty table; T = -1 a negative shift
    for T in (0, -1):
        with pytest.raises(ConfigurationError, match="T must be at least 1"):
            closed_form_table(T)
