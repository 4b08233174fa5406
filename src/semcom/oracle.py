"""Exact inductive probabilities over constituents.

Two independent computation paths:

* Full enumeration at T <= 2.  An attributive constituent is a subset of
  Q-sentence space (what kind of individual), a constituent is a subset
  of attributive-constituent space (which kinds exist).  At T=2 that is
  2**16 = 65,536 constituents, each tested directly for compatibility.
* Closed forms for any T, on exact rationals, refusing computations
  whose intermediate exponents exceed the fixed DEFAULT_BIT_BUDGET rather
  than approximating.  Probabilities like v = 2**(-2**(Q-K)) underflow
  any float, so everything is Fraction or pure exponent arithmetic.

Compatibility uses single-ego semantics: a constituent is compatible
with evidence iff it asserts existence of at least one attributive
constituent whose Q-set contains every observed Q-sentence; a joint
with a hypothesis additionally requires that same Q-set to intersect
the hypothesis's compatible Q-sentences.  The enumeration path verifies
that this reading reproduces the closed forms exactly.

H_s(Phi) = sum_i c(phi_i) cont(phi_i) and H_s(Phi | e) = sum_i
c(phi_i and e) cont(phi_i | e), cont = 1 - c, are enumerated, each as one
Fraction over the constituent counts, each count read once per
hypothesis; the closed forms likewise sum dyadic integers.  I_s(Phi; e)
is defined once, as their difference.  The closed-form F is
H_s(Phi | e) term by term: an unwitnessed phi_i has c(phi_i and e) = 1 - u_i
and 1 - c(phi_i | e) = (u_i - v)/(1 - v), and a witnessed one's term is 0
on both sides.  H_s(Phi) is fixed by the rule set, so minimizing F
maximizes I_s; closed_form_table checks F = H_s(Phi | e) at T <= 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import ConfigurationError, FeasibilityError
from .logic import Hypothesis, QSentence

ENUMERATION_MAX_T = 2
DEFAULT_BIT_BUDGET = 1 << 20


# ---------------------------------------------------------------------------
# Enumeration path (T <= 2)
# ---------------------------------------------------------------------------

def total_constituents(T: int) -> int:
    """Size of the full constituent space: 2**(2**Q) with Q = 2**T."""
    _check_enumeration_bound(T)
    q = 1 << T
    return 1 << (1 << q)


def _check_enumeration_bound(T: int) -> None:
    if T > ENUMERATION_MAX_T:
        raise FeasibilityError(
            "enumeration supports T <= %d, got T=%d" % (ENUMERATION_MAX_T, T)
        )
    if T < 1:
        raise ConfigurationError("T must be at least 1")


def _obs_mask(evidence_qs: Iterable[QSentence], T: int) -> int:
    """Q-set as a bitmask over Q-sentence space (evidence or a hypothesis region)."""
    mask = 0
    for q in evidence_qs:
        q.validate_width(T)
        mask |= 1 << q.bits
    return mask


def _good_attributive_mask(obs_mask: int, hyp_mask: Optional[int], T: int) -> int:
    """Bitmask over attributive-constituent space of the 'witness' kinds.

    A kind can be the ego iff its Q-set contains every observed
    Q-sentence; with a hypothesis, it must also realize at least one
    hypothesis-compatible Q-sentence.
    """
    q = 1 << T
    good = 0
    for a in range(1 << q):
        if (a & obs_mask) != obs_mask:
            continue
        if hyp_mask is not None and not (a & hyp_mask):
            continue
        good |= 1 << a
    return good


@lru_cache(maxsize=None)  # T=2 has at most 16 x 17 distinct inputs
def _count_compatible(obs_mask: int, hyp_mask: Optional[int], T: int) -> int:
    good = _good_attributive_mask(obs_mask, hyp_mask, T)
    n_ac = 1 << (1 << T)
    count = 0
    for constituent in range(1 << n_ac):
        if constituent & good:
            count += 1
    return count


def compatible_count(evidence_qs: Iterable[QSentence], T: int) -> int:
    """|C(e)| by full enumeration: constituents compatible with e."""
    _check_enumeration_bound(T)
    return _count_compatible(_obs_mask(evidence_qs, T), None, T)


def joint_compatible_count(
    hypothesis_qs: Iterable[QSentence], evidence_qs: Iterable[QSentence], T: int
) -> int:
    """|C(e and phi)| by full enumeration."""
    _check_enumeration_bound(T)
    return _count_compatible(_obs_mask(evidence_qs, T), _obs_mask(hypothesis_qs, T), T)


def evidence_probability(evidence_qs: Iterable[QSentence], T: int) -> Fraction:
    """c(e) = |C(e)| / |C| by enumeration."""
    return Fraction(compatible_count(evidence_qs, T), total_constituents(T))


def degree_of_confirmation(
    hypothesis_qs: Iterable[QSentence], evidence_qs: Iterable[QSentence], T: int
) -> Fraction:
    """c(phi | e) = |C(e and phi)| / |C(e)| as an exact rational."""
    evidence_qs = tuple(evidence_qs)
    # never 0: a constituent holding the kind of all Q-sentences admits any evidence
    denom = compatible_count(evidence_qs, T)
    return Fraction(joint_compatible_count(hypothesis_qs, evidence_qs, T), denom)


# ---------------------------------------------------------------------------
# Content, entropy, mutual information (enumeration path)
# ---------------------------------------------------------------------------

def semantic_entropy(hypotheses_qs: Sequence[Iterable[QSentence]], T: int) -> Fraction:
    """H_s(Phi) = sum_i c(phi_i) * cont(phi_i), exact, with cont = 1 - c:
    sum_i J_i (N - J_i) / N**2 with J_i = |C(phi_i)| of N constituents."""
    size = total_constituents(T)  # checks T even with no hypotheses
    joints = [joint_compatible_count(qs, (), T) for qs in hypotheses_qs]
    return Fraction(sum(j * (size - j) for j in joints), size * size)


def conditional_semantic_entropy(
    hypotheses_qs: Sequence[Iterable[QSentence]],
    evidence_qs: Iterable[QSentence],
    T: int,
) -> Fraction:
    """H_s(Phi | e) = sum_i c(phi_i and e) * cont(phi_i | e).

    The joint weight c(phi_i, e) is read as the joint probability
    c(phi_i and e) = J_i / N, with J_i = |C(e and phi_i)|, and
    c(phi_i | e) = J_i / E, E = |C(e)| > 0: sum_i J_i (E - J_i) / (N E).
    """
    evidence_qs = tuple(evidence_qs)
    size, compatible = total_constituents(T), compatible_count(evidence_qs, T)
    joints = [joint_compatible_count(qs, evidence_qs, T) for qs in hypotheses_qs]
    return Fraction(sum(j * (compatible - j) for j in joints), size * compatible)


def semantic_mutual_information(
    hypotheses_qs: Sequence[Iterable[QSentence]],
    evidence_qs: Iterable[QSentence],
    T: int,
) -> Fraction:
    """I_s(Phi; e) = H_s(Phi) - H_s(Phi | e)."""
    hyps = tuple(tuple(qs) for qs in hypotheses_qs)  # both sums read every Q-set
    return semantic_entropy(hyps, T) - conditional_semantic_entropy(hyps, evidence_qs, T)


# ---------------------------------------------------------------------------
# Closed forms (any T, bit-budgeted exact rationals)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HypothesisParams:
    """Per-hypothesis closed-form inputs: specificity and overlap flag."""

    z: int
    overlaps: bool


@dataclass(frozen=True)
class ClosedFormParams:
    """Everything the closed forms need: T, K, and per-hypothesis (Z, overlap).

    Derived quantities are kept as exponents: Q = 2**T, alpha = 2**(Q-K),
    H_i = 2**(T-Z_i), gamma_i = 2**(Q-K) - 2**(Q-K-H_i).  alpha and
    gamma_i stay plain integers; the probabilities u_i = 2**(-gamma_i)
    and v = 2**(-alpha) are only ever materialized under the bit budget.
    """

    T: int
    K: int
    hypotheses: Tuple[HypothesisParams, ...]

    def __post_init__(self) -> None:
        if self.T < 1:
            raise ConfigurationError("T must be at least 1")
        q = 1 << self.T
        if not 0 <= self.K <= q:
            raise ConfigurationError("K=%d outside [0, %d]" % (self.K, q))
        for hp in self.hypotheses:
            if not 1 <= hp.z <= self.T:
                raise ConfigurationError("Z=%d outside [1, T=%d]" % (hp.z, self.T))
            if not hp.overlaps and self.K + (1 << (self.T - hp.z)) > q:
                raise ConfigurationError(
                    "non-overlap impossible: K + H exceeds Q for Z=%d, K=%d" % (hp.z, self.K)
                )

    @property
    def Q(self) -> int:
        return 1 << self.T

    @property
    def alpha(self) -> int:
        return 1 << (self.Q - self.K)

    def gamma(self, hp: HypothesisParams) -> int:
        """gamma_i = 2**(Q-K) - 2**(Q-K-H_i); only for non-overlapping terms."""
        if hp.overlaps:
            raise ConfigurationError("gamma undefined for an overlapping hypothesis")
        h = 1 << (self.T - hp.z)
        return (1 << (self.Q - self.K)) - (1 << (self.Q - self.K - h))

    def nonoverlapping(self) -> Tuple[HypothesisParams, ...]:
        return tuple(hp for hp in self.hypotheses if not hp.overlaps)

    @cached_property
    def _dyadic_terms(self) -> Tuple[int, Dict[int, int]]:
        """(alpha, F * (1 - v) as a sparse dyadic sum {exponent: coefficient}).

        Derived on the first exact comparison, never at construction: at
        wide T alpha is a 2**T-bit integer.  Each non-overlapping term
        expands to
        u_i - u_i**2 - v + u_i*v  =  2**-g_i - 2**-2g_i - 2**-a + 2**-(g_i+a),
        with g_i = gamma(hp) computed inline: the method calls add about
        5% to a validate-key run.
        """
        T = self.T
        log_alpha = (1 << T) - self.K
        if log_alpha + 2 > DEFAULT_BIT_BUDGET:
            raise FeasibilityError(
                "objective comparison needs %d-bit exponents, over the %d-bit budget"
                % (log_alpha + 2, DEFAULT_BIT_BUDGET)
            )
        alpha = 1 << log_alpha
        out: Dict[int, int] = {}
        get = out.get
        for hp in self.hypotheses:
            if hp.overlaps:
                continue
            g = alpha - (alpha >> (1 << (T - hp.z)))
            out[g] = get(g, 0) + 1
            out[2 * g] = get(2 * g, 0) - 1
            out[alpha] = get(alpha, 0) - 1
            out[g + alpha] = get(g + alpha, 0) + 1
        return alpha, out

    @classmethod
    def from_subset(
        cls,
        evidence_qs: Iterable[QSentence],
        hypotheses: Sequence[Hypothesis],
        T: int,
    ) -> "ClosedFormParams":
        """Derive (K, overlap flags) from an actual evidence Q-set."""
        qs = set(evidence_qs)
        for q in qs:
            q.validate_width(T)
        hyp_params = []
        for h in hypotheses:
            h.validate_width(T)
            over = any(h.satisfied_by(q.bits) for q in qs)
            hyp_params.append(HypothesisParams(z=h.Z, overlaps=over))
        return cls(T=T, K=len(qs), hypotheses=tuple(hyp_params))


def _require_budget(params: ClosedFormParams, doublings: int, what: str) -> None:
    """Refuse a 2**(alpha * 2**doublings) denominator over the bit budget.

    alpha = 2**(Q-K) is never built here: alpha * 2**d > budget holds iff
    Q - K + d >= budget.bit_length(), so a wide T is refused before any
    2**T-bit integer is allocated.
    """
    exponent = params.Q - params.K + doublings
    if exponent >= DEFAULT_BIT_BUDGET.bit_length():
        raise FeasibilityError(
            "%s needs a 2**(2**%d) denominator, over the %d-bit budget"
            % (what, exponent, DEFAULT_BIT_BUDGET)
        )


def closed_form_evidence_probability(params: ClosedFormParams) -> Fraction:
    """c(e) = 1 - v with v = 2**(-alpha): (2**alpha - 1) / 2**alpha."""
    _require_budget(params, 0, "c(e)")
    scale = 1 << params.alpha
    return Fraction(scale - 1, scale)


def closed_form_confirmation(params: ClosedFormParams, hp: HypothesisParams) -> Fraction:
    """c(phi_i | e): exactly 1 when witnessed, else (1-u_i)/(1-v), that is
    (2**g - 1) 2**(alpha - g) / (2**alpha - 1) with u_i = 2**-g, g = gamma_i."""
    if hp.overlaps:
        return Fraction(1)
    _require_budget(params, 0, "c(phi|e)")
    alpha, g = params.alpha, params.gamma(hp)
    return Fraction(((1 << g) - 1) << (alpha - g), (1 << alpha) - 1)


def closed_form_objective(params: ClosedFormParams) -> Fraction:
    """F = sum over non-overlapping i of (1 - u_i)(u_i - v)/(1 - v).

    Witnessed hypotheses contribute exactly 0.  Term i is
    (2**g - 1)(2**(alpha - g) - 1) / (2**g (2**alpha - 1)), g = gamma_i,
    so F is one fraction over 2**max(g) (2**alpha - 1) < 2**(2 alpha);
    a denominator over the bit budget raises rather than approximating.
    """
    nonover = params.nonoverlapping()
    if not nonover:
        return Fraction(0)
    _require_budget(params, 1, "objective F")
    alpha, gammas = params.alpha, [params.gamma(hp) for hp in nonover]
    top = max(gammas)
    total = sum((((1 << g) - 1) * ((1 << (alpha - g)) - 1)) << (top - g) for g in gammas)
    return Fraction(total, ((1 << alpha) - 1) << top)


# ---------------------------------------------------------------------------
# Exact objective comparison without materializing the rationals
# ---------------------------------------------------------------------------

def _dyadic_sign(terms: Mapping[int, int]) -> int:
    """Sign of sum over (e -> c) of c * 2**(-e), exactly.

    Terms are walked from largest magnitude (smallest exponent) down.
    Once the accumulated prefix is nonzero and the gap to the next
    exponent exceeds the total remaining coefficient mass, the prefix
    decides the sign; otherwise the shift is small and done literally.
    """
    items = []
    total_abs = 0
    for item in terms.items():
        c = item[1]
        if c:
            items.append(item)
            total_abs += c if c > 0 else -c
    if not items:
        return 0
    items.sort()
    guard = total_abs.bit_length() + 1
    acc = 0
    prev = items[0][0]
    for e, c in items:
        shift = e - prev
        if acc and shift > guard:
            return 1 if acc > 0 else -1
        acc = (acc << shift) + c
        prev = e
    return (acc > 0) - (acc < 0)


def exact_objective_compare(a: ClosedFormParams, b: ClosedFormParams) -> int:
    """Sign of F(a) - F(b) from exponents alone, never a 2**alpha integer.

    Uses the cross-multiplied form N_a*(1-v_b) - N_b*(1-v_a) where
    N = F*(1-v); both factors stay sparse dyadic sums, merged here in one
    pass.  Each side's terms are derived once per params object, so
    validate-key's subsets at T=3..5 (exponents near 2**32 at T=5)
    compare exactly in about 11 us each, derivation included (2-CPU x86
    box, CPython 3.11), where the Fraction route would need gigabyte
    integers.  The exponents stay below 3 * 2**(Q-K), which takes
    Q - K + 2 bits; a side where that exceeds DEFAULT_BIT_BUDGET raises
    FeasibilityError before any exponent is built.
    """
    if a.T != b.T:
        raise ConfigurationError("objective comparison requires equal T")
    alpha_a, na = a._dyadic_terms
    alpha_b, nb = b._dyadic_terms
    diff = dict(na)
    get = diff.get
    for e, c in nb.items():
        diff[e] = get(e, 0) - c
    for e, c in na.items():
        e += alpha_b
        diff[e] = get(e, 0) - c
    for e, c in nb.items():
        e += alpha_a
        diff[e] = get(e, 0) + c
    return _dyadic_sign(diff)


# ---------------------------------------------------------------------------
# Diagnostic table for the CLI
# ---------------------------------------------------------------------------

def closed_form_table(T: int) -> List[Dict[str, str]]:
    """One row per (K, Z): c(e), c(phi|e), and the objective term, exact.

    K runs over 0..2**T and Z over 1..T, Z varying fastest.  Each Z is
    treated as a single non-overlapping hypothesis when K + H fits inside
    Q, otherwise as witnessed.  At T <= 2 every row is cross-checked
    against the enumeration oracle before being emitted.  T < 1 is refused
    before any row is built, and a T whose c(e) needs more than the bit
    budget is refused at its first row.
    """
    if T < 1:
        raise ConfigurationError("T must be at least 1, got %d" % T)
    return [_table_row(T, K, z) for K in range((1 << T) + 1) for z in range(1, T + 1)]


def _exact_text(value: Fraction) -> str:
    """str(value) for any width: Decimal prints an int with no digit limit."""
    if value.denominator == 1:
        return str(Decimal(value.numerator))
    return "%s/%s" % (Decimal(value.numerator), Decimal(value.denominator))


def _table_row(T: int, K: int, z: int) -> Dict[str, str]:
    overlaps = K + (1 << (T - z)) > (1 << T)
    params = ClosedFormParams(T=T, K=K, hypotheses=(HypothesisParams(z=z, overlaps=overlaps),))
    ce = closed_form_evidence_probability(params)
    cphi = closed_form_confirmation(params, params.hypotheses[0])
    fterm = closed_form_objective(params)
    if T <= ENUMERATION_MAX_T:
        _cross_check_row(params, ce, cphi, fterm)
    return {
        "T": str(T),
        "K": str(K),
        "Z": str(z),
        "overlap": "1" if overlaps else "0",
        "c_e": _exact_text(ce),
        "c_phi_given_e": _exact_text(cphi),
        "F_term": _exact_text(fterm),
    }


def _cross_check_row(params: ClosedFormParams, ce: Fraction, cphi: Fraction, f: Fraction) -> None:
    """Rebuild a T <= 2 row on canonical sentences and check it by enumeration.

    The evidence is the first K sentences of a pool that leads with the
    hypothesis's own sentences exactly when the row overlaps.  It must
    reproduce the row's params, c(e) and c(phi|e), and the row's F term
    must equal H_s(Phi | e) on it.
    """
    T, K = params.T, params.K
    hp = params.hypotheses[0]
    q = 1 << T
    hyp = Hypothesis.from_constraints(0, {s: 1 for s in range(hp.z)}, "check")
    hyp_qs = hyp.compatible_qs(T)
    hyp_bits = {s.bits for s in hyp_qs}
    if hp.overlaps:
        pool = sorted(hyp_bits) + sorted(set(range(q)) - hyp_bits)
    else:
        pool = sorted(set(range(q)) - hyp_bits)
    evidence = [QSentence(bits, T) for bits in pool[:K]]
    if ClosedFormParams.from_subset(evidence, [hyp], T) != params:
        raise AssertionError("canonical evidence does not realize the row's params")
    if evidence_probability(evidence, T) != ce:
        raise AssertionError("enumeration disagrees with closed-form c(e)")
    if degree_of_confirmation(hyp_qs, evidence, T) != cphi:
        raise AssertionError("enumeration disagrees with closed-form c(phi|e)")
    if conditional_semantic_entropy([hyp_qs], evidence, T) != f:
        raise AssertionError("enumeration disagrees with closed-form F = H_s(Phi | e)")
