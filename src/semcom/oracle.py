"""Exact inductive probabilities over constituents.

Two independent computation paths:

* Full enumeration at T <= 2.  An attributive constituent is a subset of
  Q-sentence space (what kind of individual), a constituent is a subset
  of attributive-constituent space (which kinds exist).  At T=2 that is
  2**16 = 65,536 constituents, each tested directly for compatibility.
* Closed forms for any T, on exact rationals, refusing computations
  whose intermediate exponents exceed a configurable bit budget rather
  than approximating.  Probabilities like v = 2**(-2**(Q-K)) underflow
  any float, so everything is Fraction or pure exponent arithmetic.

Compatibility uses single-ego semantics: a constituent is compatible
with evidence iff it asserts existence of at least one attributive
constituent whose Q-set contains every observed Q-sentence; a joint
with a hypothesis additionally requires that same Q-set to intersect
the hypothesis's compatible Q-sentences.  The enumeration path verifies
that this reading reproduces the closed forms exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import ConfigurationError, FeasibilityError, reject_repeats
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


def hypothesis_probability(hypothesis_qs: Iterable[QSentence], T: int) -> Fraction:
    """Unconditional c(phi): joint with empty evidence."""
    return Fraction(joint_compatible_count(hypothesis_qs, (), T), total_constituents(T))


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
    """H_s(Phi) = sum_i c(phi_i) * cont(phi_i), exact, with cont = 1 - c."""
    total = Fraction(0)
    for qs in hypotheses_qs:
        c = hypothesis_probability(tuple(qs), T)
        total += c * (1 - c)
    return total


def conditional_semantic_entropy(
    hypotheses_qs: Sequence[Iterable[QSentence]],
    evidence_qs: Iterable[QSentence],
    T: int,
) -> Fraction:
    """H_s(Phi | e) = sum_i c(phi_i and e) * cont(phi_i | e).

    The joint weight c(phi_i, e) is read as the joint probability
    c(phi_i and e).
    """
    evidence_qs = tuple(evidence_qs)
    total = Fraction(0)
    size = total_constituents(T)
    for qs in hypotheses_qs:
        qs = tuple(qs)
        joint = Fraction(joint_compatible_count(qs, evidence_qs, T), size)
        cond = degree_of_confirmation(qs, evidence_qs, T)
        total += joint * (1 - cond)
    return total


def semantic_mutual_information(
    hypotheses_qs: Sequence[Iterable[QSentence]],
    evidence_qs: Iterable[QSentence],
    T: int,
) -> Fraction:
    """I_s(Phi; e), accumulated term by term rather than as a difference
    of the two entropy functions, so equality with
    semantic_entropy - conditional_semantic_entropy is a real check."""
    evidence_qs = tuple(evidence_qs)
    size = total_constituents(T)
    total = Fraction(0)
    for qs in hypotheses_qs:
        qs = tuple(qs)
        c = hypothesis_probability(qs, T)
        joint = Fraction(joint_compatible_count(qs, evidence_qs, T), size)
        cond = degree_of_confirmation(qs, evidence_qs, T)
        total += c * (1 - c) - joint * (1 - cond)
    return total


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


def _require_budget(params: ClosedFormParams, doublings: int, bit_budget: int, what: str) -> None:
    """Refuse a 2**(alpha * 2**doublings) denominator over the bit budget.

    alpha = 2**(Q-K) is never built here: alpha * 2**d > budget holds iff
    Q - K + d >= budget.bit_length(), so a wide T is refused before any
    2**T-bit integer is allocated.
    """
    exponent = params.Q - params.K + doublings
    if bit_budget < 1 or exponent >= bit_budget.bit_length():
        raise FeasibilityError(
            "%s needs a 2**(2**%d) denominator, over the %d-bit budget"
            % (what, exponent, bit_budget)
        )


def closed_form_evidence_probability(
    params: ClosedFormParams, bit_budget: int = DEFAULT_BIT_BUDGET
) -> Fraction:
    """c(e) = 1 - v with v = 2**(-alpha)."""
    _require_budget(params, 0, bit_budget, "c(e)")
    return 1 - Fraction(1, 1 << params.alpha)


def closed_form_confirmation(
    params: ClosedFormParams, hp: HypothesisParams, bit_budget: int = DEFAULT_BIT_BUDGET
) -> Fraction:
    """c(phi_i | e): exactly 1 when witnessed, else (1-u_i)/(1-v)."""
    if hp.overlaps:
        return Fraction(1)
    _require_budget(params, 0, bit_budget, "c(phi|e)")
    u = Fraction(1, 1 << params.gamma(hp))
    v = Fraction(1, 1 << params.alpha)
    return (1 - u) / (1 - v)


def closed_form_objective(
    params: ClosedFormParams, bit_budget: int = DEFAULT_BIT_BUDGET
) -> Fraction:
    """F = sum over non-overlapping i of (1 - u_i)(u_i - v)/(1 - v).

    Witnessed hypotheses contribute exactly 0.  Intermediate exponents
    reach gamma_i + alpha < 2*alpha; anything over the bit budget raises
    rather than approximating.
    """
    nonover = params.nonoverlapping()
    if not nonover:
        return Fraction(0)
    _require_budget(params, 1, bit_budget, "objective F")
    v = Fraction(1, 1 << params.alpha)
    total = Fraction(0)
    for hp in nonover:
        u = Fraction(1, 1 << params.gamma(hp))
        total += (1 - u) * (u - v) / (1 - v)
    return total


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
    items = sorted((e, c) for e, c in terms.items() if c)
    if not items:
        return 0
    total_abs = sum(abs(c) for _, c in items)
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


def _objective_numerator_terms(params: ClosedFormParams) -> Dict[int, int]:
    """F * (1 - v) as a sparse dyadic sum {exponent: coefficient}.

    Each non-overlapping term expands to
    u_i - u_i**2 - v + u_i*v  =  2**-g_i - 2**-2g_i - 2**-a + 2**-(g_i+a).
    """
    alpha = params.alpha
    out: Dict[int, int] = {}

    def add(e: int, c: int) -> None:
        out[e] = out.get(e, 0) + c

    for hp in params.nonoverlapping():
        g = params.gamma(hp)
        add(g, 1)
        add(2 * g, -1)
        add(alpha, -1)
        add(g + alpha, 1)
    return out


def exact_objective_compare(a: ClosedFormParams, b: ClosedFormParams) -> int:
    """Sign of F(a) - F(b) with no bit budget: pure exponent arithmetic.

    Uses the cross-multiplied form N_a*(1-v_b) - N_b*(1-v_a) where
    N = F*(1-v); both factors stay sparse dyadic sums, so subsets at
    T=5 (exponents near 2**32) compare exactly in microseconds where
    the Fraction route would need gigabyte integers.
    """
    if a.T != b.T:
        raise ConfigurationError("objective comparison requires equal T")
    na = _objective_numerator_terms(a)
    nb = _objective_numerator_terms(b)
    diff: Dict[int, int] = {}

    def add(e: int, c: int) -> None:
        diff[e] = diff.get(e, 0) + c

    for e, c in na.items():
        add(e, c)
        add(e + b.alpha, -c)
    for e, c in nb.items():
        add(e, -c)
        add(e + a.alpha, c)
    return _dyadic_sign(diff)


# ---------------------------------------------------------------------------
# Diagnostic table for the CLI
# ---------------------------------------------------------------------------

def closed_form_table(
    T: int, k_values: Optional[Sequence[int]] = None, z_values: Optional[Sequence[int]] = None
) -> List[Dict[str, str]]:
    """One row per (K, Z), Z varying fastest: c(e), c(phi|e), and the objective term, exact.

    K defaults to 0..2**T and Z to 1..T.  Each Z is treated as a single
    non-overlapping hypothesis when K + H fits inside Q, otherwise as
    witnessed.  At T <= 2 every row is cross-checked against the
    enumeration oracle before being emitted.  T, repeated K or Z values
    and every Z are checked before any row is built; a K outside
    [0, 2**T] is refused at its first row.
    """
    if T < 1:
        raise ConfigurationError("T must be at least 1, got %d" % T)
    if k_values is None:
        k_values = range((1 << T) + 1)
    else:
        reject_repeats("K value", k_values)
    if z_values is None:
        z_values = range(1, T + 1)
    else:
        reject_repeats("Z value", z_values)
    for z in z_values:
        if not 1 <= z <= T:
            raise ConfigurationError("Z=%d outside [1, T=%d]" % (z, T))
    return [_table_row(T, K, z) for K in k_values for z in z_values]


def _table_row(T: int, K: int, z: int) -> Dict[str, str]:
    overlaps = K + (1 << (T - z)) > (1 << T)
    params = ClosedFormParams(T=T, K=K, hypotheses=(HypothesisParams(z=z, overlaps=overlaps),))
    ce = closed_form_evidence_probability(params)
    cphi = closed_form_confirmation(params, params.hypotheses[0])
    fterm = closed_form_objective(params)
    if T <= ENUMERATION_MAX_T:
        _cross_check_row(T, K, z, overlaps, ce, cphi)
    return {
        "T": str(T),
        "K": str(K),
        "Z": str(z),
        "overlap": "1" if overlaps else "0",
        "c_e": str(ce),
        "c_phi_given_e": str(cphi),
        "F_term": str(fterm),
    }


def _cross_check_row(
    T: int, K: int, z: int, overlaps: bool, ce: Fraction, cphi: Fraction
) -> None:
    q = 1 << T
    hyp = Hypothesis.from_constraints(0, {s: 1 for s in range(z)}, "check")
    hyp_qs = hyp.compatible_qs(T)
    hyp_bits = {s.bits for s in hyp_qs}
    if overlaps:
        pool = sorted(hyp_bits) + sorted(set(range(q)) - hyp_bits)
    else:
        pool = sorted(set(range(q)) - hyp_bits)
    evidence = [QSentence(bits, T) for bits in pool[:K]]
    if len(evidence) != K:
        raise AssertionError("cannot build K=%d canonical evidence sentences" % K)
    if evidence_probability(evidence, T) != ce:
        raise AssertionError("enumeration disagrees with closed-form c(e)")
    if degree_of_confirmation(hyp_qs, evidence, T) != cphi:
        raise AssertionError("enumeration disagrees with closed-form c(phi|e)")
