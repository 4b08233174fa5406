"""Term-by-term reference definitions of the oracle's exact measures.

``semcom.oracle`` builds each entropy and each closed form as one
``Fraction`` over integer counts or dyadic integers.  The tests check it
against these definitions, which follow the formulas a term at a time:
a probability per hypothesis, then products, differences and quotients
of rationals.
"""

from fractions import Fraction

from semcom.oracle import compatible_count, joint_compatible_count, total_constituents


def semantic_entropy(hypotheses_qs, T):
    """H_s(Phi) = sum_i c(phi_i) cont(phi_i), cont = 1 - c."""
    size = total_constituents(T)
    total = Fraction(0)
    for qs in hypotheses_qs:
        c = Fraction(joint_compatible_count(qs, (), T), size)
        total += c * (1 - c)
    return total


def conditional_semantic_entropy(hypotheses_qs, evidence_qs, T):
    """H_s(Phi | e) = sum_i c(phi_i and e) cont(phi_i | e)."""
    size = total_constituents(T)
    total = Fraction(0)
    for qs in hypotheses_qs:
        joint = joint_compatible_count(qs, evidence_qs, T)
        c_joint = Fraction(joint, size)
        c_cond = Fraction(joint, compatible_count(evidence_qs, T))
        total += c_joint * (1 - c_cond)
    return total


def mutual_information(hypotheses_qs, evidence_qs, T):
    """I_s(Phi; e) = H_s(Phi) - H_s(Phi | e)."""
    return semantic_entropy(hypotheses_qs, T) - conditional_semantic_entropy(
        hypotheses_qs, evidence_qs, T
    )


def _v(params):
    return Fraction(1, 1 << params.alpha)


def _u(params, hp):
    return Fraction(1, 1 << params.gamma(hp))


def evidence_probability(params):
    """c(e) = 1 - v, v = 2**(-alpha)."""
    return 1 - _v(params)


def confirmation(params, hp):
    """c(phi | e) = 1 when witnessed, else (1 - u)/(1 - v), u = 2**(-gamma)."""
    if hp.overlaps:
        return Fraction(1)
    return (1 - _u(params, hp)) / (1 - _v(params))


def objective(params):
    """F = sum over unwitnessed i of (1 - u_i)(u_i - v)/(1 - v)."""
    v = _v(params)
    total = Fraction(0)
    for hp in params.nonoverlapping():
        u = _u(params, hp)
        total += (1 - u) * (u - v) / (1 - v)
    return total
