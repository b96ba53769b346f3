"""Arithmetic condition checkers for the factor-existence theorems, and the
per-component proof-inequality checks on concrete instances.

All threshold comparisons are decided by cross-multiplied integers, e.g.
"r/m <= b" as "r <= b*m" and "a <= r(1-1/m)" as "a*m <= r*(m-1)"; the ratio
fields theta1 = a/r and theta2 = b/r are exact Fractions.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import HypothesisViolation, NotRegular
from .graph import Graph, VertexSet, components_after_removal, edges_between, require_disjoint
from .lovasz import ParitySpec, f_odd_components

MAIN_CASES = ("Main-i", "Main-ii", "Main-iii")
GALLAI_CASES = ("Gallai-i", "Gallai-ii", "Gallai-iii")
BSW_CASES = ("BSW-i", "BSW-ii")
ALL_CASES = MAIN_CASES + GALLAI_CASES + BSW_CASES + ("Petersen",)


def m_star(m: int) -> int:
    """The odd member of {m, m+1}."""
    if m < 0:
        raise HypothesisViolation(f"m must be nonnegative, got {m}")
    return m if m % 2 == 1 else m + 1


@dataclass(frozen=True)
class ConditionReport:
    r: int
    m: int
    a: int
    b: int
    n_even: bool
    m_star: int
    theta1: Fraction
    theta2: Fraction
    satisfied_cases: frozenset[str]


def check_main_conditions(r: int, m: int, a: int, b: int, n_even: bool) -> ConditionReport:
    """Evaluate the (a,b)-parity-factor sufficient conditions at connectivity m.

    For the k-factor specialization a == b, the Gallai, BSW, and even-degree
    2k-factor ("Petersen") cases are evaluated as well. m = 0 is accepted and
    simply fails every connectivity-dependent case (measured lambda of a
    disconnected graph), leaving only Petersen in play.
    """
    if not 1 <= a <= b:
        raise HypothesisViolation(f"need 1 <= a <= b, got a={a}, b={b}")
    if b >= r:
        raise HypothesisViolation(f"need b < r, got b={b}, r={r}")
    if (a - b) % 2 != 0:
        raise HypothesisViolation(f"a={a} and b={b} must agree in parity")
    ms = m_star(m)
    cases: set[str] = set()
    if r % 2 == 0 and a % 2 == 1 and n_even and r <= b * m and a * m <= r * (m - 1):
        cases.add("Main-i")
    if r % 2 == 1 and a % 2 == 0 and a * ms <= r * (ms - 1):
        cases.add("Main-ii")
    if r % 2 == 1 and a % 2 == 1 and r <= b * ms:
        cases.add("Main-iii")
    if a == b:
        if m >= 1:
            cases.update(check_gallai_conditions(r, m, a, n_even))
        cases.update(check_bsw_conditions(r, m, a))
        # every 2rho-regular graph has a 2kappa-factor, no connectivity needed
        if r % 2 == 0 and a % 2 == 0 and a >= 2:
            cases.add("Petersen")
    return ConditionReport(
        r, m, a, b, n_even, ms, Fraction(a, r), Fraction(b, r), frozenset(cases)
    )


def check_gallai_conditions(r: int, m: int, k: int, n_even: bool) -> frozenset[str]:
    if not 1 <= k < r:
        raise HypothesisViolation(f"need 1 <= k < r, got k={k}, r={r}")
    if m < 1:
        raise HypothesisViolation(f"need m >= 1, got {m}")
    cases: set[str] = set()
    if r % 2 == 0 and k % 2 == 1 and n_even and r <= k * m and k * m <= r * (m - 1):
        cases.add("Gallai-i")
    if r % 2 == 1 and k % 2 == 0 and k >= 2 and k * m <= r * (m - 1):
        cases.add("Gallai-ii")
    if r % 2 == 1 and k % 2 == 1 and r <= k * m:
        cases.add("Gallai-iii")
    return frozenset(cases)


def check_bsw_conditions(r: int, m: int, k: int) -> frozenset[str]:
    if not 1 <= k < r:
        raise HypothesisViolation(f"need 1 <= k < r, got k={k}, r={r}")
    ms = m_star(m)
    cases: set[str] = set()
    if r % 2 == 1 and k % 2 == 0 and k >= 2 and k * ms <= r * (ms - 1):
        cases.add("BSW-i")
    if r % 2 == 1 and k % 2 == 1 and r <= k * ms:
        cases.add("BSW-ii")
    return frozenset(cases)


@dataclass(frozen=True)
class ComponentReport:
    component: VertexSet
    e_s: int
    e_t: int
    is_a_odd: bool
    value: Fraction           # theta2 * e(S,C) + (1 - theta1) * e(T,C)
    crossing_bound_holds: bool  # value >= 1, meaningful for a-odd components
    parity_identity_holds: bool  # a-odd iff f_odd_components lists C
    regularity_identity_holds: bool  # r|C| = e(S+T, C) (mod 2)


def component_inequality_check(
    g: Graph, spec: ParitySpec, s: VertexSet, t: VertexSet
) -> list[ComponentReport]:
    """Per-component evaluation of the proof's crossing-edge inequality and the
    two congruences, on an r-regular graph with a constant (a,b) spec."""
    degs = set(g.degrees)
    if len(degs) != 1:
        raise NotRegular(f"graph has degrees {sorted(degs)}; need a regular graph")
    if not spec.is_constant() or spec.n != g.n or g.n == 0:
        raise NotRegular("need a constant (a,b) spec matching the graph")
    r = degs.pop()
    if r == 0:
        raise NotRegular("edgeless graph: the crossing ratios are undefined")
    a, b = spec.g[0], spec.f[0]
    require_disjoint(s, t)
    theta1, theta2 = Fraction(a, r), Fraction(b, r)
    st = VertexSet.of(list(s) + list(t))
    _, odd = f_odd_components(g, spec, s, t)
    lovasz_odd = set(odd)
    reports = []
    for cvs in components_after_removal(g, st):
        e_s = edges_between(g, cvs, s)
        e_t = edges_between(g, cvs, t)
        a_odd = (a * len(cvs) + e_t) % 2 == 1
        value = theta2 * e_s + (1 - theta1) * e_t
        reports.append(
            ComponentReport(
                component=cvs,
                e_s=e_s,
                e_t=e_t,
                is_a_odd=a_odd,
                value=value,
                crossing_bound_holds=value >= 1,
                parity_identity_holds=a_odd == (cvs in lovasz_odd),
                regularity_identity_holds=(r * len(cvs) - (e_s + e_t)) % 2 == 0,
            )
        )
    return reports
