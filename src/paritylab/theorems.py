"""Arithmetic condition checkers for the factor-existence theorems, and the
per-component proof-inequality checks on concrete instances.

All threshold comparisons are decided by cross-multiplied integers, e.g.
"r/m <= b" as "r <= b*m" and "a <= r(1-1/m)" as "a*m <= r*(m-1)"; the
crossing values theta2 * e(S,C) + (1 - theta1) * e(T,C) are exact Fractions.
Gallai's and Bollobas-Saito-Wormald's k-factor conditions are the main
theorem's at a = b = k: Gallai's three read its inequalities with m for m*,
and BSW's two are its (ii) and (iii). ``check_main_conditions`` names them
all, with the Petersen case, in one set.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

from .errors import HypothesisViolation, NotRegular
from .graph import Graph, VertexSet, _edges_into
from .lovasz import ParitySpec, _component_scan

MAIN_CASES = ("Main-i", "Main-ii", "Main-iii")
GALLAI_CASES = ("Gallai-i", "Gallai-ii", "Gallai-iii")
BSW_CASES = ("BSW-i", "BSW-ii")
ALL_CASES = MAIN_CASES + GALLAI_CASES + BSW_CASES + ("Petersen",)


def m_star(m: int) -> int:
    """The odd member of {m, m+1}."""
    if m < 0:
        raise HypothesisViolation(f"m must be nonnegative, got {m}")
    return m if m % 2 == 1 else m + 1


def check_main_conditions(r: int, m: int, a: int, b: int, n_even: bool) -> frozenset[str]:
    """The names of the (a,b)-parity-factor sufficient conditions that hold
    at connectivity m: the Main cases, and for the k-factor specialization
    a == b also the Gallai, BSW, and even-degree 2k-factor ("Petersen")
    cases. m = 0 is accepted and simply fails every connectivity-dependent
    case (measured lambda of a disconnected graph), leaving only Petersen in
    play.
    """
    if not 1 <= a <= b:
        raise HypothesisViolation(f"need 1 <= a <= b, got a={a}, b={b}")
    if b >= r:
        raise HypothesisViolation(f"need b < r, got b={b}, r={r}")
    if (a - b) % 2 != 0:
        raise HypothesisViolation(f"a={a} and b={b} must agree in parity")
    main = _inequalities(r, m, m_star(m), a, b, n_even)
    cases = _named(MAIN_CASES, main)
    if a == b:
        # at m = 0 every Gallai inequality fails: r <= 0 or 0 <= -r
        cases |= _named(GALLAI_CASES, _inequalities(r, m, m, a, a, n_even))
        cases |= _named(BSW_CASES, main[1:])
        # every 2rho-regular graph has a 2kappa-factor, no connectivity needed
        if r % 2 == 0 and a % 2 == 0 and a >= 2:
            cases |= {"Petersen"}
    return cases


def _inequalities(r: int, m: int, m_odd: int, a: int, b: int, n_even: bool) -> tuple[bool, ...]:
    """The main theorem's cases (i) at m, and (ii) and (iii) at an odd m_odd."""
    return (
        r % 2 == 0 and a % 2 == 1 and n_even and r <= b * m and a * m <= r * (m - 1),
        r % 2 == 1 and a % 2 == 0 and a * m_odd <= r * (m_odd - 1),
        r % 2 == 1 and a % 2 == 1 and r <= b * m_odd,
    )


def _named(names: tuple[str, ...], holds) -> frozenset[str]:
    return frozenset(compress(names, holds))


@dataclass(frozen=True)
class ComponentReport:
    component: VertexSet
    e_s: int
    e_t: int
    is_a_odd: bool
    value: Fraction           # theta2 * e(S,C) + (1 - theta1) * e(T,C)
    crossing_bound_holds: bool  # value >= 1, meaningful for a-odd components
    parity_identity_holds: bool  # a-odd iff e(C,T) + f(C) is odd
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
    theta1, theta2 = Fraction(a, r), Fraction(b, r)
    reports = []
    for cvs, e_t, f_odd in _component_scan(g, spec, s, t):
        e_s = _edges_into(g, cvs, s)
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
                parity_identity_holds=a_odd == f_odd,
                regularity_identity_holds=(r * len(cvs) - (e_s + e_t)) % 2 == 0,
            )
        )
    return reports
