"""Arithmetic condition checkers for the factor-existence theorems, and the
main proof's crossing-edge lemma on concrete instances (``small_cut``).

All threshold comparisons are decided by cross-multiplied integers, e.g.
"r/m <= b" as "r <= b*m" and "a <= r(1-1/m)" as "a*m <= r*(m-1)".
Gallai's and Bollobas-Saito-Wormald's k-factor conditions are the main
theorem's at a = b = k: Gallai's three read its inequalities with m for m*,
and BSW's two are its (ii) and (iii). ``check_main_conditions`` names them
all, with the Petersen case, in one set.
"""
from __future__ import annotations

from itertools import compress

from .errors import ParityLabError
from .graph import Graph, VertexSet, _edges_into
from .lovasz import ParitySpec, _component_scan

MAIN_CASES = ("Main-i", "Main-ii", "Main-iii")
GALLAI_CASES = ("Gallai-i", "Gallai-ii", "Gallai-iii")
BSW_CASES = ("BSW-i", "BSW-ii")
ALL_CASES = MAIN_CASES + GALLAI_CASES + BSW_CASES + ("Petersen",)


def m_star(m: int) -> int:
    """The odd member of {m, m+1}."""
    if m < 0:
        raise ParityLabError(f"m must be nonnegative, got {m}")
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
        raise ParityLabError(f"need 1 <= a <= b, got a={a}, b={b}")
    if b >= r:
        raise ParityLabError(f"need b < r, got b={b}, r={r}")
    if (a - b) % 2 != 0:
        raise ParityLabError(f"a={a} and b={b} must agree in parity")
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


def small_cut(
    g: Graph, spec: ParitySpec, s: VertexSet, t: VertexSet
) -> tuple[VertexSet, int] | None:
    """The first tau-counted component C of G - (S+T), in ``_component_scan``
    order, with b*e(C,S) + (r-a)*e(C,T) < r, and |dC|, the number of edges
    leaving C; None if no odd component is that small. G must be r-regular
    and the spec a constant (a,b) with a <= r.

    The proof's crossing-edge lemma: None means delta(S,T) >= 0. Each edge at
    S ends in S, in T or in a component C of G - (S+T), and likewise at T, so
      r|S| >= e(S,T) + sum_C e(C,S)  and  r|T| >= e(S,T) + sum_C e(C,T).
    With delta = b|S| + (r-a)|T| - e(S,T) - tau, and b >= a and r - a >= 0,
      r*delta >= (b-a)*e(S,T) + sum_C (b*e(C,S) + (r-a)*e(C,T)) - r*tau
              >= sum_{odd C} (b*e(C,S) + (r-a)*e(C,T) - r),
    dropping the nonnegative terms of e(S,T) and of the even components. So
    delta >= 0 unless some odd C has b*e(C,S) + (r-a)*e(C,T) < r; at r = 0,
    a = 0 makes b even, tau = 0 and delta = b|S| >= 0. Each edge leaving C
    ends in S or T, so |dC| = e(C,S) + e(C,T), and dC is a cut of G, of at
    least lambda(G) edges, unless C is a whole component of G.
    """
    degs = set(g.degrees)
    if len(degs) != 1:
        raise ParityLabError(f"graph has degrees {sorted(degs)}; need a regular graph")
    if not spec.is_constant() or spec.n != g.n:
        raise ParityLabError("need a constant (a,b) spec matching the graph")
    r = degs.pop()
    a, b = spec.g[0], spec.f[0]
    if a > r:
        raise ParityLabError(f"need a <= r, got a={a}, r={r}")
    for cvs, e_t, is_odd in _component_scan(g, spec, s, t):
        if is_odd:
            e_s = _edges_into(g, cvs, s)
            if b * e_s + (r - a) * e_t < r:
                return cvs, e_s + e_t
    return None
