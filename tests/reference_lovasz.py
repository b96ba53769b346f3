"""Exhaustive deficiency enumeration as it stood before the sweep went by rest
mask and Gray code: the reference that ``test_lovasz.py`` compares
``paritylab.decide_by_enumeration`` with.

Every ternary code is decoded digit by digit, and ``_delta_masks`` finds the
components of G-(S+T) afresh for each one. Kept verbatim; do not optimise.
"""
from __future__ import annotations

from paritylab.errors import GraphTooLargeForEnumeration, SelfCheckFailed
from paritylab.graph import Graph, VertexSet
from paritylab.lovasz import (
    DEFAULT_ENUMERATION_CAP,
    Decision,
    ParitySpec,
    _check_spec,
    deficiency,
)


def decide_by_enumeration(
    g: Graph, spec: ParitySpec, enumeration_cap: int = DEFAULT_ENUMERATION_CAP
) -> Decision:
    """Exhaustive sweep of all 3^n disjoint (S,T) assignments.

    Infeasible iff some delta(S,T) < 0; the returned witness attains the
    minimum delta, ties broken by the smallest ternary encoding (digit of
    vertex i = code // 3**i % 3, with 0 = neither, 1 = S, 2 = T), which makes
    the output canonical.
    """
    _check_spec(g, spec)
    n = g.n
    if n > enumeration_cap:
        raise GraphTooLargeForEnumeration(
            f"n = {n} exceeds enumeration cap {enumeration_cap}"
        )
    adj_mask = [sum(1 << u for u in g.adjacency[v]) for v in range(n)]
    deg = g.degrees
    full = (1 << n) - 1
    best_delta = None
    for code in range(3 ** n):
        s_mask = 0
        t_mask = 0
        c = code
        for v in range(n):
            d = c % 3
            c //= 3
            if d == 1:
                s_mask |= 1 << v
            elif d == 2:
                t_mask |= 1 << v
        d_val = _delta_masks(n, adj_mask, deg, spec, s_mask, t_mask, full)
        if best_delta is None or d_val < best_delta:
            best_delta, best_s, best_t = d_val, s_mask, t_mask
    if best_delta >= 0:
        return Decision(True, None)
    witness = deficiency(
        g,
        spec,
        VertexSet.of(v for v in range(n) if best_s >> v & 1),
        VertexSet.of(v for v in range(n) if best_t >> v & 1),
    )
    if witness.delta != best_delta:
        raise SelfCheckFailed(
            f"mask sweep found delta {best_delta}, deficiency recomputes {witness.delta}"
        )
    return Decision(False, witness)


def _delta_masks(n, adj_mask, deg, spec, s_mask, t_mask, full) -> int:
    rest = full & ~(s_mask | t_mask)
    tau = 0
    todo = rest
    while todo:
        v = (todo & -todo).bit_length() - 1
        comp = 1 << v
        frontier = comp
        while frontier:
            nxt = 0
            f2 = frontier
            while f2:
                u = (f2 & -f2).bit_length() - 1
                f2 &= f2 - 1
                nxt |= adj_mask[u] & rest & ~comp
            comp |= nxt
            frontier = nxt
        e_ct = 0
        f_c = 0
        c2 = comp
        while c2:
            u = (c2 & -c2).bit_length() - 1
            c2 &= c2 - 1
            e_ct += (adj_mask[u] & t_mask).bit_count()
            f_c += spec.f[u]
        if (e_ct + f_c) % 2 == 1:
            tau += 1
        todo &= ~comp
    val = -tau
    sm = s_mask
    while sm:
        u = (sm & -sm).bit_length() - 1
        sm &= sm - 1
        val += spec.f[u]
        val -= (adj_mask[u] & t_mask).bit_count()
    tm = t_mask
    while tm:
        u = (tm & -tm).bit_length() - 1
        tm &= tm - 1
        val += deg[u] - spec.g[u]
    return val
