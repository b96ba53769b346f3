"""Two earlier forms of the exhaustive deficiency enumeration: the references
that ``test_lovasz.py`` compares ``paritylab.decide_by_enumeration`` with.

``decide_by_enumeration`` is the per-code form, from before the sweep went by
rest mask and Gray code: every ternary code is decoded digit by digit, and
``_delta_masks`` finds the components of G-(S+T) afresh for each one.
``decide_by_gray_sweep`` is the rest-mask, Gray-code sweep over all 3^n codes,
before blocks were skipped by a lower bound; it is fast enough for n = 9-12,
where the per-code form is not. Both are kept verbatim, but for the
``Decision`` they build, now its witness alone, and for the class of their
cap error, now ``CapExceeded``; do not optimise.
"""
from __future__ import annotations

from itertools import islice

from paritylab.errors import CapExceeded, SelfCheckFailed
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
        raise CapExceeded(
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
        return Decision(None)
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
    return Decision(witness)


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


# as it stood before pruning; do not optimise
def decide_by_gray_sweep(
    g: Graph, spec: ParitySpec, enumeration_cap: int = DEFAULT_ENUMERATION_CAP
) -> Decision:
    """Exhaustive sweep of all 3^n disjoint (S,T) assignments.

    Infeasible iff some delta(S,T) < 0; the returned witness attains the
    minimum delta, ties broken by the smallest ternary encoding (digit of
    vertex i = code // 3**i % 3, with 0 = neither, 1 = S, 2 = T), which makes
    the output canonical.

    The sweep runs over the rest mask R = V - (S+T). The components of G[R]
    are found once per R, and each vertex x outside R gets a toggle mask: the
    components holding an odd number of its neighbours, whose e(C,T) parity
    flips when x enters or leaves T. T then walks the subsets of V - R in
    Gray-code order with S = V - R - T, so each step moves one vertex x
    between S and T. Moving x from S to T adds d(x) - g(x) - f(x) -
    |N(x) - R| + 2|N(x) & T| to f(S) + sum_T (d - g) - e(S,T), the move
    back subtracts it, and tau is the popcount of the component parity mask.
    The walk visits codes out of order, so ties compare codes explicitly.
    """
    _check_spec(g, spec)
    n = g.n
    if n > enumeration_cap:
        raise CapExceeded(
            f"n = {n} exceeds enumeration cap {enumeration_cap}"
        )
    adj_mask = [sum(1 << u for u in g.adjacency[v]) for v in range(n)]
    f = spec.f
    f_odd = sum(1 << v for v in range(n) if f[v] & 1)
    move = [g.degree(v) - spec.g[v] - f[v] for v in range(n)]
    pow3 = [3 ** v for v in range(n)]
    # the j-th Gray-code step flips bit ruler[j-1]; its first 2^k - 1 entries
    # walk every subset of k positions
    ruler = [(i & -i).bit_length() - 1 for i in range(1, 1 << n)]
    # the first pair swept: R = {}, T = {}, S = V
    best_delta, best_code = spec.f_total, sum(pow3)
    for rest in range(1 << n):
        outside = [v for v in range(n) if not rest >> v & 1]
        toggles = [0] * len(outside)
        parity = 0  # bit i set iff component i has e(C,T) + f(C) odd
        bit = 1
        todo = rest
        while todo:
            comp = frontier = todo & -todo
            while frontier:
                reach = 0
                while frontier:
                    low = frontier & -frontier
                    frontier ^= low
                    reach |= adj_mask[low.bit_length() - 1]
                frontier = reach & todo & ~comp
                comp |= frontier
            todo ^= comp
            if (comp & f_odd).bit_count() & 1:
                parity |= bit
            for j, v in enumerate(outside):
                if (adj_mask[v] & comp).bit_count() & 1:
                    toggles[j] |= bit
            bit <<= 1
        bits = [1 << v for v in outside]
        nbrs = [adj_mask[v] for v in outside]
        base = [move[v] - (adj_mask[v] & ~rest).bit_count() for v in outside]
        digits = [pow3[v] for v in outside]
        # start from T = {}, S = V - R
        val = sum(f[v] for v in outside)
        code = sum(digits)
        t_mask = 0
        d_val = val - parity.bit_count()
        if d_val <= best_delta and (d_val < best_delta or code < best_code):
            best_delta, best_code = d_val, code
        for j in islice(ruler, (1 << len(outside)) - 1):
            x = bits[j]
            step = base[j] + 2 * (nbrs[j] & t_mask).bit_count()
            parity ^= toggles[j]
            if t_mask & x:
                val -= step
                code -= digits[j]
            else:
                val += step
                code += digits[j]
            t_mask ^= x
            d_val = val - parity.bit_count()
            if d_val <= best_delta and (d_val < best_delta or code < best_code):
                best_delta, best_code = d_val, code
    if best_delta >= 0:
        return Decision(None)
    s, t = [], []
    for v in range(n):
        best_code, digit = divmod(best_code, 3)
        if digit == 1:
            s.append(v)
        elif digit == 2:
            t.append(v)
    witness = deficiency(g, spec, VertexSet.of(s), VertexSet.of(t))
    if witness.delta != best_delta:
        raise SelfCheckFailed(
            f"mask sweep found delta {best_delta}, deficiency recomputes {witness.delta}"
        )
    return Decision(witness)
