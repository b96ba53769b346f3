"""Deficiency criterion for parity factors: delta(S,T), f-odd components,
exhaustive feasibility decision on small graphs, and witness checking.

delta(S,T) = f(S) + sum_{x in T} d(x) - g(T) - e(S,T) - tau, where tau counts
the components C of G-(S+T) with e(C,T) + f(C) odd. Feasibility holds iff
delta(S,T) >= 0 for all disjoint S, T; a negative delta is therefore a
machine-checkable infeasibility certificate. All arithmetic is exact integers.
``deficiency`` checks S and T once, on entry, and counts each e(C,T) over C's
own adjacency, so one evaluation costs O(n + m).
``decide_by_enumeration`` skips each block of pairs for which a lower bound on
delta cannot beat the best pair found so far; its docstring derives the bounds
and their order. It returns the canonical least-code witness of a walk of all
3^n codes (README, *Exhaustive enumeration*).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import count, islice
from math import lcm
from typing import Iterable, Optional

from .errors import (
    GraphSyntaxError,
    GraphTooLargeForEnumeration,
    InvalidParitySpec,
    ParityLabError,
    SelfCheckFailed,
)
from .graph import (
    Graph,
    VertexSet,
    _edges_into,
    components_after_removal,
    require_disjoint,
    text_lines,
)

DEFAULT_ENUMERATION_CAP = 15
# the largest n that decide_by_enumeration takes, whatever its cap: its three
# 2^n-entry tables take about 60 bytes a mask under CPython 3.11, so 60 MB at
# n = 20 and twice as much for each further vertex
MAX_ENUMERATION_N = 20
_WITNESS_FIELDS = ("S", "T", "delta", "tau")


@dataclass(frozen=True)
class ParitySpec:
    """Per-vertex degree window [g(v), f(v)] with g(v) = f(v) (mod 2)."""

    g: tuple[int, ...]
    f: tuple[int, ...]

    def __post_init__(self):
        if len(self.g) != len(self.f):
            raise InvalidParitySpec("g and f must have the same length")
        for v, (gv, fv) in enumerate(zip(self.g, self.f)):
            if gv < 0:
                raise InvalidParitySpec(f"g({v}) = {gv} is negative")
            if gv > fv:
                raise InvalidParitySpec(f"g({v}) = {gv} exceeds f({v}) = {fv}")
            if (gv - fv) % 2 != 0:
                raise InvalidParitySpec(f"g({v}) = {gv} and f({v}) = {fv} differ in parity")

    @classmethod
    def constant(cls, a: int, b: int, n: int) -> "ParitySpec":
        """The (a,b) case: g = a and f = b at every vertex."""
        return cls((a,) * n, (b,) * n)

    @property
    def n(self) -> int:
        return len(self.g)

    @property
    def f_total(self) -> int:
        return sum(self.f)

    def f_sum(self, vs: Iterable[int]) -> int:
        return sum(self.f[v] for v in vs)

    def g_sum(self, vs: Iterable[int]) -> int:
        return sum(self.g[v] for v in vs)

    def is_constant(self) -> bool:
        return len(set(self.g)) <= 1 and len(set(self.f)) <= 1


@dataclass(frozen=True)
class DeficiencyWitness:
    S: VertexSet
    T: VertexSet
    delta: int
    tau: int


@dataclass(frozen=True)
class Decision:
    feasible: bool
    witness: Optional[DeficiencyWitness] = None


def _check_spec(g: Graph, spec: ParitySpec) -> None:
    if spec.n != g.n:
        raise InvalidParitySpec(f"spec covers {spec.n} vertices, graph has {g.n}")


def _component_scan(
    g: Graph, spec: ParitySpec, s: VertexSet, t: VertexSet
) -> list[tuple[VertexSet, int, bool]]:
    """Each component C of G-(S+T), by ascending least vertex, with e(C,T) and
    whether e(C,T) + f(C) is odd. The spec, S and T are checked here, once."""
    _check_spec(g, spec)
    s.check_bounds(g.n)
    t.check_bounds(g.n)
    require_disjoint(s, t)
    scan = []
    for cvs in components_after_removal(g, VertexSet.of(list(s) + list(t))):
        e_t = _edges_into(g, cvs, t)
        scan.append((cvs, e_t, (e_t + spec.f_sum(cvs)) % 2 == 1))
    return scan


def deficiency(g: Graph, spec: ParitySpec, s: VertexSet, t: VertexSet) -> DeficiencyWitness:
    """Evaluate delta(S,T) exactly, returning the full witness record."""
    tau = sum(is_odd for _, _, is_odd in _component_scan(g, spec, s, t))
    delta = (
        spec.f_sum(s)
        + sum(g.degree(x) for x in t)
        - spec.g_sum(t)
        - _edges_into(g, s, t)
        - tau
    )
    return DeficiencyWitness(s, t, delta, tau)


def _mask_tables(
    adj_mask: list[int], pow3: list[int], least: list[int]
) -> tuple[list[int], list[int], list[int]]:
    """Three tables over the 2^n vertex masks, each entry built from the one
    without the mask's highest vertex h: the least code sum 3^v, the floor
    sum min(f, d - g) - e(G[mask]) (h adds least[h] less its edges to the
    rest), and roots, the vertices with no smaller neighbour in the mask (h
    is one iff it has no neighbour in the rest, and changes no other's)."""
    code_of, floor_of, roots = [0], [0], [0]
    for h, adj in enumerate(adj_mask):
        code_of += [c + pow3[h] for c in code_of]
        floor_of += [x + least[h] - (adj & m).bit_count() for m, x in enumerate(floor_of)]
        roots += [x + (not adj & m) for m, x in enumerate(roots)]
    return code_of, floor_of, roots


def _free_components(
    adj_mask: list[int], f_odd: int, rest: int, out_mask: int
) -> tuple[list[tuple[int, int]], int]:
    """The components C of G[rest] that can be f-odd, by ascending least
    vertex, as (q_C & O, bit) with O = out_mask and one bit each, and the
    mask of the bits of those with f(C) odd."""
    free = []
    parity = 0
    bit = 1
    todo = rest
    while todo:
        comp = frontier = todo & -todo
        q = 0
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                adj = adj_mask[low.bit_length() - 1]
                reach |= adj
                q ^= adj
            frontier = reach & todo & ~comp
            comp |= frontier
        todo ^= comp
        q &= out_mask
        odd = (comp & f_odd).bit_count() & 1
        if q or odd:
            free.append((q, bit))
            if odd:
                parity |= bit
            bit <<= 1
    return free, parity


def decide_by_enumeration(
    g: Graph, spec: ParitySpec, enumeration_cap: int = DEFAULT_ENUMERATION_CAP
) -> Decision:
    """Exhaustive search of all 3^n disjoint (S,T) assignments.

    Infeasible iff some delta(S,T) < 0; the returned witness attains the
    minimum delta, ties broken by the smallest ternary encoding (digit of
    vertex i = code // 3**i % 3, with 0 = neither, 1 = S, 2 = T), which makes
    the output canonical.

    The sweep numbers the vertices breadth-first: from vertex 0, with
    neighbours in ascending id, and each further component from its least
    unnumbered vertex. Masks, adjacency and the per-vertex lists below are in
    that numbering; only the codes 3^v stay in vertex ids, so the walk, the
    tie rule and the witness read the same codes as in id order. The pairs
    are grouped into blocks by their rest mask R = V - (S+T), with O = V - R
    = S + T, and the blocks are taken from R = V (the pair of code 0) down to
    R = {}. The components of G[R] are found once per block that the three
    pre-scan bounds below do not skip. A component C has e(C,T) +
    f(C) odd for some T in O only if f(C) is odd or some x in O has an odd
    number of neighbours in C (x is in q_C, the XOR of the adjacency masks
    of C's vertices); free counts those components, so tau <= free over the
    whole block. With val = f(S) + sum_T (d - g) - e(S,T), so that delta =
    val - tau, every pair of the block has

        val >= sum_O min(f, d - g) - e(G[O]),                       (1)

    since each vertex pays f or d - g and e(S,T) <= e(G[O]), and

        val = f(O) + sum_T base + 2 e(G[T]) >= f(O) + sum_O min(0, base),  (2)

    where base(x) = d(x) - g(x) - f(x) - |N(x) & O|, because e(S,T) =
    sum_T |N(x) & O| - 2 e(G[T]). Either right side less free is a lower
    bound on the block's delta.

    The pairwise bound (3) takes val and tau together. As e(C,T) = |T & q_C|
    (mod 2), a free C is odd exactly when |T & q_C| + f(C) is odd, so

        delta >= sum_S a + sum_T b - (edges of G[O] between S and T)
                 - (odd free C with |q_C| = 2) - c,                 (3)

    where a(x) = f(x) less the free C with q_C = {x} and f(C) odd (odd when
    x is in S), b(x) = d(x) - g(x) less those with f(C) even (odd when x is
    in T), a C with q_C = {x, y} is odd when x and y take different sides if
    f(C) is even and the same side if f(C) is odd, and c counts the other
    free C (q_C = {}, always odd, and |q_C| >= 3, odd at most once). Each
    edge and each C with |q_C| = 2 is a pair term on its two ends. A vertex
    in k(x) > 0 pair terms shares a(x) or b(x) evenly over them, one with
    none pays min(a, b), and each pair term with its two shares is at least
    its minimum over the four side choices of its ends; the sum of those
    minima, rounded up, is the bound (the standard cheap bound of a quadratic
    0-1 function by pair terms; compare roof duality, Hammer, Hansen and
    Simeone 1984). The shares are exact integers in units
    of 1/lcm(1..max degree), since k(x) <= d(x): each C with x in q_C holds
    a neighbour of x.

    The one-sided charge (4) needs no scan. Charge each f-odd component C
    with a neighbour in S to one of its edges to S; distinct components take
    distinct edges, so e(S,T) + (those C) <= sum_S d and

        delta >= sum_S (f - d) + sum_T (d - g) - tau_0
              >= |O & N| * m - min(roots(R), |R & P|),              (4)

    where tau_0 counts the f-odd C with no neighbour in S, N holds the
    vertices with min(f - d, d - g) < 0, m is the least such value (0 if N
    is empty), and P holds the vertices with d + f odd. Such a C has every
    neighbour outside it in T, so e(C,T) = sum_C d - 2 e(G[C]), and C is
    f-odd iff sum_C (d + f) is odd: then C holds a vertex of P and a root of
    R. N, m and P are built once per call. When g <= d <= f and f = d (mod
    2) at every vertex, N and P are empty and (4) is 0, so every block after
    R = V, whose pair gives delta = 0 at code 0, is skipped unscanned. The
    mirror bound, charging components to their edges to T with min(f, -g)
    and P = {f odd}, is left out: beside (4) it skipped one more scan over
    the 16 pinned sweep cases.

    Each bound LB may be rounded up to the parity of f(V), since delta =
    f(V) (mod 2). The block's least code is its T = {} pair, so the block is
    skipped when LB exceeds the best delta found so far, or equals it and
    that least code exceeds the best code: no pair in it could replace the
    best. The best delta has the parity of f(V) as well, so LB rounded up
    exceeds it iff LB > best_delta, and reaches it iff LB > best_delta - 2:
    every bound is tested against one cut per block. The bounds are tried in
    order of cost, each only when the ones before it fail:

    - the table-only bound, (1) less roots(R) in place of free, where
      roots(R) counts the vertices of R with no neighbour in R earlier in
      the numbering. Each component of G[R] has exactly one earliest vertex,
      and it has no earlier neighbour in R, so free <= #components <=
      roots(R), and this bound skips a subset of the blocks (1) skips. In
      breadth-first order every vertex but the first of each component of G
      has an earlier neighbour, so roots(V) is the number of components of
      G. The bound and the block's least code are read from three tables
      built once over all 2^n masks;
    - (4), from two popcounts and a product;
    - (2) less roots(R), from one pass over O that builds base and reads
      f(O) and the list of O as two entries each, from tables over the low
      and the high half of the mask, at O(|O|);
    - (2), with the scan's free count in place of roots(R);
    - (3), at O(|O| + e(G[O]) + free), its vertex terms and pair-term
      counts held in three lists per call, reset on O in each block.

    (1) less free is not tried after the scan: (3) is never below it. Each
    pair term is at least its two ends' smaller shares less 1; a vertex's
    shares add up to a(x) and b(x), so its smaller shares add up to
    min(a, b), which a vertex in no pair term pays itself; and min(a, b) >=
    min(f, d - g) less the vertex's free C with |q_C| = 1. With -1 for each
    other free C, (3) >= sum_O min(f, d - g) - e(G[O]) - free. (2) less
    free has no such bound: on some blocks it exceeds (3), even rounded.

    A block that is not skipped gives each x in O a toggle mask: the free
    components that hold an odd number of its neighbours, whose e(C,T)
    parity flips when x enters or leaves T. T then walks the subsets of O
    in Gray-code order with S = O - T, so each step moves one vertex x
    between S and T. Moving x from S to T adds base(x) + 2|N(x) & T| to val,
    the move back subtracts it, and tau is the popcount of the component
    parity mask. The walk visits codes out of order, so ties compare codes
    explicitly.
    """
    _check_spec(g, spec)
    n = g.n
    cap = min(enumeration_cap, MAX_ENUMERATION_N)
    if n > cap:
        raise GraphTooLargeForEnumeration(f"n = {n} exceeds enumeration cap {cap}")
    # number the vertices in breadth-first order, each component from its
    # least vertex: position i holds vertex order[i]; codes stay in vertex ids
    order: list[int] = []
    placed = [False] * n
    for root in range(n):
        if not placed[root]:
            placed[root] = True
            queue = [root]
            for v in queue:
                for u in g.adjacency[v]:
                    if not placed[u]:
                        placed[u] = True
                        queue.append(u)
            order += queue
    rank = [0] * n
    for i, v in enumerate(order):
        rank[v] = i
    adj_mask = [sum(1 << rank[u] for u in g.adjacency[v]) for v in order]
    f = [spec.f[v] for v in order]
    f_odd = sum(1 << i for i in range(n) if f[i] & 1)
    deg = [g.degree(v) for v in order]
    gap = [deg[i] - spec.g[v] for i, v in enumerate(order)]
    move = [gap[i] - f[i] for i in range(n)]
    # the one-sided charge: each x in O pays at least min(f - d, d - g), which
    # is below 0 only on short, and at least worst there; the f-odd
    # components with no neighbour in S hold an odd number of the vertices
    # with d + f odd
    charge = [min(f[i] - deg[i], gap[i]) for i in range(n)]
    short = sum(1 << i for i in range(n) if charge[i] < 0)
    worst = min([0, *charge])
    odd_sum = sum(1 << i for i in range(n) if (deg[i] + f[i]) & 1)
    pow3 = [3 ** v for v in order]
    # bound (3)'s neighbours below each position, and a unit that every
    # vertex's count of pair terms (at most its degree) divides
    below = [[rank[u] for u in g.adjacency[v] if rank[u] < i] for i, v in enumerate(order)]
    unit = lcm(*range(1, max(g.degrees, default=0) + 1))
    code_of, floor_of, roots = _mask_tables(
        adj_mask, pow3, [min(f[i], gap[i]) for i in range(n)]
    )
    full = (1 << n) - 1
    # the positions in O and f(O), each the sum of two entries, one from a
    # table over the low half of the mask and one over the high half
    half = n // 2
    low_bits = (1 << half) - 1
    low_out, high_out, low_f, high_f = [[]], [[]], [0], [0]
    for v in range(n):
        out, f_of = (low_out, low_f) if v < half else (high_out, high_f)
        out += [vs + [v] for vs in out]
        f_of += [x + f[v] for x in f_of]
    # a pair of the last block, R = {}: T = {}, S = V
    best_delta, best_code = spec.f_total, code_of[full]
    # bound (3)'s vertex terms and pair-term counts, reset on O in each block
    on_s, on_t, k = [0] * n, [0] * n, [0] * n
    # the blocks by ascending O, so R = V - O = full - out_mask descends
    for out_mask, code, first, roots_r in zip(count(), code_of, floor_of, reversed(roots)):
        # skip the block when a lower bound on its delta exceeds cut, the one
        # cut per block of the docstring
        cut = best_delta - 2 if code > best_code else best_delta
        # bounds (1), (4) and (2), with roots(R) >= free in place of free,
        # before the component scan
        if first - roots_r > cut:
            continue
        # bound (4), the one-sided charge, from two popcounts
        odd_rest = ((full ^ out_mask) & odd_sum).bit_count()
        if (out_mask & short).bit_count() * worst - min(roots_r, odd_rest) > cut:
            continue
        outside = low_out[out_mask & low_bits] + high_out[out_mask >> half]
        base = [move[v] - (adj_mask[v] & out_mask).bit_count() for v in outside]
        f_out = low_f[out_mask & low_bits] + high_f[out_mask >> half]
        second = f_out + sum([b for b in base if b < 0])
        if second - roots_r > cut:
            continue
        free, parity = _free_components(adj_mask, f_odd, full ^ out_mask, out_mask)
        if second - len(free) > cut:
            continue
        # bound (3), the pairwise bound: split each vertex's own terms evenly,
        # in units of 1/unit, over the pair terms it is in, and minimise each
        # pair term alone over its four side choices
        for v in outside:
            on_s[v] = f[v]
            on_t[v] = gap[v]
            k[v] = move[v]  # k[v] - base becomes v's count of pair terms
        lb = 0
        # (x, y, f(C) odd) of each free C with q_C = {x, y}: C is odd when x
        # and y take the same side if f(C) is odd, different ones if not, so it
        # is priced as an edge, with y's sides swapped if f(C) is odd
        twos = []
        for q, bit in free:
            size = q.bit_count()
            if size == 1:
                if parity & bit:
                    on_s[q.bit_length() - 1] -= 1
                else:
                    on_t[q.bit_length() - 1] -= 1
            elif size == 2:
                x = (q & -q).bit_length() - 1
                y = q.bit_length() - 1
                k[x] += 1
                k[y] += 1
                twos.append((x, y, parity & bit))
            else:
                lb -= 1
        total = 0
        for v, b in zip(outside, base):
            kv = k[v] - b
            if not kv:
                lb += min(on_s[v], on_t[v])
                continue
            sv = on_s[v] = on_s[v] * unit // kv
            tv = on_t[v] = on_t[v] * unit // kv
            for y in below[v]:
                if out_mask >> y & 1:
                    sy = on_s[y]
                    ty = on_t[y]
                    total += min(sv + sy, tv + ty, sv + ty - unit, tv + sy - unit)
        for x, y, same in twos:
            sx, tx = on_s[x], on_t[x]
            ty, sy = (on_s[y], on_t[y]) if same else (on_t[y], on_s[y])
            total += min(sx + sy, tx + ty, sx + ty - unit, tx + sy - unit)
        if lb - total // -unit > cut:
            continue
        flips = [0] * n
        for q, bit in free:
            while q:
                low = q & -q
                q ^= low
                flips[low.bit_length() - 1] |= bit
        toggles = [flips[v] for v in outside]
        bits = [1 << v for v in outside]
        nbrs = [adj_mask[v] for v in outside]
        digits = [pow3[v] for v in outside]
        # start from T = {}, S = O, the pair of the block's least code
        val = f_out
        t_mask = 0
        d_val = val - parity.bit_count()
        if d_val <= best_delta and (d_val < best_delta or code < best_code):
            best_delta, best_code = d_val, code
        # step i of the Gray code flips position ruler[i - 1], the lowest set
        # bit of i; its first 2^k - 1 steps walk every subset of k positions
        ruler = ((i & -i).bit_length() - 1 for i in count(1))
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
        return Decision(True, None)
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
    return Decision(False, witness)


def verify_witness(
    g: Graph, spec: ParitySpec, w: DeficiencyWitness
) -> tuple[bool, str]:
    """Accept iff the recorded witness recomputes exactly and proves infeasibility.
    A spec that does not fit the graph is no fault of the witness: it raises."""
    _check_spec(g, spec)
    try:
        recomputed = deficiency(g, spec, w.S, w.T)
    except ParityLabError as exc:  # malformed witnesses are rejected, not raised
        return False, f"malformed witness: {exc}"
    if recomputed.delta != w.delta:
        return False, f"delta mismatch: recorded {w.delta}, recomputed {recomputed.delta}"
    if recomputed.tau != w.tau:
        return False, f"tau mismatch: recorded {w.tau}, recomputed {recomputed.tau}"
    if w.delta >= 0:
        return False, f"delta = {w.delta} is nonnegative; not an infeasibility proof"
    return True, "ok"


def serialize_witness(w: DeficiencyWitness) -> str:
    def ids(vs: VertexSet) -> str:
        return "".join(f" {v}" for v in vs)

    return f"S:{ids(w.S)}\nT:{ids(w.T)}\ndelta: {w.delta}\ntau: {w.tau}\n"


def parse_witness(text: str) -> DeficiencyWitness:
    fields: dict[str, tuple[int, str]] = {}
    for lineno, line in text_lines(text):
        key, _, rest = line.partition(":")
        key = key.strip()
        if key not in _WITNESS_FIELDS:
            raise GraphSyntaxError(f"line {lineno}: unknown witness field {key!r}")
        if key in fields:
            raise GraphSyntaxError(f"line {lineno}: repeated witness field {key!r}")
        fields[key] = (lineno, rest.strip())
    values = []
    for key in _WITNESS_FIELDS:
        if key not in fields:
            raise GraphSyntaxError(f"witness block missing field {key!r}")
        lineno, rest = fields[key]
        try:
            values.append(VertexSet.of(map(int, rest.split())) if key in ("S", "T") else int(rest))
        except ValueError:
            raise GraphSyntaxError(f"line {lineno}: bad {key} field {rest!r}") from None
    return DeficiencyWitness(*values)
