"""Deficiency criterion for parity factors: delta(S,T), f-odd components,
exhaustive feasibility decision on small graphs, and witness checking.

delta(S,T) = f(S) + sum_{x in T} d(x) - g(T) - e(S,T) - tau, where tau counts
the components C of G-(S+T) with e(C,T) + f(C) odd. Feasibility holds iff
delta(S,T) >= 0 for all disjoint S, T; a negative delta is therefore a
machine-checkable infeasibility certificate. All arithmetic is exact integers.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import (
    GraphSyntaxError,
    GraphTooLargeForEnumeration,
    InvalidParitySpec,
    SelfCheckFailed,
)
from .graph import (
    Graph,
    VertexSet,
    components_after_removal,
    edges_between,
    require_disjoint,
)

DEFAULT_ENUMERATION_CAP = 15


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
    odd_components: tuple[VertexSet, ...] = ()


@dataclass(frozen=True)
class Decision:
    feasible: bool
    witness: Optional[DeficiencyWitness] = None


def _check_spec(g: Graph, spec: ParitySpec) -> None:
    if spec.n != g.n:
        raise InvalidParitySpec(f"spec covers {spec.n} vertices, graph has {g.n}")


def f_odd_components(
    g: Graph, spec: ParitySpec, s: VertexSet, t: VertexSet
) -> tuple[int, list[VertexSet]]:
    """Components C of G-(S+T) with e_G(C,T) + f(C) odd, and their count."""
    _check_spec(g, spec)
    s.check_bounds(g.n)
    t.check_bounds(g.n)
    require_disjoint(s, t)
    removed = VertexSet.of(list(s) + list(t))
    odd = []
    for cvs in components_after_removal(g, removed):
        if (edges_between(g, cvs, t) + spec.f_sum(cvs)) % 2 == 1:
            odd.append(cvs)
    return len(odd), odd


def deficiency(g: Graph, spec: ParitySpec, s: VertexSet, t: VertexSet) -> DeficiencyWitness:
    """Evaluate delta(S,T) exactly, returning the full witness record."""
    tau, odd = f_odd_components(g, spec, s, t)
    delta = (
        spec.f_sum(s)
        + sum(g.degree(x) for x in t)
        - spec.g_sum(t)
        - edges_between(g, s, t)
        - tau
    )
    return DeficiencyWitness(s, t, delta, tau, tuple(odd))


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


def verify_witness(
    g: Graph, spec: ParitySpec, w: DeficiencyWitness
) -> tuple[bool, str]:
    """Accept iff the recorded witness recomputes exactly and proves infeasibility."""
    try:
        recomputed = deficiency(g, spec, w.S, w.T)
    except Exception as exc:  # malformed witnesses are rejected, not raised
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
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(":")
        fields[key.strip()] = (lineno, rest.strip())
    values = []
    for key in ("S", "T", "delta", "tau"):
        if key not in fields:
            raise GraphSyntaxError(f"witness block missing field {key!r}")
        lineno, rest = fields[key]
        try:
            values.append(VertexSet.of(map(int, rest.split())) if key in ("S", "T") else int(rest))
        except ValueError:
            raise GraphSyntaxError(f"line {lineno}: bad {key} field {rest!r}") from None
    return DeficiencyWitness(*values)
