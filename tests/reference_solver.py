"""The factor verifier as it stood before it was made one pass over the
factor: the reference that ``test_solver.py`` compares
``paritylab.verify_factor`` with.

It checks membership edge by edge, then repeats through a set of canonical
pairs, then builds the degrees with ``Factor.degrees`` and checks each
vertex. Kept verbatim; do not optimise.
"""
from __future__ import annotations

from paritylab.graph import Graph
from paritylab.lovasz import ParitySpec, _check_spec
from paritylab.solver import Factor


def verify_factor(g: Graph, spec: ParitySpec, factor: Factor) -> tuple[bool, str]:
    """Independent check of edge membership, degree bounds, and parity."""
    _check_spec(g, spec)
    if factor.n != g.n:
        return False, f"factor is on {factor.n} vertices, graph has {g.n}"
    for u, v in factor.edges:
        if not g.has_edge(u, v):
            return False, f"edge ({u},{v}) not in the graph"
    if len({(min(u, v), max(u, v)) for u, v in factor.edges}) != len(factor.edges):
        return False, "repeated edge in factor"
    deg = factor.degrees
    for v in range(g.n):
        if (deg[v] - spec.f[v]) % 2 != 0:
            return False, f"vertex {v}: degree {deg[v]} has wrong parity"
        if deg[v] < spec.g[v]:
            return False, f"vertex {v}: degree {deg[v]} below lower bound {spec.g[v]}"
        if deg[v] > spec.f[v]:
            return False, f"vertex {v}: degree {deg[v]} above upper bound {spec.f[v]}"
    return True, "ok"
