"""The blossom matcher as it stood before contractions were made local: the
reference that ``test_matching.py`` compares ``paritylab.max_matching`` with.

Every search allocates its own O(n) ``parent``, ``base`` and ``in_queue``
arrays, and every contraction rescans all n vertices to relabel bases and
queue the newly even ones in ascending id. Kept verbatim; do not optimise.
"""
from __future__ import annotations

from collections import deque

from paritylab.graph import Graph
from paritylab.matching import Matching


def max_matching(g: Graph) -> Matching:
    n = g.n
    adj = g.adjacency
    match = [-1] * n
    for v in range(n):
        if match[v] < 0:
            for u in adj[v]:
                if match[u] < 0:
                    match[v] = u
                    match[u] = v
                    break
    for v in range(n):
        if match[v] < 0:
            _try_augment(n, adj, match, v)
    return Matching(tuple(match))


def _try_augment(n, adj, match, root) -> bool:
    """Search for an augmenting path from an exposed root; apply it if found."""
    parent = [-1] * n
    base = list(range(n))
    in_queue = [False] * n
    in_queue[root] = True
    q = deque([root])
    while q:
        v = q.popleft()
        for to in adj[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] >= 0 and parent[match[to]] >= 0):
                # edge closes an odd cycle: contract the blossom
                cur_base = _lca(match, base, parent, v, to)
                in_blossom = [False] * n
                _mark_path(match, base, parent, in_blossom, v, cur_base, to)
                _mark_path(match, base, parent, in_blossom, to, cur_base, v)
                for i in range(n):
                    if in_blossom[base[i]]:
                        base[i] = cur_base
                        if not in_queue[i]:
                            in_queue[i] = True
                            q.append(i)
            elif parent[to] < 0:
                parent[to] = v
                if match[to] < 0:
                    # augment along the alternating path back to the root
                    while to >= 0:
                        pv = match[parent[to]]
                        match[to] = parent[to]
                        match[parent[to]] = to
                        to = pv
                    return True
                nxt = match[to]
                in_queue[nxt] = True
                q.append(nxt)
    return False


def _lca(match, base, parent, a, b) -> int:
    seen = set()
    v = a
    while True:
        v = base[v]
        seen.add(v)
        if match[v] < 0:
            break
        v = parent[match[v]]
    v = b
    while True:
        v = base[v]
        if v in seen:
            return v
        v = parent[match[v]]


def _mark_path(match, base, parent, in_blossom, v, stop, child) -> None:
    while base[v] != stop:
        in_blossom[base[v]] = True
        in_blossom[base[match[v]]] = True
        parent[v] = child
        child = match[v]
        v = parent[match[v]]
