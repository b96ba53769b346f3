"""Maximum cardinality matching in general graphs (Edmonds' blossom algorithm).

A greedy matching seeds the search, so only a few augmentations remain on the
dense gadget graphs the factor solver produces. Every vertex still exposed
then roots one breadth-first search for an augmenting path (Edmonds 1965).
Blossoms are contracted implicitly: ``base[v]`` is the base of the outermost
blossom that holds v, and each base of a contracted blossom keeps the list of
the vertices it stands for.

What a contraction touches. An edge between two even vertices v and ``to``
closes an odd cycle. Its base is the lowest common base of the two ends: the
bases on v's path to the root are stamped with a fresh tick, and the walk up
from ``to`` stops at the first stamped base. The two paths are then walked up to
that base again, vertex by vertex, rewriting their ``parent`` pointers. Each
outer blossom on a path is left only through its base b, and b's mate is a
single odd vertex, so the walk relabels as it goes: at each vertex x with
``base[x] == x``, the members of x's blossom (or x alone) and x's mate move
to the common base's member list, and the mate, the only vertex not yet
even, is queued. The two paths share no blossom below the common base, so
no later step reads a base this relabelling changed. A contraction so costs
the length of v's path to the root plus the size of the blossom, not the
size of the graph, in the spirit of Gabow's O(V^3) implementation (Gabow
1976), and allocates nothing unless it makes two or more vertices even (it
then sorts them). The ``parent``, ``base``, ``in_queue`` and ``stamp``
arrays are allocated once per ``max_matching`` call. The tick only grows
over the call, so ``stamp`` is never reset. A successful search resets only
the other entries it set: those of the vertices it queued or labelled odd.
A failed search leaves its tree pruned instead (see the set D below).

Why the enqueue order is kept. A contraction queues the vertices it makes
even in ascending id, the order a scan over all vertices would find them in.
The search order, and with it the matching returned, therefore depends only
on the graph: vertices are scanned in ascending id and adjacency lists are
sorted.

What a scan tests per edge. From an even vertex v, a neighbour ``to`` is
either queued (contract, unless it shares v's base) or, if it has no parent
yet, labelled odd or the end of an augmenting path; anything else is odd, or
pruned by an earlier failed search, and skipped. One ``in_queue`` test stands
for "to is even" because:

- a vertex is queued exactly when it is even: the root, the mate of a vertex
  labelled odd, or a vertex that a contraction relabelled;
- an unqueued ``to`` without a parent is in no blossom, so
  ``base[to] == to``, and no base is unqueued, so v's base is never ``to``;
- v's mate is either queued in v's blossom, so it has v's base, or odd with a
  parent, so the edge to it is skipped without a separate test.

The Gallai–Edmonds set D, at no extra search. D holds the vertices that some
maximum matching leaves exposed: those an even-length alternating path
reaches from an exposed vertex (Gallai 1964, Edmonds 1965). A search that
fails has queued exactly the even vertices its tree T reached. It leaves T
pruned for the rest of the call, as Edmonds allows for a Hungarian tree: its
even vertices take, and its odd vertices keep, ``parent >= 0`` with
``in_queue`` False, so a later scan that meets one fails both of its tests
and skips it. The output is the one a search that reset T would give:

- every edge from an even vertex of T stays inside T, since the failed
  search scanned it and neither augmented nor left T;
- a later search that found T reset could enter T only through an odd vertex
  of T, and inside T it would label T's vertices as T did;
- nothing it would meet in T leads out of T, closes a blossom with vertices
  outside T, or ends an augmenting path;
- so its queue order outside T, the path it augments along, and D are
  unchanged.

No later search queues a vertex of a pruned tree, so the failed trees are
disjoint and no later augmentation touches one, by construction. Every
vertex exposed at the end rooted a search that failed, since a matched
vertex never becomes exposed again, so the concatenation of the failed
searches' queues is D under the final matching.

The Tutte barrier A = N(D) - D, from the same trees. A failed search appends
to A the vertices it labelled odd that no contraction made even. Each has an
even parent in its tree, so it is in N(D); no later search queues a pruned
vertex, so it is in no other tree and not in D; and every edge from an even
vertex of T stays inside T, so N(D) is within D and these vertices. Each
is matched to the vertex its search queued after labelling it, so into D,
as Gallai–Edmonds says. ``max_matching`` returns A sorted as
``Matching.A``, and the solver projects it onto the graph. D is not
returned: it is the union of the components of H - A that hold an exposed
vertex or a vertex matched into A, since the other components of H - A,
those of V - D - A, are perfectly matched within themselves.

Cost per call: O(n + m) to allocate the four arrays and seed, then, per
exposed root, the edges its search scans and its contractions; O(n^3) at
worst. A failed tree is scanned once, by the search that grew it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

__all__ = ["Matching", "max_matching"]


class Adjacency(Protocol):
    """What the matcher reads of a graph: ``Graph`` and the solver's
    ``GadgetMap`` both provide it."""

    @property
    def n(self) -> int: ...

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]: ...


@dataclass(frozen=True)
class Matching:
    # mate[v] = v's partner, or -1 if v is exposed
    mate: tuple[int, ...]
    # N(D) - D, D the Gallai-Edmonds set: the Tutte barrier of the module docstring
    A: tuple[int, ...] = ()

    def __len__(self) -> int:
        return (len(self.mate) - self.mate.count(-1)) // 2


def max_matching(g: Adjacency) -> Matching:
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
    parent = [-1] * n
    base = list(range(n))
    in_queue = [False] * n
    stamp = [0] * n  # per base, the last contraction tick that marked it
    clock = [0]  # the last tick used in this call
    barrier: list[int] = []
    for v in range(n):
        if match[v] < 0:
            _try_augment(adj, match, parent, base, in_queue, stamp, clock, barrier, v)
    return Matching(tuple(match), tuple(sorted(barrier)))


def _try_augment(adj, match, parent, base, in_queue, stamp, clock, barrier, root) -> list[int] | None:
    """Search for an augmenting path from an exposed root; apply it if found.
    Returns None after augmenting, or the even vertices of the failed search;
    a failed search also appends to ``barrier`` the vertices that stayed odd.

    On entry, every live vertex (one in no earlier failed search's tree)
    holds the initial values of ``parent``, ``base`` and ``in_queue`` (-1,
    the identity, False); a pruned vertex holds ``parent >= 0`` and
    ``in_queue`` False, so the scan skips it. A successful search leaves
    the entries it set at their initial values; a failed one prunes its
    tree: its queued and odd vertices are left with ``parent >= 0``.
    ``clock[0]`` holds the last tick taken in this call; ``stamp`` entries
    are never reset, since every contraction takes a fresh tick."""
    queue = [root]  # every vertex ever queued, in order
    odd = []  # vertices given a parent when first reached
    members: dict[int, list[int]] = {}  # base -> its vertices, once it heads a blossom
    in_queue[root] = True
    tick = clock[0]
    for v in queue:  # the loop also reaches the vertices queued while it runs
        for to in adj[v]:
            if in_queue[to]:
                if base[v] == base[to]:
                    continue
                # edge closes an odd cycle: contract the blossom. Its base is
                # the first base on to's path to the root that v's path stamped.
                tick += 1
                b = base[v]
                stamp[b] = tick
                while b != root:
                    b = base[parent[match[b]]]
                    stamp[b] = tick
                cur_base = base[to]
                while stamp[cur_base] != tick:
                    cur_base = base[parent[match[cur_base]]]
                merged = members.get(cur_base)
                if merged is None:
                    merged = members[cur_base] = [cur_base]
                # walk v's path, then to's, up to cur_base; relabel each outer
                # blossom when the walk reaches its base, and queue the base's mate
                start = len(queue)
                x, child = v, to
                for _ in range(2):
                    b = base[x]
                    while b != cur_base:
                        y = match[x]
                        if b == x:
                            inner = members.pop(x, None)
                            if inner is None:
                                base[x] = cur_base
                                merged.append(x)
                            else:
                                for i in inner:
                                    base[i] = cur_base
                                merged += inner
                            base[y] = cur_base
                            merged.append(y)
                            in_queue[y] = True
                            queue.append(y)
                        parent[x] = child
                        child = y
                        x = parent[y]
                        b = base[x]
                    x, child = to, v
                if len(queue) - start > 1:  # queue the newly even in ascending id
                    queue[start:] = sorted(queue[start:])
            elif parent[to] < 0:
                parent[to] = v
                odd.append(to)
                if match[to] < 0:
                    # augment along the alternating path back to the root
                    while to >= 0:
                        pv = match[parent[to]]
                        match[to] = parent[to]
                        match[parent[to]] = to
                        to = pv
                    # a relabelled or re-parented vertex is always queued by now
                    for u in queue:
                        parent[u] = -1
                        base[u] = u
                        in_queue[u] = False
                    for u in odd:
                        parent[u] = -1
                    clock[0] = tick
                    return None
                nxt = match[to]
                in_queue[nxt] = True
                queue.append(nxt)
    barrier += [u for u in odd if not in_queue[u]]  # the odd vertices no blossom took in
    for u in queue:  # odd vertices already have a parent
        parent[u] = root
        in_queue[u] = False
    clock[0] = tick
    return queue
