"""Distance and expansion metrics for simple undirected graphs on {0..n-1}.

All distances are measured in the given graph only.  Unreachable pairs get
INFINITE (math.inf), a distinguished non-integer value: comparisons such as
``dist <= d`` are False for unreachable pairs without any sentinel tricks.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import combinations

INFINITE = math.inf


class InvalidGraph(ValueError):
    pass


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph: vertex set {0..n-1} plus a set of edges (u, v), u < v."""

    n: int
    edges: frozenset[tuple[int, int]]
    _adj: dict[int, list[int]] = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise InvalidGraph(f"vertex count must be nonnegative, got {self.n}")
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise InvalidGraph(f"edge ({u}, {v}) is not canonical for n={self.n}")
        adj: dict[int, list[int]] = {v: [] for v in range(self.n)}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for v in adj:
            adj[v].sort()
        object.__setattr__(self, "_adj", adj)

    def neighbors(self, v: int) -> list[int]:
        return self._adj[v]


def graph_from_edges(n: int, edges) -> Graph:
    canon = frozenset((u, v) if u < v else (v, u) for u, v in edges)
    return Graph(n, canon)


def bfs_levels(adj: Sequence[Iterable[int]] | Mapping[int, Iterable[int]], source: int, limit: float = INFINITE) -> dict[int, int]:
    """Level map of the BFS tree rooted at source, truncated at depth `limit`.

    adj[v] lists v's neighbours: a Graph's, or GameState.maker_adjacency(),
    which the target properties in game_core walk on the live board.
    """
    seen = {source: 0}
    frontier = [source]
    depth = 0
    while frontier and depth < limit:
        depth += 1
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in seen:
                    seen[w] = depth
                    nxt.append(w)
        frontier = nxt
    return seen


def dist(g: Graph, u: int, v: int) -> int | float:
    """Length of a shortest u-v path, or INFINITE if none exists."""
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise InvalidGraph(f"vertices ({u}, {v}) out of range for n={g.n}")
    if u == v:
        return 0
    levels = bfs_levels(g._adj, u)
    return levels.get(v, INFINITE)


def ball(g: Graph, v: int, radius: int | float) -> frozenset[int]:
    """All vertices within distance `radius` of v (v itself included)."""
    if not 0 <= v < g.n:
        raise InvalidGraph(f"vertex {v} out of range for n={g.n}")
    if radius < 0:
        raise InvalidGraph(f"radius must be nonnegative, got {radius}")
    return frozenset(bfs_levels(g._adj, v, limit=radius))


def sphere(g: Graph, v: int, radius: int) -> frozenset[int]:
    """Vertices at distance exactly `radius` from v."""
    levels = bfs_levels(g._adj, v, limit=radius)
    return frozenset(w for w, d in levels.items() if d == radius)


def diameter(g: Graph) -> int | float:
    """Largest pairwise distance; INFINITE when g is disconnected.

    Duality used throughout this package: diameter(g) <= d holds iff
    |ball(g, v, d)| == n for every vertex v.
    """
    if g.n < 2:
        raise InvalidGraph("diameter needs at least two vertices")
    worst = 0
    for v in range(g.n):
        levels = bfs_levels(g._adj, v)
        if len(levels) < g.n:
            return INFINITE
        ecc = max(levels.values())
        if ecc > worst:
            worst = ecc
    return worst


@dataclass(frozen=True)
class DegreeProfile:
    degrees: tuple[int, ...]
    min_degree: int
    max_degree: int


def degree_profile(g: Graph) -> DegreeProfile:
    degs = tuple(len(g.neighbors(v)) for v in range(g.n))
    if not degs:
        return DegreeProfile((), 0, 0)
    return DegreeProfile(degs, min(degs), max(degs))


def has_expansion(g: Graph, r: int, s: int) -> bool:
    """True iff every pair of disjoint vertex sets (R, S) with |R|=r, |S|=s has an edge between them.

    Checks the sizes and runs expansion_of_closed on g's closed masks.
    """
    if r < 1 or s < 1:
        raise InvalidGraph(f"set sizes must be positive, got r={r}, s={s}")
    if r + s > g.n:
        raise InvalidGraph(f"r + s = {r + s} exceeds vertex count {g.n}")
    return expansion_of_closed(closed_masks(g.n, g.edges), r, s)


def closed_masks(n: int, edges: Iterable[tuple[int, int]]) -> list[int]:
    """Closed-neighbourhood vertex masks: entry v is (1 << v) | OR(1 << w for each edge vw)."""
    closed = [1 << v for v in range(n)]
    for u, v in edges:
        closed[u] |= 1 << v
        closed[v] |= 1 << u
    return closed


def expansion_of_closed(closed: Sequence[int], r: int, s: int) -> bool:
    """has_expansion on the closed masks of a graph on len(closed) vertices, sizes unchecked.

    For a fixed R, a violating S exists exactly when at least s vertices lie
    outside R with no edge into R, that is when the popcount of
    OR(closed[v] for v in R) is at most n - s.  Enumerating R-sets and
    OR-ing their masks costs O(C(n, r) * r) mask operations, with no
    enumeration of S-sets.
    """
    limit = len(closed) - s
    for rmasks in combinations(closed, r):
        covered = 0
        for mask in rmasks:
            covered |= mask
        if covered.bit_count() <= limit:
            return False
    return True
