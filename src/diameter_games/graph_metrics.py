"""Distance and expansion metrics for simple undirected graphs on {0..n-1}.

All distances are measured in the given graph only.  Unreachable pairs get
INFINITE (math.inf), a distinguished non-integer value: comparisons such as
``dist <= d`` are False for unreachable pairs without any sentinel tricks.

A graph is stored as closed-neighbourhood vertex bitmasks (closed_masks),
and every distance below comes from one ring BFS on them, spheres().
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

INFINITE = math.inf


class InvalidGraph(ValueError):
    pass


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph: vertex set {0..n-1} plus a set of edges (u, v), u < v, kept as its closed_masks."""

    n: int
    edges: frozenset[tuple[int, int]]
    closed: list[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.n
        if n < 0:
            raise InvalidGraph(f"vertex count must be nonnegative, got {n}")
        closed = [1 << v for v in range(n)]
        for u, v in self.edges:
            if not (0 <= u < v < n):
                raise InvalidGraph(f"edge ({u}, {v}) is not canonical for n={n}")
            closed[u] |= 1 << v
            closed[v] |= 1 << u
        object.__setattr__(self, "closed", closed)

    def neighbors(self, v: int) -> list[int]:
        if not 0 <= v < self.n:
            raise InvalidGraph(f"vertex {v} out of range for n={self.n}")
        return set_bits(self.closed[v] & ~(1 << v))


def graph_from_edges(n: int, edges) -> Graph:
    """The Graph on {0..n-1} with these edges, each given as a tuple (u, v) or (v, u).

    Any iterable of such tuples will do, a one-shot generator too: it is frozen
    once, and a set of canonical pairs (u < v) becomes the Graph as it is.
    Only input holding a reversed pair is canonicalised, and built again.
    Loops and vertices outside {0..n-1} raise InvalidGraph.
    """
    edges = frozenset(edges)
    try:
        return Graph(n, edges)
    except InvalidGraph:
        # The same Graph the canonical pairs give, or the same error.
        return Graph(n, frozenset((u, v) if u < v else (v, u) for u, v in edges))


def closed_masks(n: int, edges: Iterable[tuple[int, int]]) -> list[int]:
    """Closed-neighbourhood vertex masks: entry v is (1 << v) | OR(1 << w for each edge vw).

    The one format for a graph in this package: a Graph's `closed`,
    GameState.closed(player) for each player's graph on the live board,
    and the exact solvers'.
    """
    bits = _vertex_bits(n)
    closed = list(bits)
    for u, v in edges:
        closed[u] |= bits[v]
        closed[v] |= bits[u]
    return closed


@lru_cache(maxsize=4)
def _vertex_bits(n: int) -> tuple[int, ...]:
    """1 << v for every vertex v < n, built once per board size: the exact
    verifiers build masks for every snapshot they hand a strategy."""
    return tuple(1 << v for v in range(n))


def complement(closed: Sequence[int]) -> list[int]:
    """Closed masks of the graph joining every pair that `closed` does not join.

    Vertex v keeps v and swaps every other bit: on the live board, the
    complement of one player's graph is every edge that player lacks.
    """
    everyone = (1 << len(closed)) - 1
    return [everyone ^ m | 1 << v for v, m in enumerate(closed)]


def set_bits(mask: int) -> list[int]:
    """The vertices of a vertex mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def spheres(closed: Sequence[int], source: int, limit: float = INFINITE) -> list[int]:
    """Ring masks of the BFS from source: entry k holds the vertices at distance k.

    Stops after depth `limit`, or after the last nonempty ring.  The rings
    are disjoint, so their sum is the ball of radius `limit` around source.
    """
    ball = frontier = 1 << source
    rings = [frontier]
    while len(rings) <= limit:
        grow = 0
        for x in set_bits(frontier):
            grow |= closed[x]
        frontier = grow & ~ball
        if not frontier:
            break
        ball |= frontier
        rings.append(frontier)
    return rings


def diameter_within(closed: Sequence[int], d: int) -> bool:
    """True iff the graph has diameter <= d, i.e. every radius-d ball is
    the whole vertex set.

    A ball grows by OR-ing the masks of its newest vertices.  The target
    property diameter<=d, solve() and verify_one_sided() run it on every
    check, so it inlines its ring loop and stops at the first ball that
    cannot cover the board.
    """
    if d < 1:
        return len(closed) <= 1
    everyone = (1 << len(closed)) - 1
    for ball in closed:
        frontier = ball
        for _ in range(d - 1):
            if ball == everyone:
                break
            grow = 0
            while frontier:
                low = frontier & -frontier
                grow |= closed[low.bit_length() - 1]
                frontier ^= low
            frontier = grow & ~ball
            if not frontier:
                return False
            ball |= grow
        if ball != everyone:
            return False
    return True


def _check_centre(g: Graph, v: int, radius: int | float) -> None:
    if not 0 <= v < g.n:
        raise InvalidGraph(f"vertex {v} out of range for n={g.n}")
    if radius < 0:
        raise InvalidGraph(f"radius must be nonnegative, got {radius}")


def dist(g: Graph, u: int, v: int) -> int | float:
    """Length of a shortest u-v path, or INFINITE if none exists."""
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise InvalidGraph(f"vertices ({u}, {v}) out of range for n={g.n}")
    for k, ring in enumerate(spheres(g.closed, u)):
        if ring >> v & 1:
            return k
    return INFINITE


def ball(g: Graph, v: int, radius: int | float) -> frozenset[int]:
    """All vertices within distance `radius` of v (v itself included)."""
    _check_centre(g, v, radius)
    return frozenset(set_bits(sum(spheres(g.closed, v, radius))))


def sphere(g: Graph, v: int, radius: int) -> frozenset[int]:
    """Vertices at distance exactly `radius` from v."""
    _check_centre(g, v, radius)
    rings = spheres(g.closed, v, radius)
    return frozenset(set_bits(rings[radius])) if radius < len(rings) else frozenset()


def diameter(g: Graph) -> int | float:
    """Largest pairwise distance; INFINITE when g is disconnected.

    Duality used throughout this package: diameter(g) <= d holds iff
    |ball(g, v, d)| == n for every vertex v.
    """
    if g.n < 2:
        raise InvalidGraph("diameter needs at least two vertices")
    everyone = (1 << g.n) - 1
    worst = 0
    for v in range(g.n):
        rings = spheres(g.closed, v)
        if sum(rings) != everyone:
            return INFINITE
        worst = max(worst, len(rings) - 1)
    return worst


@dataclass(frozen=True)
class DegreeProfile:
    degrees: tuple[int, ...]
    min_degree: int
    max_degree: int


def degree_profile(g: Graph) -> DegreeProfile:
    degs = tuple(mask.bit_count() - 1 for mask in g.closed)
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
    return expansion_of_closed(g.closed, r, s)


def expansion_of_closed(closed: Sequence[int], r: int, s: int) -> bool:
    """has_expansion on the closed masks of a graph on len(closed) vertices, sizes unchecked.

    For a fixed R, a violating S exists exactly when at least s vertices lie
    outside R with no edge into R, that is when the popcount of
    OR(closed[v] for v in R) is at most n - s.  Enumerating R-sets and
    OR-ing their masks costs O(C(n, r) * r) mask operations, with no
    enumeration of S-sets.  The union only grows with R, so a vertex whose
    own mask already has more than n - s bits lies in no violating R; only
    the other vertices are combined, and fewer than r of them means True.
    """
    limit = len(closed) - s
    low = [mask for mask in closed if mask.bit_count() <= limit]
    for rmasks in combinations(low, r):
        covered = 0
        for mask in rmasks:
            covered |= mask
        if covered.bit_count() <= limit:
            return False
    return True
