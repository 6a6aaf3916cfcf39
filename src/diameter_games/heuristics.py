"""Deterministic-given-seed opponents for experiments and stress tests.

These are deliberately simple adversaries: strong enough to punish broken
strategies, cheap enough to run thousands of matches.  Degrees, ownership
and open edges come from the board (GameState.board_index()), so the
degree-based players keep no copy of them, and the lowest open edges come
from GameState.lowest_open(); what a strategy does keep (an unclaimed-edge
pool, a pair-scan cursor) follows game_core.LogCursor's rule.  The
deterministic strategies are therefore snapshot-pure under the verifiers;
RandomStrategy stays legal there, though its draws depend on its
generator's history.

EsbDegreeBreaker picks through potential_engine.best_open_pair, the one
pick it shares with the degree-game potential (DegreeWeightState): the
row-major first maximum of w[u] + w[v] over the open pairs.  That pick is
exact without the n x n score matrix because rounded float addition is
monotone, so a row's best score is w[u] plus its best open partner's
weight, and rows scanned by descending weight can stop once the sum of the
next two weights falls below the best score found.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .game_core import Edge, GameState, LogCursor, Player, mk_edge
from .potential_engine import OpenPairs


class RandomStrategy:
    """Claims uniformly random unclaimed edges (seeded).

    The pool is seeded from the sorted unclaimed set on first use and kept
    current by swap-popping edges as they leave play, so draws depend only
    on the seed and the game, never on set iteration order.
    """

    def __init__(self, rng: random.Random, name: str = "random"):
        self.rng = rng
        self.name = name
        self._pool: list[Edge] = []
        self._pos: dict[Edge, int] = {}
        self._log = LogCursor()

    def _remove(self, edge: Edge) -> None:
        i = self._pos.pop(edge, None)
        if i is None:
            return
        last = self._pool.pop()
        if last != edge:
            self._pool[i] = last
            self._pos[last] = i

    def _sync(self, state: GameState) -> None:
        new = self._log.new_claims(state)
        if new is None:
            self._pool = sorted(state.unclaimed)
            self._pos = {e: i for i, e in enumerate(self._pool)}
        else:
            for _, edge in new:
                self._remove(edge)

    def select(self, state: GameState) -> list[Edge]:
        self._sync(state)
        count = state.required_claim_count(state.to_move)
        picks: list[Edge] = []
        for _ in range(count):
            edge = self._pool[self.rng.randrange(len(self._pool))]
            self._remove(edge)
            picks.append(edge)
        return picks


class LowestEdgeStrategy:
    """Always claims the lexicographically first unclaimed edges; a known-weak control."""

    name = "lowest-edge"

    def select(self, state: GameState) -> list[Edge]:
        return state.lowest_open(state.required_claim_count(state.to_move))


class DegreeGreedyStrategy:
    """Raises its own minimum degree: each claim goes to the poorest vertex.

    Per claim: take the lowest-index vertex of minimum own degree that still
    has an unclaimed incident edge, then the incident edge whose far endpoint
    has minimum own degree (ties to the lowest index).
    """

    name = "degree-greedy"

    _BIG = 1 << 40

    def select(self, state: GameState) -> list[Edge]:
        board = state.board_index()
        count = state.required_claim_count(state.to_move)
        deg = board.deg[state.to_move].copy()
        open_deg = (state.n - 1) - board.deg[Player.MAKER] - board.deg[Player.BREAKER]
        open_ = board.open.copy()  # all three take the turn's own picks
        picks: list[Edge] = []
        for _ in range(count):
            has = open_deg > 0
            if not has.any():
                break
            vertex = int(np.argmin(np.where(has, deg, self._BIG)))
            mate = int(np.argmin(np.where(open_[vertex], deg, self._BIG)))
            picks.append(mk_edge(vertex, mate))
            open_[vertex, mate] = False
            open_[mate, vertex] = False
            for x in (vertex, mate):
                deg[x] += 1
                open_deg[x] -= 1
        return picks


class PathGreedyStrategy:
    """Patches the lexicographically first pair still too far apart.

    Finds the first pair (u, v) with own-graph distance > d, BFSes a
    shortest u-v route through own plus unclaimed edges, and claims that
    route's unclaimed edge nearest u.  Falls back to the lowest unclaimed
    edge when no pair is broken or no route exists.  BFS parents resolve to
    the lowest-index vertex of the previous layer, so routes (and therefore
    picks) are reproducible.

    The pair scan resumes from a cursor: once every v > u sits within d of
    u, further own claims cannot break that, so u never needs rescanning.
    """

    def __init__(self, d: int, name: str = "path-greedy"):
        self.d = d
        self.name = name
        self._log = LogCursor()
        self._scan_from = 0
        self._all_close = False

    def _far_pair(self, own: np.ndarray) -> tuple[int, int] | None:
        if self._all_close:
            return None
        n = len(own)
        while self._scan_from < n:
            u = self._scan_from
            visited = np.zeros(n, dtype=bool)
            visited[u] = True
            frontier = visited.copy()
            for _ in range(self.d):
                new = own[frontier].any(axis=0) & ~visited
                if not new.any():
                    break
                visited |= new
                frontier = new
            far = np.flatnonzero(~visited[u + 1 :])
            if far.size:
                return u, int(far[0]) + u + 1
            self._scan_from += 1
        self._all_close = True
        return None

    def _route_edge(self, state: GameState, picks: set[Edge], u: int, v: int) -> Edge | None:
        n = state.n
        board = state.board_index()
        usable = board.open | board.owned[state.to_move]
        parent = np.full(n, -1, dtype=np.int64)
        parent[u] = u
        reached = np.zeros(n, dtype=bool)
        reached[u] = True
        frontier = reached.copy()
        while not reached[v]:
            rows = np.flatnonzero(frontier)
            block = usable[rows]
            new = block.any(axis=0) & ~reached
            if not new.any():
                return None
            cols = np.flatnonzero(new)
            parent[cols] = rows[np.argmax(block[:, cols], axis=0)]
            reached |= new
            frontier = new
        node, pick = v, None
        while node != u:
            prev = int(parent[node])
            edge = mk_edge(prev, node)
            if edge in state.unclaimed and edge not in picks:
                pick = edge
            node = prev
        return pick

    def select(self, state: GameState) -> list[Edge]:
        if self._log.new_claims(state) is None:
            self._scan_from = 0
            self._all_close = False
        own = state.board_index().owned[state.to_move].copy()  # takes the turn's own picks
        count = state.required_claim_count(state.to_move)
        picks: list[Edge] = []
        picked: set[Edge] = set()
        for _ in range(count):
            pick = None
            target = self._far_pair(own)
            if target:
                pick = self._route_edge(state, picked, *target)
            if pick is None:
                pick = state.lowest_open(1, picked)[0]
            picks.append(pick)
            picked.add(pick)
            own[pick[0], pick[1]] = True
            own[pick[1], pick[0]] = True
        return picks


class EsbDegreeBreaker:
    """Breaker scoring vertices by closeness to Maker saturation.

    Vertex weight (1+b)^(-open_degree/a), recomputed from the open degrees
    before every pick; each pick is potential_engine.best_open_pair, the
    open edge of maximum endpoint weight sum with ties lexicographic, found
    without an n x n score matrix.  A potential-flavored adversary for
    degree games.
    """

    name = "esb-degree-breaker"

    def select(self, state: GameState) -> list[Edge]:
        count = state.required_claim_count(state.to_move)
        log_base = math.log(1 + state.b)
        pairs = OpenPairs(state)
        picks: list[Edge] = []
        for _ in range(count):
            pair = pairs.take(np.exp(-pairs.open_deg / state.a * log_base))
            if pair is None:
                break
            picks.append(pair)
        return picks
