"""Deterministic-given-seed opponents for experiments and stress tests.

These are deliberately simple adversaries: strong enough to punish broken
strategies, cheap enough to run thousands of matches.  Each keeps a little
state synced incrementally from the move log (degrees, adjacency, an
unclaimed-edge pool), so a turn costs roughly what it claims instead of a
rescan of the whole board.  Instances are per-match; if the log under one
ever rewinds, it rebuilds from the snapshot.

Lex cursors (game_core.LexCursor) follow a stricter rule: LowestEdgeStrategy
and FloodingBreaker restart theirs unless the log is longer than at their
previous select().  Forward play always lengthens the log.  In an exhaustive
verifier's DFS, the first scripted turn of a sibling branch is no deeper than
the scripted turn before it, so a deeper call lies below the previous one:
its log extends that log, and every edge behind the cursor is still claimed.
Both strategies are therefore snapshot-pure under the verifiers.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .game_core import Edge, GameState, LexCursor, Player, mk_edge


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
        self._synced = -1

    def _remove(self, edge: Edge) -> None:
        i = self._pos.pop(edge, None)
        if i is None:
            return
        last = self._pool.pop()
        if last != edge:
            self._pool[i] = last
            self._pos[last] = i

    def _sync(self, state: GameState) -> None:
        if self._synced < 0 or self._synced > len(state.move_log):
            self._pool = sorted(state.unclaimed)
            self._pos = {e: i for i, e in enumerate(self._pool)}
        else:
            for _, edge in state.move_log[self._synced :]:
                self._remove(edge)
        self._synced = len(state.move_log)

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

    def __init__(self) -> None:
        self._lex: LexCursor | None = None
        self._log_len = -1

    def select(self, state: GameState) -> list[Edge]:
        if self._lex is None:
            self._lex = LexCursor(state.n)
        elif len(state.move_log) <= self._log_len:
            self._lex.reset()
        self._log_len = len(state.move_log)
        return self._lex.take(state.unclaimed, state.required_claim_count(state.to_move))


class DegreeGreedyStrategy:
    """Raises its own minimum degree: each claim goes to the poorest vertex.

    Per claim: take the lowest-index vertex of minimum own degree that still
    has an unclaimed incident edge, then the incident edge whose far endpoint
    has minimum own degree (ties to the lowest index).
    """

    name = "degree-greedy"

    _BIG = 1 << 40

    def __init__(self) -> None:
        self._side: Player | None = None
        self._deg: np.ndarray | None = None
        self._open: np.ndarray | None = None
        self._synced = 0

    def _rebuild(self, state: GameState) -> None:
        n = state.n
        own = state.maker_edges if self._side is Player.MAKER else state.breaker_edges
        self._deg = np.zeros(n, dtype=np.int64)
        for u, v in own:
            self._deg[u] += 1
            self._deg[v] += 1
        self._open = np.zeros((n, n), dtype=bool)
        for u, v in state.unclaimed:
            self._open[u, v] = True
            self._open[v, u] = True

    def _sync(self, state: GameState) -> None:
        if self._side is None:
            self._side = state.to_move
        if self._open is None or self._synced > len(state.move_log):
            self._rebuild(state)
        else:
            for player, (u, v) in state.move_log[self._synced :]:
                self._open[u, v] = False
                self._open[v, u] = False
                if player is self._side:
                    self._deg[u] += 1
                    self._deg[v] += 1
        self._synced = len(state.move_log)

    def select(self, state: GameState) -> list[Edge]:
        self._sync(state)
        count = state.required_claim_count(state.to_move)
        deg = self._deg.copy()  # the turn's own picks reach _deg later, via the log
        picks: list[Edge] = []
        for _ in range(count):
            has = self._open.any(axis=1)
            if not has.any():
                break
            vertex = int(np.argmin(np.where(has, deg, self._BIG)))
            mate = int(np.argmin(np.where(self._open[vertex], deg, self._BIG)))
            picks.append(mk_edge(vertex, mate))
            self._open[vertex, mate] = False
            self._open[mate, vertex] = False
            deg[vertex] += 1
            deg[mate] += 1
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
        self._side: Player | None = None
        self._own: np.ndarray | None = None
        self._opp: np.ndarray | None = None
        self._synced = 0
        self._scan_from = 0
        self._all_close = False
        self._lex: LexCursor | None = None

    def _rebuild(self, state: GameState) -> None:
        n = state.n
        own = state.maker_edges if self._side is Player.MAKER else state.breaker_edges
        opp = state.breaker_edges if self._side is Player.MAKER else state.maker_edges
        self._own = np.zeros((n, n), dtype=bool)
        self._opp = np.zeros((n, n), dtype=bool)
        for u, v in own:
            self._own[u, v] = self._own[v, u] = True
        for u, v in opp:
            self._opp[u, v] = self._opp[v, u] = True
        self._scan_from = 0
        self._all_close = False
        self._lex = LexCursor(n)

    def _sync(self, state: GameState) -> None:
        if self._side is None:
            self._side = state.to_move
        if self._own is None or self._synced > len(state.move_log):
            self._rebuild(state)
        else:
            for player, (u, v) in state.move_log[self._synced :]:
                m = self._own if player is self._side else self._opp
                m[u, v] = m[v, u] = True
        self._synced = len(state.move_log)

    def _far_pair(self, n: int) -> tuple[int, int] | None:
        if self._all_close:
            return None
        while self._scan_from < n:
            u = self._scan_from
            visited = np.zeros(n, dtype=bool)
            visited[u] = True
            frontier = visited.copy()
            for _ in range(self.d):
                new = self._own[frontier].any(axis=0) & ~visited
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
        usable = ~self._opp
        np.fill_diagonal(usable, False)
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
        self._sync(state)
        count = state.required_claim_count(state.to_move)
        picks: list[Edge] = []
        picked: set[Edge] = set()
        for _ in range(count):
            pick = None
            target = self._far_pair(state.n)
            if target:
                pick = self._route_edge(state, picked, *target)
            if pick is None:
                pick = self._lex.next_free(state.unclaimed, picked)
            if pick is None:
                break
            picks.append(pick)
            picked.add(pick)
            self._own[pick[0], pick[1]] = True  # idempotent under the later sync
            self._own[pick[1], pick[0]] = True
        return picks


class EsbDegreeBreaker:
    """Breaker scoring vertices by closeness to Maker saturation.

    Vertex weight (1+b)^(-unclaimed_degree/a); claims the edge with maximum
    endpoint weight sum (ties lexicographic).  A potential-flavored
    adversary for degree games.
    """

    name = "esb-degree-breaker"

    def __init__(self) -> None:
        self._open_deg: np.ndarray | None = None
        self._claimed: np.ndarray | None = None
        self._synced = 0

    def _sync(self, state: GameState) -> None:
        n = state.n
        if self._claimed is None or self._synced > len(state.move_log):
            self._open_deg = np.zeros(n, dtype=np.int64)
            self._claimed = np.ones((n, n), dtype=bool)
            for u, v in state.unclaimed:
                self._open_deg[u] += 1
                self._open_deg[v] += 1
                self._claimed[u, v] = False
                self._claimed[v, u] = False
        else:
            for _, (u, v) in state.move_log[self._synced :]:
                self._open_deg[u] -= 1
                self._open_deg[v] -= 1
                self._claimed[u, v] = True
                self._claimed[v, u] = True
        self._synced = len(state.move_log)

    def select(self, state: GameState) -> list[Edge]:
        self._sync(state)
        count = state.required_claim_count(Player.BREAKER)
        log_base = math.log(1 + state.b)
        open_deg = self._open_deg.astype(np.float64)
        claimed = self._claimed.copy()
        picks: list[Edge] = []
        for _ in range(count):
            w = np.exp(-open_deg / state.a * log_base)
            score = w[:, None] + w[None, :]
            score[claimed] = -np.inf
            flat = int(np.argmax(score))
            u, v = divmod(flat, state.n)
            if score[u, v] == -np.inf:
                break
            picks.append((u, v) if u < v else (v, u))
            claimed[u, v] = claimed[v, u] = True
            open_deg[u] -= 1.0
            open_deg[v] -= 1.0
        return picks
