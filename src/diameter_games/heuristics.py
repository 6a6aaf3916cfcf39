"""Deterministic-given-seed opponents for experiments and stress tests.

These are deliberately simple adversaries: strong enough to punish broken
strategies, cheap enough to run thousands of matches.  Degrees and open
edges come from both players' graphs as the board's closed masks
(GameState.closed()), which path-greedy also routes over; and the lowest
open edges come from GameState.lowest_open().  What a strategy does keep
(an unclaimed-edge pool, a degree list, a pair-scan cursor, a set of pairs
with no route) follows game_core.LogCursor's rule.  The deterministic
strategies are therefore snapshot-pure under the verifiers; RandomStrategy
stays legal there, though its draws depend on its generator's history.

EsbDegreeBreaker picks through potential_engine.OpenPairs, the one pick
it shares with the degree-game potential (DegreeWeightState): the
row-major first maximum of w[u] + w[v] over the open pairs.  That pick is
exact without the n x n score matrix because rounded float addition is
monotone: the turn keeps the vertices in one order, by descending weight
with ties by index, a row's best score is w[u] plus the weight of its first
open partner in that order, and rows taken in that order can stop once the
sum of the next two weights falls below the best score found.
"""

from __future__ import annotations

import logging
import math
import random

from .game_core import Edge, GameError, GameState, LogCursor, Player, mk_edge
from .graph_metrics import complement, spheres
from .potential_engine import OpenPairs

logger = logging.getLogger(__name__)


class RandomStrategy:
    """Claims uniformly random unclaimed edges (seeded).

    The pool is seeded from the sorted unclaimed set on first use and kept
    current by swap-popping edges as they leave play, so draws depend only
    on the seed and the game, never on set iteration order.
    """

    name = "random"

    def __init__(self, rng: random.Random):
        self.rng = rng
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
    has minimum own degree (ties to the lowest index).  The strategy keeps
    one list under LogCursor's rule: each vertex's own degree, or _DONE once
    the vertex has no open edge.  A turn works on a copy that takes the
    turn's own picks.  The vertex is the list's first minimum; the mate is
    the first vertex, level by level upward from there, whose cell in the
    vertex's row is open.  A row's taken cells are the bits of both
    players' closed masks and of the turn's picks at that vertex.  A degree
    is at most n - 1, so a walk past that level means the list disagrees
    with the board, and select raises GameError instead of climbing on.
    """

    name = "degree-greedy"

    _DONE = 1 << 40  # above every degree

    def __init__(self) -> None:
        self._log = LogCursor()
        self._side: Player | None = None
        self._key: list[int] = []

    def select(self, state: GameState) -> list[Edge]:
        maker, breaker = state.closed(Player.MAKER), state.closed(Player.BREAKER)
        full = (1 << state.n) - 1
        new = self._log.new_claims(state)
        if new is None or state.to_move is not self._side:
            self._side = state.to_move
            own = state.closed(self._side)
            self._key = [
                self._DONE if m | b == full else o.bit_count() - 1 for m, b, o in zip(maker, breaker, own)
            ]
        else:
            for player, edge in new:
                for x in edge:
                    if maker[x] | breaker[x] == full:
                        self._key[x] = self._DONE
                    elif player is self._side:
                        self._key[x] += 1
        key = self._key.copy()  # takes the turn's own picks
        masked: dict[int, int] = {}
        picks: list[Edge] = []
        for _ in range(state.required_claim_count(state.to_move)):
            level = min(key)
            if level == self._DONE:
                break
            vertex = key.index(level)
            taken = maker[vertex] | breaker[vertex] | masked.get(vertex, 0)
            mate = -1
            while True:
                try:
                    mate = key.index(level, mate + 1)
                except ValueError:
                    level, mate = level + 1, -1
                    if level >= state.n:
                        raise GameError(
                            f"degree-greedy: vertex {vertex} has no open mate on the kept degree "
                            f"list {self._key}, which disagrees with the board"
                        ) from None
                    continue
                if not taken >> mate & 1:
                    break
            picks.append(mk_edge(vertex, mate))
            masked[vertex] = masked.get(vertex, 0) | 1 << mate
            masked[mate] = masked.get(mate, 0) | 1 << vertex
            for x in (vertex, mate):
                key[x] = self._DONE if maker[x] | breaker[x] | masked[x] == full else key[x] + 1
        return picks


class PathGreedyStrategy:
    """Patches the lexicographically first pair still too far apart.

    Finds the first pair (u, v) with own-graph distance > d, BFSes a
    shortest u-v route through the edges the opponent does not hold, and
    claims that route's unclaimed edge nearest u.  Falls back to the lowest
    unclaimed edge when no pair is broken or no route exists.  Both BFSes
    are graph_metrics.spheres on the board's closed masks.  The route
    walks back from v, each step to the lowest vertex of the previous ring
    adjacent to the current one, so routes (and therefore picks) are
    reproducible.

    The pair scan resumes from a cursor: once every v > u sits within d of
    u, further own claims cannot break that, so u never needs rescanning.
    Pairs whose BFS never reached v are remembered as dead and answered
    without a search.  That is exact: the usable graph is every edge the
    opponent lacks, so it depends on the opponent's claims alone and only
    loses edges as the log grows (the turn's own picks leave it alone); a
    pair with no route never gets one back.  A pair with a route but no
    claimable edge on it is not dead, and is searched again next time.
    Like the cursor, the set is dropped whenever the log did not grow.
    """

    name = "path-greedy"

    def __init__(self, d: int):
        self.d = d
        self._log = LogCursor()
        self._scan_from = 0
        self._all_close = False
        self._dead: set[tuple[int, int]] = set()

    def _far_pair(self, own: list[int]) -> tuple[int, int] | None:
        if self._all_close:
            return None
        n = len(own)
        while self._scan_from < n:
            u = self._scan_from
            far = ((1 << n) - (2 << u)) & ~sum(spheres(own, u, self.d))  # beyond d, above u
            if far:
                return u, (far & -far).bit_length() - 1
            self._scan_from += 1
        self._all_close = True
        return None

    def _route_edge(self, state: GameState, picks: set[Edge], u: int, v: int) -> Edge | None:
        if (u, v) in self._dead:
            return None
        usable = complement(state.closed(state.to_move.other()))
        rings = spheres(usable, u)
        depth = next((k for k, ring in enumerate(rings) if ring >> v & 1), None)
        if depth is None:
            self._dead.add((u, v))
            logger.debug(
                "path-greedy: pair (%d, %d) has no route at log length %d", u, v, len(state.move_log)
            )
            return None
        node, pick = v, None
        for ring in reversed(rings[:depth]):
            step = ring & usable[node]
            prev = (step & -step).bit_length() - 1
            edge = mk_edge(prev, node)
            if edge in state.unclaimed and edge not in picks:
                pick = edge
            node = prev
        return pick

    def select(self, state: GameState) -> list[Edge]:
        if self._log.new_claims(state) is None:
            self._scan_from = 0
            self._all_close = False
            self._dead.clear()
        own = list(state.closed(state.to_move))  # takes the turn's own picks
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
            own[pick[0]] |= 1 << pick[1]
            own[pick[1]] |= 1 << pick[0]
        return picks


class EsbDegreeBreaker:
    """Breaker scoring vertices by closeness to Maker saturation.

    Vertex weight (1+b)^(-open_degree/a), recomputed from the open degrees
    before every pick; each pick is potential_engine.OpenPairs.take, the
    open edge of maximum endpoint weight sum with ties lexicographic, found
    without an n x n score matrix.  A pick lowers two open degrees, so only
    those two vertices move in the turn's kept order.  A potential-flavored
    adversary for degree games.
    """

    name = "esb-degree-breaker"

    def select(self, state: GameState) -> list[Edge]:
        import numpy as np

        count = state.required_claim_count(state.to_move)
        log_base = math.log(1 + state.b)
        rows = zip(state.closed(Player.MAKER), state.closed(Player.BREAKER))
        pairs = OpenPairs(state, np.array([state.n - (m | b).bit_count() for m, b in rows]))
        picks: list[Edge] = []
        for _ in range(count):
            pair = pairs.take(np.exp(-pairs.open_deg / state.a * log_base))
            if pair is None:
                break
            picks.append(pair)
        return picks
