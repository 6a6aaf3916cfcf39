"""Scripted opponents: determinism, tie-breaks, and rule conformance."""

import logging
import math
import random
import signal
import tracemalloc
from itertools import groupby

import numpy as np
import pytest

from diameter_games import Player
from diameter_games.degree_games import MinDegStrategy
from diameter_games.diameter2 import D2Breaker, D2Maker, d2_breaker_params
from diameter_games.game_core import (
    GameError,
    apply_claim,
    diameter_at_most,
    maker_graph,
    mk_edge,
    new_game,
    run_match,
)
from diameter_games.graph_metrics import dist
from diameter_games.heuristics import (
    DegreeGreedyStrategy,
    EsbDegreeBreaker,
    LowestEdgeStrategy,
    PathGreedyStrategy,
    RandomStrategy,
)


class TestRandomStrategy:
    def test_seeded_determinism(self):
        picks = []
        for _ in range(2):
            state = new_game(8, 2, 1)
            s = RandomStrategy(random.Random(42))
            picks.append([tuple(s.select(state)) for _ in range(1)])
        assert picks[0] == picks[1]

    def test_draw_depends_only_on_seed_and_position(self):
        # Same position reached through different logs gives the same draw,
        # because the pool is rebuilt sorted and swap-popped by log order.
        state = new_game(6, 1, 1)
        apply_claim(state, Player.MAKER, [(0, 1)])
        s1 = RandomStrategy(random.Random(7))
        first = s1.select(state)
        s2 = RandomStrategy(random.Random(7))
        assert s2.select(state) == first

    def test_respects_truncation(self):
        state = new_game(3, 1, 1)
        apply_claim(state, Player.MAKER, [(0, 1)])
        apply_claim(state, Player.BREAKER, [(0, 2)])
        s = RandomStrategy(random.Random(1))
        assert s.select(state) == [(1, 2)]

    def test_draws_are_unclaimed(self):
        rng = random.Random(3)
        state = new_game(7, 3, 2)
        s = RandomStrategy(rng)
        while state.unclaimed:
            side = state.to_move
            picks = s.select(state) if side is Player.MAKER else sorted(
                state.unclaimed)[: state.required_claim_count(side)]
            for e in picks:
                assert e in state.unclaimed or side is not Player.MAKER
            apply_claim(state, side, picks)


class TestLowestEdge:
    def test_lex_order(self):
        state = new_game(5, 3, 1)
        s = LowestEdgeStrategy()
        assert s.select(state) == [(0, 1), (0, 2), (0, 3)]

    def test_skips_claimed(self):
        state = new_game(4, 1, 1)
        apply_claim(state, Player.MAKER, [(0, 1)])
        s = LowestEdgeStrategy()
        assert s.select(state) == [(0, 2)]


class TestDegreeGreedy:
    def test_feeds_poorest_vertex(self):
        state = new_game(5, 1, 1)
        s = DegreeGreedyStrategy()
        assert s.select(state) == [(0, 1)]
        apply_claim(state, Player.MAKER, [(0, 1)])
        state.to_move = Player.MAKER
        # 0 and 1 have degree 1 now; the poorest is vertex 2.
        assert s.select(state) == [(2, 3)]

    def test_tracks_own_side_only(self):
        state = new_game(5, 1, 1)
        apply_claim(state, Player.MAKER, [(0, 1)])
        s = DegreeGreedyStrategy()  # first consulted on Breaker's turn
        picks = s.select(state)
        # Breaker owns nothing: all degrees zero, lowest open edge wins.
        assert picks == [(0, 2)]

    def test_mate_prefers_low_degree(self):
        state = new_game(4, 1, 1)
        apply_claim(state, Player.MAKER, [(1, 2)])
        state.to_move = Player.MAKER
        s = DegreeGreedyStrategy()
        # Poorest vertex 0; best mate is 3 (degree 0), not 1 or 2.
        assert s.select(state) == [(0, 3)]


def _replayed(n, a, b, first, log):
    """A fresh board with `log`, a whole number of turns, played on it."""
    state = new_game(n, a, b, first=first)
    for player, claims in groupby(log, key=lambda claim: claim[0]):
        apply_claim(state, player, [edge for _, edge in claims])
    return state


def test_degree_greedy_kept_list_follows_a_rewound_log():
    """After a whole game, one instance is shown every shorter log that ends
    at its turn, longest first, and then plays on from one of them: each
    pick is what a fresh instance picks on that log."""
    n, a, b, first = 24, 2, 3, Player.BREAKER
    greedy, maker = DegreeGreedyStrategy(), RandomStrategy(random.Random(24))
    state = new_game(n, a, b, first=first)
    turn_starts = []
    while not state.is_exhausted():
        mover = state.to_move
        if mover is Player.BREAKER:
            turn_starts.append(len(state.move_log))
        apply_claim(state, mover, (greedy if mover is Player.BREAKER else maker).select(state))
    for start in reversed(turn_starts[:-1]):
        rewound = _replayed(n, a, b, first, state.move_log[:start])
        assert greedy.select(rewound) == DegreeGreedyStrategy().select(rewound), start
    rewound = _replayed(n, a, b, first, state.move_log[: turn_starts[len(turn_starts) // 2]])
    while not rewound.is_exhausted():
        mover = rewound.to_move
        picks = (greedy if mover is Player.BREAKER else maker).select(rewound)
        if mover is Player.BREAKER:
            assert picks == DegreeGreedyStrategy().select(rewound), len(rewound.move_log)
        apply_claim(rewound, mover, picks)


def test_degree_greedy_stale_kept_list_raises():
    """A kept list that disagrees with the board fails the select that reads
    it instead of hanging.  Between two turns of a growing log every vertex
    but one is marked finished, so the vertex left finds no mate on the list
    at any level.  An alarm turns an endless walk into a failure."""
    n, a, b, first = 24, 2, 3, Player.BREAKER
    greedy, maker = DegreeGreedyStrategy(), RandomStrategy(random.Random(24))
    state = new_game(n, a, b, first=first)
    for _ in range(3):
        apply_claim(state, Player.BREAKER, greedy.select(state))
        apply_claim(state, Player.MAKER, maker.select(state))
    greedy._key = [DegreeGreedyStrategy._DONE] * n
    greedy._key[5] = 0

    def hung(signum, frame):
        raise TimeoutError("the mate walk did not stop")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.setitimer(signal.ITIMER_REAL, 10)
    try:
        with pytest.raises(GameError, match="kept degree list"):
            greedy.select(state)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("sid", ["degree-greedy", "esb-degree-breaker", "mindeg-maker"])
def test_first_select_on_a_large_board_allocates_little(sid):
    """The first select on a fresh n = 1000 board reads both players'
    closed masks, 1000 ints each, and builds no n x n matrix of the board."""
    n = 1000
    state = new_game(n, 1, 1)
    strategy = {
        "degree-greedy": DegreeGreedyStrategy,
        "esb-degree-breaker": EsbDegreeBreaker,
        "mindeg-maker": lambda: MinDegStrategy(n, 1, 1),
    }[sid]()
    tracemalloc.start()
    try:
        strategy.select(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, f"{peak / 2**20:.1f} MB"


class TestPathGreedy:
    def test_claims_lowest_edge_when_connected(self):
        s = PathGreedyStrategy(2)
        state = new_game(4, 1, 1)
        assert s.select(state) == [(0, 1)]

    def test_routes_broken_pair(self):
        s = PathGreedyStrategy(1)
        state = new_game(4, 1, 1)
        apply_claim(state, Player.MAKER, [(0, 1)])
        state.to_move = Player.MAKER
        # Pair (0, 2) has distance > 1; the direct edge is the route.
        assert s.select(state) == [(0, 2)]

    def test_detours_around_opponent(self):
        s = PathGreedyStrategy(2)
        state = new_game(4, 1, 1)
        apply_claim(state, Player.MAKER, [(0, 1)])
        apply_claim(state, Player.BREAKER, [(0, 2)])
        # (0, 2) direct is gone; a route through 1 or 3 must be used.
        picks = s.select(state)
        assert picks[0] in {(0, 3), (1, 2)}

    def test_improves_diameter_against_random(self):
        for seed in range(4):
            state = new_game(12, 2, 1)
            tr = run_match(
                state,
                PathGreedyStrategy(2),
                RandomStrategy(random.Random(seed)),
                diameter_at_most(2),
                seed=seed,
                early_stop=False,
            )
            g = maker_graph(state)
            # Not a guarantee at this size, but the graph must at least be
            # connected with everything within a few hops.
            assert all(
                dist(g, 0, v) <= 4 for v in range(1, 12)
            ), f"seed {seed} left the Maker graph fragmented"


def _reference_path_greedy_select(state, d, no_route):
    """PathGreedyStrategy.select as it was on numpy matrices built from the
    edge sets: the ball of radius d by matrix BFS on the mover's graph (the
    turn's picks included), the first vertex above u outside it, then a BFS
    through open and own edges whose parent is the lowest adjacent vertex of
    the previous layer, and the route's unclaimed edge nearest u.  It scans
    from vertex 0 every time and searches every route afresh, so it also
    checks the strategy's cursor and its set of dead pairs.  Each pair the
    BFS cannot connect is appended to `no_route`."""
    n = state.n

    def matrix(edges):
        m = np.zeros((n, n), dtype=bool)
        for u, v in edges:
            m[u, v] = m[v, u] = True
        return m

    own = matrix(state.maker_edges if state.to_move is Player.MAKER else state.breaker_edges)
    usable = matrix(state.unclaimed) | own

    def far_pair():
        for u in range(n):
            visited = np.zeros(n, dtype=bool)
            visited[u] = True
            frontier = visited.copy()
            for _ in range(d):
                new = own[frontier].any(axis=0) & ~visited
                if not new.any():
                    break
                visited |= new
                frontier = new
            far = np.flatnonzero(~visited[u + 1 :])
            if far.size:
                return u, int(far[0]) + u + 1
        return None

    def route_edge(picked, u, v):
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
                no_route.append((u, v))
                return None
            cols = np.flatnonzero(new)
            parent[cols] = rows[np.argmax(block[:, cols], axis=0)]
            reached |= new
            frontier = new
        node, pick = v, None
        while node != u:
            prev = int(parent[node])
            edge = mk_edge(prev, node)
            if edge in state.unclaimed and edge not in picked:
                pick = edge
            node = prev
        return pick

    picks, picked = [], set()
    for _ in range(state.required_claim_count(state.to_move)):
        target = far_pair()
        pick = route_edge(picked, *target) if target else None
        if pick is None:
            pick = min(state.unclaimed - picked)
        picks.append(pick)
        picked.add(pick)
        own[pick[0], pick[1]] = own[pick[1], pick[0]] = True
    return picks


def _play_against_reference(state, d, side, other):
    """Plays PathGreedy on `side` to the last edge, checking every turn
    against the matrix reference; returns the pairs the reference found
    without a route."""
    greedy = PathGreedyStrategy(d)
    no_route = []
    while not state.is_exhausted():
        mover = state.to_move
        if mover is side:
            expected = _reference_path_greedy_select(state, d, no_route)
            picks = greedy.select(state)
            assert picks == expected, f"turn {len(state.move_log)}"
        else:
            picks = other.select(state)
        apply_claim(state, mover, picks)
    return no_route


@pytest.mark.parametrize("side", [Player.MAKER, Player.BREAKER])
@pytest.mark.parametrize("a,b", [(1, 1), (2, 1), (1, 3)])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [9, 24, 40])
def test_path_greedy_matches_matrix_reference(n, d, a, b, side):
    """Every PathGreedy turn of a seeded game to the last edge picks what the matrix version picks."""
    state = new_game(n, a, b)
    other = RandomStrategy(random.Random(n * 100 + d * 10 + a + b))
    _play_against_reference(state, d, side, other)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [9, 24, 40])
def test_path_greedy_matches_matrix_reference_against_d2_breaker(n, d):
    """D2Breaker cuts the far pair off, so these games reach the dead-pair branch."""
    state = new_game(n, 1, d2_breaker_params(n, 0.1).b)
    assert _play_against_reference(state, d, Player.MAKER, D2Breaker(n)), "no pair lost its route"


def test_path_greedy_forgets_dead_pairs_on_rewind():
    """A pair cut off deep in the log may still have a route in a shorter snapshot."""
    state = new_game(5, 1, 3)
    apply_claim(state, Player.MAKER, [(0, 4)])
    apply_claim(state, Player.BREAKER, [(0, 1), (0, 2), (0, 3)])
    shallow = state.copy()  # the far pair (0, 1) routes 0-4-1
    apply_claim(state, Player.MAKER, [(2, 3)])
    apply_claim(state, Player.BREAKER, [(1, 2), (1, 3), (1, 4)])  # every edge at 1 is Breaker's
    greedy = PathGreedyStrategy(2)
    assert greedy.select(state) == [(2, 4)]  # (0, 1) has no route: the lowest open edge
    assert greedy.select(shallow) == PathGreedyStrategy(2).select(shallow) == [(1, 4)]


def test_debug_log_traces_without_touching_the_transcript(caplog):
    """At DEBUG, PathGreedy logs its dead pair, D2Breaker its switch to the
    box game and D2Maker its switch from Phase I to Phase II, once; the
    transcripts are the same at DEBUG and at WARNING."""

    def play():
        n = 24
        state = new_game(n, 1, d2_breaker_params(n, 0.1).b)
        tr = run_match(state, PathGreedyStrategy(2), D2Breaker(n), diameter_at_most(2), seed=0)
        maker = D2Maker(20, 1)
        d2 = run_match(new_game(20, 2, 1), maker, RandomStrategy(random.Random(0)), diameter_at_most(2), seed=0)
        assert maker._round > maker.phase1_rounds  # Phase II was played
        return tr.to_jsonl() + d2.to_jsonl()

    caplog.set_level(logging.DEBUG, logger="diameter_games")
    at_debug = play()
    messages = [(r.name, r.levelno, r.getMessage().split(":")[0]) for r in caplog.records]
    assert ("diameter_games.heuristics", logging.DEBUG, "path-greedy") in messages
    assert ("diameter_games.diameter2", logging.DEBUG, "d2-breaker") in messages
    assert messages.count(("diameter_games.diameter2", logging.DEBUG, "d2-maker")) == 1
    caplog.clear()
    caplog.set_level(logging.WARNING, logger="diameter_games")
    assert play() == at_debug
    assert not caplog.records


def _dense_board(state):
    """The open matrix and each player's degree vector, rebuilt in numpy
    from the three edge sets."""
    n = state.n

    def ends(edges):
        return np.array(sorted(edges), dtype=np.intp).reshape(-1, 2)

    open_ = np.zeros((n, n), dtype=bool)
    u, v = ends(state.unclaimed).T
    open_[u, v] = open_[v, u] = True
    deg = {
        player: np.bincount(ends(edges).ravel(), minlength=n)
        for player, edges in ((Player.MAKER, state.maker_edges), (Player.BREAKER, state.breaker_edges))
    }
    return open_, deg


def _reference_degree_greedy_select(state):
    """DegreeGreedyStrategy.select as a numpy argmin over a dense copy of
    the board: the lowest vertex of least own degree with an open edge, then
    its open mate of least own degree, each pick cleared from the copy."""
    open_, deg_of = _dense_board(state)
    big = 1 << 40
    deg = deg_of[state.to_move].copy()
    open_deg = open_.sum(axis=1)
    picks = []
    for _ in range(state.required_claim_count(state.to_move)):
        has = open_deg > 0
        if not has.any():
            break
        vertex = int(np.argmin(np.where(has, deg, big)))
        mate = int(np.argmin(np.where(open_[vertex], deg, big)))
        picks.append(mk_edge(vertex, mate))
        open_[vertex, mate] = open_[mate, vertex] = False
        for x in (vertex, mate):
            deg[x] += 1
            open_deg[x] -= 1
    return picks


@pytest.mark.parametrize("side", [Player.MAKER, Player.BREAKER])
@pytest.mark.parametrize("a,b", [(1, 2), (2, 3), (3, 3), (1, 5), (2, 5), (1, 8), (2, 8), (2, 12)])
@pytest.mark.parametrize("n", [7, 9, 24, 40])
def test_degree_greedy_matches_copying_reference(n, a, b, side):
    """Every DegreeGreedy turn of a seeded game to the last edge picks what
    the copying version picks; a bias of 2 or more masks several picks
    within a turn, and every case has one on the Breaker side."""
    state = new_game(n, a, b)
    greedy = DegreeGreedyStrategy()
    other = RandomStrategy(random.Random(n * 100 + a * 10 + b))
    turns = 0
    while not state.is_exhausted():
        mover = state.to_move
        if mover is side:
            expected = _reference_degree_greedy_select(state)
            picks = greedy.select(state)
            assert picks == expected, f"turn {len(state.move_log)}"
            turns += 1
        else:
            picks = other.select(state)
        apply_claim(state, mover, picks)
    assert turns > 0


def _reference_esb_select(state):
    """EsbDegreeBreaker.select as an n x n score matrix: weights
    (1+b)^(-open_deg/a) recomputed before every pick, w[u] + w[v] on open
    pairs, -inf elsewhere, and a row-major argmax."""
    open_, deg = _dense_board(state)
    count = state.required_claim_count(Player.BREAKER)
    log_base = math.log(1 + state.b)
    open_deg = ((state.n - 1) - deg[Player.MAKER] - deg[Player.BREAKER]).astype(np.float64)
    claimed = ~open_
    picks = []
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


class TestEsbDegreeBreaker:
    def test_targets_scarcest_vertex(self):
        state = new_game(5, 1, 1)
        state.to_move = Player.BREAKER
        b = EsbDegreeBreaker()
        # Uniform board: lex tie-break.
        assert b.select(state) == [(0, 1)]

    def test_weight_rises_as_degree_shrinks(self):
        state = new_game(5, 1, 2)
        apply_claim(state, Player.MAKER, [(0, 1)])
        b = EsbDegreeBreaker()
        picks = b.select(state)
        # Vertices 0 and 1 lost an open edge each; their weight is highest.
        assert all(0 in e or 1 in e for e in picks)

    def test_incremental_matches_rebuild(self):
        rng = random.Random(5)
        state = new_game(8, 2, 2)
        live = EsbDegreeBreaker()
        while state.unclaimed:
            side = state.to_move
            if side is Player.BREAKER:
                fresh = EsbDegreeBreaker()
                expected = fresh.select(state)
                got = live.select(state)
                assert got == expected
                apply_claim(state, side, got)
            else:
                pool = sorted(state.unclaimed)
                apply_claim(
                    state, side, rng.sample(pool, state.required_claim_count(side))
                )

    @pytest.mark.parametrize("first", [Player.MAKER, Player.BREAKER])
    @pytest.mark.parametrize(
        "n,a,b,maker", [(10, 1, 1, "random"), (25, 2, 3, "degree-greedy"), (40, 1, 2, "random"), (60, 3, 4, "random")]
    )
    def test_every_turn_matches_score_matrix(self, first, n, a, b, maker, kept_order_checked):
        rng = random.Random(n)
        player = RandomStrategy(rng) if maker == "random" else DegreeGreedyStrategy()
        breaker = EsbDegreeBreaker()
        state = new_game(n, a, b, first=first)
        turns = 0
        while state.unclaimed:
            if state.to_move is Player.BREAKER:
                picks = breaker.select(state)
                assert picks == _reference_esb_select(state), len(state.move_log)
                turns += 1
            else:
                picks = player.select(state)
            apply_claim(state, state.to_move, picks)
        assert turns > 0
        assert kept_order_checked[0] >= turns
