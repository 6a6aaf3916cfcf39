"""Exhaustive solvers for small boards.

solve() runs memoized minimax over full turns of an (a:b) diameter game on
K_n, with optional symmetry reduction (canonical position keys minimized
over all vertex permutations) and optional sound cutoffs: Maker has already
won once his graph has diameter <= d, and Breaker has already won once some
pair cannot be connected within d even using every unclaimed edge.

verify_final_property() is the one board verifier: a DFS that pins one side
to a scripted strategy, branches over every opposing play, and undoes each
claim on the way back.  A caller's prune may settle a node early; the final
predicate judges the full board.  verify_one_sided() is that DFS with the
two diameter cutoffs as its prune.  Strategies verified this way must be
snapshot-pure: select(state) may depend only on the passed state (including
its move log), never on retained instance state, because the verifier
re-enters earlier positions after backtracking.

solve() and verify_family_one_sided() keep their own searches.  solve() is
two-sided and memoises on canonical keys; the family verifier memoises on
masks of positions.  Neither has the board verifier's snapshots and move
log, so folding them in would make the DFS branch on its caller.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations

from .game_core import (
    GameError,
    GameState,
    InvalidParameters,
    Player,
    Strategy,
    all_edges,
    edge_count,
    mk_edge,
)
from .potential_engine import FamilyGameState, WinningSetFamily

DEFAULT_EDGE_CAP = 15  # C(n,2) <= 15, i.e. n <= 6
DEFAULT_VERIFY_EDGE_CAP = 21  # n <= 7
DEFAULT_MEMO_CAP = 5_000_000
CANONICAL_MAX_N = 8


class OverCapError(GameError):
    def __init__(self, message: str, count: int):
        super().__init__(message)
        self.count = count


@lru_cache(maxsize=16)
def _perm_edge_tables(n: int) -> tuple[tuple[int, ...], ...]:
    """For each vertex permutation, the induced permutation of edge indices."""
    edges = all_edges(n)
    index = {e: i for i, e in enumerate(edges)}
    tables = []
    for perm in permutations(range(n)):
        tables.append(tuple(index[mk_edge(perm[u], perm[v])] for u, v in edges))
    return tuple(tables)


def _permute_mask(mask: int, table: tuple[int, ...]) -> int:
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << table[low.bit_length() - 1]
        mask ^= low
    return out


def _canonical_masks(n: int, maker_mask: int, breaker_mask: int) -> tuple[int, int]:
    best_m, best_b = maker_mask, breaker_mask
    for table in _perm_edge_tables(n):
        pm = _permute_mask(maker_mask, table)
        if pm > best_m:
            continue
        pb = _permute_mask(breaker_mask, table)
        if pm < best_m or pb < best_b:
            best_m, best_b = pm, pb
    return best_m, best_b


def canonical_key(state: GameState, claims_remaining: int | None = None):
    """Symmetry-reduced key for a position: minimal ownership encoding over all vertex relabelings.

    Two states mapping to the same key are the same game up to renaming
    vertices.  Capped at n <= 8 (factorial cost in n).
    """
    if state.n > CANONICAL_MAX_N:
        raise OverCapError(f"canonical_key capped at n={CANONICAL_MAX_N}", count=state.n)
    index = {e: i for i, e in enumerate(all_edges(state.n))}
    mm = sum(1 << index[e] for e in state.maker_edges)
    bm = sum(1 << index[e] for e in state.breaker_edges)
    if claims_remaining is None:
        claims_remaining = state.required_claim_count(state.to_move)
    cm, cb = _canonical_masks(state.n, mm, bm)
    return (cm, cb, state.to_move.value, claims_remaining)


def _diameter_within(n: int, mask: int, edges: list[tuple[int, int]], d: int) -> bool:
    """True iff the mask's graph on n vertices has diameter <= d (BFS per vertex)."""
    adj = [[] for _ in range(n)]
    m = mask
    while m:
        low = m & -m
        u, v = edges[low.bit_length() - 1]
        adj[u].append(v)
        adj[v].append(u)
        m ^= low
    for src in range(n):
        seen = 1 << src
        count = 1
        frontier = [src]
        depth = 0
        while frontier and depth < d:
            depth += 1
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    bit = 1 << w
                    if not seen & bit:
                        seen |= bit
                        count += 1
                        nxt.append(w)
            frontier = nxt
        if count < n:
            return False
    return True


@dataclass(frozen=True)
class SolveResult:
    n: int
    a: int
    b: int
    d: int
    first: Player
    winner: Player
    states_visited: int
    memo_entries: int
    elapsed_seconds: float
    used_canonical: bool
    used_cutoffs: bool

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "a": self.a,
                "b": self.b,
                "d": self.d,
                "first": self.first.value,
                "winner": self.winner.value,
                "states_visited": self.states_visited,
                "memo_entries": self.memo_entries,
                "elapsed_seconds": round(self.elapsed_seconds, 6),
                "used_canonical": self.used_canonical,
                "used_cutoffs": self.used_cutoffs,
            },
            sort_keys=True,
        )


def solve(
    n: int,
    a: int,
    b: int,
    d: int,
    first: Player = Player.MAKER,
    use_canonical: bool = True,
    use_cutoffs: bool = True,
    edge_cap: int = DEFAULT_EDGE_CAP,
    memo_cap: int = DEFAULT_MEMO_CAP,
) -> SolveResult:
    """Decide the (a:b) diameter-d game on K_n under optimal play by both sides."""
    if n < 2 or a < 1 or b < 1 or d < 1:
        raise InvalidParameters(f"bad game parameters n={n}, a={a}, b={b}, d={d}")
    total_edges = edge_count(n)
    if total_edges > edge_cap:
        raise OverCapError(
            f"solve capped at {edge_cap} edges, K_{n} has {total_edges}", count=total_edges
        )
    edges = all_edges(n)
    full = (1 << total_edges) - 1
    memo: dict = {}
    visited = 0
    start = time.perf_counter()

    def search(maker_mask: int, breaker_mask: int, side: Player) -> bool:
        nonlocal visited
        visited += 1
        if use_cutoffs:
            if _diameter_within(n, maker_mask, edges, d):
                return True
            if not _diameter_within(n, full & ~breaker_mask, edges, d):
                return False
        claimed = maker_mask | breaker_mask
        if claimed == full:
            return _diameter_within(n, maker_mask, edges, d)
        if use_canonical:
            cm, cb = _canonical_masks(n, maker_mask, breaker_mask)
            key = (cm, cb, side)
        else:
            key = (maker_mask, breaker_mask, side)
        hit = memo.get(key)
        if hit is not None:
            return hit
        open_bits = [i for i in range(total_edges) if not claimed >> i & 1]
        k = min(a if side is Player.MAKER else b, len(open_bits))
        result = side is Player.BREAKER
        for combo in combinations(open_bits, k):
            add = 0
            for i in combo:
                add |= 1 << i
            if side is Player.MAKER:
                if search(maker_mask | add, breaker_mask, Player.BREAKER):
                    result = True
                    break
            else:
                if not search(maker_mask, breaker_mask | add, Player.MAKER):
                    result = False
                    break
        if len(memo) >= memo_cap:
            raise OverCapError(f"memo cap {memo_cap} reached", count=len(memo))
        memo[key] = result
        return result

    maker_wins = search(0, 0, first)
    return SolveResult(
        n=n,
        a=a,
        b=b,
        d=d,
        first=first,
        winner=Player.MAKER if maker_wins else Player.BREAKER,
        states_visited=visited,
        memo_entries=len(memo),
        elapsed_seconds=time.perf_counter() - start,
        used_canonical=use_canonical,
        used_cutoffs=use_cutoffs,
    )


# --- one-sided verification on the board ------------------------------------


def _snapshot(n, a, b, first, maker, breaker, unclaimed, log, to_move) -> GameState:
    return GameState(
        n=n,
        a=a,
        b=b,
        first=first,
        maker_edges=set(maker),
        breaker_edges=set(breaker),
        unclaimed=set(unclaimed),
        to_move=to_move,
        move_log=list(log),
    )


def _board_edges(n: int, edge_cap: int) -> list[tuple[int, int]]:
    total_edges = edge_count(n)
    if total_edges > edge_cap:
        raise OverCapError(
            f"board verifier capped at {edge_cap} edges, K_{n} has {total_edges}",
            count=total_edges,
        )
    return all_edges(n)


def verify_final_property(
    n: int,
    a: int,
    b: int,
    scripted: Strategy,
    side: Player,
    final_predicate,
    prune=None,
    first: Player = Player.MAKER,
    edge_cap: int = DEFAULT_VERIFY_EDGE_CAP,
) -> bool:
    """True iff the scripted side wins against every opposing play, with an arbitrary goal.

    final_predicate(state) is evaluated at board exhaustion.  prune, if
    given, receives (maker_edges, breaker_edges, unclaimed, move_log) before
    each node is expanded and may return True/False to settle the subtree
    early, or None to continue.  All structures passed to prune are live and
    must not be mutated.  The scripted strategy must be snapshot-pure (see
    module docstring).  An illegal scripted claim raises.
    """
    maker: set = set()
    breaker: set = set()
    unclaimed = set(_board_edges(n, edge_cap))
    log: list = []

    def play(to_move: Player, picks) -> bool:
        own = maker if to_move is Player.MAKER else breaker
        for e in picks:
            unclaimed.discard(e)
            own.add(e)
            log.append((to_move, e))
        ok = dfs(to_move.other())
        for e in picks:
            own.discard(e)
            unclaimed.add(e)
            log.pop()
        return ok

    def dfs(to_move: Player) -> bool:
        if prune is not None:
            decided = prune(maker, breaker, unclaimed, log)
            if decided is not None:
                return decided
        if not unclaimed:
            snap = _snapshot(n, a, b, first, maker, breaker, unclaimed, log, to_move)
            return bool(final_predicate(snap))
        count = min(a if to_move is Player.MAKER else b, len(unclaimed))
        if to_move is not side:
            return all(play(to_move, combo) for combo in combinations(sorted(unclaimed), count))
        snap = _snapshot(n, a, b, first, maker, breaker, unclaimed, log, to_move)
        picks = [mk_edge(*e) for e in scripted.select(snap)]
        if len(picks) != count or len(set(picks)) != count:
            raise GameError(f"scripted {side.value} returned a bad claim {picks}")
        for e in picks:
            if e not in unclaimed:
                raise GameError(f"scripted {side.value} claimed unavailable edge {e}")
        return play(to_move, picks)

    return dfs(first)


def verify_one_sided(
    n: int,
    a: int,
    b: int,
    d: int,
    scripted: Strategy,
    side: Player,
    first: Player = Player.MAKER,
    edge_cap: int = DEFAULT_VERIFY_EDGE_CAP,
) -> bool:
    """True iff the scripted side achieves its diameter goal against every opposing play.

    Goal: diameter(maker graph) <= d at exhaustion when side is Maker,
    diameter > d when side is Breaker.  This is verify_final_property with
    solve()'s two cutoffs as the prune.  On a full board the complement of
    Breaker's graph is Maker's graph, so the cutoffs settle every leaf and
    the final predicate is never reached.
    """
    edges = _board_edges(n, edge_cap)
    index = {e: i for i, e in enumerate(edges)}
    full = (1 << len(edges)) - 1

    def prune(maker, breaker, unclaimed, log) -> bool | None:
        if _diameter_within(n, sum(1 << index[e] for e in maker), edges, d):
            return side is Player.MAKER
        if not _diameter_within(n, full & ~sum(1 << index[e] for e in breaker), edges, d):
            return side is Player.BREAKER
        return None

    def unreachable(snap: GameState) -> bool:
        raise AssertionError("the diameter cutoffs settle every full board")

    return verify_final_property(
        n, a, b, scripted, side, unreachable, prune=prune, first=first, edge_cap=edge_cap
    )


# --- one-sided verification on families -------------------------------------


def verify_family_one_sided(
    family: WinningSetFamily,
    a: int,
    b: int,
    scripted_select,
    side: Player,
    first: Player = Player.MAKER,
    memo_cap: int = DEFAULT_MEMO_CAP,
) -> bool:
    """Scripted side vs exhaustive opponent on an explicit family game.

    scripted_select(FamilyGameState) -> positions must be a pure function of
    the ownership masks (every shipped family selector is), which makes
    memoization over (maker mask, breaker mask, side) sound.  Goal: Maker
    side completes a set; Breaker side prevents every set.
    """
    u = family.universe_size
    set_masks = [sum(1 << p for p in aset) for aset in family.sets]
    full = (1 << u) - 1
    memo: dict = {}

    def game_state(mm: int, bm: int, to_move: Player) -> FamilyGameState:
        return FamilyGameState(
            family=family,
            a=a,
            b=b,
            first=first,
            maker={p for p in range(u) if mm >> p & 1},
            breaker={p for p in range(u) if bm >> p & 1},
            to_move=to_move,
        )

    def dfs(mm: int, bm: int, to_move: Player) -> bool:
        if any(sm & ~mm == 0 for sm in set_masks):
            return side is Player.MAKER
        if all(sm & bm for sm in set_masks):
            return side is Player.BREAKER
        if mm | bm == full:
            return side is Player.BREAKER  # no set completed, none ever will be
        key = (mm, bm, to_move)
        hit = memo.get(key)
        if hit is not None:
            return hit
        open_positions = [p for p in range(u) if not (mm | bm) >> p & 1]
        count = min(a if to_move is Player.MAKER else b, len(open_positions))
        if to_move is side:
            picks = list(scripted_select(game_state(mm, bm, to_move)))
            if len(picks) != count or len(set(picks)) != count:
                raise GameError(f"scripted family {side.value} returned bad claim {picks}")
            add = 0
            for p in picks:
                if (mm | bm) >> p & 1 or not 0 <= p < u:
                    raise GameError(f"scripted family {side.value} claimed taken position {p}")
                add |= 1 << p
            if to_move is Player.MAKER:
                result = dfs(mm | add, bm, to_move.other())
            else:
                result = dfs(mm, bm | add, to_move.other())
        else:
            result = True
            for combo in combinations(open_positions, count):
                add = 0
                for p in combo:
                    add |= 1 << p
                if to_move is Player.MAKER:
                    ok = dfs(mm | add, bm, to_move.other())
                else:
                    ok = dfs(mm, bm | add, to_move.other())
                if not ok:
                    result = False
                    break
        if len(memo) >= memo_cap:
            raise OverCapError(f"memo cap {memo_cap} reached", count=len(memo))
        memo[key] = result
        return result

    return dfs(0, 0, first)
