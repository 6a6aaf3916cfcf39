"""Exhaustive solvers for small boards.

solve() runs memoized minimax over full turns of an (a:b) diameter game on
K_n, with optional symmetry reduction and two sound cutoffs.  The
symmetry reduction keys the memo on a canonical form of the position:
vertices are split into classes by Maker and Breaker degree, the classes
are refined by the classes of each vertex's neighbours (McKay & Piperno,
"Practical graph isomorphism II", 2014), and the key is the smallest pair
of ownership masks over the relabellings that permute vertices only
inside their class.  Isomorphic positions, and only those, share a key.
Keys are capped at n <= 8, because a vertex-transitive position has a
single class and then all n! relabellings are tried.  The cutoffs,
diameter_cutoff(): Maker has won once Maker's graph has diameter <= d, and
Breaker once some pair cannot be joined within d even using every
unclaimed edge.  Both are graph_metrics.diameter_within on closed masks.

solve() and the board verifier, verify_final_property(), play and undo on
one live GameState (game_core.push_claims, pop_claims), so the masks, the
open count, to_move and the log move together.  solve() branches over both
sides' plays and keys its memo on the live masks.  The board verifier pins
one side to a scripted strategy and branches over every opposing play.
Its prune reads the board's live edge views; the scripted side and the
final predicate each get a copy, O(n) ints and the log.  A prune may
settle a node early; the final predicate judges the full board.
verify_one_sided() is that DFS with diameter_cutoff() as its prune.
Strategies verified this way must be snapshot-pure: select(state) may
depend only on the passed state (including its move log), because the
verifier re-enters earlier positions after backtracking.  Retained state
is fine when it follows game_core.LogCursor's rule: rebuild unless the log
grew since the previous select().  verify_family_one_sided() plays on a
winning-set family and memoises on masks of its positions.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations, product
from operator import xor

from .game_core import (
    GameError,
    GameState,
    InvalidParameters,
    Player,
    Strategy,
    all_edges,
    edge_count,
    mk_edge,
    new_game,
    pop_claims,
    push_claims,
)
from .graph_metrics import _vertex_bits, closed_masks, complement, diameter_within
from .potential_engine import FamilyGameState, WinningSetFamily

DEFAULT_EDGE_CAP = 21  # C(n,2) <= 21, i.e. n <= 7
DEFAULT_MEMO_CAP = 5_000_000
CANONICAL_MAX_N = 8


class OverCapError(GameError):
    def __init__(self, message: str, count: int):
        super().__init__(message)
        self.count = count


@lru_cache(maxsize=CANONICAL_MAX_N)
def _edge_bits(n: int) -> tuple[tuple[int, ...], ...]:
    """bits[u][v] is the mask bit of edge {u, v} in all_edges(n) order."""
    bits = [[0] * n for _ in range(n)]
    for i, (u, v) in enumerate(all_edges(n)):
        bits[u][v] = bits[v][u] = 1 << i
    return tuple(map(tuple, bits))


# _VERTICES[mask] lists the vertices of a vertex bitmask on n <= CANONICAL_MAX_N.
_VERTICES = tuple(
    tuple(v for v in range(CANONICAL_MAX_N) if mask >> v & 1) for mask in range(1 << CANONICAL_MAX_N)
)


def _refined_cells(mnbr: list[int], bnbr: list[int]) -> list[list[int]]:
    """The ordered vertex partition of a position, finest that refinement reaches.

    Vertices start coloured by (Maker degree, Breaker degree).  Each round
    recolours a vertex by its colour and the sorted colours of its Maker
    and of its Breaker neighbours, until the number of classes stops
    growing.  A colour is the rank of its signature in sorted order, never
    a vertex label, so an isomorphism of positions maps the i-th cell onto
    the i-th cell.
    """
    n = len(mnbr)
    mlist = [_VERTICES[m] for m in mnbr]
    blist = [_VERTICES[b] for b in bnbr]
    sigs = [(len(ms), len(bs)) for ms, bs in zip(mlist, blist)]
    classes = 0
    while True:
        rank = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        if len(rank) == classes:
            break
        classes = len(rank)
        colour = [rank[sig] for sig in sigs]
        if classes == n:
            break
        sigs = [
            (
                colour[v],
                tuple(sorted([colour[w] for w in mlist[v]])),
                tuple(sorted([colour[w] for w in blist[v]])),
            )
            for v in range(n)
        ]
    cells: list[list[int]] = [[] for _ in range(classes)]
    for v in range(n):
        cells[colour[v]].append(v)
    return cells


def _canonical_from_neighbours(mnbr: list[int], bnbr: list[int]) -> tuple[int, int]:
    """Minimum (Maker mask, Breaker mask) over the relabellings that send the
    i-th refined cell onto the i-th block of labels.

    Which labels each cell receives depends only on the position's
    isomorphism class, so two positions share a key exactly when they are
    isomorphic.  The relabellings are the product of the cells' factorials:
    one for a discrete partition, n! when refinement splits nothing.
    """
    n = len(mnbr)
    bits = _edge_bits(n)
    cells = _refined_cells(mnbr, bnbr)
    medges = [(u, w) for u in range(n) for w in _VERTICES[mnbr[u] >> u + 1 << u + 1]]
    bedges = [(u, w) for u in range(n) for w in _VERTICES[bnbr[u] >> u + 1 << u + 1]]
    label = [0] * n
    best_m = best_b = 1 << n * (n - 1) // 2  # above every mask
    for order in product(*(permutations(cell) for cell in cells)):
        i = 0
        for cell in order:
            for v in cell:
                label[v] = i
                i += 1
        pm = 0
        for u, w in medges:
            pm |= bits[label[u]][label[w]]
        if pm > best_m:
            continue
        pb = 0
        for u, w in bedges:
            pb |= bits[label[u]][label[w]]
        if pm < best_m or pb < best_b:
            best_m, best_b = pm, pb
    return best_m, best_b


def canonical_key(state: GameState):
    """Symmetry-reduced key for a position: equal exactly for isomorphic positions.

    The ownership masks are relabelled within the classes of a vertex
    refinement by Maker and Breaker degrees (_refined_cells) and the
    smallest pair is kept.  The neighbour masks it reads are the board's
    closed masks less each vertex's own bit.  Capped at n <= 8: on a
    vertex-transitive position refinement splits nothing and all n!
    relabellings are tried.
    """
    if state.n > CANONICAL_MAX_N:
        raise OverCapError(f"canonical_key capped at n={CANONICAL_MAX_N}", count=state.n)
    bits = _vertex_bits(state.n)
    mnbr = list(map(xor, state.closed(Player.MAKER), bits))
    bnbr = list(map(xor, state.closed(Player.BREAKER), bits))
    cm, cb = _canonical_from_neighbours(mnbr, bnbr)
    return (cm, cb, state.to_move.value, state.required_claim_count(state.to_move))


def diameter_cutoff(maker: list[int], breaker: list[int], d: int) -> bool | None:
    """True once Maker's graph (closed masks) has diameter <= d, False once
    the complement of Breaker's graph, every edge Breaker lacks, does not,
    None while neither holds.  A full board is always decided: there the
    complement is Maker's graph."""
    if diameter_within(maker, d):
        return True
    if not diameter_within(complement(breaker), d):
        return False
    return None


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
    if use_canonical and n > CANONICAL_MAX_N:
        raise OverCapError(f"canonical keys capped at n={CANONICAL_MAX_N}", count=n)
    state = new_game(n, a, b, first)
    maker, breaker = state.closed(Player.MAKER), state.closed(Player.BREAKER)
    unclaimed = state.unclaimed
    bits = _vertex_bits(n)
    memo: dict = {}
    visited = 0
    start = time.perf_counter()

    def search() -> bool:
        """Whether Maker wins from the live position, which it leaves as it found it."""
        nonlocal visited
        visited += 1
        decided = diameter_cutoff(maker, breaker, d)
        if decided is not None:
            return decided
        # Undecided, so the board is not full: every node below has a child.
        side = state.to_move
        if use_canonical:
            key = (*_canonical_from_neighbours(list(map(xor, maker, bits)), list(map(xor, breaker, bits))), side)
        else:
            key = (tuple(maker), tuple(breaker), side)
        hit = memo.get(key)
        if hit is not None:
            return hit
        # Maker wins if some child wins for Maker; Breaker if some child loses.
        goal = side is Player.MAKER
        result = not goal
        for combo in combinations(list(unclaimed), state.required_claim_count(side)):
            push_claims(state, combo)
            won = search()
            pop_claims(state, len(combo))
            if won is goal:
                result = goal
                break
        if len(memo) >= memo_cap:
            raise OverCapError(f"memo cap {memo_cap} reached", count=len(memo))
        memo[key] = result
        return result

    maker_wins = search()
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
    )


# --- one-sided verification on the board ------------------------------------


def verify_final_property(
    n: int,
    a: int,
    b: int,
    scripted: Strategy,
    side: Player,
    final_predicate,
    prune=None,
    first: Player = Player.MAKER,
    edge_cap: int = DEFAULT_EDGE_CAP,
) -> bool:
    """True iff the scripted side wins against every opposing play, with an arbitrary goal.

    final_predicate(state) is evaluated at board exhaustion, on a copy of
    the board.  prune, if given, receives (maker_edges, breaker_edges,
    unclaimed, move_log) before each node is expanded and may return
    True/False to settle the subtree early, or None to continue.  They are
    the live EdgeViews and move log of the one board the DFS plays on: a
    prune must not mutate them, nor keep them past its return.  The
    scripted strategy gets a copy of the board, and must be snapshot-pure:
    what it keeps between calls follows game_core.LogCursor's rule, rebuilt
    unless the log grew since its previous select().  An illegal scripted
    claim raises, and so does a strategy that refuses a log that did not grow.
    Bad game parameters (n < 2, a or b < 1) raise InvalidParameters.
    """
    total_edges = edge_count(max(n, 0))  # new_game rejects n < 2
    if total_edges > edge_cap:
        raise OverCapError(
            f"board verifier capped at {edge_cap} edges, K_{n} has {total_edges}", count=total_edges
        )
    state = new_game(n, a, b, first)
    unclaimed = state.unclaimed
    views = (state.maker_edges, state.breaker_edges, unclaimed, state.move_log)

    def play(picks) -> bool:
        push_claims(state, picks)
        ok = dfs()
        pop_claims(state, len(picks))
        return ok

    def dfs() -> bool:
        if prune is not None:
            decided = prune(*views)
            if decided is not None:
                return decided
        if state.is_exhausted():
            return bool(final_predicate(state.copy()))
        to_move = state.to_move
        count = state.required_claim_count(to_move)
        if to_move is not side:
            return all(play(combo) for combo in combinations(list(unclaimed), count))
        picks = [mk_edge(*e) for e in scripted.select(state.copy())]
        if len(picks) != count or len(set(picks)) != count:
            raise GameError(f"scripted {side.value} returned a bad claim {picks}")
        for e in picks:
            if e not in unclaimed:
                raise GameError(f"scripted {side.value} claimed unavailable edge {e}")
        return play(picks)

    return dfs()


def verify_one_sided(
    n: int,
    a: int,
    b: int,
    d: int,
    scripted: Strategy,
    side: Player,
    first: Player = Player.MAKER,
    edge_cap: int = DEFAULT_EDGE_CAP,
) -> bool:
    """True iff the scripted side achieves its diameter goal against every opposing play.

    Goal: diameter(maker graph) <= d at exhaustion when side is Maker,
    diameter > d when side is Breaker.  This is verify_final_property with
    solve()'s cutoffs, diameter_cutoff, as the prune; they settle every full
    board, so the final predicate is never reached.  d < 1 raises
    InvalidParameters, as in solve().
    """
    if d < 1:
        raise InvalidParameters(f"bad diameter d={d}")
    maker_side = side is Player.MAKER

    def prune(maker, breaker, unclaimed, log) -> bool | None:
        decided = diameter_cutoff(closed_masks(n, maker), closed_masks(n, breaker), d)
        return None if decided is None else decided is maker_side

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
) -> bool:
    """Scripted side vs exhaustive opponent on an explicit family game.

    scripted_select(FamilyGameState) -> positions must be a pure function of
    the ownership masks (every shipped family selector is), which makes
    memoization over (maker mask, breaker mask, side) sound; the memo is
    capped at DEFAULT_MEMO_CAP entries.  Goal: Maker side completes a set;
    Breaker side prevents every set.  A bias below 1 raises InvalidParameters.
    """
    if a < 1 or b < 1:
        raise InvalidParameters(f"biases must be positive, got a={a}, b={b}")
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
                if not 0 <= p < u or (mm | bm) >> p & 1:
                    raise GameError(f"scripted family {side.value} claimed taken or unknown position {p}")
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
        if len(memo) >= DEFAULT_MEMO_CAP:
            raise OverCapError(f"memo cap {DEFAULT_MEMO_CAP} reached", count=len(memo))
        memo[key] = result
        return result

    return dfs(0, 0, first)
