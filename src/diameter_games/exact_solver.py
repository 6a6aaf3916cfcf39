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
single class and then all n! relabellings are tried.  The cutoffs: Maker
has already won once his graph has diameter <= d, and Breaker has already
won once some pair cannot be connected within d even using every
unclaimed edge.  Both are graph_metrics.diameter_within on closed masks,
the format of Graph and of both players' graphs on the board.

verify_final_property() is the one board verifier: a DFS that pins one side
to a scripted strategy, branches over every opposing play, and undoes each
claim on the way back.  It keeps the position as edge sets, which the
prune reads; the scripted side and the final predicate get a GameState
built from them.  A caller's prune may settle a node early; the final
predicate judges the full board.  verify_one_sided() is that DFS with the
two diameter cutoffs as its prune.  Strategies verified this way must be
snapshot-pure: select(state) may depend only on the passed state (including
its move log), because the verifier re-enters earlier positions after
backtracking.  Retained state is fine when it follows game_core.LogCursor's
rule: rebuild unless the log grew since the previous select().

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
from itertools import combinations, permutations, product

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
from .graph_metrics import closed_masks, complement, diameter_within
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


def _neighbour_masks(n: int, mask: int, edges: list[tuple[int, int]]) -> list[int]:
    """Each vertex's neighbours in the edge mask's graph, as a vertex bitmask."""
    nbr = [0] * n
    while mask:
        low = mask & -mask
        u, v = edges[low.bit_length() - 1]
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
        mask ^= low
    return nbr


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
    mnbr = [m ^ 1 << v for v, m in enumerate(state.closed(Player.MAKER))]
    bnbr = [m ^ 1 << v for v, m in enumerate(state.closed(Player.BREAKER))]
    cm, cb = _canonical_from_neighbours(mnbr, bnbr)
    return (cm, cb, state.to_move.value, state.required_claim_count(state.to_move))


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
    edges = all_edges(n)
    everyone = (1 << n) - 1
    memo: dict = {}
    visited = 0
    start = time.perf_counter()

    def search(maker_mask: int, breaker_mask: int, side: Player) -> bool:
        nonlocal visited
        visited += 1
        mnbr = _neighbour_masks(n, maker_mask, edges)
        bnbr = _neighbour_masks(n, breaker_mask, edges)
        if diameter_within([m | 1 << v for v, m in enumerate(mnbr)], d):
            return True
        # On a full board Breaker's complement is Maker's graph, so this
        # cutoff has decided it: below, an edge is always open.
        if not diameter_within([everyone & ~m for m in bnbr], d):
            return False
        claimed = maker_mask | breaker_mask
        if use_canonical:
            key = (*_canonical_from_neighbours(mnbr, bnbr), side)
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
    )


# --- one-sided verification on the board ------------------------------------


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
    edge_cap: int = DEFAULT_EDGE_CAP,
) -> bool:
    """True iff the scripted side wins against every opposing play, with an arbitrary goal.

    final_predicate(state) is evaluated at board exhaustion.  prune, if
    given, receives (maker_edges, breaker_edges, unclaimed, move_log) before
    each node is expanded and may return True/False to settle the subtree
    early, or None to continue.  All structures passed to prune are live and
    must not be mutated.  The scripted strategy must be snapshot-pure: what
    it keeps between calls follows game_core.LogCursor's rule, rebuilt
    unless the log grew since its previous select().  An illegal scripted
    claim raises, and so does a strategy that refuses a log that did not grow.
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
            snap = GameState(n, a, b, first, maker, breaker, to_move, log)
            return bool(final_predicate(snap))
        count = min(a if to_move is Player.MAKER else b, len(unclaimed))
        if to_move is not side:
            return all(play(to_move, combo) for combo in combinations(sorted(unclaimed), count))
        snap = GameState(n, a, b, first, maker, breaker, to_move, log)
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
    edge_cap: int = DEFAULT_EDGE_CAP,
) -> bool:
    """True iff the scripted side achieves its diameter goal against every opposing play.

    Goal: diameter(maker graph) <= d at exhaustion when side is Maker,
    diameter > d when side is Breaker.  This is verify_final_property with
    solve()'s two cutoffs as the prune.  On a full board the complement of
    Breaker's graph is Maker's graph, so the cutoffs settle every leaf and
    the final predicate is never reached.
    """

    def prune(maker, breaker, unclaimed, log) -> bool | None:
        if diameter_within(closed_masks(n, maker), d):
            return side is Player.MAKER
        if not diameter_within(complement(closed_masks(n, breaker)), d):
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
) -> bool:
    """Scripted side vs exhaustive opponent on an explicit family game.

    scripted_select(FamilyGameState) -> positions must be a pure function of
    the ownership masks (every shipped family selector is), which makes
    memoization over (maker mask, breaker mask, side) sound; the memo is
    capped at DEFAULT_MEMO_CAP entries.  Goal: Maker side completes a set;
    Breaker side prevents every set.
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
