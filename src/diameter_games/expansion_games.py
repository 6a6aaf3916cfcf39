"""Expansion games: Maker wants every disjoint (R, S) pair, |R|=r, |S|=s, joined by one of his edges.

Maker-win conditions for the (a:b) game on K_n (write L = ln(a+1), with
s >= r assumed for the first two):

  (a)  2b ln n < r L
  (b)  b ln n < r L <= 2b ln n   and   s > r b ln n / (r L - b ln n)
  (c)  n - s < n r L / (b ln n + r L)

Maker plays the potential side of the Erdos-Selfridge-Beck engine with the
roles swapped: the winning-set family has one hyperedge per disjoint (R, S)
pair, namely its rs crossing edges, and Maker kills a hyperedge by claiming
any edge in it.  A surviving hyperedge A carries weight
(1 + a)^(-unclaimed(A)/vb), where vb is the opponent's effective ("virtual")
bias: composites that visit this subgame once every few rounds pass the
opponent claims accumulated between visits, everyone else passes the real b.

Families are materialized explicitly, so construction is capped; the pair
count is checked before any enumeration.  When r == s the unordered pair
{R, S} is generated once, halving the raw ordered count; the closed-form
start value uses the generated count so cross-checks compare like with like.

ExpMaker keeps no game state.  Each pick reads the board's mask rows as
edge positions: a hyperedge survives while Maker holds none of its edges,
and its free count is the number of its edges still unclaimed.  The greedy
loop is the ESB Breaker's (potential_engine.greedy_potential_picks); only
the weight differs.  The layout it reads (each vertex's row shift, and per
hyperedge one edge mask and one tuple of its edge positions) depends only
on (n, r, s), so it is built once and shared, read-only, through a cache
that holds the most recent layout.  A pick costs one AND and popcount per
hyperedge to find the survivors and their weights, then one addition per
edge of each surviving hyperedge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .game_core import Edge, GameState, InvalidParameters, Player, all_edges
from .graph_metrics import set_bits
from .potential_engine import FamilyTooLarge, WinningSetFamily, greedy_potential_picks

DEFAULT_FAMILY_CAP = 2_000_000
# Layouts the cache holds.  Callers use one (n, r, s) many times in a
# row (each exhaustive cell, each subgame's ExpMaker), and an instance holds
# its own layout, so one is enough.  D2Maker's family may hold up to
# DEFAULT_FAMILY_CAP hyperedges, so the cache keeps no more than that one.
_LAYOUT_CACHE_SIZE = 1


@dataclass(frozen=True)
class ExpansionParams:
    n: int
    r: int
    s: int
    a: int
    b: float
    case_a: bool
    case_b: bool
    case_c: bool
    maker_win: bool  # any case holds
    r_le_s: bool  # cases (a)/(b) assume r <= s; flagged, never rejected
    family_size: int  # raw ordered pair count C(n,r)*C(n-r,s), exact


def exp_condition(n: int, r: int, s: int, a: int, b: float) -> ExpansionParams:
    if n < 2 or r < 1 or s < 1 or a < 1 or b <= 0:
        raise InvalidParameters(f"bad expansion parameters n={n}, r={r}, s={s}, a={a}, b={b}")
    if r + s > n:
        raise InvalidParameters(f"r + s = {r + s} exceeds n = {n}")
    ln_n = math.log(n)
    rl = r * math.log(a + 1)
    case_a = 2 * b * ln_n < rl
    case_b = (b * ln_n < rl <= 2 * b * ln_n) and (s > r * b * ln_n / (rl - b * ln_n))
    case_c = n - s < n * rl / (b * ln_n + rl)
    return ExpansionParams(
        n=n,
        r=r,
        s=s,
        a=a,
        b=b,
        case_a=case_a,
        case_b=case_b,
        case_c=case_c,
        maker_win=case_a or case_b or case_c,
        r_le_s=r <= s,
        family_size=math.comb(n, r) * math.comb(n - r, s),
    )


def exp_family_count(n: int, r: int, s: int) -> int:
    """Number of hyperedges exp_family would generate (unordered pairs counted once)."""
    raw = math.comb(n, r) * math.comb(n - r, s)
    return raw // 2 if r == s else raw


def _checked_count(n: int, r: int, s: int, cap: int) -> int:
    if r < 1 or s < 1 or r + s > n:
        raise InvalidParameters(f"bad family parameters n={n}, r={r}, s={s}")
    count = exp_family_count(n, r, s)
    if count > cap:
        raise FamilyTooLarge(count, cap)
    return count


def exp_family(n: int, r: int, s: int, cap: int = DEFAULT_FAMILY_CAP) -> WinningSetFamily:
    """The expansion hypergraph over edge positions (lexicographic edge index).

    One hyperedge per disjoint (R, S) pair: the indices of the rs edges
    between R and S.  The pair count is checked against `cap` before
    enumeration.
    """
    _checked_count(n, r, s, cap)
    return WinningSetFamily(n * (n - 1) // 2, tuple(map(frozenset, _hyperedges(n, r, s))))


def _hyperedges(n: int, r: int, s: int):
    """Each hyperedge's positions, in exp_family's order; callers check the count first."""
    index = {e: i for i, e in enumerate(all_edges(n))}
    vertices = range(n)
    for rset in combinations(vertices, r):
        rmembers = set(rset)
        rest = [v for v in vertices if v not in rmembers]
        for sset in combinations(rest, s):
            if r == s and sset < rset:
                continue  # unordered {R, S}: keep one orientation
            yield [index[(u, v) if u < v else (v, u)] for u in rset for v in sset]


def exp_start_value_closed_form(n: int, r: int, s: int, a: int, b: float) -> float:
    """Start potential of the swapped-role family game: (#hyperedges) * (1+a)^(-rs/b).

    Matches the generic surviving-set sum over exp_family(n, r, s) exactly;
    with r == s the generated (deduplicated) count is used.
    """
    count = exp_family_count(n, r, s)
    log_value = math.log(count) + (-r * s / b) * math.log(a + 1)
    return math.exp(log_value)


@dataclass(frozen=True)
class _Layout:
    """The (n, r, s)-only part of an expansion Maker, shared read-only between callers."""

    edges: tuple[Edge, ...]
    # vertex u < n - 1 -> (u + 1, position of edge (u, u + 1)): row u's higher
    # edges hold consecutive positions, so a mask row moves into place with two shifts.
    rows: tuple[tuple[int, int], ...]
    masks: tuple[int, ...]  # hyperedge -> bitmask of its positions
    positions: tuple[tuple[int, ...], ...]  # hyperedge -> its positions


@lru_cache(maxsize=_LAYOUT_CACHE_SIZE)
def _layout(n: int, r: int, s: int) -> _Layout:
    """Enumerate and index the family; the caller has run _checked_count."""
    edges = tuple(all_edges(n))
    masks = []
    positions = []
    for hyperedge in _hyperedges(n, r, s):
        mask = 0
        for pos in hyperedge:
            mask |= 1 << pos
        masks.append(mask)
        positions.append(tuple(hyperedge))
    return _Layout(
        edges=edges,
        rows=tuple((u + 1, u * (2 * n - u - 1) // 2) for u in range(n - 1)),
        masks=tuple(masks),
        positions=tuple(positions),
    )


def _greedy_turn(layout: _Layout, state: GameState, count: int, maker_bias: int, virtual_b: float) -> list[Edge]:
    """Up to `count` expansion-Maker claims, read off the board.

    A hyperedge survives while Maker holds none of its edges and then weighs
    (1 + maker_bias)^(-free/virtual_b), free being its edges still
    unclaimed: one AND and one popcount per hyperedge, and one exp per
    distinct free count.  Only the surviving hyperedges of positive weight
    reach the greedy loop.
    """
    maker = breaker = 0
    for m, b, (low, at) in zip(state.closed(Player.MAKER), state.closed(Player.BREAKER), layout.rows):
        maker |= m >> low << at
        breaker |= b >> low << at
    open_ = ((1 << len(layout.edges)) - 1) ^ (maker | breaker)
    free = set_bits(open_)
    log_base = math.log(1 + maker_bias)
    weight_of: dict[int, float] = {}  # free count -> weight, filled as counts come up
    live = []
    for mask, positions in zip(layout.masks, layout.positions):
        if mask & maker:
            continue
        k = (mask & open_).bit_count()
        weight = weight_of.get(k)
        if weight is None:
            weight = weight_of[k] = math.exp(-k / virtual_b * log_base)
        if weight > 0.0:
            live.append((weight, positions))
    return [layout.edges[pos] for pos in greedy_potential_picks(live, len(layout.edges), free, count)]


class ExpMaker:
    """Maker for one expansion game, playing greedy swapped-role potential.

    Each claim takes the unclaimed edge of maximum total surviving-hyperedge
    weight, where a hyperedge survives until Maker holds one of its edges
    and weighs (1 + maker_bias)^(-unclaimed/virtual_b).  Opponent claims
    shrink `unclaimed` and so raise the weight; Maker claims kill
    hyperedges.  Ties break toward the lowest edge index.  The instance
    keeps no game state: every pick is a function of the board it is shown,
    so any log, rewound or not, gives the pick a fresh instance would.  The
    layout comes from the shared per-(n, r, s) cache; `cap` is checked
    against the pair count before that layout is looked up.
    """

    name = "exp-maker"

    def __init__(
        self,
        n: int,
        r: int,
        s: int,
        maker_bias: int,
        virtual_b: float,
        cap: int = DEFAULT_FAMILY_CAP,
    ):
        if maker_bias < 1 or virtual_b <= 0:
            raise InvalidParameters(
                f"need maker_bias >= 1 and virtual_b > 0, got {maker_bias}, {virtual_b}"
            )
        self.n = n
        self.r = r
        self.s = s
        self.maker_bias = maker_bias
        self.virtual_b = float(virtual_b)
        _checked_count(n, r, s, cap)
        self._layout = _layout(n, r, s)

    def select_turn(self, state: GameState, count: int) -> list[Edge]:
        return _greedy_turn(self._layout, state, count, self.maker_bias, self.virtual_b)

    def select(self, state: GameState) -> list[Edge]:
        return self.select_turn(state, state.required_claim_count(Player.MAKER))


# exp_maker_select's instance, one per (n, r, s, a, b).  A constructor that
# raises caches nothing, so bad parameters raise on every call.
_exp_maker = lru_cache(maxsize=_LAYOUT_CACHE_SIZE)(ExpMaker)


def exp_maker_select(state: GameState, params: ExpansionParams) -> list[Edge]:
    """One expansion-Maker turn, the pick an ExpMaker(n, r, s, state.a, params.b) makes.

    The instance comes from a cache of the last (n, r, s, a, b), so a run
    of calls on one cell costs a pick each, not an enumeration or a check;
    a call on another (n, r, s) re-enumerates.
    """
    return _exp_maker(params.n, params.r, params.s, state.a, params.b).select(state)
