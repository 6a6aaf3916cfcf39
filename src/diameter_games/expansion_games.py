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

ExpMaker's layout (family, edge index, member and incidence tuples) depends
only on (n, r, s), so it is built once and shared, read-only, through a cache
that holds the most recent layout; each instance keeps only its own alive
flags and unclaimed counts.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .game_core import Edge, GameState, InvalidParameters, LogCursor, Player, all_edges
from .potential_engine import FamilyTooLarge, WinningSetFamily

DEFAULT_FAMILY_CAP = 2_000_000
# Layouts kept alive by the cache.  Callers use one (n, r, s) many times in a
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
    return _enumerate_family(n, r, s)


def _enumerate_family(n: int, r: int, s: int) -> WinningSetFamily:
    """exp_family without the parameter and cap checks; callers check first."""
    index = {e: i for i, e in enumerate(all_edges(n))}
    sets = []
    vertices = range(n)
    for rset in combinations(vertices, r):
        rmembers = set(rset)
        rest = [v for v in vertices if v not in rmembers]
        for sset in combinations(rest, s):
            if r == s and sset < rset:
                continue  # unordered {R, S}: keep one orientation
            hyper = frozenset(
                index[(u, v) if u < v else (v, u)] for u in rset for v in sset
            )
            sets.append(hyper)
    assert len(sets) == exp_family_count(n, r, s)
    return WinningSetFamily(n * (n - 1) // 2, tuple(sets))


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
    """The (n, r, s)-only part of an ExpMaker, shared read-only between instances."""

    family: WinningSetFamily
    edges: tuple[Edge, ...]
    edge_index: Mapping[Edge, int]  # Edge -> position
    members: tuple[tuple[int, ...], ...]  # hyperedge -> sorted positions
    incident: tuple[tuple[int, ...], ...]  # position -> hyperedges, ascending


@lru_cache(maxsize=_LAYOUT_CACHE_SIZE)
def _layout(n: int, r: int, s: int) -> _Layout:
    """Enumerate and index the family; the caller has run _checked_count."""
    family = _enumerate_family(n, r, s)
    edges = tuple(all_edges(n))
    members = tuple(tuple(sorted(h)) for h in family.sets)
    incident: list = [[] for _ in edges]
    for h, positions in enumerate(members):
        for pos in positions:
            incident[pos].append(h)
    for pos, hs in enumerate(incident):
        incident[pos] = tuple(hs)  # in place: each list is freed as its tuple is built
    return _Layout(
        family=family,
        edges=edges,
        edge_index={e: i for i, e in enumerate(edges)},
        members=members,
        incident=tuple(incident),
    )


class ExpMaker:
    """Maker for one expansion game, playing greedy swapped-role potential.

    Each claim takes the unclaimed edge of maximum total surviving-hyperedge
    weight, where a hyperedge survives until Maker touches it and weighs
    (1 + maker_bias)^(-unclaimed/virtual_b).  Opponent claims shrink
    `unclaimed` and so raise the weight; Maker claims kill hyperedges.  Ties
    break toward the lowest edge index.  Incidence bookkeeping is synced
    from the move log, so the instance never double-counts, and it starts
    over on a log that did not grow (game_core.LogCursor).  The family and
    incidence come from the shared per-(n, r, s) layout; `cap` is checked
    against the pair count before that layout is looked up.
    """

    def __init__(
        self,
        n: int,
        r: int,
        s: int,
        maker_bias: int,
        virtual_b: float,
        cap: int = DEFAULT_FAMILY_CAP,
        name: str = "exp-maker",
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
        self.name = name
        _checked_count(n, r, s, cap)
        layout = _layout(n, r, s)
        self.family = layout.family
        self.edges = layout.edges
        self._edge_index = layout.edge_index
        self._members = layout.members
        self._incident = layout.incident
        self._log = LogCursor()
        self._log_base = math.log(1 + maker_bias)
        self.alive: list[bool] = []  # both filled by the first sync
        self.unclaimed_count: list[int] = []

    def _observe(self, player: Player, edge: Edge) -> None:
        pos = self._edge_index[edge]
        for h in self._incident[pos]:
            if player is Player.MAKER:
                self.alive[h] = False
            elif self.alive[h]:
                self.unclaimed_count[h] -= 1

    def sync(self, state: GameState) -> None:
        new = self._log.new_claims(state)
        if new is None:
            self.alive = [True] * len(self._members)
            self.unclaimed_count = [self.r * self.s] * len(self._members)
            new = state.move_log
        for player, edge in new:
            self._observe(player, edge)

    def _weight(self, h: int, extra_dead) -> float:
        if not self.alive[h] or h in extra_dead:
            return 0.0
        return math.exp(-self.unclaimed_count[h] / self.virtual_b * self._log_base)

    def select_turn(self, state: GameState, count: int) -> list[Edge]:
        self.sync(state)
        picks: list[Edge] = []
        picked_pos: set[int] = set()
        extra_dead: set[int] = set()
        for _ in range(count):
            score: dict[int, float] = {}
            for h in range(len(self._members)):
                w = self._weight(h, extra_dead)
                if w == 0.0:
                    continue
                for pos in self._members[h]:
                    edge = self.edges[pos]
                    if edge in state.unclaimed and pos not in picked_pos:
                        score[pos] = score.get(pos, 0.0) + w
            best_pos = -1
            best_w = -1.0
            if score:
                for pos in sorted(score):
                    if score[pos] > best_w:
                        best_pos, best_w = pos, score[pos]
            if best_pos < 0:
                # Every hyperedge is dead or untouchable; spend on lowest unclaimed.
                for pos, edge in enumerate(self.edges):
                    if pos not in picked_pos and edge in state.unclaimed:
                        best_pos = pos
                        break
                if best_pos < 0:
                    break
            picks.append(self.edges[best_pos])
            picked_pos.add(best_pos)
            extra_dead.update(self._incident[best_pos])
        return picks

    def select(self, state: GameState) -> list[Edge]:
        return self.select_turn(state, state.required_claim_count(Player.MAKER))


def exp_maker_select(state: GameState, params: ExpansionParams, virtual_b: float | None = None) -> list[Edge]:
    """One expansion-Maker turn from a fresh ExpMaker synced to the whole log.

    The family and incidence come from the cached layout of the last (n, r, s),
    so a run of calls on one (n, r, s) costs a sync and a select each, not an
    enumeration; the cache holds one layout, so a call on another (n, r, s)
    re-enumerates.  Match play should still hold an ExpMaker, which syncs only
    the new moves.
    """
    maker = ExpMaker(
        params.n,
        params.r,
        params.s,
        maker_bias=state.a,
        virtual_b=params.b if virtual_b is None else virtual_b,
    )
    return maker.select(state)
