"""Strategies for diameter-at-most-d games when d >= 3.

The Maker side composes the same ingredients as the diameter-2 builds,
just iterated: one min-degree game grows first neighbourhoods, and a
chain of expansion games grows balls radius by radius until two
half-radius balls around any pair of vertices must meet.  dd_params
computes the ball-size schedule and the bias this supports.

The Breaker side splits by Maker bias.  Against bias 1 there is a
surgical strategy (DdBreakerA1): pick an anchor pair (u, v) early, then
answer every Maker edge with a sphere-times-ball blocking pattern that
keeps Maker's graph from ever joining B_k(u) to B_(d-1-k)(v), which
pins dist(u, v) above d forever.  block_budget and the claim2_*
helpers bound how many claims one answer can need.  Against bias 2 or
more, plain degree capping is already enough (DdBreakerA2): a Maker
graph with max degree D reaches at most 1 + D + ... + D^d vertices in
d steps, so keeping degrees near n^(1/d) strands some pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

from .degree_games import DegreeWeightState, mindeg_params
from .expansion_games import ExpMaker
from .game_core import (
    Edge,
    GameState,
    InvalidParameters,
    Player,
    mk_edge,
)
from .graph_metrics import set_bits, spheres

__all__ = [
    "DdParams",
    "dd_params",
    "dd_ball_sizes",
    "DdMaker",
    "dd_breaker_a1_biases",
    "DdBreakerA1",
    "a1_blocking_invariant",
    "dd_breaker_a2_bias",
    "DdBreakerA2",
    "block_budget",
    "claim2_f",
    "claim2_bound",
    "claim2_check",
]


# ---------------------------------------------------------------------------
# sizing


@dataclass(frozen=True)
class DdParams:
    """Ball-growth schedule for the bias-b Maker build of diameter <= d.

    half is the number of growth stages (ceil(d / 2)).  r_values[i] is
    the ball size stage i is expected to reach; r_values[0] is 1, the
    bare centre vertex.  claim1_ok[i] records whether r_values[i] sits
    inside its intended envelope

        (1 - 6 / sqrt(beta))^i * (ln n / ln 2) * beta^i
            <= r_i <= (ln n / ln 2) * beta^i

    (index 0 is vacuously True).  The envelope is only meaningful once
    beta > 36; below that the lower end goes negative and the computed
    r_values degenerate with it, so callers at small n should hand
    DdMaker an explicit schedule instead.  nontriv_ok says the last
    ball is still large against b * ln n, i.e. the expansion chain has
    room to finish.  d_condition_ok is the regime guard
    d <= ln n / (3 ln ln n).
    """

    n: int
    d: int
    half: int
    beta: float
    b: float
    r_values: tuple[float, ...]
    claim1_ok: tuple[bool, ...]
    nontriv_ok: bool
    d_condition_ok: bool
    r1_constant: float


def dd_params(n: int, d: int, r1_constant: float = 6.0) -> DdParams:
    if d < 3:
        raise InvalidParameters("dd_params is for d >= 3")
    if n < 3:
        raise InvalidParameters("need n >= 3")
    half = (d + 1) // 2
    ln_n = math.log(n)
    ln2 = math.log(2.0)
    beta = (2.0 * n * ln2 / ln_n) ** (1.0 / half)
    b = (n * ln2 / (half * ln_n)) / beta

    r = [1.0]
    r.append((n / (half * b)) * (1.0 - r1_constant * math.sqrt(half * b * ln_n / n)))
    for i in range(2, half):
        prev = r[i - 1]
        gross = n * prev * ln2 / (half * b * ln_n + prev * ln2)
        r.append(gross - sum(r[:i]))

    claim1 = [True]
    root = math.sqrt(beta)
    for i in range(1, half):
        upper = (ln_n / ln2) * beta**i
        lower = (1.0 - 6.0 / root) ** i * upper
        claim1.append(lower <= r[i] <= upper)

    nontriv_ok = 2.0 * half * b * ln_n < r[half - 1] * ln2
    d_condition_ok = d <= ln_n / (3.0 * math.log(ln_n)) if ln_n > 1.0 else False
    return DdParams(
        n=n,
        d=d,
        half=half,
        beta=beta,
        b=b,
        r_values=tuple(r),
        claim1_ok=tuple(claim1),
        nontriv_ok=nontriv_ok,
        d_condition_ok=d_condition_ok,
        r1_constant=r1_constant,
    )


def dd_ball_sizes(n: int, d: int, r_sizes: list[int] | None = None) -> list[int]:
    """DdMaker's ball-size schedule: r_sizes, or ceil of dd_params' r_values.

    InvalidParameters unless there is one size per growth stage, the
    first is 1, none shrinks and the last stays below n.  The default
    schedule fails these checks on boards far too small for it.
    """
    params = dd_params(n, d)
    if r_sizes is None:
        r_sizes = [math.ceil(rv) for rv in params.r_values]
    if len(r_sizes) != params.half:
        raise InvalidParameters(
            f"need {params.half} ball sizes for d={d}, got {len(r_sizes)}"
        )
    if r_sizes[0] != 1:
        raise InvalidParameters("the radius-0 ball is a single vertex")
    for a, c in zip(r_sizes, r_sizes[1:]):
        if c < a:
            raise InvalidParameters(f"ball sizes must not shrink: {r_sizes}")
    if r_sizes[-1] >= n:
        raise InvalidParameters(f"ball sizes must stay below n: {r_sizes}")
    return list(r_sizes)


# ---------------------------------------------------------------------------
# Maker


class DdMaker:
    """Round-robin Maker for diameter <= d at bias (1 : b).

    Plays half = ceil(d / 2) subgames in rotation, one per round.  Game
    1 is the min-degree engine at effective bias (1 : half * b), so
    every radius-1 ball clears r_sizes[1] vertices.  Game j for
    2 <= j < half is the expansion game on pairs (R, S) with |R| =
    r_sizes[j - 1] and |S| = n - r_sizes[j]: once every small set has a
    neighbour in every co-large set, balls of size r_sizes[j - 1] grow
    to r_sizes[j].  The last game makes the final balls meet: for even
    d both endpoints grow to ceil(n / 2) - 1 exclusion, for odd d the
    radius-(half-1) ball must reach any co-r_sizes[half - 1] set.

    r_sizes defaults to ceil of dd_params' schedule, which only makes
    sense at very large n; small-n play should pass an explicit
    schedule.  Expansion families grow like n^(r + s), so anything but
    tiny r_sizes trips DEFAULT_FAMILY_CAP, and that error propagates.

    The round, and with it the subgame, follows from the number of Maker
    turns in the log.  The expansion games keep no state and read the
    board, and leftover claims go to GameState.lowest_open(); the degree
    game keeps game_core.LogCursor's rule, which holds although it is
    consulted on some turns only, because which turns follows from the log.
    """

    name = "dd-maker"

    def __init__(self, n: int, d: int, game_b: int, r_sizes: list[int] | None = None) -> None:
        if game_b < 1:
            raise InvalidParameters("need opponent bias >= 1")
        self.params = dd_params(n, d)
        self.n = n
        self.d = d
        self.game_b = game_b
        half = self.params.half
        self.half = half
        r_sizes = dd_ball_sizes(n, d, r_sizes)

        self.flags: list[str] = []
        self.violations: list[str] = []
        if not self.params.nontriv_ok:
            self.flags.append("dd-maker-last-ball-too-small")
        if not self.params.d_condition_ok:
            self.flags.append("dd-maker-d-regime-failed")

        eff_b = half * game_b
        self._g1 = DegreeWeightState(mindeg_params(n, 1, eff_b), Player.MAKER)
        if not self._g1.params.bias_precondition_ok:
            self.flags.append("dd-maker-degree-precondition-failed")
        self._exp: dict[int, ExpMaker] = {}
        for j in range(2, half):
            self._exp[j] = ExpMaker(
                n,
                r_sizes[j - 1],
                n - r_sizes[j],
                maker_bias=1,
                virtual_b=float(eff_b),
            )
        if d % 2 == 0:
            last_s = (n + 1) // 2 - 1
        else:
            last_s = n - r_sizes[half - 1]
        self._exp[half] = ExpMaker(
            n,
            r_sizes[half - 1],
            last_s,
            maker_bias=1,
            virtual_b=float(eff_b),
        )
        self.annotations = [
            {
                "stages": half,
                "ball_sizes": list(r_sizes),
                "final_target": last_s,
                "effective_opponent_bias": eff_b,
            }
        ]
        self._checked_bias = False

    def select(self, state: GameState) -> list[Edge]:
        if not self._checked_bias:
            self._checked_bias = True
            if state.a != 1 or state.b != self.game_b:
                self.flags.append("dd-maker-bias-mismatch")
        count = state.required_claim_count(Player.MAKER)
        # Every Maker turn but a truncated last one claims exactly a edges.
        game = len(state.maker_edges) // state.a % self.half + 1
        picks: list[Edge] = []
        picked: set[Edge] = set()
        if game == 1:
            self._g1.sync(state)
            for e in self._g1.select_turn(state, count):
                picks.append(e)
                picked.add(e)
        else:
            for e in self._exp[game].select_turn(state, count):
                if e not in picked:
                    picks.append(e)
                    picked.add(e)
        picks += state.lowest_open(count - len(picks), picked)
        return picks


# ---------------------------------------------------------------------------
# Breaker, Maker bias 1

A1_MULTIPLIER = 4.0  # ratio of the total bias to the capping share


def dd_breaker_a1_biases(n: int, d: int) -> tuple[int, int]:
    """(total bias, capping share) for the anchored bias-1 Breaker.

    The capping share is ceil(d^(1/(d-1)) * n^(1-1/(d-1))); the total
    bias is the same product scaled by A1_MULTIPLIER before rounding, so
    the difference is room for the blocking answers.
    """
    if d < 3:
        raise InvalidParameters("the anchored Breaker is for d >= 3")
    if n < 5:
        raise InvalidParameters("need n >= 5")
    base = d ** (1.0 / (d - 1)) * n ** (1.0 - 1.0 / (d - 1))
    return math.ceil(A1_MULTIPLIER * base), math.ceil(base)


def _depth(rings: list[int], x: int, n: int) -> int:
    """x's ring in graph_metrics.spheres `rings`, or the finite n + 1 when unreachable.

    _blocking_claims subtracts distances; with INFINITE, two unreachable
    endpoints would give inf - inf = NaN and fall into another case.
    """
    return next((k for k, ring in enumerate(rings) if ring >> x & 1), n + 1)


def a1_blocking_invariant(state: GameState, u: int, v: int, d: int) -> bool:
    """True while no Maker edge joins B_k(u) to B_(d-1-k)(v), any k.

    Balls live in Maker's own graph, as graph_metrics.spheres rings on
    the board's closed(Player.MAKER) masks.  OR-ing Maker's closed rows
    over B_k(u) gives B_k(u) with its Maker neighbours, so each k is one
    mask test against B_(d-1-k)(v): O(n d) mask operations in all.  The
    rows hold their own bits, so balls that meet also fail the test,
    which is exact: for u != v, two balls that meet also hold a crossing
    edge.  The invariant forces dist(u, v) > d, since a shorter u..v
    walk would contain a crossing edge.
    """
    closed = state.closed(Player.MAKER)
    v_rings = spheres(closed, v, d - 1)
    reach = 0
    for k, ring in enumerate(spheres(closed, u, d - 1)):
        for x in set_bits(ring):
            reach |= closed[x]
        if reach & sum(v_rings[: d - k]):
            return False
    return True


class DdBreakerA1:
    """Anchored Breaker against a bias-1 Maker, for diameter <= d.

    First turn: pick the lowest vertex pair (u, v) disjoint from
    Maker's opening edge, claim uv, and keep (u, v) as the anchor.
    Every later turn answers Maker's newest edge pq so that the balls
    around u and v in Maker's graph stay separated (the invariant in
    a1_blocking_invariant).  Writing x for the endpoint nearer u and y
    for the one nearer v, the answer claims sphere-times-ball edge sets

        N_k(x) x B_(d-i-1-k)(v)  for k = 0 .. d-i-1   (i = dist(x, u))
        N_k(y) x B_(d-j-1-k)(u)  for k = 0 .. d-j-1   (j = dist(y, v))

    and when one endpoint is nearer both anchors, both patterns centre
    on the far endpoint with exponents dropped by one more.  Claims are
    emitted nearer rings first, lowest edges first, then deduplicated;
    block_budget(max_degree, d) bounds how many survive.  After the
    answer comes a fixed share of degree-capping claims (which keeps
    the budget bound small) and lex-lowest filler for the rest.

    Distances and balls are graph_metrics.spheres rings on the board's
    closed(Player.MAKER) masks, and the anchor depends only on Maker's
    opening edge, so both follow from the log.  The answer builds no
    edge set: each ring x ball is walked as mask rows in vertex order,
    an edge is open when it is outside both players' closed rows and
    the answer's own picks (one mask per lower endpoint, kept for the
    call).  The filler is GameState.lowest_open(), and the capping
    engine keeps game_core.LogCursor's rule.
    """

    name = "dd-breaker-a1"

    def __init__(self, n: int, d: int, b1: int | None = None) -> None:
        total, cap_share = dd_breaker_a1_biases(n, d)
        self.n = n
        self.d = d
        self.bias = total
        self.b1 = cap_share if b1 is None else b1
        if self.b1 < 0 or self.b1 >= total:
            raise InvalidParameters("capping share must leave blocking room")
        self.flags: list[str] = []
        self.violations: list[str] = []
        self._cap = DegreeWeightState(mindeg_params(n, self.b1, 1), Player.BREAKER)
        self.anchor: tuple[int, int] | None = None
        self._max_blocking = 0
        self._note: dict = {
            "total_bias": total,
            "capping_bias": self.b1,
            "anchor": None,
            "max_blocking_used": 0,
        }
        self.annotations = [self._note]
        self._checked_bias = False

    def _blocking_claims(
        self, state: GameState, last_edge: Edge, budget: int
    ) -> list[Edge]:
        u, v = self.anchor  # type: ignore[misc]
        n = self.n
        d = self.d
        closed = state.closed(Player.MAKER)
        u_rings = spheres(closed, u)
        v_rings = spheres(closed, v)
        du = {x: _depth(u_rings, x, n) for x in last_edge}
        dv = {x: _depth(v_rings, x, n) for x in last_edge}
        p, q = last_edge
        a_diff = du[p] - du[q]
        b_diff = dv[p] - dv[q]

        # Each job is (sphere centre, rings of the ball's anchor, total radius).
        jobs: list[tuple[int, list[int], int]] = []

        def case_one(x: int, y: int) -> None:
            i = du[x]
            j = dv[y]
            if i <= d - 1:
                jobs.append((x, v_rings, d - i - 1))
            if j <= d - 1:
                jobs.append((y, u_rings, d - j - 1))

        def case_two(x: int, y: int) -> None:
            i = du[x]
            j = dv[x]
            if i <= d - 2:
                jobs.append((y, v_rings, d - i - 2))
            if j <= d - 2:
                jobs.append((y, u_rings, d - j - 2))

        if a_diff == 0 and b_diff == 0:
            case_one(min(p, q), max(p, q))
        elif a_diff <= 0 and b_diff >= 0:
            case_one(p, q)
        elif a_diff >= 0 and b_diff <= 0:
            case_one(q, p)
        elif a_diff < 0 and b_diff < 0:
            case_two(p, q)
        else:
            case_two(q, p)

        def rows():
            # Per job and ring, vertex x's partners in ring x ball, x in vertex order.
            for centre, anchor_rings, radius in jobs:
                for k, ring in enumerate(spheres(closed, centre, radius)):
                    ball = sum(anchor_rings[: radius - k + 1])
                    for x in set_bits(ring | ball):
                        yield x, (ball if ring >> x & 1 else 0) | (ring if ball >> x & 1 else 0)

        # Edges (x, y) with y above x come out in lex order per ring; the
        # answer's own picks are not on the board yet, so `mine` holds them by x.
        breaker = state.closed(Player.BREAKER)
        mine: dict[int, int] = {}
        out: list[Edge] = []
        for x, partners in rows():
            partners &= -(2 << x) & ~(closed[x] | breaker[x] | mine.get(x, 0))
            ys = set_bits(partners)
            if len(ys) > budget - len(out):
                out += [(x, y) for y in ys[: budget - len(out)]]
                if "dd-breaker-a1-blocking-budget-exceeded" not in self.flags:
                    self.flags.append("dd-breaker-a1-blocking-budget-exceeded")
                break
            out += [(x, y) for y in ys]
            mine[x] = mine.get(x, 0) | partners
        return out

    def select(self, state: GameState) -> list[Edge]:
        if not self._checked_bias:
            self._checked_bias = True
            if state.a != 1:
                self.flags.append("dd-breaker-a1-maker-bias-not-one")
            if state.b != self.bias:
                self.flags.append("dd-breaker-a1-bias-mismatch")
        count = state.required_claim_count(Player.BREAKER)
        picks: list[Edge] = []
        picked: set[Edge] = set()

        log = state.move_log
        opener = log[0][1] if log and log[0][0] is Player.MAKER else ()
        self.anchor = pair = tuple(islice((x for x in range(self.n) if x not in opener), 2))
        if all(player is Player.MAKER for player, _ in log):
            self._note["anchor"] = list(pair)
            e = mk_edge(*pair)
            if e in state.unclaimed:
                picks.append(e)
                picked.add(e)
        else:
            last_maker: Edge | None = None
            for player, edge in reversed(state.move_log):
                if player is Player.MAKER:
                    last_maker = edge
                    break
            if last_maker is not None:
                budget = max(count - self.b1, 0)
                for e in self._blocking_claims(state, last_maker, budget):
                    picks.append(e)
                    picked.add(e)
                if len(picks) > self._max_blocking:
                    self._max_blocking = len(picks)
                    self._note["max_blocking_used"] = self._max_blocking

        self._cap.sync(state)
        room = min(self.b1, count - len(picks))
        if room > 0:
            for e in self._cap.select_turn(state, room, exclude=tuple(picked)):
                picks.append(e)
                picked.add(e)
        picks += state.lowest_open(count - len(picks), picked)
        return picks


# ---------------------------------------------------------------------------
# Breaker, Maker bias 2 or more


def dd_breaker_a2_bias(n: int, d: int) -> int:
    """Capping bias ceil(4 * n^(1 - 1/d)) for Maker bias >= 2."""
    if d < 2 or n < 3:
        raise InvalidParameters("need d >= 2 and n >= 3")
    return math.ceil(4.0 * n ** (1.0 - 1.0 / d))


class DdBreakerA2:
    """Pure degree capping against Maker bias >= 2, for diameter <= d.

    With Maker's max degree held near n^(1/d) - 1, a ball of radius d
    in his graph covers under n vertices, so some pair stays farther
    than d apart.  The capping engine is the usual degree-weight
    greedy, built lazily at first call so it can read both biases off
    the live position.
    """

    name = "dd-breaker-a2"

    def __init__(self, n: int, d: int) -> None:
        self.n = n
        self.d = d
        self.bias = dd_breaker_a2_bias(n, d)
        self.flags: list[str] = []
        self.violations: list[str] = []
        self.annotations = [{"bias": self.bias}]
        self._engine: DegreeWeightState | None = None

    def select(self, state: GameState) -> list[Edge]:
        if self._engine is None:
            params = mindeg_params(state.n, state.b, state.a)
            self._engine = DegreeWeightState(params, Player.BREAKER)
            if not params.bias_precondition_ok:
                self.flags.append("dd-breaker-a2-bias-precondition-failed")
            if state.b != self.bias:
                self.flags.append("dd-breaker-a2-bias-mismatch")
            if state.a < 2:
                self.flags.append("dd-breaker-a2-maker-bias-below-two")
        self._engine.sync(state)
        return self._engine.select_turn(state, state.required_claim_count(Player.BREAKER))


# ---------------------------------------------------------------------------
# budget arithmetic


def block_budget(delta: int, d: int) -> int:
    """Most claims one blocking answer needs at Maker max degree delta.

    Exact integer form of 1 + sum_{k=0}^{d-2} (k+1) delta^k; the closed
    form divides exactly, which the divmod asserts.
    """
    if delta < 2 or d < 2:
        raise InvalidParameters("need delta >= 2 and d >= 2")
    num = (d - 1) * delta**d - d * delta ** (d - 1) + 1
    quot, rem = divmod(num, (delta - 1) ** 2)
    if rem:
        raise AssertionError(f"non-integral budget at delta={delta}, d={d}")
    return quot + 1


def claim2_f(delta: int, m: int, k: int) -> int:
    """Edge count of the two-sided blocking pattern split at depth k.

    Both halves are sums of weighted powers of delta and the whole
    thing is symmetric in k <-> m - k.
    """
    left = (m - k) * delta ** (m - k + 1) - (m - k + 1) * delta ** (m - k) + 1
    right = k * delta ** (k + 1) - (k + 1) * delta**k + 1
    return left + right


def claim2_bound(delta: int, m: int) -> int:
    """Value of claim2_f at the extreme split k = 1 (and k = m - 1)."""
    return (m - 1) * delta**m - m * delta ** (m - 1) + 1 + (delta - 1) ** 2


def claim2_check(delta: int, m: int) -> bool:
    """Every interior split costs at most the k = 1 split, symmetrically."""
    if delta < 2 or m < 2:
        raise InvalidParameters("need delta >= 2 and m >= 2")
    bound = claim2_bound(delta, m)
    for k in range(1, m):
        fk = claim2_f(delta, m, k)
        if fk != claim2_f(delta, m, m - k):
            return False
        if fk > bound:
            return False
    return True
