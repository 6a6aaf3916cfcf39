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

from .degree_games import DegreeWeightState, mindeg_params
from .expansion_games import DEFAULT_FAMILY_CAP, ExpMaker
from .game_core import (
    Edge,
    GameState,
    InvalidParameters,
    LexCursor,
    Player,
    mk_edge,
)

__all__ = [
    "DdParams",
    "dd_params",
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
    tiny r_sizes trips the family cap, and that error propagates.
    """

    def __init__(
        self,
        n: int,
        d: int,
        game_b: int,
        r_sizes: list[int] | None = None,
        family_cap: int = DEFAULT_FAMILY_CAP,
        name: str = "dd-maker",
    ) -> None:
        if game_b < 1:
            raise InvalidParameters("need opponent bias >= 1")
        self.params = dd_params(n, d)
        self.n = n
        self.d = d
        self.game_b = game_b
        self.name = name
        half = self.params.half
        self.half = half
        if r_sizes is None:
            r_sizes = [math.ceil(rv) for rv in self.params.r_values]
        if len(r_sizes) != half:
            raise InvalidParameters(
                f"need {half} ball sizes for d={d}, got {len(r_sizes)}"
            )
        if r_sizes[0] != 1:
            raise InvalidParameters("the radius-0 ball is a single vertex")
        for a, c in zip(r_sizes, r_sizes[1:]):
            if c < a:
                raise InvalidParameters(f"ball sizes must not shrink: {r_sizes}")
        if r_sizes[-1] >= n:
            raise InvalidParameters(f"ball sizes must stay below n: {r_sizes}")
        self.r_sizes = list(r_sizes)

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
                cap=family_cap,
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
            cap=family_cap,
        )
        self.annotations = [
            {
                "stages": half,
                "ball_sizes": list(r_sizes),
                "final_target": last_s,
                "effective_opponent_bias": eff_b,
            }
        ]
        self._round = 0
        self._lex = LexCursor(n)
        self._checked_bias = False

    def select(self, state: GameState) -> list[Edge]:
        self._round += 1
        if not self._checked_bias:
            self._checked_bias = True
            if state.a != 1 or state.b != self.game_b:
                self.flags.append("dd-maker-bias-mismatch")
        count = state.required_claim_count(Player.MAKER)
        game = (self._round - 1) % self.half + 1
        picks: list[Edge] = []
        picked: set[Edge] = set()
        if game == 1:
            self._g1.sync(state)
            for e in self._g1.select_turn(count):
                picks.append(e)
                picked.add(e)
        else:
            for e in self._exp[game].select_turn(state, count):
                if e not in picked:
                    picks.append(e)
                    picked.add(e)
        picks += self._lex.take(state.unclaimed, count - len(picks), picked)
        return picks


# ---------------------------------------------------------------------------
# Breaker, Maker bias 1


def dd_breaker_a1_biases(
    n: int, d: int, multiplier: float = 4.0
) -> tuple[int, int]:
    """(total bias, capping share) for the anchored bias-1 Breaker.

    The capping share is ceil(d^(1/(d-1)) * n^(1-1/(d-1))); the total
    bias is the same product scaled by multiplier before rounding, so
    the difference is room for the blocking answers.
    """
    if d < 3:
        raise InvalidParameters("the anchored Breaker is for d >= 3")
    if n < 5:
        raise InvalidParameters("need n >= 5")
    base = d ** (1.0 / (d - 1)) * n ** (1.0 - 1.0 / (d - 1))
    return math.ceil(multiplier * base), math.ceil(base)


def _bfs_dist(adj: list[set[int]] | list[list[int]], src: int, n: int) -> list[int]:
    inf = n + 1
    dist = [inf] * n
    dist[src] = 0
    frontier = [src]
    while frontier:
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if dist[y] == inf:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        frontier = nxt
    return dist


def a1_blocking_invariant(state: GameState, u: int, v: int, d: int) -> bool:
    """True while no Maker edge joins B_k(u) to B_(d-1-k)(v), any k.

    Distances live in Maker's own graph.  The condition is equivalent
    to every Maker edge (p, q) satisfying dist(u,p) + dist(v,q) >= d
    and dist(u,q) + dist(v,p) >= d, and it forces dist(u, v) > d: a
    shorter u..v walk would contain a crossing edge.
    """
    adj: list[list[int]] = [[] for _ in range(state.n)]
    for p, q in state.maker_edges:
        adj[p].append(q)
        adj[q].append(p)
    du = _bfs_dist(adj, u, state.n)
    dv = _bfs_dist(adj, v, state.n)
    for p, q in state.maker_edges:
        if du[p] + dv[q] <= d - 1 or du[q] + dv[p] <= d - 1:
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
    """

    def __init__(
        self,
        n: int,
        d: int,
        b1: int | None = None,
        multiplier: float = 4.0,
        name: str = "dd-breaker-a1",
    ) -> None:
        total, cap_share = dd_breaker_a1_biases(n, d, multiplier)
        self.n = n
        self.d = d
        self.bias = total
        self.b1 = cap_share if b1 is None else b1
        if self.b1 < 0 or self.b1 >= total:
            raise InvalidParameters("capping share must leave blocking room")
        self.name = name
        self.flags: list[str] = []
        self.violations: list[str] = []
        self._cap = DegreeWeightState(mindeg_params(n, self.b1, 1), Player.BREAKER)
        self.anchor: tuple[int, int] | None = None
        self._madj: list[set[int]] = [set() for _ in range(n)]
        self._synced = 0
        self._lex = LexCursor(n)
        self._max_blocking = 0
        self._note: dict = {
            "total_bias": total,
            "capping_bias": self.b1,
            "anchor": None,
            "max_blocking_used": 0,
        }
        self.annotations = [self._note]
        self._checked_bias = False

    def _sync(self, state: GameState) -> None:
        if len(state.move_log) < self._synced:
            raise InvalidParameters("move log rewound under a live strategy")
        for player, (p, q) in state.move_log[self._synced :]:
            if player is Player.MAKER:
                self._madj[p].add(q)
                self._madj[q].add(p)
        self._synced = len(state.move_log)

    def _layers(self, src: int, depth: int) -> list[list[int]]:
        layers = [[src]]
        seen = {src}
        for _ in range(depth):
            nxt: list[int] = []
            for x in layers[-1]:
                for y in self._madj[x]:
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            layers.append(sorted(nxt))
        return layers

    def _blocking_claims(
        self, state: GameState, last_edge: Edge, budget: int
    ) -> list[Edge]:
        u, v = self.anchor  # type: ignore[misc]
        n = self.n
        d = self.d
        du = _bfs_dist(self._madj, u, n)
        dv = _bfs_dist(self._madj, v, n)
        p, q = last_edge
        a_diff = du[p] - du[q]
        b_diff = dv[p] - dv[q]

        # Each job is (sphere centre, ball distance array, total radius).
        jobs: list[tuple[int, list[int], int]] = []

        def case_one(x: int, y: int) -> None:
            i = du[x]
            j = dv[y]
            if i <= d - 1:
                jobs.append((x, dv, d - i - 1))
            if j <= d - 1:
                jobs.append((y, du, d - j - 1))

        def case_two(x: int, y: int) -> None:
            i = du[x]
            j = dv[x]
            if i <= d - 2:
                jobs.append((y, dv, d - i - 2))
            if j <= d - 2:
                jobs.append((y, du, d - j - 2))

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

        out: list[Edge] = []
        seen: set[Edge] = set()
        overflow = False
        for centre, bdist, radius in jobs:
            spheres = self._layers(centre, radius)
            for k in range(radius + 1):
                ring = spheres[k]
                if not ring:
                    break
                limit = radius - k
                ball = [c for c in range(n) if bdist[c] <= limit]
                cands = {
                    mk_edge(a, c) for a in ring for c in ball if a != c
                }
                for e in sorted(cands):
                    if e in seen or e not in state.unclaimed:
                        continue
                    seen.add(e)
                    if len(out) >= budget:
                        overflow = True
                        break
                    out.append(e)
                if overflow:
                    break
            if overflow:
                break
        if overflow and "dd-breaker-a1-blocking-budget-exceeded" not in self.flags:
            self.flags.append("dd-breaker-a1-blocking-budget-exceeded")
        return out

    def select(self, state: GameState) -> list[Edge]:
        if not self._checked_bias:
            self._checked_bias = True
            if state.a != 1:
                self.flags.append("dd-breaker-a1-maker-bias-not-one")
            if state.b != self.bias:
                self.flags.append("dd-breaker-a1-bias-mismatch")
        self._sync(state)
        count = state.required_claim_count(Player.BREAKER)
        picks: list[Edge] = []
        picked: set[Edge] = set()

        if self.anchor is None:
            opener = state.move_log[0][1] if state.move_log else (-1, -1)
            pair: tuple[int, int] | None = None
            for x in range(self.n):
                if x in opener:
                    continue
                for y in range(x + 1, self.n):
                    if y in opener:
                        continue
                    pair = (x, y)
                    break
                if pair is not None:
                    break
            if pair is None:
                raise InvalidParameters("no vertex pair clear of the opening edge")
            self.anchor = pair
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
            for e in self._cap.select_turn(room, exclude=tuple(picked)):
                picks.append(e)
                picked.add(e)
        picks += self._lex.take(state.unclaimed, count - len(picks), picked)
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

    def __init__(self, n: int, d: int, name: str = "dd-breaker-a2") -> None:
        self.n = n
        self.d = d
        self.bias = dd_breaker_a2_bias(n, d)
        self.name = name
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
        return self._engine.select_turn(
            state.required_claim_count(Player.BREAKER)
        )


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
