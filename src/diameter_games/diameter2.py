"""Strategies for the diameter-2 game on K_n.

Maker side:

  * D2SimpleMaker: pure degree building.  A graph with minimum degree above
    (n-2)/2 gives every nonadjacent pair a common neighbor, so for a > b the
    plain degree game already wins.
  * D2Maker: the (2:b) composite for b up to n^(1/8)/(9 (ln n)^(3/8)).
    Phase I rotates four subgames round-robin; Phase II repairs whatever
    pairs are still broken, one cheapest connection at a time.

Breaker side:

  * PairingBreaker: the (1:1) pairing argument anchored on one pair of
    vertices (wins for n >= 4; exhaustively verifiable).
  * D2Breaker: bias ceil((2+eps) sqrt(n/ln n)).  Saturates one vertex, then
    attacks the stars between that vertex's few Maker-neighbors and the
    still-clean rest of the board as a box game; completing any one box
    pins a pair at distance >= 3.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import islice

from .degree_games import DegreeWeightState, MinDegStrategy, flood_target, mindeg_params
from .expansion_games import ExpMaker
from .game_core import (
    Edge,
    GameState,
    InvalidParameters,
    LogCursor,
    Player,
    StrategyInapplicable,
    edge_count,
    mk_edge,
)
from .graph_metrics import set_bits
from .potential_engine import box_game_condition

logger = logging.getLogger(__name__)


# --- pairing Breaker (1:1) --------------------------------------------------


def pairing_breaker_select(state: GameState) -> list[Edge]:
    """Pairing response for Breaker in the (1:1) diameter-2 game, n >= 4.

    Breaker's first claim anchors the lowest edge (u, v) disjoint from
    Maker's opening edge.  Afterwards a Maker claim uw is answered by wv and
    vw by wu, so Maker never finishes a two-step route between u and v; the
    direct edge uv is Breaker's own first claim.  Maker moves that touch
    neither anchor (and any claims left over on biased turns) fall back to
    the lowest unclaimed edge.  A pure function of the snapshot, so the
    exhaustive verifier can drive it.
    """
    if state.n < 4:
        raise StrategyInapplicable("the pairing argument needs n >= 4")
    count = state.required_claim_count(Player.BREAKER)
    log = state.move_log
    picks: list[Edge] = []
    anchor: Edge | None = None
    for player, edge in log:
        if player is Player.BREAKER:
            anchor = edge
            break
    if anchor is None:
        opener = log[0][1] if log else ()
        off_opener = (e for e in state.unclaimed if e[0] not in opener and e[1] not in opener)
        picks = list(islice(off_opener, 1))
    else:
        u, v = anchor
        last_maker: Edge | None = None
        for player, edge in reversed(log):
            if player is Player.MAKER:
                last_maker = edge
                break
        partner: Edge | None = None
        if last_maker is not None:
            x, y = last_maker
            if u in last_maker and v not in last_maker:
                partner = mk_edge(y if x == u else x, v)
            elif v in last_maker and u not in last_maker:
                partner = mk_edge(y if x == v else x, u)
        if partner is not None and partner in state.unclaimed:
            picks.append(partner)
    if len(picks) < count:
        picks += state.lowest_open(count - len(picks), picks)
    return picks


class PairingBreaker:
    """run_match wrapper over pairing_breaker_select."""

    name = "pairing-breaker"

    def select(self, state: GameState) -> list[Edge]:
        return pairing_breaker_select(state)


# --- degree-only Maker ------------------------------------------------------


class D2SimpleMaker:
    """Maker for diameter <= 2 by degree alone, for a > b.

    If Maker ends with minimum degree above (n-2)/2, any two of his
    nonadjacent vertices have 2 * mindeg > n - 2 neighbor slots among the
    other n - 2 vertices and so share one.  The engine is the plain degree
    game; its guarantee a*n/(a+b) - k clears the n/2 target whenever a > b
    and a^3 <= n / (72 ln n), flagged when violated.
    """

    name = "d2-simple-maker"

    def __init__(self, n: int, a: int, b: int):
        self._engine = MinDegStrategy(n, a, b)
        self.flags = list(self._engine.flags)
        self.annotations = [
            {"degree_target": n // 2, "degree_guarantee": self._engine.params.d_max}
        ]
        if not (b < a and 72 * a**3 * math.log(n) <= n):
            self.flags.append("d2-simple-precondition-failed")

    def select(self, state: GameState) -> list[Edge]:
        return self._engine.select(state)


# --- saturating Breaker with a box-game finish ------------------------------

D2_BREAKER_EPS = 0.1  # D2Breaker's slack in the bias ceil((2+eps) sqrt(n / ln n))


@dataclass(frozen=True)
class D2BreakerParams:
    """Sizing of the saturate-then-box Breaker.

    worst_t bounds the saturated vertex's Maker-neighbors; the worst-case
    box criterion uses ln(k) as a floor for the harmonic sum over the
    k >= n - worst_t - 1 - r_prime_max boxes that must survive setup.
    """

    n: int
    eps: float
    b: int
    r_prime_max: int  # flooding turns needed at worst: ceil((n-1)/b)
    worst_t: int  # 2 * r_prime_max + 2
    box_rhs_worst: float  # ((b-1)/2) * ln(n - worst_t - 1 - r_prime_max)
    box_condition_ok: bool


def d2_breaker_params(n: int, eps: float) -> D2BreakerParams:
    if n < 5 or eps <= 0:
        raise InvalidParameters(f"need n >= 5 and eps > 0, got n={n}, eps={eps}")
    b = math.ceil((2 + eps) * math.sqrt(n / math.log(n)))
    r_prime_max = math.ceil((n - 1) / b)
    worst_t = 2 * r_prime_max + 2
    inner = n - worst_t - 1 - r_prime_max
    rhs = ((b - 1) / 2) * math.log(inner) if inner >= 1 else -math.inf
    return D2BreakerParams(
        n=n,
        eps=eps,
        b=b,
        r_prime_max=r_prime_max,
        worst_t=worst_t,
        box_rhs_worst=rhs,
        box_condition_ok=worst_t <= rhs,
    )


class D2Breaker:
    """Breaker for diameter <= 2 at bias ceil((2+eps) sqrt(n / ln n)), eps = D2_BREAKER_EPS.

    Phase I floods one Maker-untouched vertex v (lex order over endpoints;
    the lowest vertex of least Maker degree when Maker has touched them all)
    until v has no unclaimed edge left.  At that point v's Maker-neighbors
    u_1..u_t are the only possible middles of a 2-step Maker route into v,
    so Phase II plays the box game over the disjoint stars
    E_x = {x u_1, ..., x u_t} for every x that has no Maker edge to any
    u_i: owning one full star leaves dist(v, x) >= 3.  Boxes are attacked
    smallest-first (ties to the lower x, edges in lex order); a box dies
    when Maker claims inside it.  The exact harmonic criterion is evaluated
    when the boxes freeze and flagged if it fails; leftover claims go to
    the lowest unclaimed edge.

    History, kept across turns: the target, the Phase I ring position and
    round count, and from the freeze on two vertex masks, the spokes
    u_1..u_t and the x whose box was live at the previous turn.  Everything
    else is read off the board's closed masks: box x's open edges are the
    spokes outside both players' rows at x, and it is live while that row
    is nonzero and Maker's row at x misses the spokes.  Because of the
    history, a log that did not grow since the previous turn is refused
    (game_core.LogCursor).
    """

    name = "d2-breaker"

    def __init__(self, n: int):
        self.params = d2_breaker_params(n, D2_BREAKER_EPS)
        self.flags: list[str] = []
        self.violations: list[str] = []
        self.annotations: list[dict] = []
        if not self.params.box_condition_ok:
            self.flags.append("d2-breaker-worst-case-box-condition-failed")
        self._target: int | None = None
        self._ring = 0
        self._spokes: int | None = None  # None until the target is saturated
        self._boxes = 0
        self._log = LogCursor()
        self._rounds = 0
        self._checked_bias = False

    def select(self, state: GameState) -> list[Edge]:
        self._log.require_growth(state)
        self._rounds += 1
        if not self._checked_bias:
            self._checked_bias = True
            if state.b != self.params.b:
                self.flags.append("d2-breaker-bias-mismatch")
        maker, breaker = state.closed(Player.MAKER), state.closed(Player.BREAKER)
        if self._target is None:
            try:
                self._target = flood_target(state)
            except StrategyInapplicable:
                self._target = min(range(state.n), key=lambda x: maker[x].bit_count())
                self.flags.append("d2-breaker-no-untouched-vertex")
        count = state.required_claim_count(Player.BREAKER)
        picks: list[Edge] = []
        if self._spokes is None:
            t = self._target
            taken = maker[t] | breaker[t]  # holds t itself
            while self._ring < state.n and len(picks) < count:
                w = self._ring
                self._ring += 1
                if not taken >> w & 1:
                    picks.append(mk_edge(t, w))
            if self._ring >= state.n:
                # every edge at the target now has an owner: freeze the boxes
                self._freeze_boxes(state)
        if self._spokes is not None:
            spokes = self._spokes
            rows: dict[int, int] = {}
            for x in set_bits(self._boxes):
                row = spokes & ~(maker[x] | breaker[x])
                if row and not maker[x] & spokes:
                    rows[x] = row
                else:
                    self._boxes ^= 1 << x  # Maker entered the box, or Breaker owns all of it
            # Taking a box whole leaves the others' sizes, so one order serves the turn.
            for x in sorted(rows, key=lambda x: (rows[x].bit_count(), x)):
                if len(picks) >= count:
                    break
                picks += [mk_edge(x, u) for u in set_bits(rows[x])[: count - len(picks)]]
            picks += state.lowest_open(count - len(picks), set(picks))
        return picks

    def _freeze_boxes(self, state: GameState) -> None:
        t = self._target
        maker, breaker = state.closed(Player.MAKER), state.closed(Player.BREAKER)
        self._spokes = spokes = maker[t] & ~(1 << t)
        sizes: list[int] = []
        pre_completed = 0
        for x in range(state.n):
            if x == t or maker[x] & spokes:
                continue  # a u_i itself, or already two steps from the target through one
            row = spokes & ~(maker[x] | breaker[x])
            if row:
                self._boxes |= 1 << x
                sizes.append(row.bit_count())
            else:
                # nothing left to claim: the pair (target, x) is already cut off
                pre_completed += 1
        k = len(sizes)
        max_size = max(sizes, default=0)
        exact_ok = k >= 2 and box_game_condition(max_size, k, state.b, 2)
        if k and not exact_ok:
            self.flags.append("d2-breaker-runtime-box-condition-failed")
        if not k and not pre_completed:
            self.flags.append("d2-breaker-no-eligible-boxes")
        self.annotations.append(
            {
                "target_vertex": t,
                "maker_neighbors_at_saturation": spokes.bit_count(),
                "eligible_boxes": k,
                "max_box_size": max_size,
                "boxes_pre_completed": pre_completed,
                "phase1_rounds": self._rounds,
                "box_condition_exact_ok": exact_ok,
            }
        )
        logger.debug(
            "d2-breaker: flood -> box game at log length %d: %s", len(state.move_log), self.annotations[-1]
        )


# --- the four-game composite Maker ------------------------------------------


def game4_lambda(ell: int, b: float) -> float:
    """Weight rate of the high-pair connection game.

    lam = 1/(16 b ell) - (4b+1)/(16 b ell)^2, the largest rate (to second
    order) keeping one finished connection ahead of 4b opposing claims
    spread over at most ell high vertices.
    """
    q = 16.0 * b * ell
    return 1.0 / q - (4.0 * b + 1.0) / (q * q)


def d2_maker_bias_bound(n: int) -> float:
    """Largest opposing bias the composite's sizing targets: n^(1/8) / (9 (ln n)^(3/8))."""
    return n**0.125 / (9.0 * math.log(n) ** 0.375)


@dataclass(frozen=True)
class D2MakerParams:
    """Sizing checks for the (2:b) composite.

    r and s are the expansion scales, c the high-degree coefficient (a
    vertex is high once the opponent has c*n/b edges at it).  The cond*
    flags are the self-consistency requirements of the plan; all_ok is
    their conjunction.
    """

    n: int
    b: float
    c: float
    r: float  # sqrt(n ln n / 2)
    s: float  # n^(3/4) / ln n
    virtual_b: float  # expansion game's rating bias: E / (2 n r) - 2
    cond1_ok: bool  # c >= 36 b^(3/2) sqrt(ln n / n)
    cond2_ok: bool  # n >= 4 b r
    cond3a_ok: bool  # s >= r >= 3
    cond3b_ok: bool  # ln n < 2 r^2 ln 3 / n
    cond3c_ok: bool  # virtual_b >= 4 b
    cond4a_ok: bool  # 4 b < c n / b
    cond4b_ok: bool  # ln(32 r b^2) - 3n/(32768 r b^4) + 3/64 < 0
    cond5_ok: bool  # (n s / 2) 2^(-n / (32 b^2 s)) < 1, checked in logs
    all_ok: bool


def d2_maker_params(n: int, b: float | None = None) -> D2MakerParams:
    if n < 3:
        raise InvalidParameters(f"need n >= 3, got {n}")
    if b is None:
        b = d2_maker_bias_bound(n)
    if b <= 0:
        raise InvalidParameters(f"need b > 0, got {b}")
    ln_n = math.log(n)
    c = 0.125
    r = math.sqrt(n * ln_n / 2)
    s = n**0.75 / ln_n
    virtual_b = edge_count(n) / (2 * n * r) - 2
    cond1 = c >= 36 * b**1.5 * math.sqrt(ln_n / n)
    cond2 = n >= 4 * b * r
    cond3a = s >= r >= 3
    cond3b = ln_n < 2 * r * r * math.log(3) / n
    cond3c = virtual_b >= 4 * b
    cond4a = 4 * b < c * n / b
    cond4b = math.log(32 * r * b * b) - 3 * n / (32768 * r * b**4) + 3 / 64 < 0
    cond5 = math.log(n * s / 2) - (n / (32 * b * b * s)) * math.log(2) < 0
    return D2MakerParams(
        n=n,
        b=b,
        c=c,
        r=r,
        s=s,
        virtual_b=virtual_b,
        cond1_ok=cond1,
        cond2_ok=cond2,
        cond3a_ok=cond3a,
        cond3b_ok=cond3b,
        cond3c_ok=cond3c,
        cond4a_ok=cond4a,
        cond4b_ok=cond4b,
        cond5_ok=cond5,
        all_ok=all([cond1, cond2, cond3a, cond3b, cond3c, cond4a, cond4b, cond5]),
    )


def d2_maker_min_scale() -> int | None:
    """Smallest power of ten up to 10^12 at which every sizing condition holds at the default bias."""
    for p in range(3, 13):
        if d2_maker_params(10**p).all_ok:
            return 10**p
    return None


@dataclass
class _ConnectPair:
    """One still-unconnected vertex pair.

    Its middles are the vertices m whose legs u-m and m-w are both free of
    opponent edges, read off the board; the opponent's edges only grow, so
    a middle once lost stays lost.  The pair is satisfied once Maker links
    u and w within two steps (through any vertex).
    """

    u: int
    w: int
    satisfied: bool = False


class D2Maker:
    """Composite Maker for diameter <= 2 in the (2:b) game.

    Phase I (min(ceil(2 n r), total/2) rounds) rotates four subgames, one
    full round each:

      1. a degree game over the whole board, rated (2 : 4b);
      2. a poorest-vertex round: both claims at the lowest-degree vertex,
         edges ranked by the degree game's weights (spill to next-poorest);
      3. an expansion game joining every ceil(r)-set to every ceil(s)-set,
         rated against the virtual bias E/(2 n r) - 2.  r and s do not
         depend on b, and the family fits DEFAULT_FAMILY_CAP only for
         6 <= n <= 17 (1,361,360 sets at n = 17, 9,189,180 at n = 18).
         On every other board game 2's rule plays this round and the
         d2-maker-game3-fallback flag is set;
      4. a connection game on pairs of high vertices (opponent degree at
         least ceil(c n / b)): an unconnected pair weighs (1 + lam)^(-Y)
         with Y its surviving middles, and the heaviest claimable pair gets
         its cheapest leg, completions first.

    The connection potential (sum of those weights) is measured before
    every game-4 turn; between consecutive measurements with no new high
    vertex it must not grow, and any growth beyond 1e-9 relative is
    recorded as a violation.  High vertices stop accruing when Phase I
    ends.  Phase II repairs the remaining broken pairs directly on odd
    rounds (cheapest leg of the fewest-middles pair) and alternates game 4
    with free moves on even rounds.  Phases, high vertices and the game-4
    trace are history, so a log that did not grow since the previous turn
    is refused (game_core.LogCursor).  So are the Breaker degrees it keeps
    beside the board's masks: which vertex turns high first follows the
    replay claim by claim.  Ownership comes from the board's closed masks
    and is not kept across turns: a pair's live middles are the vertices
    outside both endpoints' Breaker masks, and each turn copies Maker's
    masks (n ints) once so that they take the turn's picks as they are
    made.  Game 2 reads a vertex's open edges off the same masks, and
    leftover claims go to GameState.lowest_open().
    """

    name = "d2-maker"

    def __init__(self, n: int, b: int):
        if n < 5:
            raise InvalidParameters(f"the composite needs n >= 5, got {n}")
        if b < 1:
            raise InvalidParameters(f"need opposing bias b >= 1, got {b}")
        self.params = d2_maker_params(n, b)
        self.n = n
        self.b_game = b
        self.flags: list[str] = []
        self.violations: list[str] = []
        p = self.params
        self.total_rounds = math.ceil(edge_count(n) / (2 + b))
        full_phase1 = math.ceil(2 * n * p.r)
        self.phase1_rounds = min(full_phase1, self.total_rounds // 2)
        if self.phase1_rounds < full_phase1:
            self.flags.append("d2-maker-phase1-truncated")
        if not p.all_ok:
            self.flags.append("d2-maker-sizing-conditions-failed")
        self.high_threshold = math.ceil(p.c * n / b)
        self.ell_max_op = max(2, math.ceil(32 * p.r * b * b))
        self.lambda4 = game4_lambda(self.ell_max_op, b)
        self._log1p_l4 = math.log1p(self.lambda4)

        self._g1 = DegreeWeightState(mindeg_params(n, 2, 4 * b), Player.MAKER)
        virtual_b = p.virtual_b
        if virtual_b < 1.0:
            virtual_b = 1.0
            self.flags.append("d2-maker-game3-virtual-bias-clamped")
        self._g3: ExpMaker | None
        try:
            self._g3 = ExpMaker(
                n,
                math.ceil(p.r),
                math.ceil(p.s),
                maker_bias=2,
                virtual_b=virtual_b,
            )
        except InvalidParameters:
            self._g3 = None
            self.flags.append("d2-maker-game3-fallback")

        # Set for one turn only: Maker's closed masks with the turn's picks
        # so far, and the board's Breaker masks.
        self._mclosed: list[int] = []
        self._bclosed: list[int] = []
        self._everyone = (1 << n) - 1
        self._bdeg = [0] * n
        self._high: list[int] = []
        self._high_set: set[int] = set()
        self._g4_pairs: list[_ConnectPair] = []
        self._high_frozen = False
        self._log = LogCursor()
        self._round = 0
        self._t_trace: list[tuple[int, int, float]] = []
        self._p2_pairs: list[_ConnectPair] | None = None
        self._p2_even_game4 = True
        self._note = {
            "phase1_rounds": self.phase1_rounds,
            "total_rounds": self.total_rounds,
            "schedule": "degree/poorest/expansion/connect rotation, then repairs",
            "high_threshold": self.high_threshold,
            "ell_max_op": self.ell_max_op,
            "ell_bound": (2 * self.phase1_rounds * b) // self.high_threshold,
            "lambda4": self.lambda4,
            "high_count": 0,
            "t_trace": self._t_trace,
        }
        self.annotations = [self._note]

    # -- bookkeeping --------------------------------------------------------

    def _sync(self, new_claims: list[tuple[Player, Edge]]) -> None:
        for player, (u, v) in new_claims:
            if player is Player.BREAKER:
                self._bdeg[u] += 1
                self._bdeg[v] += 1
                if not self._high_frozen:
                    for x in sorted((u, v)):
                        if self._bdeg[x] >= self.high_threshold and x not in self._high_set:
                            self._on_high(x)

    def _on_high(self, x: int) -> None:
        for prev in self._high:
            self._g4_pairs.append(_ConnectPair(u=prev, w=x))
        self._high.append(x)
        self._high_set.add(x)
        self._note["high_count"] = len(self._high)
        if len(self._high) > self.ell_max_op:
            self.flags.append("d2-maker-high-count-exceeded")

    def _pair_alive(self, p: _ConnectPair) -> int:
        return self._everyone & ~(self._bclosed[p.u] | self._bclosed[p.w])

    def _pair_satisfied(self, p: _ConnectPair) -> bool:
        if not p.satisfied and self._mclosed[p.u] & self._mclosed[p.w]:
            p.satisfied = True  # adjacent, or a common Maker neighbour
        return p.satisfied

    def game4_potential(self) -> float:
        """Sum of (1 + lam)^(-Y) over unconnected high pairs.

        Pairs are judged on the turn's ownership, so this is measured inside
        select(); before the first high pair it is 0.
        """
        total = 0.0
        for p in self._g4_pairs:
            if self._pair_satisfied(p):
                continue
            total += math.exp(-float(self._pair_alive(p).bit_count()) * self._log1p_l4)
        return total

    # -- claim rules ---------------------------------------------------------

    def _connect_claim(self, pairs: list[_ConnectPair]) -> Edge | None:
        """Cheapest leg of the fewest-middles unconnected pair.

        Selection: minimal Y over pairs with any claimable leg, ties to the
        lex-lower pair.  Action, in order: finish a half-owned middle
        (lowest m), take the direct edge, or open the lowest fresh middle
        (lex-lower leg first).
        """
        best_key: tuple[int, int, int] | None = None
        best_action: Edge | None = None
        for p in pairs:
            if self._pair_satisfied(p):
                continue
            u, w = p.u, p.w
            mu, mw = self._mclosed[u], self._mclosed[w]
            alive = self._pair_alive(p)
            action: Edge | None = None
            cost1 = alive & (mu | mw)
            if cost1:
                m = (cost1 & -cost1).bit_length() - 1
                action = mk_edge(m, w) if mu >> m & 1 else mk_edge(u, m)
            elif not (mu | self._bclosed[u]) >> w & 1:
                action = mk_edge(u, w)
            else:
                cost2 = alive & ~mu & ~mw
                if cost2:
                    m = (cost2 & -cost2).bit_length() - 1
                    action = min(mk_edge(u, m), mk_edge(m, w))
            if action is None:
                continue
            key = (alive.bit_count(), u, w)
            if best_key is None or key < best_key:
                best_key, best_action = key, action
        return best_action

    def _take(self, e: Edge, picks: list[Edge], picked: set[Edge]) -> None:
        picks.append(e)
        picked.add(e)
        self._mclosed[e[0]] |= 1 << e[1]
        self._mclosed[e[1]] |= 1 << e[0]

    def _claim_game2(self, picks: list[Edge], picked: set[Edge], count: int) -> None:
        deg = self._g1.deg_self
        log_w = self._g1.log_w
        order = sorted(range(self.n), key=lambda v: (int(deg[v]), v))
        for x in order:
            if len(picks) >= count:
                break
            # x's open edges less the turn's picks, which _take adds to Maker's masks
            row = self._everyone & ~(self._mclosed[x] | self._bclosed[x])
            for y in sorted(set_bits(row), key=lambda y: (-float(log_w[y]), y)):
                if len(picks) >= count:
                    break
                self._take(mk_edge(x, y), picks, picked)

    def _claim_game4(self, state: GameState, picks: list[Edge], picked: set[Edge], count: int) -> None:
        t_now = self.game4_potential()
        highs = len(self._high)
        if self._t_trace:
            _, prev_highs, prev_t = self._t_trace[-1]
            if highs == prev_highs and t_now > prev_t * (1 + 1e-9):
                self.violations.append(
                    f"game4-potential-increased round={self._round} from={prev_t!r} to={t_now!r}"
                )
        self._t_trace.append((self._round, highs, t_now))
        while len(picks) < count:
            e = self._connect_claim(self._g4_pairs)
            if e is None:
                e = state.lowest_open(1, picked)[0]
            self._take(e, picks, picked)

    def _freeze_p2(self) -> None:
        pairs: list[_ConnectPair] = []
        for u in range(self.n):
            for w in range(u + 1, self.n):
                if u in self._high_set and w in self._high_set:
                    continue  # game 4's pairs
                if self._mclosed[u] & self._mclosed[w]:
                    continue
                pairs.append(_ConnectPair(u=u, w=w))
        self._p2_pairs = pairs
        self._note["phase2_open_pairs"] = len(pairs)

    # -- the turn ------------------------------------------------------------

    def select(self, state: GameState) -> list[Edge]:
        new = self._log.require_growth(state)
        self._round += 1
        if self._round == 1 and (state.a != 2 or state.b != self.b_game):
            self.flags.append("d2-maker-bias-mismatch")
        self._sync(new)
        if self._round > self.phase1_rounds and not self._high_frozen:
            self._high_frozen = True  # the sync above drained Phase I's log
            logger.debug(
                "d2-maker: Phase I -> II at round %d, log length %d, %d high vertices",
                self._round,
                len(state.move_log),
                len(self._high),
            )
        self._g1.sync(state)
        self._mclosed = list(state.closed(Player.MAKER))
        self._bclosed = state.closed(Player.BREAKER)
        count = state.required_claim_count(Player.MAKER)
        picks: list[Edge] = []
        picked: set[Edge] = set()
        if self._round <= self.phase1_rounds:
            game = (self._round - 1) % 4 + 1
            if game == 1:
                for e in self._g1.select_turn(state, count, exclude=tuple(picked)):
                    self._take(e, picks, picked)
            elif game == 2:
                self._claim_game2(picks, picked, count)
            elif game == 3:
                if self._g3 is None:
                    self._claim_game2(picks, picked, count)
                else:
                    for e in self._g3.select_turn(state, count):
                        self._take(e, picks, picked)
            else:
                self._claim_game4(state, picks, picked, count)
        else:
            if self._p2_pairs is None:
                self._freeze_p2()
            p2r = self._round - self.phase1_rounds
            if p2r % 2 == 1:
                while len(picks) < count:
                    e = self._connect_claim(self._p2_pairs)
                    if e is None:
                        break
                    self._take(e, picks, picked)
            elif self._p2_even_game4:
                self._claim_game4(state, picks, picked, count)
                self._p2_even_game4 = False
            else:
                self._p2_even_game4 = True
        for e in state.lowest_open(count - len(picks), picked):
            self._take(e, picks, picked)
        self._mclosed = self._bclosed = []
        return picks
