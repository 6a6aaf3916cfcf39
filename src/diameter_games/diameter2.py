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

import math
from dataclasses import dataclass

import numpy as np

from .degree_games import DegreeWeightState, MinDegStrategy, flood_target, mindeg_params
from .expansion_games import DEFAULT_FAMILY_CAP, ExpMaker
from .game_core import (
    Edge,
    GameState,
    InvalidParameters,
    LexCursor,
    Player,
    StrategyInapplicable,
    edge_count,
    mk_edge,
)
from .potential_engine import box_game_condition


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
        opener = log[0][1] if log else (-1, -1)
        outside = [x for x in range(state.n) if x not in opener]
        for i, u in enumerate(outside):
            for v in outside[i + 1 :]:
                e = mk_edge(u, v)
                if e in state.unclaimed:
                    picks.append(e)
                    break
            if picks:
                break
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
    for e in sorted(state.unclaimed):
        if len(picks) >= count:
            break
        if e not in picks:
            picks.append(e)
    return picks[:count]


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

    def __init__(self, n: int, a: int, b: int, name: str = "d2-simple-maker"):
        self._engine = MinDegStrategy(n, a, b, Player.MAKER, name=name)
        self.name = name
        self.flags = list(self._engine.flags)
        self.annotations = [
            {"degree_target": n // 2, "degree_guarantee": self._engine.params.d_max}
        ]
        if not (b < a and 72 * a**3 * math.log(n) <= n):
            self.flags.append("d2-simple-precondition-failed")

    def select(self, state: GameState) -> list[Edge]:
        return self._engine.select(state)


# --- saturating Breaker with a box-game finish ------------------------------


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
    """Breaker for diameter <= 2 at bias ceil((2+eps) sqrt(n / ln n)).

    Phase I floods one Maker-untouched vertex v (lex order over endpoints)
    until v has no unclaimed edge left.  At that point v's Maker-neighbors
    u_1..u_t are the only possible middles of a 2-step Maker route into v,
    so Phase II plays the box game over the disjoint stars
    E_x = {x u_1, ..., x u_t} for every x that has no Maker edge to any
    u_i: owning one full star leaves dist(v, x) >= 3.  Boxes are attacked
    smallest-first (ties to the lower x, edges in lex order); a box dies
    when Maker claims inside it.  The exact harmonic criterion is evaluated
    when the boxes freeze and flagged if it fails; leftover claims go to
    the lowest unclaimed edge.
    """

    name = "d2-breaker"

    def __init__(self, n: int, eps: float = 0.1):
        self.params = d2_breaker_params(n, eps)
        self.flags: list[str] = []
        self.violations: list[str] = []
        self.annotations: list[dict] = []
        if not self.params.box_condition_ok:
            self.flags.append("d2-breaker-worst-case-box-condition-failed")
        self._target: int | None = None
        self._ring = 0
        self._phase = 1
        self._boxes: dict[int, set[Edge]] = {}
        self._edge_box: dict[Edge, int] = {}
        self._dead: set[int] = set()
        self._completed: list[int] = []
        self._u_list: list[int] = []
        self._synced = 0
        self._lex: LexCursor | None = None
        self._rounds = 0
        self._checked_bias = False

    def select(self, state: GameState) -> list[Edge]:
        self._rounds += 1
        if not self._checked_bias:
            self._checked_bias = True
            if state.b != self.params.b:
                self.flags.append("d2-breaker-bias-mismatch")
        if self._target is None:
            try:
                self._target = flood_target(state)
            except StrategyInapplicable:
                deg = [0] * state.n
                for u, v in state.maker_edges:
                    deg[u] += 1
                    deg[v] += 1
                self._target = min(range(state.n), key=lambda x: (deg[x], x))
                self.flags.append("d2-breaker-no-untouched-vertex")
            self._lex = LexCursor(state.n)
        count = state.required_claim_count(Player.BREAKER)
        picks: list[Edge] = []
        picked: set[Edge] = set()
        if self._phase == 1:
            t = self._target
            while self._ring < state.n and len(picks) < count:
                w = self._ring
                self._ring += 1
                if w == t:
                    continue
                e = mk_edge(t, w)
                if e in state.unclaimed:
                    picks.append(e)
                    picked.add(e)
            if self._ring >= state.n:
                # every edge at the target now has an owner: freeze the boxes
                self._freeze_boxes(state, picked)
                self._phase = 2
        if self._phase == 2:
            self._sync_boxes(state)
            while len(picks) < count:
                box = self._smallest_box()
                if box is None:
                    break
                x, edges = box
                for e in sorted(edges):
                    if len(picks) >= count:
                        break
                    picks.append(e)
                    picked.add(e)
                for e in picks:
                    edges.discard(e)
                if not edges:
                    self._completed.append(x)
                    del self._boxes[x]
            picks += self._lex.take(state.unclaimed, count - len(picks), picked)
        return picks

    def _freeze_boxes(self, state: GameState, picked: set[Edge]) -> None:
        t = self._target
        maker_adj: list[set[int]] = [set() for _ in range(state.n)]
        for u, v in state.maker_edges:
            maker_adj[u].add(v)
            maker_adj[v].add(u)
        self._u_list = sorted(maker_adj[t])
        pre_completed = 0
        for x in range(state.n):
            if x == t or x in maker_adj[t]:
                continue
            if any(u in maker_adj[x] for u in self._u_list):
                continue  # already two steps from the target through some u_i
            box = {
                mk_edge(x, u)
                for u in self._u_list
                if mk_edge(x, u) in state.unclaimed and mk_edge(x, u) not in picked
            }
            if box:
                self._boxes[x] = box
                for e in box:
                    self._edge_box[e] = x
            else:
                # nothing left to claim: the pair (target, x) is already cut off
                self._completed.append(x)
                pre_completed += 1
        k = len(self._boxes)
        max_size = max((len(b) for b in self._boxes.values()), default=0)
        exact_ok = k >= 2 and box_game_condition(max_size, k, state.b, 2)
        if self._boxes and not exact_ok:
            self.flags.append("d2-breaker-runtime-box-condition-failed")
        if not self._boxes and not self._completed:
            self.flags.append("d2-breaker-no-eligible-boxes")
        self.annotations.append(
            {
                "target_vertex": t,
                "maker_neighbors_at_saturation": len(self._u_list),
                "eligible_boxes": k,
                "max_box_size": max_size,
                "boxes_pre_completed": pre_completed,
                "phase1_rounds": self._rounds,
                "box_condition_exact_ok": exact_ok,
            }
        )

    def _sync_boxes(self, state: GameState) -> None:
        for player, edge in state.move_log[self._synced :]:
            x = self._edge_box.get(edge)
            if x is None or x not in self._boxes:
                continue
            if player is Player.MAKER:
                del self._boxes[x]
                self._dead.add(x)
            else:
                box = self._boxes[x]
                box.discard(edge)
                if not box:
                    self._completed.append(x)
                    del self._boxes[x]
        self._synced = len(state.move_log)

    def _smallest_box(self) -> tuple[int, set[Edge]] | None:
        best: tuple[int, int] | None = None
        for x, edges in self._boxes.items():
            key = (len(edges), x)
            if best is None or key < best:
                best = key
        if best is None:
            return None
        return best[1], self._boxes[best[1]]


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


def d2_maker_min_scale(max_power: int = 12) -> int | None:
    """Smallest power of ten at which every sizing condition holds at the default bias."""
    for p in range(3, max_power + 1):
        if d2_maker_params(10**p).all_ok:
            return 10**p
    return None


@dataclass
class _ConnectPair:
    """One still-unconnected vertex pair with its frozen middle set.

    middles marks the vertices m whose legs u-m and m-w were both free of
    opponent edges when the pair entered play; a middle survives while that
    stays true.  The pair is satisfied once Maker links u and w within two
    steps (through any vertex, frozen or not).
    """

    u: int
    w: int
    middles: np.ndarray
    satisfied: bool = False


class D2Maker:
    """Composite Maker for diameter <= 2 in the (2:b) game.

    Phase I (min(ceil(2 n r), total/2) rounds) rotates four subgames, one
    full round each:

      1. a degree game over the whole board, rated (2 : 4b);
      2. a poorest-vertex round: both claims at the lowest-degree vertex,
         edges ranked by the degree game's weights (spill to next-poorest);
      3. an expansion game joining every ceil(r)-set to every ceil(s)-set,
         rated against the virtual bias E/(2 n r) - 2 (game 2's rule takes
         over if the family cannot be materialized);
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
    with free moves on even rounds.
    """

    name = "d2-maker"

    def __init__(
        self,
        n: int,
        b: int,
        name: str = "d2-maker",
        family_cap: int = DEFAULT_FAMILY_CAP,
    ):
        if n < 5:
            raise InvalidParameters(f"the composite needs n >= 5, got {n}")
        if b < 1:
            raise InvalidParameters(f"need opposing bias b >= 1, got {b}")
        self.params = d2_maker_params(n, b)
        self.n = n
        self.b_game = b
        self.name = name
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
                cap=family_cap,
            )
        except InvalidParameters:
            self._g3 = None
            self.flags.append("d2-maker-game3-fallback")

        self._madj = np.zeros((n, n), dtype=bool)
        self._badj = np.zeros((n, n), dtype=bool)
        self._bdeg = np.zeros(n, dtype=np.int64)
        self._high: list[int] = []
        self._high_set: set[int] = set()
        self._g4_pairs: list[_ConnectPair] = []
        self._high_frozen = False
        self._synced = 0
        self._round = 0
        self._t_trace: list[tuple[int, int, float]] = []
        self._p2_pairs: list[_ConnectPair] | None = None
        self._p2_even_game4 = True
        self._lex = LexCursor(n)
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

    def _sync(self, state: GameState) -> None:
        log = state.move_log
        if self._synced > len(log):
            raise InvalidParameters("game log rewound under a composite strategy")
        for player, (u, v) in log[self._synced :]:
            if player is Player.MAKER:
                self._madj[u, v] = self._madj[v, u] = True
            else:
                self._badj[u, v] = self._badj[v, u] = True
                self._bdeg[u] += 1
                self._bdeg[v] += 1
                if not self._high_frozen:
                    for x in sorted((u, v)):
                        if self._bdeg[x] >= self.high_threshold and x not in self._high_set:
                            self._on_high(x)
        self._synced = len(log)

    def _on_high(self, x: int) -> None:
        for prev in self._high:
            middles = ~self._badj[prev] & ~self._badj[x]
            middles[prev] = middles[x] = False
            self._g4_pairs.append(_ConnectPair(u=prev, w=x, middles=middles))
        self._high.append(x)
        self._high_set.add(x)
        self._note["high_count"] = len(self._high)
        if len(self._high) > self.ell_max_op:
            self.flags.append("d2-maker-high-count-exceeded")

    def _pair_alive(self, p: _ConnectPair) -> np.ndarray:
        return p.middles & ~self._badj[p.u] & ~self._badj[p.w]

    def _pair_satisfied(self, p: _ConnectPair) -> bool:
        if not p.satisfied:
            if self._madj[p.u, p.w] or bool((self._madj[p.u] & self._madj[p.w]).any()):
                p.satisfied = True
        return p.satisfied

    def game4_potential(self) -> float:
        """Sum of (1 + lam)^(-Y) over unconnected high pairs."""
        total = 0.0
        for p in self._g4_pairs:
            if self._pair_satisfied(p):
                continue
            total += math.exp(-float(self._pair_alive(p).sum()) * self._log1p_l4)
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
            alive = self._pair_alive(p)
            action: Edge | None = None
            cost1 = alive & (self._madj[u] | self._madj[w])
            if cost1.any():
                m = int(np.argmax(cost1))
                action = mk_edge(m, w) if self._madj[u, m] else mk_edge(u, m)
            elif not self._madj[u, w] and not self._badj[u, w]:
                action = mk_edge(u, w)
            else:
                cost2 = alive & ~self._madj[u] & ~self._madj[w]
                if cost2.any():
                    m = int(np.argmax(cost2))
                    action = min(mk_edge(u, m), mk_edge(m, w))
            if action is None:
                continue
            key = (int(alive.sum()), u, w)
            if best_key is None or key < best_key:
                best_key, best_action = key, action
        return best_action

    def _take(self, e: Edge, picks: list[Edge], picked: set[Edge]) -> None:
        picks.append(e)
        picked.add(e)
        self._madj[e[0], e[1]] = True  # idempotent under the later sync
        self._madj[e[1], e[0]] = True

    def _claim_game2(self, state: GameState, picks: list[Edge], picked: set[Edge], count: int) -> None:
        deg = self._g1.deg_self
        log_w = self._g1.log_w
        order = sorted(range(self.n), key=lambda v: (int(deg[v]), v))
        for x in order:
            if len(picks) >= count:
                break
            row = ~self._g1.claimed[x]
            if not row.any():
                continue
            ys = sorted(
                (int(y) for y in np.flatnonzero(row)),
                key=lambda y: (-float(log_w[y]), y),
            )
            for y in ys:
                if len(picks) >= count:
                    break
                e = mk_edge(x, y)
                if e not in picked and e in state.unclaimed:
                    self._take(e, picks, picked)

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
                e = self._lex.next_free(state.unclaimed, picked)
            if e is None:
                break
            self._take(e, picks, picked)

    def _freeze_p2(self) -> None:
        pairs: list[_ConnectPair] = []
        for u in range(self.n):
            for w in range(u + 1, self.n):
                if u in self._high_set and w in self._high_set:
                    continue  # game 4's pairs
                if self._madj[u, w] or bool((self._madj[u] & self._madj[w]).any()):
                    continue
                middles = ~self._badj[u] & ~self._badj[w]
                middles[u] = middles[w] = False
                pairs.append(_ConnectPair(u=u, w=w, middles=middles))
        self._p2_pairs = pairs
        self._note["phase2_open_pairs"] = len(pairs)

    # -- the turn ------------------------------------------------------------

    def select(self, state: GameState) -> list[Edge]:
        self._round += 1
        if self._round == 1 and (state.a != 2 or state.b != self.b_game):
            self.flags.append("d2-maker-bias-mismatch")
        self._sync(state)
        if self._round > self.phase1_rounds:
            self._high_frozen = True  # the sync above drained Phase I's log
        self._g1.sync(state)
        count = state.required_claim_count(Player.MAKER)
        picks: list[Edge] = []
        picked: set[Edge] = set()
        if self._round <= self.phase1_rounds:
            game = (self._round - 1) % 4 + 1
            if game == 1:
                for e in self._g1.select_turn(count, exclude=tuple(picked)):
                    self._take(e, picks, picked)
            elif game == 2:
                self._claim_game2(state, picks, picked, count)
            elif game == 3:
                if self._g3 is None:
                    self._claim_game2(state, picks, picked, count)
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
        while len(picks) < count:
            e = self._lex.next_free(state.unclaimed, picked)
            if e is None:
                break
            self._take(e, picks, picked)
        return picks
