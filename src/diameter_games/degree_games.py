"""Biased minimum-degree games on K_n.

The degree player (bias a, against bias b) tries to end with every vertex
incident to more than d_max of his edges, where

    d_max = a*n/(a+b) - k,      k = 6ab/(a+b)^(3/2) * sqrt(n ln n).

His greedy strategy scores every vertex v by

    w(v) = (1+l1)^(deg_opp(v) - (b*n/(a+b)+k)) * (1-l2)^(deg_self(v) - (a*n/(a+b)-k))

with l2 = sqrt((a+b) ln n / (a(a+1) n)) and l1 = (1+a*l2)^(1/b) - 1, the
largest value keeping (1+l1)^b <= 1+a*l2, and claims the unclaimed edge
maximizing w(u)+w(v).  The potential T = sum of w(v) then never increases
across a full round, and T < 1 at the start certifies the target degree
whenever d_max > 0.  Exponents are Theta(n), so weights are kept in log
space; increments are applied incrementally with a periodic full recompute.

The opposing side of the same machinery is the flooding Breaker: fix the
lowest-index Maker-untouched vertex once, then spend every claim on its
unclaimed edges.  The target's n-1 edges then go in an alternating race that
Breaker starts, so with q, r = divmod(n-1, a+b) Maker's final degree there is
capped at a*q + max(0, min(a, r-b)).

Biases here may be non-integral: round-robin composites play a subgame every
few rounds, so the subgame sees an effective opponent bias of (rounds
between own moves) * (per-round bias), which need not be an integer.  Only
the weight formulas use these effective biases; actual claims per turn
always come from the live GameState.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .game_core import (
    Edge,
    GameState,
    InvalidParameters,
    LexCursor,
    Player,
    StrategyInapplicable,
)

RECOMPUTE_EVERY = 1024  # full log-weight refresh cadence, keeps drift ~1e-12


@dataclass(frozen=True)
class MinDegParams:
    """Derived constants of one degree game; biases may be fractional (effective biases)."""

    n: int
    a: float
    b: float
    k: float
    lambda1: float
    lambda2: float
    d_max: float
    c_self: float  # a*n/(a+b) - k, offset on own-degree exponent
    c_opp: float  # b*n/(a+b) + k, offset on opponent-degree exponent
    t0_log: float
    bias_precondition_ok: bool  # a <= n / (4 ln n)
    non_vacuous: bool  # d_max > 0
    eq2_ok: bool  # (1+l1)^b <= 1 + a*l2, up to 1e-9 relative
    t0_ok: bool  # T0 < 1

    @property
    def log1p_l1(self) -> float:
        return math.log1p(self.lambda1)

    @property
    def log1m_l2(self) -> float:
        return math.log1p(-self.lambda2)

    def t0(self) -> float:
        return math.exp(self.t0_log)


def mindeg_params(n: int, a: float, b: float) -> MinDegParams:
    if n < 3:
        raise InvalidParameters(f"degree game needs n >= 3, got {n}")
    if a < 1 or b <= 0:
        raise InvalidParameters(f"need a >= 1 and b > 0, got a={a}, b={b}")
    ln_n = math.log(n)
    lambda2 = math.sqrt((a + b) * ln_n / (a * (a + 1) * n))
    if lambda2 >= 1.0:
        raise InvalidParameters(
            f"lambda2 = {lambda2:.4f} >= 1; weights are undefined for n={n}, a={a}, b={b}"
        )
    lambda1 = (1 + a * lambda2) ** (1.0 / b) - 1
    k = 6 * a * b / (a + b) ** 1.5 * math.sqrt(n * ln_n)
    c_self = a * n / (a + b) - k
    c_opp = b * n / (a + b) + k
    d_max = c_self
    t0_log = ln_n - c_opp * math.log1p(lambda1) - c_self * math.log1p(-lambda2)
    eq2_ok = (1 + lambda1) ** b <= (1 + a * lambda2) * (1 + 1e-9)
    return MinDegParams(
        n=n,
        a=a,
        b=b,
        k=k,
        lambda1=lambda1,
        lambda2=lambda2,
        d_max=d_max,
        c_self=c_self,
        c_opp=c_opp,
        t0_log=t0_log,
        bias_precondition_ok=a <= n / (4 * ln_n),
        non_vacuous=d_max > 0,
        eq2_ok=eq2_ok,
        t0_ok=t0_log < 0,
    )


class DegreeWeightState:
    """Incrementally maintained log-weights for one degree game.

    The state is synced from a GameState's move log, so it never
    double-counts claims and survives empty-state restarts.  `role` is the
    side whose degrees are "self" in the weight formula.
    """

    def __init__(self, params: MinDegParams, role: Player = Player.MAKER):
        self.params = params
        self.role = role
        n = params.n
        self.deg_self = np.zeros(n, dtype=np.int64)
        self.deg_opp = np.zeros(n, dtype=np.int64)
        self.claimed = np.zeros((n, n), dtype=bool)
        np.fill_diagonal(self.claimed, True)
        self.log_w = np.empty(n, dtype=np.float64)
        self._synced = 0
        self._since_recompute = 0
        self.recompute()

    def recompute(self) -> None:
        p = self.params
        self.log_w = (self.deg_opp - p.c_opp) * p.log1p_l1 + (
            self.deg_self - p.c_self
        ) * p.log1m_l2
        self._since_recompute = 0

    def observe(self, player: Player, edge: Edge) -> None:
        u, v = edge
        if player is self.role:
            self.deg_self[u] += 1
            self.deg_self[v] += 1
            self.log_w[u] += self.params.log1m_l2
            self.log_w[v] += self.params.log1m_l2
        else:
            self.deg_opp[u] += 1
            self.deg_opp[v] += 1
            self.log_w[u] += self.params.log1p_l1
            self.log_w[v] += self.params.log1p_l1
        self.claimed[u, v] = True
        self.claimed[v, u] = True
        self._since_recompute += 1
        if self._since_recompute >= RECOMPUTE_EVERY:
            self.recompute()

    def sync(self, state: GameState) -> None:
        log = state.move_log
        if self._synced > len(log):
            raise InvalidParameters("weight state is ahead of the game log")
        for player, edge in log[self._synced :]:
            self.observe(player, edge)
        self._synced = len(log)

    def potential(self) -> float:
        """T = sum of vertex weights, via logsumexp."""
        m = float(self.log_w.max())
        return float(np.exp(self.log_w - m).sum()) * math.exp(m) if m > -math.inf else 0.0

    def potential_log(self) -> float:
        m = float(self.log_w.max())
        return m + math.log(float(np.exp(self.log_w - m).sum()))

    def select_turn(self, count: int, exclude: tuple[Edge, ...] = ()) -> list[Edge]:
        """Greedily pick `count` max-weight unclaimed edges, updating weights between picks.

        Does not mutate the persistent state: the turn's own claims reach it
        later through sync().  Ties break lexicographically (the row-major
        argmax hits the lowest (u, v) first).  `exclude` masks edges a
        composite caller already claimed earlier in the same turn.
        """
        lw = self.log_w
        w = np.exp(lw - lw.max())
        fade = math.exp(self.params.log1m_l2)
        blocked = self.claimed.copy()
        for u, v in exclude:
            blocked[u, v] = True
            blocked[v, u] = True
        score = np.where(blocked, -np.inf, w[:, None] + w[None, :])
        picks: list[Edge] = []
        for _ in range(count):
            flat = int(np.argmax(score))
            u, v = divmod(flat, self.params.n)
            if score[u, v] == -np.inf:
                break
            picks.append((u, v) if u < v else (v, u))
            blocked[u, v] = True
            blocked[v, u] = True
            w[u] *= fade
            w[v] *= fade
            for x in (u, v):
                score[x, :] = np.where(blocked[x], -np.inf, w[x] + w)
                score[:, x] = score[x, :]
        return picks


def mindeg_maker_select(
    state: GameState, params: MinDegParams, weights: DegreeWeightState, count: int | None = None
) -> list[Edge]:
    """One degree-game turn for the weight state's role player."""
    weights.sync(state)
    if count is None:
        count = state.required_claim_count(weights.role)
    return weights.select_turn(count)


def mindeg_potential(state: GameState, params: MinDegParams, role: Player = Player.MAKER) -> float:
    """Potential T recomputed from scratch at the current position."""
    fresh = DegreeWeightState(params, role)
    fresh.sync(state)
    return fresh.potential()


class MinDegStrategy:
    """Greedy degree player for run_match; role defaults to Maker.

    weight_bias lets a composite caller score with effective biases that
    differ from the live game's (a, b).
    """

    def __init__(
        self,
        n: int,
        a: float,
        b: float,
        role: Player = Player.MAKER,
        name: str = "mindeg-maker",
    ):
        self.params = mindeg_params(n, a, b)
        self.role = role
        self.name = name
        self.weights = DegreeWeightState(self.params, role)
        self.flags: list[str] = []
        if not self.params.bias_precondition_ok:
            self.flags.append("mindeg-bias-precondition-failed")
        if not self.params.non_vacuous:
            self.flags.append("mindeg-vacuous")

    def select(self, state: GameState) -> list[Edge]:
        return mindeg_maker_select(state, self.params, self.weights)


# --- flooding Breaker (degree capping by saturation) ------------------------


def flood_degree_bound(n: int, a: int, b: int) -> int:
    """Cap the flooding Breaker enforces on Maker's degree at the target vertex.

    Maker's opening turn leaves the target untouched, so its n-1 edges are
    claimed in an alternating race that Breaker starts: q = (n-1)//(a+b) full
    rounds give Maker a*q, and of the r = (n-1)%(a+b) edges left over Breaker
    takes b first and Maker gets the rest, up to a.  Maker reaches the cap by
    taking target edges first, so it is exact.
    """
    q, r = divmod(n - 1, a + b)
    return a * q + max(0, min(a, r - b))


def flood_target(state: GameState) -> int:
    """The vertex a flooding Breaker floods: lowest index Maker had not touched
    at the time of Breaker's first claim (derived from the move log, so the
    choice is stable under replay and backtracking)."""
    prefix_end = len(state.move_log)
    for i, (player, _) in enumerate(state.move_log):
        if player is Player.BREAKER:
            prefix_end = i
            break
    touched = set()
    for player, (u, v) in state.move_log[:prefix_end]:
        if player is Player.MAKER:
            touched.add(u)
            touched.add(v)
    for v in range(state.n):
        if v not in touched:
            return v
    raise StrategyInapplicable("every vertex is Maker-touched; flooding has no target")


def mindeg_breaker_select(state: GameState) -> list[Edge]:
    """Flood the target vertex; spill leftover claims onto the lowest unclaimed edges."""
    target = flood_target(state)
    count = state.required_claim_count(Player.BREAKER)
    picks = []
    for w in range(state.n):
        if w == target:
            continue
        e = (target, w) if target < w else (w, target)
        if e in state.unclaimed:
            picks.append(e)
            if len(picks) == count:
                return picks
    for e in sorted(state.unclaimed):
        if e not in picks:
            picks.append(e)
            if len(picks) == count:
                break
    return picks


class FloodingBreaker:
    """Saturating Breaker.

    select() is a cursor-based fast path over the rule in
    mindeg_breaker_select: identical picks on any position reached by forward
    play or by an exhaustive verifier, without rescanning the unclaimed set
    every turn.  The pure function stays as the reference implementation.
    The target and both cursors restart unless the log is longer than at the
    previous call (see the heuristics module for why that rule is sound).
    """

    name = "flooding-breaker"

    def __init__(self) -> None:
        self._target: int | None = None
        self._ring = 0
        self._lex: LexCursor | None = None
        self._log_len = -1

    def select(self, state: GameState) -> list[Edge]:
        if self._lex is None:
            self._lex = LexCursor(state.n)
        elif len(state.move_log) <= self._log_len:
            self._target = None
        self._log_len = len(state.move_log)
        if self._target is None:
            self._target = flood_target(state)
            self._ring = 0
            self._lex.reset()
        t = self._target
        count = state.required_claim_count(Player.BREAKER)
        picks: list[Edge] = []
        while self._ring < state.n and len(picks) < count:
            w = self._ring
            self._ring += 1
            if w == t:
                continue
            e = (t, w) if t < w else (w, t)
            if e in state.unclaimed:
                picks.append(e)
        picks += self._lex.take(state.unclaimed, count - len(picks), picks)
        return picks
