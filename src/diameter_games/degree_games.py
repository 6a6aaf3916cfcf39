"""Biased minimum-degree games on K_n.

The degree player (bias a, against bias b) tries to end with every vertex
incident to more than d_max of his edges, where

    d_max = a*n/(a+b) - k,      k = 6ab/(a+b)^(3/2) * sqrt(n ln n).

His greedy strategy scores every vertex v by

    w(v) = (1+l1)^(deg_opp(v) - (b*n/(a+b)+k)) * (1-l2)^(deg_self(v) - (a*n/(a+b)-k))

with l2 = sqrt((a+b) ln n / (a(a+1) n)) and l1 = (1+a*l2)^(1/b) - 1, the
largest value keeping (1+l1)^b <= 1+a*l2, and claims the unclaimed edge
maximizing w(u)+w(v) (potential_engine.OpenPairs, which finds the
row-major first maximum of that score exactly, without an n x n matrix).
The potential T = sum of w(v) then never increases
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
from functools import cached_property

from .game_core import (
    Edge,
    GameState,
    InvalidParameters,
    LogCursor,
    Player,
    StrategyInapplicable,
)
from .graph_metrics import set_bits
from .potential_engine import OpenPairs

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

    # Cached on first read: DegreeWeightState.observe reads both on every claim.
    @cached_property
    def log1p_l1(self) -> float:
        return math.log1p(self.lambda1)

    @cached_property
    def log1m_l2(self) -> float:
        return math.log1p(-self.lambda2)


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
    double-counts claims; on a log that did not grow it starts over from
    the empty board and replays the log (game_core.LogCursor), so a rewound
    log gives the same weights, bit for bit, as a fresh instance.  `role` is
    the side whose degrees are "self" in the weight formula.  The degree
    counters duplicate the board's on purpose: the periodic recompute reads
    them mid-replay, so the weights drift the same way on every replay.
    They count every logged claim, so once synced they also give each
    vertex's open degree, (n - 1) - deg_self - deg_opp; which edges are
    open comes from the board's closed masks.

    The counters and weights are numpy arrays.  numpy is imported where
    they are made or exponentiated (_reset, select_turn, potential), never
    by the module or by observe(), which runs once per claim.
    """

    def __init__(self, params: MinDegParams, role: Player = Player.MAKER):
        self.params = params
        self.role = role
        self._log = LogCursor()
        self._reset()

    def _reset(self) -> None:
        import numpy as np

        n = self.params.n
        self.deg_self = np.zeros(n, dtype=np.int64)
        self.deg_opp = np.zeros(n, dtype=np.int64)
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
        self._since_recompute += 1
        if self._since_recompute >= RECOMPUTE_EVERY:
            self.recompute()

    def sync(self, state: GameState) -> None:
        new = self._log.new_claims(state)
        if new is None:
            self._reset()
            new = state.move_log
        for player, edge in new:
            self.observe(player, edge)

    def potential(self) -> float:
        """T = sum of vertex weights, via logsumexp."""
        import numpy as np

        m = float(self.log_w.max())
        return float(np.exp(self.log_w - m).sum()) * math.exp(m) if m > -math.inf else 0.0

    def select_turn(self, state: GameState, count: int, exclude: tuple[Edge, ...] = ()) -> list[Edge]:
        """Greedily pick `count` max-weight unclaimed edges of `state`, which
        the weights must be synced to, fading both endpoints' weights by
        (1 - l2) after each pick.

        Each pick is one potential_engine.OpenPairs.take over the board's
        open edges, their counts read off the synced degree counters, with
        w = exp(log_w - max log_w): the row-major first maximum of
        w[u] + w[v], so ties break lexicographically, found without an
        n x n score matrix.  The turn's OpenPairs sorts w once,
        at the first pick; a fade moves only the two picked vertices in that
        order, and each pick walks it from the top.  Does not mutate the
        persistent state: the turn's own claims reach it later through
        sync().  `exclude` masks edges a composite caller already claimed
        earlier in the same turn.
        """
        import numpy as np

        lw = self.log_w
        w = np.exp(lw - lw.max())
        fade = math.exp(self.params.log1m_l2)
        pairs = OpenPairs(state, (state.n - 1) - self.deg_self - self.deg_opp, exclude)
        picks: list[Edge] = []
        for _ in range(count):
            pair = pairs.take(w)
            if pair is None:
                break
            picks.append(pair)
            u, v = pair
            w[u] *= fade
            w[v] *= fade
        return picks


def mindeg_potential(state: GameState, params: MinDegParams, role: Player = Player.MAKER) -> float:
    """Potential T recomputed from scratch at the current position."""
    fresh = DegreeWeightState(params, role)
    fresh.sync(state)
    return fresh.potential()


class MinDegStrategy:
    """Greedy degree player for run_match, playing Maker."""

    name = "mindeg-maker"

    def __init__(self, n: int, a: float, b: float):
        self.params = mindeg_params(n, a, b)
        self.weights = DegreeWeightState(self.params)
        self.flags: list[str] = []
        if not self.params.bias_precondition_ok:
            self.flags.append("mindeg-bias-precondition-failed")
        if not self.params.non_vacuous:
            self.flags.append("mindeg-vacuous")

    def select(self, state: GameState) -> list[Edge]:
        self.weights.sync(state)
        return self.weights.select_turn(state, state.required_claim_count(Player.MAKER))


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


class FloodingBreaker:
    """Floods the target vertex and spills leftover claims onto the lowest unclaimed edges.

    The rule keeps nothing between turns: the target follows from the log,
    one mask row gives the target's open edges, and the leftover
    claims come from GameState.lowest_open(), so a turn costs O(n).
    """

    name = "flooding-breaker"

    def select(self, state: GameState) -> list[Edge]:
        target = flood_target(state)
        count = state.required_claim_count(Player.BREAKER)
        taken = state.closed(Player.MAKER)[target] | state.closed(Player.BREAKER)[target]
        open_row = taken ^ ((1 << state.n) - 1)
        picks = [(target, w) if target < w else (w, target) for w in set_bits(open_row)[:count]]
        return picks + state.lowest_open(count - len(picks), picks)
