"""Potential-function play: explicit hypergraph families, and the best open pair.

Two classical tools live here.  The Erdos-Selfridge-Beck threshold: in an
(a:b) game where Maker needs to fully claim some set of the family, Breaker
wins if sum over sets A of (1+b)^(1-|A|/a) is below 1, and the matching
greedy Breaker claims positions of maximum surviving-set weight; its loop,
greedy_potential_picks, also plays the expansion Maker, with the roles
swapped (expansion_games.ExpMaker).  The box game: on a family of k
pairwise disjoint r-sets, a Maker claiming `a` positions per turn against
bias 1 wins if r <= (a-1)*H_{k-1}, and against bias 2 if
r <= ((a-1)/2)*H_{k-1}, by always attacking a smallest surviving box.
(The smallest-surviving-box attack is the classical strategy; the bound
statements themselves fix only the thresholds.)

The vertex-weight selectors on K_n, the degree-game potential
(degree_games.DegreeWeightState) and the ESB-flavoured degree Breaker
(heuristics.EsbDegreeBreaker), claim the open edge of largest w[u] + w[v].
best_open_pair is their one pick: the row-major first maximum of that n x n
score matrix, bit for bit, found without building it.  It is exact because
rounded float addition is monotone: row u's best score is w[u] plus its
largest open partner weight, and rows scanned by descending w can stop once
the pairs among the rows left, which score at most the sum of the next two
weights, cannot beat or tie the best score found.  OpenPairs is one turn's
view of the board's open pairs for it.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .game_core import Edge, GameState, InvalidParameters, Player

# Exponents of this size are evaluated in log space to dodge under/overflow.
_LOGSPACE_SET_SIZE = 64


class FamilyTooLarge(InvalidParameters):
    def __init__(self, count: int, cap: int):
        super().__init__(f"family would have {count} sets, cap is {cap}")
        self.count = count
        self.cap = cap


@dataclass(frozen=True)
class WinningSetFamily:
    """A hypergraph: positions {0..universe_size-1} and nonempty winning sets."""

    universe_size: int
    sets: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if self.universe_size < 1:
            raise InvalidParameters("universe must be nonempty")
        for a in self.sets:
            if not a:
                raise InvalidParameters("winning sets must be nonempty")
            if not all(0 <= p < self.universe_size for p in a):
                raise InvalidParameters(f"set {sorted(a)} has positions outside the universe")

    def to_json(self) -> str:
        return json.dumps(
            {"universe_size": self.universe_size, "sets": [sorted(a) for a in self.sets]},
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "WinningSetFamily":
        data = json.loads(text)
        return WinningSetFamily(
            universe_size=data["universe_size"],
            sets=tuple(frozenset(a) for a in data["sets"]),
        )

    @staticmethod
    def from_file(path) -> "WinningSetFamily":
        with open(path) as fh:
            return WinningSetFamily.from_json(fh.read())


def family_from_sets(universe_size: int, sets) -> WinningSetFamily:
    return WinningSetFamily(universe_size, tuple(frozenset(a) for a in sets))


@dataclass
class FamilyGameState:
    """Position of an (a:b) game played directly on family positions.

    Maker (bias a) tries to fully claim some winning set; Breaker (bias b)
    tries to touch every set first.  Same turn and truncation conventions as
    the edge engine.
    """

    family: WinningSetFamily
    a: int
    b: int
    first: Player = Player.MAKER
    maker: set[int] = field(default_factory=set)
    breaker: set[int] = field(default_factory=set)
    to_move: Player = Player.MAKER
    move_log: list[tuple[Player, int]] = field(default_factory=list)

    def unclaimed(self) -> list[int]:
        taken = self.maker | self.breaker
        return [p for p in range(self.family.universe_size) if p not in taken]

    def bias_of(self, player: Player) -> int:
        return self.a if player is Player.MAKER else self.b

    def required_claim_count(self, player: Player) -> int:
        return min(self.bias_of(player), self.family.universe_size - len(self.maker) - len(self.breaker))

    def maker_won(self) -> bool:
        return any(a <= self.maker for a in self.family.sets)

    def all_sets_dead(self) -> bool:
        return all(a & self.breaker for a in self.family.sets)


def new_family_game(family: WinningSetFamily, a: int, b: int, first: Player = Player.MAKER) -> FamilyGameState:
    if a < 1 or b < 1:
        raise InvalidParameters(f"biases must be positive, got a={a}, b={b}")
    return FamilyGameState(family=family, a=a, b=b, first=first, to_move=first)


def family_apply_claim(state: FamilyGameState, player: Player, positions) -> FamilyGameState:
    positions = list(positions)
    if player is not state.to_move:
        raise InvalidParameters(f"not {player.value}'s turn")
    required = state.required_claim_count(player)
    if len(positions) != required or len(set(positions)) != len(positions):
        raise InvalidParameters(f"{player.value} must claim exactly {required} distinct positions")
    own = state.maker if player is Player.MAKER else state.breaker
    taken = state.maker | state.breaker
    for p in positions:
        if not 0 <= p < state.family.universe_size or p in taken:
            raise InvalidParameters(f"position {p} is not available")
        own.add(p)
        state.move_log.append((player, p))
    state.to_move = player.other()
    return state


# --- Erdos-Selfridge-Beck -------------------------------------------------


def _power(base: float, exponent: float, set_size: int) -> float:
    if set_size > _LOGSPACE_SET_SIZE:
        return math.exp(exponent * math.log(base))
    return base**exponent


@dataclass(frozen=True)
class EsbStart:
    value: float
    breaker_wins: bool


def esb_start_value(family: WinningSetFamily, a: int, b: int) -> EsbStart:
    """Criterion sum: sum over sets of (1+b)^(1-|A|/a); Breaker wins the (a:b) game if it is < 1."""
    if a < 1 or b < 1:
        raise InvalidParameters(f"biases must be positive, got a={a}, b={b}")
    total = 0.0
    for aset in family.sets:
        total += _power(1.0 + b, 1.0 - len(aset) / a, len(aset))
    return EsbStart(value=total, breaker_wins=total < 1.0)


def _surviving_weight(aset: frozenset[int], state: FamilyGameState) -> float:
    """In-play weight of one set: (1+b)^(-unclaimed/a), or 0 once Breaker touched it."""
    if aset & state.breaker:
        return 0.0
    unclaimed = len(aset) - len(aset & state.maker)
    return _power(1.0 + state.b, -unclaimed / state.a, len(aset))


def esb_potential(state: FamilyGameState) -> float:
    """Running potential: total weight of the surviving (Breaker-untouched) sets."""
    return sum(_surviving_weight(aset, state) for aset in state.family.sets)


def greedy_potential_picks(weights: list[float], incident, free: list[int], count: int) -> list[int]:
    """Up to `count` greedy claims, each the free position of largest total surviving-set weight.

    weights[i] is set i's weight, 0.0 once the set is dead; incident[p]
    lists the sets holding position p in ascending order; free lists the
    free positions in ascending order.  Each claim scores every free
    position afresh, adding its sets' weights in set-index order, takes the
    largest score with ties to the lowest position, and kills the sets it
    hits by zeroing their weights in place.  Scores are never updated by
    subtracting killed weights: that would change the float rounding and,
    through ties, the picks.
    """
    free = list(free)
    picks: list[int] = []
    for _ in range(min(count, len(free))):
        best, best_score = -1, -1.0
        for p in free:
            score = 0.0
            for i in incident[p]:  # not sum(): from Python 3.12 it compensates, so it rounds differently
                score += weights[i]
            if score > best_score:
                best, best_score = p, score
        picks.append(best)
        free.remove(best)
        for i in incident[best]:
            weights[i] = 0.0
    return picks


def esb_breaker_select(state: FamilyGameState) -> list[int]:
    """Greedy ESB Breaker turn: repeatedly claim the position of maximum total surviving weight.

    Sets weigh what _surviving_weight gives them.  Each claim maximizes the
    potential reduction and kills the sets it hits (greedy_potential_picks);
    the all-weights-zero endgame falls back to the lowest free position.
    """
    incident: list[list[int]] = [[] for _ in range(state.family.universe_size)]
    for i, aset in enumerate(state.family.sets):
        for p in aset:
            incident[p].append(i)
    weights = [_surviving_weight(aset, state) for aset in state.family.sets]
    count = state.required_claim_count(Player.BREAKER)
    return greedy_potential_picks(weights, incident, state.unclaimed(), count)


# --- best open pair on K_n -------------------------------------------------


def best_open_pair(
    open_: np.ndarray, w: np.ndarray, masked: Mapping[int, list[int]] | None = None
) -> Edge | None:
    """The open pair (u, v), u < v, of largest score w[u] + w[v], or None.

    open_ is the symmetric n x n matrix of open pairs with a False diagonal,
    read and never copied; masked maps a vertex to the partners whose pairs
    are closed besides (the turn's own picks), in both directions.  A pair
    scoring -inf is never picked, so w[x] = -inf drops vertex x: callers
    give it to vertices with no open pair left, which spares their rows.
    The pick is the row-major first maximum of the n x n matrix of
    w[u] + w[v] over open pairs, bit for bit, without building that matrix:

    - rounded float addition is monotone, so row u's best score is exactly
      w[u] + (largest w[v] over the open v of row u);
    - rows are scanned by descending w, ties by index, and a pair is met in
      the row of whichever end comes first.  So when row order[i] comes up,
      every pair not yet met lies among order[i], order[i+1], ... and scores
      at most w[order[i]] + w[order[i+1]].  That bound never rises along the
      order, and the scan stops once it is below the best score found, or
      equal to it while no pair left can tie with an end below the lowest
      end `low` of a best pair found: such a pair holds a vertex below low
      at or after order[i], so it scores at most w[order[i]] plus the first
      such vertex's weight;
    - the matrix's first maximum is in row u = the lowest end of any best
      pair, at the lowest v with w[u] + w[v] == best.  The equality test,
      not the largest w[v], decides v, because rounding can merge two
      different w[v] into one score.
    """
    masked = masked or {}
    order = np.argsort(-w, kind="stable")
    best, low, pick = -math.inf, len(w), None
    u, w_u = int(order[0]), float(w[order[0]])
    for i in range(1, len(order)):
        x = int(order[i])
        bound = w_u + float(w[x])
        if bound < best or bound == -math.inf:
            break
        if bound == best:
            # Only a tie with an end below low, at or after u, moves the pick.
            below = np.flatnonzero(order[i - 1 :] < low)
            if not below.size or w_u + float(w[order[i - 1 + below[0]]]) < best:
                break
        if u in masked:
            row = _masked_row(open_, w, u, masked[u])
            partner = float(row.max())
        else:
            row = None
            partner = float(np.maximum.reduce(w, where=open_[u], initial=-math.inf))
        score = w_u + partner
        if score >= best and score > -math.inf:
            if row is None:
                row = _masked_row(open_, w, u, ())
            first = int(np.flatnonzero(w_u + row == score)[0])
            if score > best or min(u, first) < low:
                best, low = score, min(u, first)
                pick = (u, first) if u < first else None  # row low is not scanned yet
        u, w_u = x, float(w[x])
    if best == -math.inf:
        return None
    if pick is None:
        row = _masked_row(open_, w, low, masked.get(low, ()))
        pick = (low, int(np.flatnonzero(float(w[low]) + row == best)[0]))
    return pick


def _masked_row(open_: np.ndarray, w: np.ndarray, u: int, masked) -> np.ndarray:
    """w over row u's open pairs, -inf elsewhere and at the masked columns."""
    row = np.where(open_[u], w, -math.inf)
    for v in masked:
        row[v] = -math.inf
    return row


class OpenPairs:
    """One turn's open pairs: the board's open matrix, read in place, less
    the pairs this turn already picked or was told to exclude.

    open_deg[x] counts x's open pairs left and masked[x] lists x's masked
    partners; take(w) hands best_open_pair w with -inf at the vertices that
    have no open pair, and masks the pick.
    """

    __slots__ = ("open", "open_deg", "masked")

    def __init__(self, state: GameState, exclude=()):
        board = state.board_index()
        self.open = board.open
        self.open_deg = (state.n - 1) - board.deg[Player.MAKER] - board.deg[Player.BREAKER]
        self.masked: dict[int, list[int]] = {}
        for u, v in exclude:
            self._mask(u, v)

    def _mask(self, u: int, v: int) -> None:
        if self.open[u, v] and v not in self.masked.get(u, ()):
            self.masked.setdefault(u, []).append(v)
            self.masked.setdefault(v, []).append(u)
            self.open_deg[u] -= 1
            self.open_deg[v] -= 1

    def take(self, w: np.ndarray) -> Edge | None:
        """The best open pair under vertex weights w, now masked; None when none is left."""
        pair = best_open_pair(self.open, np.where(self.open_deg > 0, w, -math.inf), self.masked)
        if pair is not None:
            self._mask(*pair)
        return pair


# --- box game ---------------------------------------------------------------


def harmonic(m: int) -> Fraction:
    """H_m = 1 + 1/2 + ... + 1/m, exactly."""
    return sum((Fraction(1, i) for i in range(1, m + 1)), Fraction(0))


def box_game_condition(r: int, k: int, a: int, opponent_bias: int) -> bool:
    """Maker-wins threshold for the box game on k disjoint r-sets.

    Bias 1 opponent: r <= (a-1) * H_{k-1}.  Bias 2: r <= ((a-1)/2) * H_{k-1}.
    Evaluated in exact rational arithmetic so boundary cases are crisp.
    """
    if r < 1 or k < 2 or a < 1:
        raise InvalidParameters(f"need r >= 1, k >= 2, a >= 1; got r={r}, k={k}, a={a}")
    h = harmonic(k - 1)
    if opponent_bias == 1:
        return Fraction(r) <= (a - 1) * h
    if opponent_bias == 2:
        return Fraction(r) <= Fraction(a - 1, 2) * h
    raise InvalidParameters(f"opponent bias must be 1 or 2, got {opponent_bias}")


def validate_box_family(family: WinningSetFamily) -> int:
    """Check the family is a disjoint union of equal-size boxes; returns the box size."""
    sizes = {len(a) for a in family.sets}
    if len(sizes) != 1:
        raise InvalidParameters(f"box family must be uniform, sizes {sorted(sizes)}")
    seen: set[int] = set()
    for aset in family.sets:
        if aset & seen:
            raise InvalidParameters("box family must be pairwise disjoint")
        seen |= aset
    return sizes.pop()


def box_maker_select(state: FamilyGameState) -> list[int]:
    """Attack the smallest surviving box: claim its unclaimed positions, lowest index first.

    A box is surviving while Breaker holds none of it; a dead box is never
    attacked while any surviving box still has an unclaimed position.  Ties
    between equally small boxes go to the lowest set index.
    """
    validate_box_family(state.family)
    count = state.required_claim_count(Player.MAKER)
    picks: list[int] = []
    picked = set()
    while len(picks) < count:
        best_idx, best_open = -1, None
        for idx, aset in enumerate(state.family.sets):
            if aset & state.breaker:
                continue
            open_positions = [p for p in aset if p not in state.maker and p not in picked]
            if not open_positions:
                continue
            if best_open is None or len(open_positions) < len(best_open):
                best_idx, best_open = idx, sorted(open_positions)
        if best_idx < 0:
            # No live box remains; spend the claim on the lowest free position.
            for p in range(state.family.universe_size):
                if p not in state.maker and p not in state.breaker and p not in picked:
                    picks.append(p)
                    picked.add(p)
                    break
            else:
                break
            continue
        for p in best_open:
            if len(picks) == count:
                break
            picks.append(p)
            picked.add(p)
    return picks


# --- match loop for family games (used by tests and the solver) -----------


def run_family_match(state: FamilyGameState, maker_select, breaker_select, early_stop: bool = True) -> bool:
    """Play a family game out; returns True iff Maker fully claims some set."""
    while state.unclaimed():
        side = state.to_move
        select = maker_select if side is Player.MAKER else breaker_select
        family_apply_claim(state, side, select(state))
        if early_stop and side is Player.MAKER and state.maker_won():
            return True
    return state.maker_won()
