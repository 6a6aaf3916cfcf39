"""Potential-function play on explicit hypergraph families.

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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .game_core import InvalidParameters, Player

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
