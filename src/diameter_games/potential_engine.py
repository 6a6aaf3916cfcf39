"""Potential-function play: explicit hypergraph families, and the best open pair.

Two classical tools live here.  The Erdos-Selfridge-Beck threshold: in an
(a:b) game where Maker needs to fully claim some set of the family, Breaker
wins if sum over sets A of (1+b)^(1-|A|/a) is below 1, and the matching
greedy Breaker claims positions of maximum surviving-set weight; its loop,
greedy_potential_picks, also plays the expansion Maker, with the roles
swapped (expansion_games.ExpMaker).  The loop is handed only the live
sets, as (weight, positions) pairs, so a pick costs the total size of the
sets still alive, not of the whole family; the dead sets it leaves out
would only add 0.0 to a score.  The box game: on a family of k
pairwise disjoint r-sets, a Maker claiming `a` positions per turn against
bias 1 wins if r <= (a-1)*H_{k-1}, and against bias 2 if
r <= ((a-1)/2)*H_{k-1}, by always attacking a smallest surviving box.
(The smallest-surviving-box attack is the classical strategy; the bound
statements themselves fix only the thresholds.)

The vertex-weight selectors on K_n, the degree-game potential
(degree_games.DegreeWeightState) and the ESB-flavoured degree Breaker
(heuristics.EsbDegreeBreaker), claim the open edge of largest w[u] + w[v].
OpenPairs is one turn of those claims, and OpenPairs.best_open_pair their
one pick: the row-major first maximum of that n x n score matrix, bit for
bit, found without building it.  The turn keeps the vertices in one order,
by descending weight with ties by index: sorted once at the turn's first
pick, and then only the vertices whose weight changed are moved, by
bisection.  It is exact because rounded float addition is monotone: row
u's best score is w[u] plus the weight of u's first open partner in that
order, found by walking the order and testing each partner's bit in the
players' closed masks, and rows taken in that order can stop once the
pairs among the rows left, which score at most the sum of the next two
weights, cannot beat or tie the best score found.  Within a run of equal
weights the order is by index, so the tie searches look at the first
vertex of each run and jump to the next run by bisection.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import TYPE_CHECKING

from .game_core import Edge, GameState, InvalidParameters, Player

if TYPE_CHECKING:
    import numpy as np

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
        if type(self.universe_size) is not int or self.universe_size < 1:
            raise InvalidParameters(f"universe_size must be a positive int, got {self.universe_size!r}")
        for a in self.sets:
            if not a:
                raise InvalidParameters("winning sets must be nonempty")
            if not all(type(p) is int and 0 <= p < self.universe_size for p in a):
                raise InvalidParameters(
                    f"set {sorted(a, key=repr)} has a position that is not an int in 0..{self.universe_size - 1}"
                )

    def to_json(self) -> str:
        return json.dumps(
            {"universe_size": self.universe_size, "sets": [sorted(a) for a in self.sets]},
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "WinningSetFamily":
        """Parse to_json's format; a malformed family raises InvalidParameters."""
        data = json.loads(text)
        if not isinstance(data, dict) or not isinstance(data.get("sets"), list):
            raise InvalidParameters("a family is a JSON object with universe_size and a list of sets")
        if not all(isinstance(a, list) and all(type(p) is int for p in a) for a in data["sets"]):
            raise InvalidParameters("each winning set is a JSON list of int positions")
        return WinningSetFamily(data.get("universe_size"), tuple(frozenset(a) for a in data["sets"]))

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

    def required_claim_count(self, player: Player) -> int:
        bias = self.a if player is Player.MAKER else self.b
        return min(bias, self.family.universe_size - len(self.maker) - len(self.breaker))

    def maker_won(self) -> bool:
        return any(a <= self.maker for a in self.family.sets)

    def all_sets_dead(self) -> bool:
        return all(a & self.breaker for a in self.family.sets)

    def copy(self) -> FamilyGameState:
        """An independent position: it shares no set or list with this one."""
        return replace(self, maker=set(self.maker), breaker=set(self.breaker), move_log=self.move_log[:])


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


def family_pop_claims(state: FamilyGameState, count: int) -> None:
    """Take back the last turn, its `count` claims: the inverse of family_apply_claim."""
    log = state.move_log
    player = log[-1][0]
    own = state.maker if player is Player.MAKER else state.breaker
    for _ in range(count):
        own.remove(log.pop()[1])
    state.to_move = player


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


def greedy_potential_picks(live, size: int, free: list[int], count: int) -> list[int]:
    """Up to `count` greedy claims, each the free position of largest total surviving-set weight.

    live lists the surviving sets as (weight, positions) pairs in set-index
    order, weight > 0; positions are below `size`, and free holds the free
    positions.  Each claim first drops the sets the previous claim hit from
    the live list, then scores every position afresh, adding each live
    set's weight into its positions in live order, and takes the largest
    score, ties to the lowest position; with no live set left that is the
    lowest free position.  A free position's score starts at 0.0, any other
    at -inf, which no weight raises.  So a free position's score is the
    left-to-right float sum, in set-index order, of the weights of its live
    sets.  That is the sum over all of its sets with the dead ones counted
    as 0.0, bit for bit, since adding 0.0 to a nonnegative float leaves it
    unchanged.  Scores are never updated by subtracting killed weights: that
    would change the float rounding and, through ties, the picks.
    """
    start = [-math.inf] * size
    for p in free:
        start[p] = 0.0
    picks: list[int] = []
    for _ in range(min(count, len(free))):
        if picks:
            last = picks[-1]
            live = [item for item in live if last not in item[1]]
        score = start.copy()
        for weight, positions in live:
            for p in positions:  # not sum(): from Python 3.12 it compensates, so it rounds differently
                score[p] += weight
        best = score.index(max(score))
        picks.append(best)
        start[best] = -math.inf
    return picks


def esb_breaker_select(state: FamilyGameState) -> list[int]:
    """Greedy ESB Breaker turn: repeatedly claim the position of maximum total surviving weight.

    Sets weigh what _surviving_weight gives them.  Each claim maximizes the
    potential reduction and kills the sets it hits (greedy_potential_picks);
    the all-weights-zero endgame falls back to the lowest free position.
    """
    live = []
    for aset in state.family.sets:
        weight = _surviving_weight(aset, state)
        if weight > 0.0:
            live.append((weight, aset))
    count = state.required_claim_count(Player.BREAKER)
    return greedy_potential_picks(live, state.family.universe_size, state.unclaimed(), count)


# --- best open pair on K_n -------------------------------------------------


class OpenPairs:
    """One turn's open pairs, and its picks of the best open pair.

    A cell (u, v) is taken when either player holds it, bit v of
    maker[u] | breaker[u], the board's closed masks (GameState.closed()), or
    when this turn already picked it or was told to exclude it: masked[x]
    holds those partners of x as bits, in both directions.  The caller
    passes open_deg, each vertex's count of open pairs on the board as a
    numpy int array, which OpenPairs owns from then on and lowers as it
    masks pairs.  take(w) picks the open pair (u, v), u < v, of largest
    score w[u] + w[v] (best_open_pair), masks it and returns it, or None
    when no pair scoring above -inf is left.

    The pick reads the effective weights, w with -inf at the vertices that
    have no open pair left, which spares their rows, in one kept order:
    descending weight, ties by index, the permutation a stable argsort of
    -w gives.  The first take sorts them once; each later take compares the
    new effective weights with the previous ones and moves only the
    vertices that changed (the two ends of the previous pick, in every
    caller) to their place by bisection on (-w, index).

    The weights are numpy float arrays.  take() calls only the methods of the
    arrays it is handed, so this module never loads numpy itself.
    """

    __slots__ = ("n", "maker", "breaker", "open_deg", "masked", "order", "_neg", "_eff")

    def __init__(self, state: GameState, open_deg: np.ndarray, exclude=()):
        self.n = state.n
        self.maker = state.closed(Player.MAKER)
        self.breaker = state.closed(Player.BREAKER)
        self.open_deg = open_deg
        self.masked: dict[int, int] = {}
        # The kept order's vertices, and -w at each; filled by the first take.
        self.order: list[int] = []
        self._neg: list[float] = []
        for u, v in exclude:
            self._mask(u, v)

    def _taken(self, u: int) -> int:
        """Row u's taken cells as bits, u's own among them."""
        return self.maker[u] | self.breaker[u] | self.masked.get(u, 0)

    def _mask(self, u: int, v: int) -> None:
        if not self._taken(u) >> v & 1:
            self.masked[u] = self.masked.get(u, 0) | 1 << v
            self.masked[v] = self.masked.get(v, 0) | 1 << u
            self.open_deg[u] -= 1
            self.open_deg[v] -= 1

    def take(self, w: np.ndarray) -> Edge | None:
        """The best open pair under vertex weights w, now masked; None when none is left."""
        eff = w.copy()
        eff[self.open_deg <= 0] = -math.inf
        if not self.order:
            neg = -eff
            ranks = neg.argsort(kind="stable")
            self.order = ranks.tolist()
            self._neg = neg[ranks].tolist()
        else:
            for x in (eff != self._eff).nonzero()[0].tolist():
                self._move(x, -self._eff.item(x), -eff.item(x))
        self._eff = eff
        pair = self.best_open_pair()
        if pair is not None:
            self._mask(*pair)
        return pair

    def _move(self, x: int, old: float, new: float) -> None:
        """Move x from its place at -w = old in the kept order to its place at
        -w = new: among equal weights, which the order keeps by index, bisect
        on the index."""
        order, neg = self.order, self._neg
        lo = bisect_left(neg, old)
        i = bisect_left(order, x, lo, bisect_right(neg, old, lo))
        del order[i], neg[i]
        lo = bisect_left(neg, new)
        i = bisect_left(order, x, lo, bisect_right(neg, new, lo))
        order.insert(i, x)
        neg.insert(i, new)

    def best_open_pair(self) -> Edge | None:
        """The open, unmasked pair (u, v), u < v, of largest effective score
        w[u] + w[v] under the kept order, or None.

        The pick is the row-major first maximum of the n x n matrix of
        w[u] + w[v] over open, unmasked pairs, bit for bit, without building
        that matrix:

        - rounded float addition is monotone, so row u's best score is
          exactly w[u] + w[v] for the first open, unmasked partner v of u in
          the kept order (_row walks to it);
        - rows are taken in the kept order, and a pair is met in the row of
          whichever end comes first.  So when row order[i] comes up, every
          pair not yet met lies among order[i], order[i+1], ... and scores
          at most w[order[i]] + w[order[i+1]].  That bound never rises along
          the order, and the loop stops once it is below the best score
          found, or equal to it while no pair left can tie with an end below
          the lowest end `low` of a best pair found: such a pair holds a
          vertex below low at or after order[i], so it scores at most
          w[order[i]] plus the first such vertex's weight;
        - the matrix's first maximum is in row u = the lowest end of any best
          pair, at the lowest v with w[u] + w[v] == best.  The equality test,
          not the largest w[v], decides v, because rounding can merge two
          different w[v] into one score; the row walk goes on while the
          score stays equal and keeps the lowest such v.
        """
        order, neg = self.order, self._neg
        best, low, pick = -math.inf, self.n, None
        u, w_u = order[0], -neg[0]
        for i in range(1, len(order)):
            bound = w_u - neg[i]
            if bound < best or bound == -math.inf:
                break
            if bound == best:
                # Only a tie with an end below low, at or after u, moves the
                # pick; a run's lowest index from j on is order[j].
                j = i - 1
                while j < len(order) and order[j] >= low:
                    j = bisect_right(neg, neg[j], j)
                if j == len(order) or w_u - neg[j] < best:
                    break
            score, first = self._row(u, w_u, best)
            if first is not None and (score > best or min(u, first) < low):
                best, low = score, min(u, first)
                pick = (u, first) if u < first else None  # row low is not walked yet
            u, w_u = order[i], -neg[i]
        if best == -math.inf:
            return None
        if pick is None:
            pick = (low, self._row(low, self._eff.item(low), best)[1])
        return pick

    def _row(self, u: int, w_u: float, best: float) -> tuple[float, int | None]:
        """Row u's best score and its lowest partner at that score, found by
        walking the kept order; the partner is None when the score is below
        `best` or -inf."""
        taken = self._taken(u)
        order, neg = self.order, self._neg
        for k, v in enumerate(order):
            if not taken >> v & 1:
                break
        else:
            return -math.inf, None
        score = w_u - neg[k]
        if score < best or score == -math.inf:
            return score, None
        # The rest of v's run holds higher indices; a later run can tie only
        # through rounding, and scores only fall along the order.
        first, end = v, len(order)
        k = bisect_right(neg, neg[k], k)
        while k < end and w_u - neg[k] == score:
            run_end = bisect_right(neg, neg[k], k)
            for j in range(k, bisect_left(order, first, k, run_end)):
                if not taken >> order[j] & 1:
                    first = order[j]
                    break
            k = run_end
        return score, first


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
