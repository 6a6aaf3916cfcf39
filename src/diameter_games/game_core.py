"""Turn engine for biased Maker-Breaker games on the edge set of K_n.

Maker claims `a` edges per turn and Breaker `b`; an edge belongs to at most
one player, forever.  Maker moves first unless a game is created otherwise.
When fewer unclaimed edges remain than a player's bias, the player claims
all of them (truncation).  Matches are recorded as Transcripts that replay
bit-exactly from their line-delimited JSON form.
"""

from __future__ import annotations

import json
import re
from collections.abc import Set
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice
from operator import or_
from typing import Callable, Container, Iterable, Iterator, Protocol, Sequence

from .graph_metrics import Graph, MaskedEdges, closed_masks, complement, diameter_within, graph_from_edges

Edge = tuple[int, int]


class GameError(Exception):
    """Base class for engine rule violations."""


class InvalidParameters(GameError):
    pass


class WrongTurn(GameError):
    pass


class AlreadyClaimed(GameError):
    pass


class WrongClaimCount(GameError):
    pass


class StrategyInapplicable(GameError):
    """A strategy's preconditions do not hold on this board."""


class Player(Enum):
    MAKER = "maker"
    BREAKER = "breaker"

    def other(self) -> "Player":
        return Player.BREAKER if self is Player.MAKER else Player.MAKER


# Enum members are read through EnumType.__getattr__, about 0.1 us a read in
# Python 3.11; the reads below run at every node of an exhaustive search.
_MAKER, _BREAKER = Player.MAKER, Player.BREAKER


def mk_edge(u: int, v: int) -> Edge:
    """Canonical edge: endpoints sorted ascending."""
    if u == v:
        raise InvalidParameters(f"loop edge ({u}, {v})")
    return (u, v) if u < v else (v, u)


def all_edges(n: int) -> list[Edge]:
    """Every edge of K_n in lexicographic order; this order is the global tie-break of last resort."""
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


class LogCursor:
    """The one rule for state a strategy keeps between turns: rebuild it from
    the snapshot unless the move log grew since the previous select().

    Forward play always lengthens the log, so it never rebuilds.  In an
    exhaustive verifier's DFS, the first scripted turn of a sibling branch
    is no deeper than the scripted turn before it, so a deeper call lies
    below the previous one: its log extends that log, and what was read
    from it still holds.  Strategies that follow the rule are therefore
    snapshot-pure under the verifiers.  A subgame engine consulted on some
    turns only keeps this while which turns follows from the log.  State
    that is real history (phase switches, frozen boxes) cannot be rebuilt;
    its owner calls require_growth() and refuses a log that did not grow.
    What a GameState keeps itself (the masks behind closed() and its
    views, the lowest_open() row) needs no such rule: it is the position.
    """

    __slots__ = ("seen",)

    def __init__(self) -> None:
        self.seen = -1  # log length at the previous call; -1 before the first

    def new_claims(self, state: GameState) -> list[tuple[Player, Edge]] | None:
        """Claims logged since the previous call; None means rebuild (first call, or no growth)."""
        log = state.move_log
        seen, self.seen = self.seen, len(log)
        return log[seen:] if 0 <= seen < len(log) else None

    def require_growth(self, state: GameState) -> list[tuple[Player, Edge]]:
        """new_claims, but the whole log on the first call and StrategyInapplicable for no growth."""
        first = self.seen < 0
        new = self.new_claims(state)
        if new is None and not first:
            raise StrategyInapplicable("the game log did not grow since this strategy's previous turn")
        return state.move_log[:] if new is None else new


def edge_count(n: int) -> int:
    return n * (n - 1) // 2


class EdgeView(Set, MaskedEdges):
    """A read-only set of edges off a board's mask rows: one player's, given
    that player's masks, or (None) the unclaimed ones.  `in` is one mask
    test, iteration follows all_edges(n) order, len(unclaimed) is the
    board's count, and - and & return plain sets.  A union of two views of
    one board size is a snapshot view: it holds its own OR of the two
    views' rows, so later claims do not change it.  closed_masks() copies
    the rows; graph_metrics.closed_masks and graph_from_edges read a view
    through it, in O(n), without visiting an edge."""

    __slots__ = ("_state", "_own")

    def __init__(self, state: GameState, own: list[int] | None) -> None:
        self._state, self._own = state, own

    _from_iterable = staticmethod(set)

    def closed_masks(self) -> list[int]:
        """The view's graph as graph_metrics.closed_masks, a fresh list: O(n), no edge is visited."""
        if self._own is not None:
            return self._own[:]
        state = self._state
        return complement(list(map(or_, state._maker, state._breaker)))

    def __or__(self, other):
        if not isinstance(other, EdgeView) or other._state.n != self._state.n:
            return Set.__or__(self, other)
        if self._own is None:
            self, other = other, self
        if self._own is None or other._own is not None:
            return EdgeView(self._state, list(map(or_, self.closed_masks(), other.closed_masks())))
        # An own view and an unclaimed one, in one pass: an own row holds its
        # vertex's bit, which the open row lacks.
        state = other._state
        everyone = (1 << state.n) - 1
        rows = [x | (m | b) ^ everyone for x, m, b in zip(self._own, state._maker, state._breaker)]
        return EdgeView(self._state, rows)

    def __contains__(self, edge: object) -> bool:
        try:
            u, v = edge  # type: ignore[misc]
            if not 0 <= u < v < self._state.n:
                return False
        except (TypeError, ValueError):
            return False
        if self._own is None:
            return not (self._state._maker[u] | self._state._breaker[u]) >> v & 1
        return self._own[u] >> v & 1 == 1

    def __iter__(self) -> Iterator[Edge]:
        return self._edges(0)

    def _edges(self, start: int) -> Iterator[Edge]:
        """The view's edges (u, v) with u >= start, in all_edges(n) order.

        Row u holds bit v of the view's edge (u, v); the rows of the
        unclaimed view are the complement of both players' rows."""
        state, own = self._state, self._own
        n = state.n
        everyone = (1 << n) - 1
        maker, breaker = state._maker, state._breaker
        for u in range(start, n - 1):
            row = (own[u] if own is not None else (maker[u] | breaker[u]) ^ everyone) >> (u + 1)
            while row:
                low = row & -row
                yield u, u + low.bit_length()
                row ^= low

    def __len__(self) -> int:
        if self._own is None:
            return self._state._open
        return (sum(m.bit_count() for m in self._own) - self._state.n) // 2


@dataclass(init=False)
class GameState:
    """Full game position: the two players' graphs, biases, and the move log.

    Strategies receive this object read-only each time they are asked to
    move.  `move_log` lists every single claim in order, one (player, edge)
    entry per edge, so any auxiliary bookkeeping can be rebuilt from it.

    The position is held once, as closed(player): that player's graph as
    graph_metrics.closed_masks, one int per vertex, live and read-only.
    Edge (u, v) is open exactly when bit v of closed(MAKER)[u] |
    closed(BREAKER)[u] is clear, and a degree is a mask's popcount minus
    one.  Beside the masks sit the open-edge count and lowest_open()'s
    cached row, below which every edge is claimed.  `unclaimed`,
    `maker_edges` and `breaker_edges` are EdgeViews of the masks.  Only
    apply_claim, push_claims and pop_claims change a position, so they
    keep the masks, the count, to_move, the log and the row in step.
    """

    n: int
    a: int
    b: int
    first: Player
    to_move: Player
    move_log: list[tuple[Player, Edge]]
    _maker: list[int]
    _breaker: list[int]
    _open: int

    def __init__(self, n: int, a: int, b: int, first: Player, maker_edges: Iterable[Edge] = (),
                 breaker_edges: Iterable[Edge] = (), to_move: Player = Player.MAKER, move_log: Iterable = ()):
        self.n, self.a, self.b, self.first, self.to_move = n, a, b, first, to_move
        self.move_log = list(move_log)
        self._maker, self._breaker = closed_masks(n, maker_edges), closed_masks(n, breaker_edges)
        # The masks hold 2n vertex bits and two bits per claimed edge.
        self._open = (n * (n + 1) - sum(map(int.bit_count, self._maker + self._breaker))) // 2
        self._low_row = 0

    # A view holds its state, so the state does not keep its views: a cycle
    # would hold every finished board until the collector found it.
    unclaimed = property(lambda self: EdgeView(self, None))
    maker_edges = property(lambda self: EdgeView(self, self._maker))
    breaker_edges = property(lambda self: EdgeView(self, self._breaker))

    def required_claim_count(self, player: Player) -> int:
        return min(self.a if player is _MAKER else self.b, self._open)

    def is_exhausted(self) -> bool:
        return not self._open

    def closed(self, player: Player) -> list[int]:
        """graph_metrics.closed_masks of `player`'s graph; live, so read-only."""
        return self._maker if player is _MAKER else self._breaker

    def lowest_open(self, count: int, skip: Container[Edge] = ()) -> list[Edge]:
        """Up to `count` unclaimed edges not in `skip`, lowest first in all_edges(n) order."""
        n, maker, breaker = self.n, self._maker, self._breaker
        everyone = (1 << n) - 1
        low = self._low_row
        while low < n - 1 and not ((maker[low] | breaker[low]) ^ everyone) >> (low + 1):
            low += 1
        self._low_row = low
        return list(islice((e for e in self.unclaimed._edges(low) if e not in skip), count))

    def copy(self) -> GameState:
        """An independent position: it shares no list with this one, and costs O(n + log)."""
        clone = object.__new__(GameState)
        clone.n, clone.a, clone.b, clone.first, clone.to_move = self.n, self.a, self.b, self.first, self.to_move
        clone.move_log, clone._maker, clone._breaker = self.move_log[:], self._maker[:], self._breaker[:]
        clone._open, clone._low_row = self._open, self._low_row
        return clone


def new_game(n: int, a: int, b: int, first: Player = Player.MAKER) -> GameState:
    if n < 2:
        raise InvalidParameters(f"need at least 2 vertices, got n={n}")
    if a < 1 or b < 1:
        raise InvalidParameters(f"biases must be positive, got a={a}, b={b}")
    return GameState(n=n, a=a, b=b, first=first, to_move=first)


def apply_claim(state: GameState, player: Player, edges: Iterable[Edge]) -> GameState:
    """Apply one full turn: `player` claims `edges`, then the turn passes.

    The list length must equal the player's bias, or the number of remaining
    unclaimed edges if fewer remain.  Mutates and returns `state`.
    """
    edges = list(edges)
    if player is not state.to_move:
        raise WrongTurn(f"{player.value} tried to move on {state.to_move.value}'s turn")
    required = state.required_claim_count(player)
    if len(edges) != required:
        raise WrongClaimCount(
            f"{player.value} must claim exactly {required} edges, got {len(edges)}"
        )
    if len(set(edges)) != len(edges):
        raise AlreadyClaimed(f"duplicate edge in claim {edges}")
    maker, breaker = state._maker, state._breaker
    # Check every edge before the first store, so a rejected claim changes nothing.
    for edge in edges:
        if edge != mk_edge(*edge):
            raise InvalidParameters(f"edge {edge} is not canonical")
        u, v = edge
        if u < 0 or v >= state.n or (maker[u] | breaker[u]) >> v & 1:
            raise AlreadyClaimed(f"edge {edge} is not available")
    push_claims(state, edges)
    return state


def push_claims(state: GameState, edges: Sequence[Edge]) -> None:
    """state.to_move claims `edges` and the turn passes, unchecked: apply_claim
    after its checks.

    The edges must be canonical, open and distinct, as many as the mover's
    claim count; the board verifier pushes the turns it enumerates from the
    open edges, and the scripted turns it has checked.
    """
    player = state.to_move
    if player is _MAKER:
        own, state.to_move = state._maker, _BREAKER
    else:
        own, state.to_move = state._breaker, _MAKER
    log = state.move_log
    for edge in edges:
        u, v = edge
        own[u] |= 1 << v
        own[v] |= 1 << u
        log.append((player, edge))
    state._open -= len(edges)


def pop_claims(state: GameState, count: int) -> None:
    """Take back the last turn, its `count` claims: the inverse of push_claims
    and of apply_claim.

    The claims come off the log and the masks, the open count rises, the
    turn returns to their player, and lowest_open()'s row moves down to the
    lowest row that got an open edge back.
    """
    log = state.move_log
    player = log[-1][0]
    own = state._maker if player is _MAKER else state._breaker
    low = state._low_row
    for _ in range(count):
        _, (u, v) = log.pop()
        own[u] ^= 1 << v
        own[v] ^= 1 << u
        if u < low:
            low = u
    state._low_row = low
    state._open += count
    state.to_move = player


def maker_graph(state: GameState) -> Graph:
    """Maker's graph at this position, a copy of its mask rows; later claims do not change it."""
    return graph_from_edges(state.n, state.maker_edges)


class Strategy(Protocol):
    """A deterministic-given-seed move selector.

    select() is handed the live GameState (read-only by convention) and must
    return exactly state.required_claim_count(side) distinct unclaimed edges.
    Strategies may expose optional `annotations`, `flags` and `violations`
    lists; run_match copies them into the transcript.
    """

    name: str

    def select(self, state: GameState) -> list[Edge]: ...


# --- target properties ---------------------------------------------------
# A target property is a predicate on the live GameState that reads only
# Maker's edges, through state.closed(Player.MAKER); it is monotone in them.

TargetProperty = Callable[[GameState], bool]


def diameter_at_most(d: int) -> TargetProperty:
    def prop(state: GameState) -> bool:
        return diameter_within(state.closed(_MAKER), d)

    prop.property_id = f"diameter<={d}"  # type: ignore[attr-defined]
    return prop


def min_degree_exceeds(k: int) -> TargetProperty:
    def prop(state: GameState) -> bool:
        return min((m.bit_count() for m in state.closed(_MAKER)), default=1) - 1 > k

    prop.property_id = f"mindeg>{k}"  # type: ignore[attr-defined]
    return prop


# --- transcripts ----------------------------------------------------------

TRANSCRIPT_SCHEMA = 1


@dataclass
class TurnRecord:
    turn: int
    player: Player
    edges: list[Edge]


@dataclass
class Transcript:
    """Replayable record of one match.

    The header/claims/footer records are the replayable core; they carry no
    timestamps, so two runs of the same match serialize byte-identically.
    Claim lines are formatted by hand, in the exact bytes of compact
    key-sorted JSON (int vertices and turn numbers, a player from a closed
    enum, a fixed key set); the free-form header and footer go through
    json.dumps.  tests/test_game_core.py::test_claim_lines_match_json_encoder
    pins the claim bytes against json.dumps.
    """

    n: int
    a: int
    b: int
    first: Player
    maker_id: str
    breaker_id: str
    seed: int | None
    property_id: str
    claims: list[TurnRecord]
    verdict: bool
    winner: Player
    rounds: int
    fault: Player | None = None
    flags: list[str] = field(default_factory=list)
    annotations: list[dict] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)

    def to_jsonl(self) -> str:
        lines = []
        header = {
            "type": "header",
            "schema": TRANSCRIPT_SCHEMA,
            "n": self.n,
            "a": self.a,
            "b": self.b,
            "first": self.first.value,
            "maker": self.maker_id,
            "breaker": self.breaker_id,
            "seed": self.seed,
            "property": self.property_id,
        }
        lines.append(json.dumps(header, sort_keys=True, separators=(",", ":")))
        for rec in self.claims:
            edges = ",".join([f"[{u},{v}]" for u, v in rec.edges])
            lines.append(
                f'{{"edges":[{edges}],"player":"{rec.player.value}","turn":{rec.turn},"type":"claim"}}'
            )
        footer = {
            "type": "footer",
            "verdict": self.verdict,
            "winner": self.winner.value,
            "rounds": self.rounds,
            "fault": self.fault.value if self.fault else None,
            "flags": self.flags,
            "annotations": self.annotations,
            "violations": self.violations,
        }
        lines.append(json.dumps(footer, sort_keys=True, separators=(",", ":")))
        return "\n".join(lines) + "\n"

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_jsonl())


def transcript_from_jsonl(text: str) -> Transcript:
    """The transcript a to_jsonl() text holds; InvalidParameters for a
    line that is not a JSON object, a record that lacks a key, or a value
    of the wrong shape."""
    lines = [json.loads(line) for line in text.splitlines() if line.strip()]
    if not all(isinstance(rec, dict) for rec in lines):
        raise InvalidParameters("every transcript line must be a JSON object")
    if not lines or lines[0].get("type") != "header" or lines[-1].get("type") != "footer":
        raise InvalidParameters("transcript must start with a header and end with a footer")
    head, foot = lines[0], lines[-1]
    claims = []
    try:
        for rec in lines[1:-1]:
            if rec.get("type") != "claim":
                raise InvalidParameters(f"unexpected record type {rec.get('type')!r}")
            claims.append(
                TurnRecord(
                    turn=rec["turn"],
                    player=Player(rec["player"]),
                    edges=[mk_edge(*e) for e in rec["edges"]],
                )
            )
        return Transcript(
            n=head["n"],
            a=head["a"],
            b=head["b"],
            first=Player(head["first"]),
            maker_id=head["maker"],
            breaker_id=head["breaker"],
            seed=head["seed"],
            property_id=head["property"],
            claims=claims,
            verdict=foot["verdict"],
            winner=Player(foot["winner"]),
            rounds=foot["rounds"],
            fault=Player(foot["fault"]) if foot["fault"] else None,
            flags=list(foot["flags"]),
            annotations=list(foot["annotations"]),
            violations=list(foot["violations"]),
        )
    except KeyError as exc:
        raise InvalidParameters(f"transcript record lacks key {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise InvalidParameters(f"bad transcript record: {exc}") from None


def read_transcript(path) -> Transcript:
    with open(path) as fh:
        return transcript_from_jsonl(fh.read())


def replay_transcript(tr: Transcript, target_property: TargetProperty) -> tuple[GameState, bool]:
    """Re-apply a transcript's claims to a fresh board and recompute the verdict."""
    state = new_game(tr.n, tr.a, tr.b, tr.first)
    for rec in tr.claims:
        apply_claim(state, rec.player, rec.edges)
    return state, bool(target_property(state))


_PROPERTY_ID = re.compile(r"(diameter<=|mindeg>)([0-9]+)")


def property_from_id(property_id: str) -> TargetProperty:
    """Rebuild a target property from its id: 'diameter<=N' or 'mindeg>N', N decimal digits."""
    match = _PROPERTY_ID.fullmatch(property_id)
    if match is None:
        raise InvalidParameters(f"unknown property id {property_id!r}")
    make = diameter_at_most if match[1] == "diameter<=" else min_degree_exceeds
    return make(int(match[2]))


# --- match runner ---------------------------------------------------------


def run_match(
    state: GameState,
    maker: Strategy,
    breaker: Strategy,
    target_property: TargetProperty,
    seed: int | None = None,
    early_stop: bool = True,
    round_observer: Callable[[GameState], None] | None = None,
) -> Transcript:
    """Play a match to exhaustion (or early stop) and return its transcript.

    The verdict is target_property(state) at the stopping position;
    Maker is the winner iff the verdict is True.  With early_stop, play ends
    as soon as the (monotone) property holds after a Maker turn.  An illegal
    claim from a strategy ends the match immediately with `fault` set to the
    offending side; the verdict is still the property at the abort position.

    round_observer, if given, is called after every completed round (both
    players having moved since the round began).
    """
    if state.move_log:
        raise InvalidParameters("run_match requires a fresh state")
    property_id = getattr(target_property, "property_id", "custom")
    strategies = {Player.MAKER: maker, Player.BREAKER: breaker}
    claims: list[TurnRecord] = []
    fault: Player | None = None
    turn_no = 0
    turns_in_round = 0
    rounds = 0

    while not state.is_exhausted():
        side = state.to_move
        strategy = strategies[side]
        try:
            edges = [mk_edge(*e) for e in strategy.select(state)]
            apply_claim(state, side, edges)
        except GameError:
            fault = side
            break
        turn_no += 1
        claims.append(TurnRecord(turn=turn_no, player=side, edges=edges))
        turns_in_round += 1
        if turns_in_round == 2:
            rounds += 1
            turns_in_round = 0
            if round_observer is not None:
                round_observer(state)
        if side is Player.MAKER and early_stop and target_property(state):
            break

    verdict = bool(target_property(state))
    annotations: list[dict] = []
    flags: list[str] = []
    violations: list[str] = []
    for side_name, strategy in (("maker", maker), ("breaker", breaker)):
        for note in getattr(strategy, "annotations", []):
            annotations.append({"side": side_name, **note})
        flags.extend(f"{side_name}:{f}" for f in getattr(strategy, "flags", []))
        violations.extend(f"{side_name}:{v}" for v in getattr(strategy, "violations", []))
    return Transcript(
        n=state.n,
        a=state.a,
        b=state.b,
        first=state.first,
        maker_id=maker.name,
        breaker_id=breaker.name,
        seed=seed,
        property_id=property_id,
        claims=claims,
        verdict=verdict,
        winner=Player.MAKER if verdict else Player.BREAKER,
        rounds=rounds,
        fault=fault,
        flags=flags,
        annotations=annotations,
        violations=violations,
    )
