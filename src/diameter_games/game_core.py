"""Turn engine for biased Maker-Breaker games on the edge set of K_n.

Maker claims `a` edges per turn and Breaker `b`; an edge belongs to at most
one player, forever.  Maker moves first unless a game is created otherwise.
When fewer unclaimed edges remain than a player's bias, the player claims
all of them (truncation).  Matches are recorded as Transcripts that replay
bit-exactly from their line-delimited JSON form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Container, Iterable, Protocol

from .graph_metrics import Graph, degree_profile, diameter

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


def mk_edge(u: int, v: int) -> Edge:
    """Canonical edge: endpoints sorted ascending."""
    if u == v:
        raise InvalidParameters(f"loop edge ({u}, {v})")
    return (u, v) if u < v else (v, u)


def all_edges(n: int) -> list[Edge]:
    """Every edge of K_n in lexicographic order; this order is the global tie-break of last resort."""
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


class LexCursor:
    """The lowest unclaimed edges of K_n, found by a cursor over all_edges(n).

    The cursor only moves forward: an edge behind it was claimed, or taken
    by its owner, when the cursor passed it.  That holds while the board
    only gains claims, so the owner calls reset() whenever it may be shown
    an earlier position.
    """

    __slots__ = ("edges", "pos")

    def __init__(self, n: int):
        self.edges = all_edges(n)
        self.pos = 0

    def reset(self) -> None:
        self.pos = 0

    def take(self, unclaimed: Container[Edge], count: int, skip: Container[Edge] = ()) -> list[Edge]:
        """Up to `count` edges from the cursor on that are unclaimed and not in `skip`."""
        edges = self.edges
        picks: list[Edge] = []
        while self.pos < len(edges) and len(picks) < count:
            e = edges[self.pos]
            self.pos += 1
            if e in unclaimed and e not in skip:
                picks.append(e)
        return picks

    def next_free(self, unclaimed: Container[Edge], skip: Container[Edge] = ()) -> Edge | None:
        picks = self.take(unclaimed, 1, skip)
        return picks[0] if picks else None


def edge_count(n: int) -> int:
    return n * (n - 1) // 2


@dataclass
class GameState:
    """Full game position: ownership, biases, and the move log.

    Strategies receive this object read-only each time they are asked to
    move.  `move_log` lists every single claim in order, one (player, edge)
    entry per edge, so any auxiliary bookkeeping can be rebuilt from it.
    """

    n: int
    a: int
    b: int
    first: Player
    maker_edges: set[Edge] = field(default_factory=set)
    breaker_edges: set[Edge] = field(default_factory=set)
    unclaimed: set[Edge] = field(default_factory=set)
    to_move: Player = Player.MAKER
    move_log: list[tuple[Player, Edge]] = field(default_factory=list)

    def bias_of(self, player: Player) -> int:
        return self.a if player is Player.MAKER else self.b

    def owner(self, edge: Edge) -> Player | None:
        if edge in self.maker_edges:
            return Player.MAKER
        if edge in self.breaker_edges:
            return Player.BREAKER
        return None

    def required_claim_count(self, player: Player) -> int:
        return min(self.bias_of(player), len(self.unclaimed))

    def is_exhausted(self) -> bool:
        return not self.unclaimed

    def copy(self) -> "GameState":
        return GameState(
            n=self.n,
            a=self.a,
            b=self.b,
            first=self.first,
            maker_edges=set(self.maker_edges),
            breaker_edges=set(self.breaker_edges),
            unclaimed=set(self.unclaimed),
            to_move=self.to_move,
            move_log=list(self.move_log),
        )


def new_game(n: int, a: int, b: int, first: Player = Player.MAKER) -> GameState:
    if n < 2:
        raise InvalidParameters(f"need at least 2 vertices, got n={n}")
    if a < 1 or b < 1:
        raise InvalidParameters(f"biases must be positive, got a={a}, b={b}")
    return GameState(
        n=n, a=a, b=b, first=first, unclaimed=set(all_edges(n)), to_move=first
    )


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
    own = state.maker_edges if player is Player.MAKER else state.breaker_edges
    for edge in edges:
        if edge != mk_edge(*edge):
            raise InvalidParameters(f"edge {edge} is not canonical")
        if edge not in state.unclaimed:
            raise AlreadyClaimed(f"edge {edge} is not available")
        state.unclaimed.discard(edge)
        own.add(edge)
        state.move_log.append((player, edge))
        # Ownership stays disjoint by construction; guard the invariant anyway.
        assert not (state.maker_edges & state.breaker_edges)
    state.to_move = player.other()
    return state


def maker_graph(state: GameState) -> Graph:
    return Graph(state.n, frozenset(state.maker_edges))


def breaker_graph(state: GameState) -> Graph:
    return Graph(state.n, frozenset(state.breaker_edges))


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


def diameter_at_most(d: int) -> Callable[[Graph], bool]:
    def prop(g: Graph) -> bool:
        if g.n < 2:
            return True
        return diameter(g) <= d

    prop.property_id = f"diameter<={d}"  # type: ignore[attr-defined]
    return prop


def min_degree_exceeds(k: int) -> Callable[[Graph], bool]:
    def prop(g: Graph) -> bool:
        return degree_profile(g).min_degree > k

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
            lines.append(
                json.dumps(
                    {
                        "type": "claim",
                        "turn": rec.turn,
                        "player": rec.player.value,
                        "edges": [list(e) for e in rec.edges],
                    },
                    sort_keys=True,
                    separators=(",", ":"),
                )
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
    lines = [json.loads(line) for line in text.splitlines() if line.strip()]
    if not lines or lines[0].get("type") != "header" or lines[-1].get("type") != "footer":
        raise InvalidParameters("transcript must start with a header and end with a footer")
    head, foot = lines[0], lines[-1]
    claims = []
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


def read_transcript(path) -> Transcript:
    with open(path) as fh:
        return transcript_from_jsonl(fh.read())


def replay_transcript(tr: Transcript, target_property: Callable[[Graph], bool]) -> tuple[GameState, bool]:
    """Re-apply a transcript's claims to a fresh board and recompute the verdict."""
    state = new_game(tr.n, tr.a, tr.b, tr.first)
    for rec in tr.claims:
        apply_claim(state, rec.player, rec.edges)
    return state, bool(target_property(maker_graph(state)))


PROPERTY_FACTORIES = {
    "diameter": diameter_at_most,
    "mindeg": min_degree_exceeds,
}


def property_from_id(property_id: str) -> Callable[[Graph], bool]:
    """Rebuild a target property from its transcript id, e.g. 'diameter<=2'."""
    if property_id.startswith("diameter<="):
        return diameter_at_most(int(property_id.split("<=")[1]))
    if property_id.startswith("mindeg>"):
        return min_degree_exceeds(int(property_id.split(">")[1]))
    raise InvalidParameters(f"unknown property id {property_id!r}")


# --- match runner ---------------------------------------------------------


def run_match(
    state: GameState,
    maker: Strategy,
    breaker: Strategy,
    target_property: Callable[[Graph], bool],
    seed: int | None = None,
    early_stop: bool = True,
    round_observer: Callable[[GameState], None] | None = None,
    max_rounds: int | None = None,
) -> Transcript:
    """Play a match to exhaustion (or early stop) and return its transcript.

    The verdict is target_property(maker_graph) at the stopping position;
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
        if max_rounds is not None and rounds >= max_rounds:
            break
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
        if side is Player.MAKER and early_stop and target_property(maker_graph(state)):
            break

    verdict = bool(target_property(maker_graph(state)))
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
