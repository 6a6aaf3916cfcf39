"""Seeded experiment runner: JSON configs in, CSV and transcripts out.

An ExperimentConfig names one matchup (board size, biases, target
property, both strategy ids) and a seed list; run_experiment plays
every seed x repetition match and returns results ordered by match
index.  Each match derives its own RNG stream from the experiment seed
and repetition through a fixed sha256 split, so serial runs, parallel
runs, and reruns agree claim for claim.

The CSV summary schema is frozen in CSV_COLUMNS; anything richer
belongs in the per-match transcript files, never in new columns.
"""

from __future__ import annotations

import csv
import hashlib
import inspect
import json
import random
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, NamedTuple

from .degree_games import (
    DegreeWeightState,
    FloodingBreaker,
    MinDegStrategy,
)
from .diameter2 import D2Breaker, D2Maker, D2SimpleMaker, PairingBreaker
from .diameter_d import DdBreakerA1, DdBreakerA2, DdMaker, dd_ball_sizes
from .game_core import (
    InvalidParameters,
    LogCursor,
    Player,
    Transcript,
    edge_count,
    new_game,
    property_from_id,
    run_match,
)
from .heuristics import (
    DegreeGreedyStrategy,
    EsbDegreeBreaker,
    LowestEdgeStrategy,
    PathGreedyStrategy,
    RandomStrategy,
)

__all__ = [
    "CSV_COLUMNS",
    "STRATEGY_IDS",
    "ExperimentConfig",
    "MatchResult",
    "InvariantViolation",
    "match_seed",
    "make_strategy",
    "run_experiment",
    "write_csv",
    "write_transcripts",
    "summarize",
]


CSV_COLUMNS = ["match_index", "seed", "winner", "rounds", "flags", "violations"]


class _Registered(NamedTuple):
    """One strategy id.

    `args` gives the positional constructor arguments from the config; the
    options are keyword arguments.  `bias` reads the Breaker bias off a
    built instance, for ids that carry their own bias formula.  `takes_rng`
    ids get the match RNG as their first argument.  `check` raises
    InvalidParameters for a config the constructor would refuse although
    its arguments bind, so that validation catches it before any match.
    """

    cls: type
    args: Callable[[ExperimentConfig], tuple] = lambda cfg: ()
    bias: Callable[[object], int] | None = None
    takes_rng: bool = False
    check: Callable[[ExperimentConfig, dict], object] | None = None


_REGISTRY: dict[str, _Registered] = {
    "random": _Registered(RandomStrategy, takes_rng=True),
    "lowest-edge": _Registered(LowestEdgeStrategy),
    "degree-greedy": _Registered(DegreeGreedyStrategy),
    "path-greedy": _Registered(PathGreedyStrategy, lambda cfg: (cfg.d,)),
    "esb-degree-breaker": _Registered(EsbDegreeBreaker),
    "mindeg-maker": _Registered(MinDegStrategy, lambda cfg: (cfg.n, cfg.a, cfg.effective_b())),
    "flooding-breaker": _Registered(FloodingBreaker),
    "pairing-breaker": _Registered(PairingBreaker),
    "d2-simple-maker": _Registered(D2SimpleMaker, lambda cfg: (cfg.n, cfg.a, cfg.effective_b())),
    "d2-maker": _Registered(D2Maker, lambda cfg: (cfg.n, cfg.effective_b())),
    "d2-breaker": _Registered(D2Breaker, lambda cfg: (cfg.n,), bias=lambda s: s.params.b),
    "dd-maker": _Registered(
        DdMaker,
        lambda cfg: (cfg.n, cfg.d, cfg.effective_b()),
        check=lambda cfg, opts: dd_ball_sizes(cfg.n, cfg.d, opts.get("r_sizes")),
    ),
    "dd-breaker-a1": _Registered(DdBreakerA1, lambda cfg: (cfg.n, cfg.d), bias=lambda s: s.bias),
    "dd-breaker-a2": _Registered(DdBreakerA2, lambda cfg: (cfg.n, cfg.d), bias=lambda s: s.bias),
}

STRATEGY_IDS = tuple(_REGISTRY)


class InvariantViolation(AssertionError):
    """A board-state assertion failed during an instrumented run."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass
class ExperimentConfig:
    """One matchup plus its seed plan and output paths.

    b may be null in the JSON when the breaker id carries its own bias
    formula (d2-breaker, dd-breaker-a1, dd-breaker-a2); effective_b
    resolves it.  Strategy options dicts are passed to the strategy
    constructors as keyword arguments.
    """

    name: str
    n: int
    maker: str
    breaker: str
    a: int = 1
    b: int | None = None
    d: int = 2
    seeds: list[int] = field(default_factory=lambda: [0])
    repetitions: int = 1
    property_id: str | None = None
    early_stop: bool = True
    max_rounds: int | None = None
    csv_path: str | None = None
    transcripts_path: str | None = None
    assert_invariants: bool = False
    maker_options: dict = field(default_factory=dict)
    breaker_options: dict = field(default_factory=dict)
    first: str = "maker"

    @classmethod
    def from_json(cls, data: dict) -> "ExperimentConfig":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise InvalidParameters(f"unknown config keys: {sorted(unknown)}")
        missing = {"name", "n", "maker", "breaker"} - set(data)
        if missing:
            raise InvalidParameters(f"config lacks required keys: {sorted(missing)}")
        cfg = cls(**data)
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_json(json.load(fh))

    def validate(self) -> None:
        if self.maker not in _REGISTRY:
            raise InvalidParameters(f"unknown maker id {self.maker!r}")
        if self.breaker not in _REGISTRY:
            raise InvalidParameters(f"unknown breaker id {self.breaker!r}")
        least_values = {"n": 2, "a": 1, "b": 1, "d": 1, "repetitions": 1, "max_rounds": 1}
        for key, least in least_values.items():
            value = getattr(self, key)
            if value is None and key in ("b", "max_rounds"):  # the two that may be unset
                continue
            if not _is_int(value):
                raise InvalidParameters(f"{key} must be an integer, got {value!r}")
            if value < least:
                raise InvalidParameters(f"need {key} >= {least}, got {value}")
        if not isinstance(self.seeds, list) or not all(_is_int(s) for s in self.seeds):
            raise InvalidParameters("seeds must be a list of integers")
        for key in ("early_stop", "assert_invariants"):
            if not isinstance(getattr(self, key), bool):
                raise InvalidParameters(f"{key} must be true or false, got {getattr(self, key)!r}")
        stochastic = _REGISTRY[self.maker].takes_rng or _REGISTRY[self.breaker].takes_rng
        if stochastic and not self.seeds:
            raise InvalidParameters("stochastic strategies need a non-empty seed list")
        if not self.seeds:
            self.seeds = [0]
        if self.first not in ("maker", "breaker"):
            raise InvalidParameters(f"first must be maker or breaker, got {self.first!r}")
        property_from_id(self.resolved_property_id())
        self.effective_b()
        for sid, options in ((self.maker, self.maker_options), (self.breaker, self.breaker_options)):
            _, _, opts = _bind(sid, self, None, options)
            check = _REGISTRY[sid].check
            if check is not None:
                check(self, opts)

    def resolved_property_id(self) -> str:
        return self.property_id or f"diameter<={self.d}"

    def effective_b(self) -> int:
        """The Breaker bias, deriving it from the breaker id when unset."""
        if self.b is not None:
            return self.b
        bias = _REGISTRY[self.breaker].bias
        if bias is None:
            raise InvalidParameters(
                f"b must be given; {self.breaker!r} has no bias formula"
            )
        return bias(make_strategy(self.breaker, self, None, self.breaker_options))


@dataclass
class MatchResult:
    match_index: int
    seed: int
    transcript: Transcript


def match_seed(experiment_seed: int, repetition: int) -> int:
    """Fixed splitting rule from (experiment seed, repetition) to one match."""
    digest = hashlib.sha256(f"{experiment_seed}/{repetition}".encode()).hexdigest()
    return int(digest[:16], 16)


def _bind(strategy_id: str, cfg: ExperimentConfig, rng: random.Random | None, options: dict | None):
    """The registered class and its constructor arguments; InvalidParameters
    for an unknown id or options the constructor does not take."""
    entry = _REGISTRY.get(strategy_id)
    if entry is None:
        raise InvalidParameters(f"unknown strategy id {strategy_id!r}")
    opts = options or {}
    args = ((rng,) if entry.takes_rng else ()) + entry.args(cfg)
    try:
        inspect.signature(entry.cls).bind(*args, **opts)
    except TypeError as exc:
        raise InvalidParameters(f"bad options for {strategy_id}: {exc}") from None
    return entry.cls, args, opts


def make_strategy(strategy_id: str, cfg: ExperimentConfig, rng: random.Random, options: dict | None = None):
    """Build one registered strategy for the given experiment.

    Options are constructor keyword arguments; options a constructor does
    not take are rejected (a loud config typo beats a silent one).
    """
    cls, args, opts = _bind(strategy_id, cfg, rng, options)
    return cls(*args, **opts)


def _make_observer(cfg: ExperimentConfig, maker, sink: list[str]):
    """Round-boundary assertions: board bookkeeping, and potential
    monotonicity when the maker is the degree-weight player.

    The potential is sampled at the end of Breaker's latest turn, whoever
    moved first: the degree-game argument bounds it over a Maker turn
    followed by a Breaker turn, and with Breaker first a round of run_match
    ends after a Maker turn instead.
    """
    total = edge_count(cfg.n)
    tracker: DegreeWeightState | None = None
    if isinstance(maker, MinDegStrategy):
        tracker = DegreeWeightState(maker.params)
    prev: list[float | None] = [None]
    synced = [0]
    claims = LogCursor()

    def observe(state) -> None:
        # Each claim moves one edge from the open count into the log.
        onboard = len(state.move_log) + len(state.unclaimed)
        if onboard != total:
            raise InvariantViolation(f"ownership counts drifted: {onboard} != {total}")
        # An edge owned twice was logged twice, so the later claim meets the
        # other owner's mask: only the claims logged since the last round are tested.
        new = claims.new_claims(state)
        maker, breaker = state.closed(Player.MAKER), state.closed(Player.BREAKER)
        for player, (u, v) in state.move_log if new is None else new:
            if (breaker if player is Player.MAKER else maker)[u] >> v & 1:
                raise InvariantViolation(f"edge {(u, v)} is owned by both players")
        if tracker is not None:
            log = state.move_log
            cut = len(log)
            while cut and log[cut - 1][0] is Player.MAKER:
                cut -= 1
            for player, edge in log[synced[0] : cut]:
                tracker.observe(player, edge)
            synced[0] = cut
            t_now = tracker.potential()
            if prev[0] is not None and t_now > prev[0] * (1.0 + 1e-9):
                sink.append(
                    f"harness:mindeg-potential-increased turn={cut} "
                    f"from={prev[0]!r} to={t_now!r}"
                )
            prev[0] = t_now

    return observe


def _play_match(cfg: ExperimentConfig, match_index: int, seed: int) -> MatchResult:
    maker_rng = random.Random((seed << 1) | 0)
    breaker_rng = random.Random((seed << 1) | 1)
    maker = make_strategy(cfg.maker, cfg, maker_rng, cfg.maker_options)
    breaker = make_strategy(cfg.breaker, cfg, breaker_rng, cfg.breaker_options)
    state = new_game(cfg.n, cfg.a, cfg.effective_b(), Player(cfg.first))
    harness_violations: list[str] = []
    observer = (
        _make_observer(cfg, maker, harness_violations)
        if cfg.assert_invariants
        else None
    )
    transcript = run_match(
        state,
        maker,
        breaker,
        property_from_id(cfg.resolved_property_id()),
        seed=seed,
        early_stop=cfg.early_stop,
        round_observer=observer,
        max_rounds=cfg.max_rounds,
    )
    transcript.violations.extend(harness_violations)
    return MatchResult(match_index=match_index, seed=seed, transcript=transcript)


def run_experiment(cfg: ExperimentConfig, workers: int | None = None) -> list[MatchResult]:
    """Play every (seed x repetition) match; results ordered by index.

    workers > 1 fans matches out to a process pool, imported only then;
    ordering and seeds are identical either way.  Output files are written
    at the end when the config names paths.
    """
    cfg.validate()
    jobs: list[tuple[int, int]] = []
    index = 0
    for s in cfg.seeds:
        for rep in range(cfg.repetitions):
            jobs.append((index, match_seed(s, rep)))
            index += 1
    if workers is not None and workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(
                pool.map(
                    _play_match,
                    [cfg] * len(jobs),
                    [i for i, _ in jobs],
                    [ms for _, ms in jobs],
                )
            )
    else:
        results = [_play_match(cfg, i, ms) for i, ms in jobs]
    if cfg.csv_path:
        write_csv(cfg.csv_path, results)
    if cfg.transcripts_path:
        write_transcripts(cfg.transcripts_path, results)
    return results


def write_csv(path, results: list[MatchResult]) -> None:
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in results:
            t = r.transcript
            writer.writerow(
                [
                    r.match_index,
                    r.seed,
                    t.winner.value,
                    t.rounds,
                    ";".join(t.flags),
                    ";".join(t.violations),
                ]
            )


def write_transcripts(path, results: list[MatchResult]) -> None:
    """One replayable .jsonl file per match, under the given directory."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    for r in results:
        r.transcript.write(out / f"match-{r.match_index:05d}.jsonl")


def summarize(results: list[MatchResult]) -> dict:
    maker_wins = sum(1 for r in results if r.transcript.winner is Player.MAKER)
    faults = sum(1 for r in results if r.transcript.fault is not None)
    violations = sum(len(r.transcript.violations) for r in results)
    flags: dict[str, int] = {}
    for r in results:
        for f in r.transcript.flags:
            flags[f] = flags.get(f, 0) + 1
    return {
        "matches": len(results),
        "maker_wins": maker_wins,
        "breaker_wins": len(results) - maker_wins,
        "faults": faults,
        "violations": violations,
        "flags": flags,
    }
