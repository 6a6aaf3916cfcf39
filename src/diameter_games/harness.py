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
import json
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .degree_games import (
    DegreeWeightState,
    FloodingBreaker,
    MinDegStrategy,
)
from .diameter2 import (
    D2Breaker,
    D2Maker,
    D2SimpleMaker,
    PairingBreaker,
    d2_breaker_params,
)
from .diameter_d import DdBreakerA1, DdBreakerA2, DdMaker, dd_breaker_a1_biases, dd_breaker_a2_bias
from .game_core import (
    InvalidParameters,
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

STRATEGY_IDS = (
    "random",
    "lowest-edge",
    "degree-greedy",
    "path-greedy",
    "esb-degree-breaker",
    "mindeg-maker",
    "flooding-breaker",
    "pairing-breaker",
    "d2-simple-maker",
    "d2-maker",
    "d2-breaker",
    "dd-maker",
    "dd-breaker-a1",
    "dd-breaker-a2",
)

_STOCHASTIC_IDS = ("random",)

_CONFIG_KEYS = {
    "name",
    "n",
    "a",
    "b",
    "d",
    "maker",
    "breaker",
    "seeds",
    "repetitions",
    "property_id",
    "early_stop",
    "max_rounds",
    "csv_path",
    "transcripts_path",
    "assert_invariants",
    "maker_options",
    "breaker_options",
    "first",
}


class InvariantViolation(AssertionError):
    """A board-state assertion failed during an instrumented run."""


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
        unknown = set(data) - _CONFIG_KEYS
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
        if self.maker not in STRATEGY_IDS:
            raise InvalidParameters(f"unknown maker id {self.maker!r}")
        if self.breaker not in STRATEGY_IDS:
            raise InvalidParameters(f"unknown breaker id {self.breaker!r}")
        if self.n < 2:
            raise InvalidParameters(f"need n >= 2, got {self.n}")
        if self.a < 1:
            raise InvalidParameters(f"need a >= 1, got {self.a}")
        if self.b is not None and self.b < 1:
            raise InvalidParameters(f"need b >= 1, got {self.b}")
        if self.repetitions < 1:
            raise InvalidParameters("need repetitions >= 1")
        if not isinstance(self.seeds, list) or not all(
            isinstance(s, int) for s in self.seeds
        ):
            raise InvalidParameters("seeds must be a list of integers")
        stochastic = self.maker in _STOCHASTIC_IDS or self.breaker in _STOCHASTIC_IDS
        if stochastic and not self.seeds:
            raise InvalidParameters("stochastic strategies need a non-empty seed list")
        if not self.seeds:
            self.seeds = [0]
        if self.first not in ("maker", "breaker"):
            raise InvalidParameters(f"first must be maker or breaker, got {self.first!r}")
        property_from_id(self.resolved_property_id())
        self.effective_b()

    def resolved_property_id(self) -> str:
        return self.property_id or f"diameter<={self.d}"

    def effective_b(self) -> int:
        """The Breaker bias, deriving it from the breaker id when unset."""
        if self.b is not None:
            return self.b
        if self.breaker == "d2-breaker":
            eps = self.breaker_options.get("eps", 0.1)
            return d2_breaker_params(self.n, eps).b
        if self.breaker == "dd-breaker-a1":
            mult = self.breaker_options.get("multiplier", 4.0)
            return dd_breaker_a1_biases(self.n, self.d, mult)[0]
        if self.breaker == "dd-breaker-a2":
            return dd_breaker_a2_bias(self.n, self.d)
        raise InvalidParameters(
            f"b must be given; {self.breaker!r} has no bias formula"
        )


@dataclass
class MatchResult:
    match_index: int
    seed: int
    transcript: Transcript


def match_seed(experiment_seed: int, repetition: int) -> int:
    """Fixed splitting rule from (experiment seed, repetition) to one match."""
    digest = hashlib.sha256(f"{experiment_seed}/{repetition}".encode()).hexdigest()
    return int(digest[:16], 16)


def make_strategy(strategy_id: str, cfg: ExperimentConfig, rng: random.Random, options: dict | None = None):
    """Build one registered strategy for the given experiment.

    Options are constructor keyword arguments; ids without parameters
    reject any (a loud config typo beats a silent one).
    """
    opts = dict(options or {})
    if strategy_id == "random":
        return RandomStrategy(rng, **opts)
    if strategy_id == "lowest-edge":
        return LowestEdgeStrategy(**opts)
    if strategy_id == "degree-greedy":
        return DegreeGreedyStrategy(**opts)
    if strategy_id == "path-greedy":
        return PathGreedyStrategy(opts.pop("d", cfg.d), **opts)
    if strategy_id == "esb-degree-breaker":
        return EsbDegreeBreaker(**opts)
    if strategy_id == "mindeg-maker":
        return MinDegStrategy(cfg.n, cfg.a, cfg.effective_b(), **opts)
    if strategy_id == "flooding-breaker":
        return FloodingBreaker(**opts)
    if strategy_id == "pairing-breaker":
        if opts:
            raise InvalidParameters("pairing-breaker takes no options")
        return PairingBreaker()
    if strategy_id == "d2-simple-maker":
        return D2SimpleMaker(cfg.n, cfg.a, cfg.effective_b(), **opts)
    if strategy_id == "d2-maker":
        return D2Maker(cfg.n, cfg.effective_b(), **opts)
    if strategy_id == "d2-breaker":
        return D2Breaker(cfg.n, **opts)
    if strategy_id == "dd-maker":
        return DdMaker(cfg.n, cfg.d, cfg.effective_b(), **opts)
    if strategy_id == "dd-breaker-a1":
        return DdBreakerA1(cfg.n, cfg.d, **opts)
    if strategy_id == "dd-breaker-a2":
        return DdBreakerA2(cfg.n, cfg.d, **opts)
    raise InvalidParameters(f"unknown strategy id {strategy_id!r}")


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
        tracker = DegreeWeightState(maker.params, maker.role)
    prev: list[float | None] = [None]
    synced = [0]

    def observe(state) -> None:
        onboard = (
            len(state.maker_edges) + len(state.breaker_edges) + len(state.unclaimed)
        )
        if onboard != total:
            raise InvariantViolation(
                f"ownership counts drifted: {onboard} != {total}"
            )
        if len(state.move_log) and (state.maker_edges & state.breaker_edges):
            raise InvariantViolation("an edge is owned by both players")
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

    workers > 1 fans matches out to a process pool; ordering and seeds
    are identical either way.  Output files are written at the end when
    the config names paths.
    """
    cfg.validate()
    jobs: list[tuple[int, int]] = []
    index = 0
    for s in cfg.seeds:
        for rep in range(cfg.repetitions):
            jobs.append((index, match_seed(s, rep)))
            index += 1
    if workers is not None and workers > 1:
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
