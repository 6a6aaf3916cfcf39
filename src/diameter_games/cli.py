"""Command line front end.

Subcommands: solve (exact game value), simulate (seeded experiment from
a JSON config), params (the sizing calculators as JSON reports), verify
(one-sided exhaustive verification), replay (recompute a transcript's
verdict).  Exit codes: 0 success, 1 bad arguments or a failed
check, 2 instance over a solver cap.  LOG_LEVEL selects error, warn,
info, or debug.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys

from .degree_games import mindeg_params
from .diameter2 import D2_BREAKER_EPS, PairingBreaker, d2_breaker_params, d2_maker_params
from .diameter_d import claim2_check, dd_params
from .exact_solver import (
    DEFAULT_EDGE_CAP,
    DEFAULT_MEMO_CAP,
    OverCapError,
    solve,
    verify_family_one_sided,
    verify_one_sided,
)
from .expansion_games import exp_condition
from .game_core import (
    GameError,
    InvalidParameters,
    Player,
    property_from_id,
    read_transcript,
    replay_transcript,
)
from .harness import ExperimentConfig, InvariantViolation, run_experiment, summarize
from .potential_engine import (
    WinningSetFamily,
    box_maker_select,
    esb_breaker_select,
    esb_start_value,
    validate_box_family,
)

log = logging.getLogger("diameter_games.cli")

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad arguments; this front end promises 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _intish(text: str) -> int:
    """Integer argument that tolerates scientific notation like 1e6."""
    try:
        return int(text)
    except ValueError:
        value = float(text)
        if not math.isfinite(value) or value != int(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
        return int(value)


def _emit(payload) -> None:
    if dataclasses.is_dataclass(payload):
        payload = dataclasses.asdict(payload)
    print(json.dumps(payload, sort_keys=True, default=_jsonable))


def _jsonable(obj):
    if isinstance(obj, Player):
        return obj.value
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    raise TypeError(f"not JSON serializable: {obj!r}")


# --- subcommands ------------------------------------------------------------


def cmd_solve(args) -> int:
    result = solve(
        args.n,
        args.a,
        args.b,
        args.d,
        first=Player(args.first),
        use_canonical=not args.plain,
        edge_cap=args.edge_cap,
        memo_cap=args.memo_cap,
    )
    print(result.to_json())
    return 0


def cmd_simulate(args) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    if args.csv:
        cfg.csv_path = args.csv
    if args.transcripts:
        cfg.transcripts_path = args.transcripts
    try:
        results = run_experiment(cfg, workers=args.workers)
    except InvariantViolation as exc:
        log.debug("invariant violation", exc_info=True)
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    summary = summarize(results)
    _emit(summary)
    if cfg.assert_invariants and summary["violations"]:
        return 1
    return 0


def cmd_params(args) -> int:
    if args.calculator == "mindeg":
        _emit(mindeg_params(args.n, args.a, args.b))
    elif args.calculator == "d2-maker":
        _emit(d2_maker_params(args.n, args.b))
    elif args.calculator == "d2-breaker":
        _emit(d2_breaker_params(args.n, args.eps))
    elif args.calculator == "dd":
        _emit(dd_params(args.n, args.d, args.r1_constant))
    elif args.calculator == "exp":
        _emit(exp_condition(args.n, args.r, args.s, args.a, args.b))
    elif args.calculator == "claim2":
        holds = all(
            claim2_check(delta, m)
            for delta in range(2, args.delta_max + 1)
            for m in range(2, args.m_max + 1)
        )
        _emit({"holds": holds, "delta_max": args.delta_max, "m_max": args.m_max})
    else:  # pragma: no cover - argparse restricts choices
        raise InvalidParameters(f"unknown calculator {args.calculator!r}")
    return 0


def cmd_verify(args) -> int:
    if args.target == "pairing":
        ok = verify_one_sided(
            args.n,
            1,
            1,
            2,
            PairingBreaker(),
            Player.BREAKER,
            edge_cap=args.edge_cap,
        )
        _emit({"target": "pairing", "n": args.n, "verified": ok})
    elif args.target == "esb":
        family = WinningSetFamily.from_file(args.family)
        start = esb_start_value(family, args.a, args.b)
        ok = verify_family_one_sided(
            family, args.a, args.b, esb_breaker_select, Player.BREAKER
        )
        _emit(
            {
                "target": "esb",
                "family": str(args.family),
                "start_value": start.value,
                "start_below_one": start.breaker_wins,
                "verified": ok,
            }
        )
    else:
        family = WinningSetFamily.from_file(args.family)
        validate_box_family(family)
        ok = verify_family_one_sided(
            family, args.a, args.b, box_maker_select, Player.MAKER
        )
        _emit(
            {
                "target": "box",
                "family": str(args.family),
                "verified": ok,
            }
        )
    return 0 if ok else 1


def cmd_replay(args) -> int:
    tr = read_transcript(args.transcript)
    _, verdict = replay_transcript(tr, property_from_id(tr.property_id))
    agrees = verdict == tr.verdict
    _emit(
        {
            "transcript": str(args.transcript),
            "recorded_verdict": tr.verdict,
            "replayed_verdict": verdict,
            "winner": tr.winner.value,
            "agrees": agrees,
        }
    )
    return 0 if agrees else 1


# --- parser -----------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="diameter-games", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="exact value of one diameter game")
    p_solve.add_argument("--n", type=_intish, required=True)
    p_solve.add_argument("--a", type=_intish, default=1)
    p_solve.add_argument("--b", type=_intish, default=1)
    p_solve.add_argument("--d", type=_intish, default=2)
    p_solve.add_argument("--first", choices=["maker", "breaker"], default="maker")
    p_solve.add_argument("--plain", action="store_true", help="skip canonicalization")
    p_solve.add_argument("--edge-cap", type=_intish, default=DEFAULT_EDGE_CAP)
    p_solve.add_argument("--memo-cap", type=_intish, default=DEFAULT_MEMO_CAP)
    p_solve.set_defaults(func=cmd_solve)

    p_sim = sub.add_parser("simulate", help="run a seeded experiment config")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--workers", type=_intish, default=None)
    p_sim.add_argument("--csv", default=None, help="override the config's CSV path")
    p_sim.add_argument(
        "--transcripts", default=None, help="override the transcripts directory"
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_par = sub.add_parser("params", help="sizing calculators, JSON out")
    par_sub = p_par.add_subparsers(dest="calculator", required=True)
    q = par_sub.add_parser("mindeg")
    q.add_argument("--n", type=_intish, required=True)
    q.add_argument("--a", type=_intish, default=1)
    q.add_argument("--b", type=_intish, default=1)
    q = par_sub.add_parser("d2-maker")
    q.add_argument("--n", type=_intish, required=True)
    q.add_argument("--b", type=float, default=None)
    q = par_sub.add_parser("d2-breaker")
    q.add_argument("--n", type=_intish, required=True)
    q.add_argument("--eps", type=float, default=D2_BREAKER_EPS)
    q = par_sub.add_parser("dd")
    q.add_argument("--n", type=_intish, required=True)
    q.add_argument("--d", type=_intish, required=True)
    q.add_argument("--r1-constant", type=float, default=6.0)
    q = par_sub.add_parser("exp")
    q.add_argument("--n", type=_intish, required=True)
    q.add_argument("--r", type=_intish, required=True)
    q.add_argument("--s", type=_intish, required=True)
    q.add_argument("--a", type=_intish, default=1)
    q.add_argument("--b", type=_intish, default=1)
    q = par_sub.add_parser("claim2")
    q.add_argument("--delta-max", type=_intish, default=10)
    q.add_argument("--m-max", type=_intish, default=20)
    p_par.set_defaults(func=cmd_params)

    p_ver = sub.add_parser("verify", help="one-sided exhaustive verification")
    ver_sub = p_ver.add_subparsers(dest="target", required=True)
    q = ver_sub.add_parser("pairing")
    q.add_argument("--n", type=_intish, required=True)
    q.add_argument("--edge-cap", type=_intish, default=DEFAULT_EDGE_CAP)
    q = ver_sub.add_parser("esb")
    q.add_argument("--family", required=True)
    q.add_argument("--a", type=_intish, default=1)
    q.add_argument("--b", type=_intish, default=1)
    q = ver_sub.add_parser("box")
    q.add_argument("--family", required=True)
    q.add_argument("--a", type=_intish, default=1)
    q.add_argument("--b", type=_intish, default=1)
    p_ver.set_defaults(func=cmd_verify)

    p_rep = sub.add_parser("replay", help="recompute a transcript's verdict")
    p_rep.add_argument("transcript")
    p_rep.set_defaults(func=cmd_replay)

    return parser


def main(argv=None) -> int:
    level_name = os.environ.get("LOG_LEVEL", "warn").lower()
    logging.basicConfig(
        level=_LOG_LEVELS.get(level_name, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OverCapError as exc:
        log.debug("over cap", exc_info=True)
        print(f"over cap: {exc}", file=sys.stderr)
        return 2
    except (InvalidParameters, GameError, FileNotFoundError, json.JSONDecodeError) as exc:
        log.debug("error", exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
