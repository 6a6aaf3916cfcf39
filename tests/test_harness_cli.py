"""Experiment harness and the command line entry point."""

import csv
import inspect
import json
import logging
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from diameter_games import ExperimentConfig, Player, run_experiment
from diameter_games import cli, harness
from diameter_games.cli import main
from diameter_games.diameter2 import d2_breaker_params
from diameter_games.diameter_d import dd_breaker_a1_biases, dd_breaker_a2_bias
from diameter_games.exact_solver import OverCapError
from diameter_games.game_core import InvalidParameters, apply_claim, new_game
from diameter_games.harness import (
    CSV_COLUMNS,
    STRATEGY_IDS,
    InvariantViolation,
    make_strategy,
    match_seed,
    summarize,
    write_csv,
    write_transcripts,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
TRANSCRIPT_DIR = CONFIG_DIR.parent / "transcripts"


def _shipped_by_config() -> dict[str, list[Path]]:
    """Shipped transcripts grouped by the config whose name they carry:
    `<name>-<match index:03d>.jsonl`."""
    names = {ExperimentConfig.from_file(p).name: p.name for p in sorted(CONFIG_DIR.glob("*.json"))}
    groups: dict[str, list[Path]] = {}
    for path in sorted(TRANSCRIPT_DIR.glob("*.jsonl")):
        name = path.stem.rsplit("-", 1)[0]
        groups.setdefault(names.get(name, f"<no config named {name}>"), []).append(path)
    return groups


_SHIPPED = _shipped_by_config()


def small_config(**overrides) -> ExperimentConfig:
    base = dict(
        name="unit-small",
        n=6,
        a=1,
        b=1,
        maker="random",
        breaker="lowest-edge",
        seeds=[0, 1],
        repetitions=2,
    )
    base.update(overrides)
    return ExperimentConfig.from_json(base)


class TestConfig:
    def test_rejects_unknown_keys(self):
        with pytest.raises(InvalidParameters):
            ExperimentConfig.from_json(
                {"name": "x", "n": 6, "maker": "random", "breaker": "random",
                 "seeds": [0], "bogus": 1}
            )

    def test_rejects_missing_required(self):
        with pytest.raises(InvalidParameters):
            ExperimentConfig.from_json({"name": "x", "n": 6, "maker": "random"})

    def test_rejects_unknown_strategy(self):
        with pytest.raises(InvalidParameters):
            small_config(maker="does-not-exist")

    def test_stochastic_needs_seeds(self):
        with pytest.raises(InvalidParameters):
            small_config(maker="random", seeds=[])

    def test_deterministic_pair_defaults_seeds(self):
        cfg = small_config(maker="lowest-edge", breaker="degree-greedy", seeds=[])
        assert cfg.seeds == [0]

    def test_rejects_bad_first(self):
        with pytest.raises(InvalidParameters):
            small_config(first="either")

    def test_property_defaults_to_diameter(self):
        cfg = small_config(d=3)
        assert cfg.resolved_property_id() == "diameter<=3"

    def test_explicit_property_wins(self):
        cfg = small_config(property_id="mindeg>2")
        assert cfg.resolved_property_id() == "mindeg>2"

    def test_rejects_dd_maker_default_schedule_on_small_board(self, tmp_path):
        """dd_params(60, 3) schedules ball sizes [1, -36].  The config used
        to validate and the first match then raised "ball sizes must not
        shrink"; validation now runs the constructor's own schedule check."""
        path = tmp_path / "dd.json"
        path.write_text(json.dumps(
            {"name": "dd", "n": 60, "a": 1, "b": 2, "d": 3, "maker": "dd-maker", "breaker": "random"}
        ))
        with pytest.raises(InvalidParameters, match="must not shrink"):
            ExperimentConfig.from_file(path)

    @pytest.mark.parametrize("key,value", [
        ("n", "10"), ("n", 10.5), ("n", True), ("a", 1.0), ("b", "2"), ("b", False),
        ("repetitions", 2.5), ("maker", ["random"]), ("breaker", ["lowest-edge"]),
        ("property_id", 5), ("d", -1), ("d", 0), ("d", "2"), ("seeds", [0, True]),
        ("early_stop", "false"), ("early_stop", 0), ("assert_invariants", "no"),
        ("csv_path", 7), ("transcripts_path", ["out"]),
    ])
    def test_rejects_bad_field(self, key, value, tmp_path, capsys):
        """Wrong types used to raise TypeError, d <= 0 used to validate and
        then target diameter <= d, and the string "false" used to turn early
        stop on."""
        with pytest.raises(InvalidParameters, match=key):
            small_config(**{key: value})
        path = tmp_path / "cfg.json"
        config = dict(name="bad-int", n=5, a=1, b=1, maker="random", breaker="lowest-edge")
        path.write_text(json.dumps({**config, key: value}))
        assert main(["simulate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    def test_accepts_unset_b(self):
        cfg = small_config(b=None, breaker="d2-breaker", n=100)
        assert cfg.b is None and cfg.effective_b() == 10

    def test_rejects_bad_dd_maker_schedule_option(self):
        with pytest.raises(InvalidParameters, match="stay below n"):
            small_config(maker="dd-maker", d=3, maker_options={"r_sizes": [1, 6]})


class TestEffectiveB:
    def test_explicit_b_passes_through(self):
        assert small_config(b=7).effective_b() == 7

    def test_d2_breaker_derives_bias(self):
        cfg = small_config(n=100, b=None, breaker="d2-breaker")
        assert cfg.effective_b() == d2_breaker_params(100, 0.1).b == 10

    def test_dd_breaker_a1_derives_bias(self):
        cfg = small_config(n=400, d=3, b=None, breaker="dd-breaker-a1")
        assert cfg.effective_b() == dd_breaker_a1_biases(400, 3)[0] == 139

    def test_dd_breaker_a2_derives_bias(self):
        cfg = small_config(n=40, d=3, b=None, breaker="dd-breaker-a2")
        assert cfg.effective_b() == dd_breaker_a2_bias(40, 3) == 47

    def test_underivable_bias_rejected(self):
        with pytest.raises(InvalidParameters):
            small_config(b=None, breaker="lowest-edge")


class TestMatchSeed:
    def test_frozen_values(self):
        assert match_seed(0, 0) == 6130494115091502932
        assert match_seed(7, 3) == 7295413478194132926

    def test_distinct_across_reps(self):
        seen = {match_seed(s, r) for s in range(5) for r in range(5)}
        assert len(seen) == 25


def _ctor_config(sid: str, **options) -> dict:
    """A config that plays `sid` on a board it accepts, with `options` added to its options."""
    side = "breaker" if "breaker" in sid else "maker"
    base = {"r_sizes": [1, 3]} if sid == "dd-maker" else {}
    return dict(
        name="ctor", n=40, a=2 if sid == "dd-breaker-a2" else 1,
        b=None if sid in ("d2-breaker", "dd-breaker-a1", "dd-breaker-a2") else 3,
        d=3 if sid.startswith("dd") else 2,
        maker=sid if side == "maker" else "random",
        breaker=sid if side == "breaker" else "lowest-edge",
        seeds=[0],
        **{f"{side}_options": {**base, **options}},
    )


def _accepted_options(sid: str) -> set[str]:
    """The constructor parameters a config may set for `sid`: each one is
    offered alone, at its default (3 when it has none), on top of
    _ctor_config's options."""
    cfg = ExperimentConfig.from_json(_ctor_config(sid))
    opts = cfg.breaker_options if "breaker" in sid else cfg.maker_options
    cls = type(make_strategy(sid, cfg, random.Random(0), opts))
    accepted = set()
    for name, param in inspect.signature(cls).parameters.items():
        value = opts.get(name, 3 if param.default is param.empty else param.default)
        try:
            ExperimentConfig.from_json(_ctor_config(sid, **{name: value}))
        except InvalidParameters:
            continue
        accepted.add(name)
    return accepted


class TestMakeStrategy:
    def test_every_registered_id_constructs(self):
        for sid in STRATEGY_IDS:
            cfg = ExperimentConfig.from_json(_ctor_config(sid))
            opts = cfg.maker_options if "breaker" not in sid else cfg.breaker_options
            s = make_strategy(sid, cfg, random.Random(0), opts)
            assert s.name == sid

    def test_only_two_options_are_settable(self):
        settable = {"dd-maker": {"r_sizes"}, "dd-breaker-a1": {"b1"}}
        for sid in STRATEGY_IDS:
            assert _accepted_options(sid) == settable.get(sid, set()), sid

    def test_parameterless_ids_reject_options(self):
        cfg = small_config()
        with pytest.raises((InvalidParameters, TypeError)):
            make_strategy("pairing-breaker", cfg, random.Random(0), {"x": 1})
        with pytest.raises(InvalidParameters):
            small_config(breaker="lowest-edge", breaker_options={"x": 1})

    @pytest.mark.parametrize(
        "option", ["no_such_option", "name", "role", "family_cap", "multiplier", "eps", "d"]
    )
    @pytest.mark.parametrize("sid", STRATEGY_IDS)
    def test_config_rejects_unknown_option_for_every_id(self, sid, option):
        ExperimentConfig.from_json(_ctor_config(sid))
        with pytest.raises(InvalidParameters):
            ExperimentConfig.from_json(_ctor_config(sid, **{option: 1}))

    def test_cli_reports_bad_option_without_traceback(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(
            name="bad-option", n=5, a=1, b=1, maker="random",
            breaker="lowest-edge", breaker_options={"x": 1},
        )))
        assert main(["simulate", "--config", str(path)]) == 1
        assert "Traceback" not in capsys.readouterr().err


class TestShippedTranscripts:
    def test_every_transcript_has_a_config(self):
        assert _SHIPPED and all(name.endswith(".json") for name in _SHIPPED)

    @pytest.mark.parametrize("config", sorted(_SHIPPED))
    def test_config_regenerates_transcripts_byte_for_byte(self, config):
        results = run_experiment(ExperimentConfig.from_file(CONFIG_DIR / config))
        for path in _SHIPPED[config]:
            index = int(path.stem.rsplit("-", 1)[1])
            assert results[index].transcript.to_jsonl() == path.read_text(), path.name


class TestRunExperiment:
    def test_match_count_and_order(self):
        cfg = small_config()
        results = run_experiment(cfg)
        assert [r.match_index for r in results] == list(range(4))
        assert results[0].seed == match_seed(0, 0)
        assert results[1].seed == match_seed(0, 1)
        assert results[2].seed == match_seed(1, 0)

    def test_serial_and_parallel_agree(self):
        cfg = small_config()
        serial = run_experiment(cfg, workers=None)
        parallel = run_experiment(cfg, workers=2)
        assert [r.transcript.to_jsonl() for r in serial] == [
            r.transcript.to_jsonl() for r in parallel
        ]

    def test_reruns_are_byte_identical(self):
        cfg = small_config()
        one = [r.transcript.to_jsonl() for r in run_experiment(cfg)]
        two = [r.transcript.to_jsonl() for r in run_experiment(cfg)]
        assert one == two

    def test_summary_counts(self):
        results = run_experiment(small_config())
        s = summarize(results)
        assert s["matches"] == 4
        assert s["maker_wins"] + s["breaker_wins"] == 4
        assert s["faults"] == 0

    def test_invariant_observer_clean_on_healthy_run(self):
        cfg = small_config(assert_invariants=True)
        results = run_experiment(cfg)
        assert summarize(results)["violations"] == 0

    @pytest.mark.parametrize("first", ["maker", "breaker"])
    @pytest.mark.parametrize("breaker", ["flooding-breaker", "random"])
    def test_mindeg_potential_clean_whoever_opens(self, first, breaker):
        """The degree-game potential cannot rise over a Maker-then-Breaker
        round.  With Breaker first, sampling at run_match round ends (after
        Maker turns) reported 25 false increases against flooding-breaker
        and 4 against random on these games."""
        cfg = small_config(
            n=60,
            a=2,
            b=1,
            maker="mindeg-maker",
            breaker=breaker,
            seeds=[0, 1, 2, 3, 4],
            repetitions=1,
            property_id="mindeg>0",
            early_stop=False,
            assert_invariants=True,
            first=first,
        )
        results = run_experiment(cfg)
        assert [r.transcript.violations for r in results] == [[]] * 5


class TestObserverCatchesCorruption:
    """The round observer raises on a corrupted board, whether the corruption
    came in the latest round or before its first call."""

    def _played(self):
        cfg = small_config(n=6, assert_invariants=True)
        observe = harness._make_observer(cfg, None, [])
        state = new_game(6, 1, 1)
        apply_claim(state, Player.MAKER, [(0, 1)])
        apply_claim(state, Player.BREAKER, [(0, 2)])
        return observe, state

    def _double_own(self, state):
        # Breaker "claims" Maker's (0, 1): its mask takes the edge, the log
        # records the claim and the open count drops, so the counts still add up.
        breaker = state.closed(Player.BREAKER)
        breaker[0] |= 1 << 1
        breaker[1] |= 1 << 0
        state.move_log.append((Player.BREAKER, (0, 1)))
        state._open -= 1

    def test_edge_owned_by_both_in_the_latest_round(self):
        observe, state = self._played()
        observe(state)
        self._double_own(state)
        with pytest.raises(harness.InvariantViolation, match="owned by both"):
            observe(state)

    def test_edge_owned_by_both_before_the_first_round(self):
        observe, state = self._played()
        self._double_own(state)
        apply_claim(state, Player.MAKER, [(1, 2)])
        with pytest.raises(harness.InvariantViolation, match="owned by both"):
            observe(state)

    def test_ownership_count_drifted(self):
        observe, state = self._played()
        observe(state)
        state._open -= 1  # an open edge vanished from the count
        with pytest.raises(harness.InvariantViolation, match="drifted"):
            observe(state)

    def test_claim_missing_from_the_log_drifted(self):
        observe, state = self._played()
        observe(state)
        state.move_log.pop()  # Breaker's (0, 2) stays in its mask and out of the count
        with pytest.raises(harness.InvariantViolation, match="drifted"):
            observe(state)


class TestOutputs:
    def test_csv_layout(self, tmp_path):
        results = run_experiment(small_config())
        path = tmp_path / "out.csv"
        write_csv(path, results)
        rows = list(csv.reader(path.open()))
        assert rows[0] == CSV_COLUMNS
        assert len(rows) == 5
        assert rows[1][0] == "0"
        assert rows[1][2] in ("maker", "breaker")

    def test_csv_is_deterministic(self, tmp_path):
        cfg = small_config()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(a, run_experiment(cfg))
        write_csv(b, run_experiment(cfg))
        assert a.read_bytes() == b.read_bytes()

    def test_transcript_directory(self, tmp_path):
        results = run_experiment(small_config())
        out = tmp_path / "matches"
        write_transcripts(out, results)
        files = sorted(p.name for p in out.iterdir())
        assert files == [f"match-{i:05d}.jsonl" for i in range(4)]


class TestShippedConfigs:
    def test_all_parse_and_validate(self):
        paths = sorted(CONFIG_DIR.glob("*.json"))
        assert paths, "configs directory must not be empty"
        for p in paths:
            ExperimentConfig.from_file(p)

    def test_registry_fully_covered(self):
        """Every registered strategy id appears in some shipped config."""
        used: set[str] = set()
        for p in CONFIG_DIR.glob("*.json"):
            cfg = ExperimentConfig.from_file(p)
            used.add(cfg.maker)
            used.add(cfg.breaker)
        assert used == set(STRATEGY_IDS)


class TestCli:
    def test_solve_exit_codes(self, capsys):
        assert main(["solve", "--n", "4", "--a", "1", "--b", "1", "--d", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["winner"] == "breaker"
        assert main(["solve", "--n", "12", "--a", "1", "--b", "1", "--d", "2"]) == 2
        assert main(["solve", "--n", "1", "--a", "1", "--b", "1", "--d", "2"]) == 1

    def test_error_exits_log_their_traceback_at_debug(self, tmp_path, capsys, caplog, monkeypatch):
        """Over cap, error and invariant violation each log the exception at debug level."""
        caplog.set_level(logging.DEBUG, logger="diameter_games.cli")
        assert main(["solve", "--n", "12"]) == 2
        assert main(["solve", "--n", "1"]) == 1

        def violate(cfg, workers):
            raise InvariantViolation("edge (0, 1) owned by both")

        monkeypatch.setattr(cli, "run_experiment", violate)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(name="violation", n=4, a=1, b=1, maker="lowest-edge", breaker="lowest-edge")))
        assert main(["simulate", "--config", str(path)]) == 1
        records = [r for r in caplog.records if r.name == "diameter_games.cli"]
        assert [(r.levelno, r.getMessage()) for r in records] == [
            (logging.DEBUG, "over cap"),
            (logging.DEBUG, "error"),
            (logging.DEBUG, "invariant violation"),
        ]
        kinds = [type(r.exc_info[1]) for r in records]
        assert kinds == [OverCapError, InvalidParameters, InvariantViolation]
        assert capsys.readouterr().err.splitlines() == [
            "over cap: solve capped at 21 edges, K_12 has 66",
            "error: bad game parameters n=1, a=1, b=1, d=2",
            "invariant violation: edge (0, 1) owned by both",
        ]

    @pytest.mark.parametrize("level,traceback", [(None, False), ("debug", True)])
    def test_over_cap_stderr_by_log_level(self, level, traceback):
        """At the default level stderr is the one message line; LOG_LEVEL=debug adds the traceback."""
        env = {k: v for k, v in os.environ.items() if k != "LOG_LEVEL"}
        if level is not None:
            env["LOG_LEVEL"] = level
        src = str(Path(cli.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "diameter_games.cli", "solve", "--n", "12"],
            capture_output=True, text=True, env=env, check=False,
        )
        assert proc.returncode == 2
        message = "over cap: solve capped at 21 edges, K_12 has 66\n"
        if traceback:
            assert proc.stderr.startswith("DEBUG diameter_games.cli: over cap\nTraceback")
            assert proc.stderr.endswith(message)
        else:
            assert proc.stderr == message

    def test_missing_argument_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--a", "1"])
        assert exc.value.code == 1

    def test_unknown_subcommand_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_params_mindeg_emits_json(self, capsys):
        assert main(["params", "mindeg", "--n", "100", "--a", "1", "--b", "1"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["n"] == 100
        assert blob["non_vacuous"] is True

    def test_params_accepts_scientific_n(self, capsys):
        assert main(["params", "d2-maker", "--n", "1e6"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["n"] == 10**6
        assert blob["cond3a_ok"] is False

    def test_infinite_n_is_a_usage_error(self, capsys):
        """1e400 parses to inf, and int(inf) raised OverflowError, which
        argparse does not turn into a usage error."""
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--n", "1e400"])
        assert exc.value.code == 1
        assert "is not an integer" in capsys.readouterr().err

    def test_verify_pairing(self, capsys):
        assert main(["verify", "pairing", "--n", "5"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["verified"] is True

    @pytest.mark.parametrize("n", ["-3", "0", "1"])
    def test_verify_pairing_rejects_a_board_below_two_vertices(self, n, capsys):
        """--n -3 used to end in a raw ValueError traceback, and 0 and 1 in "verified": false."""
        assert main(["verify", "pairing", "--n", n]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: need at least 2 vertices, got n={n}\n"

    @pytest.mark.parametrize("target", ["box", "esb"])
    @pytest.mark.parametrize("bias", [["--b", "0"], ["--a", "0"], ["--b", "-1"]])
    def test_verify_family_rejects_a_bias_below_one(self, target, bias, tmp_path, capsys):
        """verify box --b 0 used to print "verified": true."""
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"universe_size": 4, "sets": [[0, 1], [2, 3]]}))
        assert main(["verify", target, "--family", str(path), *bias]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: biases must be positive")

    @pytest.mark.parametrize("target", ["box", "esb"])
    @pytest.mark.parametrize("blob", [
        {"universe_size": 3},
        {"universe_size": 3, "sets": [["a"]]},
        {"universe_size": "3", "sets": [[0, 1]]},
        {"universe_size": 3, "sets": 5},
        [[0, 1]],
        {"universe_size": 3, "sets": [[1.5, 2]]},
        {"universe_size": True, "sets": [[0]]},
        {"universe_size": 3, "sets": [[True, 2]]},
        {"universe_size": 3, "sets": [[[1], 2]]},
    ], ids=["no-sets", "string-position", "string-universe", "int-sets", "top-level-list", "float-position",
            "bool-universe", "bool-position", "nested-position"])
    def test_malformed_family_is_a_usage_error(self, target, blob, tmp_path, capsys):
        """The first five used to end verify in a KeyError or TypeError
        traceback; a float position passed validation, then the verifier's
        shift raised TypeError."""
        path = tmp_path / "family.json"
        path.write_text(json.dumps(blob))
        assert main(["verify", target, "--family", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "Traceback" not in captured.err

    def test_simulate_runs_config(self, tmp_path, capsys):
        cfg = dict(
            name="cli-smoke",
            n=6,
            a=1,
            b=1,
            maker="random",
            breaker="lowest-edge",
            seeds=[0],
            repetitions=1,
        )
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path)]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["matches"] == 1

    def test_simulate_writes_outputs(self, tmp_path, capsys):
        cfg = dict(
            name="cli-out",
            n=6,
            a=1,
            b=1,
            maker="random",
            breaker="lowest-edge",
            seeds=[0, 1],
        )
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        csv_out = tmp_path / "results.csv"
        tr_out = tmp_path / "transcripts"
        assert (
            main(
                [
                    "simulate",
                    "--config",
                    str(path),
                    "--csv",
                    str(csv_out),
                    "--transcripts",
                    str(tr_out),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert csv_out.exists()
        assert sorted(tr_out.glob("*.jsonl"))

    def test_replay_agreement(self, tmp_path, capsys):
        cfg = dict(
            name="cli-replay", n=6, a=1, b=1,
            maker="random", breaker="lowest-edge", seeds=[3],
        )
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        tr_out = tmp_path / "transcripts"
        main(["simulate", "--config", str(path), "--transcripts", str(tr_out)])
        capsys.readouterr()
        transcript = next(tr_out.glob("*.jsonl"))
        assert main(["replay", str(transcript)]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["agrees"] is True

    def test_replay_detects_tampering(self, tmp_path, capsys):
        cfg = dict(
            name="cli-tamper", n=5, a=1, b=1,
            maker="random", breaker="lowest-edge", seeds=[2],
        )
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        tr_out = tmp_path / "transcripts"
        main(["simulate", "--config", str(path), "--transcripts", str(tr_out)])
        capsys.readouterr()
        transcript = next(tr_out.glob("*.jsonl"))
        lines = transcript.read_text().strip().splitlines()
        footer = json.loads(lines[-1])
        footer["verdict"] = not footer["verdict"]
        footer["winner"] = "maker" if footer["winner"] == "breaker" else "breaker"
        lines[-1] = json.dumps(footer)
        transcript.write_text("\n".join(lines) + "\n")
        assert main(["replay", str(transcript)]) == 1

    @pytest.mark.parametrize("line,tamper", [
        (1, lambda rec: {k: v for k, v in rec.items() if k != "edges"}),
        (0, lambda rec: {k: v for k, v in rec.items() if k != "a"}),
        (1, lambda rec: [rec]),
        (1, lambda rec: {**rec, "player": "x"}),
        (1, lambda rec: {**rec, "edges": [[0]]}),
    ], ids=["claim-without-edges", "header-without-a", "list-line", "bad-player", "one-ended-edge"])
    def test_malformed_transcript_is_a_usage_error(self, line, tamper, tmp_path, capsys):
        """These used to end replay in a KeyError, AttributeError, ValueError
        or TypeError traceback."""
        text = run_experiment(small_config(n=5, seeds=[2], repetitions=1))[0].transcript.to_jsonl()
        records = [json.loads(rec) for rec in text.splitlines()]
        records[line] = tamper(records[line])
        path = tmp_path / "bad.jsonl"
        path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        assert main(["replay", str(path)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    def test_missing_config_file_exits_one(self):
        assert main(["simulate", "--config", "/nonexistent/cfg.json"]) == 1

    @pytest.mark.parametrize("pid", ["diameter<=x", "mindeg>", "diameter<=2<=3", "diameter<=-3"])
    def test_bad_property_id_is_a_usage_error(self, pid, tmp_path, capsys):
        """The first two used to end simulate in a ValueError traceback; the
        last two validated, then played for diameter <= 2 and diameter <= -3."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(
            name="bad-property", n=5, a=1, b=1, maker="random", breaker="lowest-edge", property_id=pid,
        )))
        assert main(["simulate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and f"unknown property id {pid!r}" in err
