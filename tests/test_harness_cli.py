"""Experiment harness and the command line entry point."""

import csv
import json
import random
from pathlib import Path

import pytest

from diameter_games import (
    CSV_COLUMNS,
    ExperimentConfig,
    InvalidParameters,
    Player,
    STRATEGY_IDS,
    d2_breaker_params,
    dd_breaker_a1_biases,
    dd_breaker_a2_bias,
    make_strategy,
    match_seed,
    run_experiment,
    summarize,
    write_csv,
    write_transcripts,
)
from diameter_games.cli import main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


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


class TestMakeStrategy:
    def test_every_registered_id_constructs(self):
        for sid in STRATEGY_IDS:
            cfg = ExperimentConfig.from_json(
                dict(
                    name="ctor", n=40, a=2 if sid == "dd-breaker-a2" else 1,
                    b=None if sid in ("d2-breaker", "dd-breaker-a1", "dd-breaker-a2") else 3,
                    d=3 if sid.startswith("dd") else 2,
                    maker=sid if "breaker" not in sid else "random",
                    breaker=sid if "breaker" in sid else "lowest-edge",
                    seeds=[0],
                    maker_options={"r_sizes": [1, 3]} if sid == "dd-maker" else {},
                )
            )
            opts = cfg.maker_options if "breaker" not in sid else cfg.breaker_options
            s = make_strategy(sid, cfg, random.Random(0), opts)
            assert s.name == sid

    def test_parameterless_ids_reject_options(self):
        cfg = small_config()
        with pytest.raises((InvalidParameters, TypeError)):
            make_strategy("pairing-breaker", cfg, random.Random(0), {"x": 1})


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

    def test_verify_pairing(self, capsys):
        assert main(["verify", "pairing", "--n", "5"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["verified"] is True

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

    def test_missing_config_file_exits_one(self):
        assert main(["simulate", "--config", "/nonexistent/cfg.json"]) == 1
