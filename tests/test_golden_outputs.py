"""Seeded runs of the shipped configs stay byte-identical.

`golden_digests.json` holds, per `configs/*.json`, the sha256 of the
serial run's CSV, of its `summarize` JSON as `diameter-games simulate`
prints it, and of its transcripts concatenated in match order.  Regenerate
it only for a change that is meant to alter outputs:

    PYTHONPATH=src python tests/test_golden_outputs.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from diameter_games import ExperimentConfig, run_experiment
from diameter_games.harness import summarize, write_csv

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden_digests.json"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(config: Path, scratch: Path) -> dict[str, str]:
    cfg = ExperimentConfig.from_file(config)
    cfg.csv_path = cfg.transcripts_path = None
    results = run_experiment(cfg, workers=None)
    csv_path = scratch / f"{config.stem}.csv"
    write_csv(csv_path, results)
    return {
        "csv": _sha(csv_path.read_text()),
        "summary": _sha(json.dumps(summarize(results), sort_keys=True)),
        "transcripts": _sha("".join(r.transcript.to_jsonl() for r in results)),
    }


def _configs() -> list[str]:
    return sorted(p.name for p in CONFIG_DIR.glob("*.json"))


def test_every_config_has_digests():
    assert sorted(json.loads(GOLDEN.read_text())) == _configs()


@pytest.mark.parametrize("config", _configs())
def test_config_outputs_match_golden_digests(config, tmp_path):
    assert digests(CONFIG_DIR / config, tmp_path) == json.loads(GOLDEN.read_text())[config]


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        table = {name: digests(CONFIG_DIR / name, Path(tmp)) for name in _configs()}
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
