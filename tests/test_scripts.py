"""The scripts under ``scripts/`` import mesocast from the outside.  Running
each one with ``--help`` imports everything it names, so these tests fail
when a rename or a deletion in ``src/`` would break a script.  The claims
script also runs end to end at toy size."""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mesocast.data import CorpusSizes

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_found():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_help_exits_0(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(script), "--help"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "usage" in done.stdout


def numbers(value):
    """Every number in a JSON value, booleans excluded."""
    if isinstance(value, dict):
        return [n for v in value.values() for n in numbers(v)]
    if isinstance(value, list):
        return [n for v in value for n in numbers(v)]
    return [value] if isinstance(value, (int, float)) and not isinstance(value, bool) else []


@pytest.fixture()
def claims():
    spec = importlib.util.spec_from_file_location("run_claims", ROOT / "scripts" / "run_claims.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_claims_run_at_toy_size(claims, tmp_path, monkeypatch):
    # the schema and finiteness only: one seed says nothing about a claim's direction
    monkeypatch.setattr(claims, "SEEDS", (0,))
    monkeypatch.setattr(claims, "EPOCHS_PER_STAGE", 1)
    monkeypatch.setattr(claims, "SIZES", CorpusSizes(train_days=1, easy_days=1, hard_windows=2))
    monkeypatch.setattr(claims, "ARCH", dict(s=4, hidden=8, attn_width=4))
    out = tmp_path / "claims.json"
    monkeypatch.setattr(sys, "argv", ["run_claims.py", "--out", str(out)])
    assert claims.main() == 0
    result = json.loads(out.read_text())

    assert set(result) == {"protocol", "host", "persistence", "models", "claims", "seconds"}
    assert result["protocol"]["seeds"] == [0]
    h = claims.HORIZONS
    assert {k: len(v) for k, v in result["persistence"].items()} == {"easy": h, "hard": h}
    assert set(result["models"]) == set(claims.MODELS)
    for record in result["models"].values():
        assert set(record) == {"easy", "hard", "seconds"}
        assert [len(row) for row in record["easy"] + record["hard"]] == [h, h]
        assert len(record["seconds"]) == 1
    assert set(result["claims"]) == set(claims.CLAIMS)
    for name, c in result["claims"].items():
        model, baseline, horizon = claims.CLAIMS[name]
        diff = (result["models"][model]["hard"][0][horizon - 1]
                - result["models"][baseline]["hard"][0][horizon - 1])
        assert c["hard_diff"] == [diff] and c["seeds"] == 1
        assert c["wins"] == (diff < 0) and c["median_diff"] == diff
        assert c["sign_test_p"] == (0.5 if diff < 0 else 1.0)
        assert c["holds"] is False
    assert all(math.isfinite(n) for n in numbers(result))


def test_sign_test_p(claims):
    assert claims.sign_test_p(5, 5) == 1 / 32
    assert claims.sign_test_p(4, 5) == 6 / 32
    assert claims.sign_test_p(0, 5) == 1.0
