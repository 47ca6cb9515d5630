"""Smoke test of the benchmark at tiny sizes (about a minute; not in tier-1).

    python -m pytest -q benchmarks

Every declared metric is reported with its unit, every per-layer metric
moves on some workload, a deliberately wrong oracle value counts as a
failed command, and without the rydlab sources the benchmark exits non-zero
without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def bench(capsys, name: str, trace: int) -> tuple[int, dict]:
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--size", "tiny"])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", workloads.NAMES)
def test_end_to_end_metrics(capsys, name):
    code, result = bench(capsys, name, 0)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.SETUP_RUNS + 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_per_layer_metrics(capsys):
    moved = set()
    for name in workloads.NAMES:
        code, result = bench(capsys, name, 1)
        assert code == 0 and result["correct"], name
        assert {k: v["unit"] for k, v in result["metrics"].items()} == run.PER_LAYER
        moved |= {k for k, v in result["metrics"].items() if v["value"] != 0}
    assert moved == set(run.PER_LAYER)


@pytest.mark.parametrize("name, oracle", [
    ("dump", "a2_exact"),
    ("predict-table", "weights_exact"),
    ("dump", "slice_exact"),
])
def test_wrong_oracle_value_is_a_failure(capsys, monkeypatch, name, oracle):
    right = getattr(oracles, oracle)

    def wrong(*args):
        value = right(*args)
        return tuple(v + 1e-3 for v in value) if isinstance(value, tuple) else value + 1e-3

    monkeypatch.setattr(oracles, oracle, wrong)
    code, result = bench(capsys, name, 0)
    assert code == 1 and not result["correct"]
    assert 1 <= result["failed"] < result["attempted"]
    assert result["metrics"]["ok_ratio"]["value"] < 1.0


def test_without_sources_exits_nonzero(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
