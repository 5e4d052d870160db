"""Smoke test of the benchmark harness, at small sizes so it runs in seconds.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import worker  # noqa: E402

import qtur.engine  # noqa: E402

SMALL = {"sweep": {"draws": 20}, "ensemble": {"n": 300}, "certify": {"dims": (3, 4)}}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_pass_checks_its_outputs(workload, tmp_path):
    result = worker.run_pass(workload, 7, 0, tmp_path, 1, **SMALL[workload])
    assert result["failed"] == 0, result["commands"]
    assert result["units"] > 0 and result["elapsed_s"] > 0
    hashed = [c["sha256"] for c in result["commands"] if c["sha256"]]
    assert hashed and all(len(h) == 64 for d in hashed for h in d.values())


def test_same_seed_same_inputs(tmp_path):
    a = worker.run_pass("sweep", 3, 1, tmp_path / "a", 1, draws=20)
    b = worker.run_pass("sweep", 3, 1, tmp_path / "b", 1, draws=20)
    assert [c["sha256"] for c in a["commands"]] == [c["sha256"] for c in b["commands"]]


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_traced_pass_covers_every_layer_metric(workload, tmp_path):
    original = qtur.engine.build_generator
    spans = tmp_path / "spans.csv"
    result = worker.run_pass(workload, 7, 0, tmp_path, 1, spans, **SMALL[workload])
    assert qtur.engine.build_generator is original
    metrics = result["layers"]
    names = {m["name"] for m in SPEC["per_layer"]} - {"trace.overhead"}
    assert names <= set(metrics)
    assert metrics["trace.coverage"] >= 0.9
    assert 0 < metrics["trace.overhead_est"] < 1
    # the groups partition the traced time, as the module totals do
    groups = sum(metrics[f"{g}.self_s"] for g in (*layers.GROUPS, layers.EVALUATORS))
    modules = sum(metrics[f"{layer}.self_s"] for layer in layers.LAYERS)
    assert groups == pytest.approx(modules, rel=1e-9)
    assert len(spans.read_text().splitlines()) == metrics["trace.spans"] + 1
    if workload == "sweep":
        assert metrics["sweeps.draws"] == 40
        assert metrics["engine.build_generator.calls"] >= 40
    if workload == "ensemble":
        assert metrics["trajectories.sample.trajectories"] == 900
    if workload == "certify":
        assert metrics["bounds.reports"] >= 3
        assert metrics["counting.counting_moments.max_block_dim"] == 48


def test_run_prints_contract_result():
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
