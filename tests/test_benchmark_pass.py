"""One small traced pass of each benchmark workload.

The benchmark in ``perfbench/`` imports qtur's functions and wraps its
classes by name, so a change that removes or renames something it uses
breaks the benchmark without breaking any other test. Each pass here runs
the workload's CLI commands at the smallest sizes whose output checks
still hold, and must fail none of them.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import worker  # noqa: E402

SMALLEST = {"sweep": {"draws": 4}, "ensemble": {"n": 200}, "certify": {"dims": (3,)}}


@pytest.mark.parametrize("workload", sorted(SMALLEST))
def test_workload_pass_fails_no_command(workload, tmp_path, monkeypatch):
    # the machine-speed reference kernel only scales timings; skip its 0.16 s runs
    monkeypatch.setattr(worker, "reference_s", lambda: 0.0)
    result = worker.run_pass(
        workload, 7, 0, tmp_path, 1, tmp_path / "spans.csv", **SMALLEST[workload]
    )
    assert result["failed"] == 0, result["commands"]
    assert result["units"] > 0
