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
import workloads  # noqa: E402

import qtur.sweeps as sweeps  # noqa: E402
from conftest import patch_nth_draw, zero_mean  # noqa: E402
from qtur.cli import main  # noqa: E402
import qtur.counting as counting  # noqa: E402
from qtur.counting import ACTION_MIN_DIM  # noqa: E402
from qtur.engine import SteadyStateError  # noqa: E402

# certify's second ladder sits at ACTION_MIN_DIM, where the Liouville route
# would take the block action; its bounds take the zero-frequency sector
SMALLEST = {
    "sweep": {"draws": 4},
    "ensemble": {"n": 200},
    "certify": {"dims": (3, ACTION_MIN_DIM)},
}


@pytest.mark.parametrize("workload", sorted(SMALLEST))
def test_workload_pass_fails_no_command(workload, tmp_path, monkeypatch):
    # the machine-speed reference kernel only scales timings; skip its 0.16 s runs
    monkeypatch.setattr(worker, "reference_s", lambda: 0.0)
    actions, action = [], counting._taylor_action
    monkeypatch.setattr(counting, "_taylor_action", lambda *a: actions.append(a) or action(*a))
    result = worker.run_pass(
        workload, 7, 0, tmp_path, 1, tmp_path / "spans.csv", **SMALLEST[workload]
    )
    assert result["failed"] == 0, result["commands"]
    assert result["units"] > 0
    # no workload takes the action: certify's bounds run on the sector
    assert not actions
    if workload == "ensemble":
        # the benchmark counts trajectories through TrajectorySampler.sample:
        # the trajectories command, then verify-cic's two ensembles
        n = SMALLEST["ensemble"]["n"]
        assert result["layers"]["trajectories.sample.trajectories"] == 3 * n
    if workload == "certify":
        # the benchmark sees block work only through counting_moments' hook
        metrics = result["layers"]
        assert metrics["counting.counting_moments.max_block_dim"] == 3 * ACTION_MIN_DIM**2
        assert metrics["bounds.reports"] >= 3
        # the traced evaluators count each printed report once: a function
        # returning a tuple of reports would count them twice
        for key in ("bounds.reports", "bounds.not_applicable"):
            assert metrics[key] == result["counters"][key]


@pytest.mark.parametrize("name, experiment", [("sweep-kur", "kur_sweep"), ("sweep-ep", "ep_sweep")])
def test_sweep_audit_accepts_every_row_kind(name, experiment, tmp_path, monkeypatch):
    # draw 1 has no steady state (a flagged row); draw 3, the third with
    # moments, has a mean of rounding noise (a not-applicable row)
    patch_nth_draw(monkeypatch, sweeps, "steady_states", 1, SteadyStateError("bad"))
    patch_nth_draw(monkeypatch, sweeps, "stacked_moments", 2, zero_mean)
    out = tmp_path / f"{name}.csv"
    argv = [name, "--draws", "5", "--seed", "2", "--workers", "1", "--out", str(out)]
    assert main(argv) == 0
    header, rows = workloads._read_csv(out)
    column = {key: [row[header.index(key)] for row in rows] for key in header}
    assert column["flagged"] == ["false", "true", "false", "false", "false"]
    assert column["satisfied_full"][1] == column["satisfied_full"][3] == ""
    assert column["slack_full"][3] == "nan"
    assert workloads._check_sweep(out, experiment, 5, 0, "") == {"sweeps.flagged": 1}
