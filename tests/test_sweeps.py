import dataclasses
import hashlib
import math

import numpy as np
import pytest

import qtur.sweeps as sweeps
from qtur.sweeps import (
    SweepConfig,
    rerun_row_check,
    result_to_csv,
    run_cic_suite,
    run_sweep,
    write_csv,
)
from qtur.engine import (
    DegenerateSteadyStateError,
    SteadyStateError,
    build_generator,
    steady_state,
)
from qtur.operators import ModelValidationError
from conftest import ground_state, patch_nth_call, raising, zero_mean


class TestSweepConfig:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError):
            SweepConfig("bogus")

    def test_non_sweep_experiments_are_rejected(self):
        # the correspondence battery and the bound report have their own entry points
        for name in ("cic_suite", "bounds_report"):
            with pytest.raises(ValueError, match="unknown experiment"):
                SweepConfig(name, n_draws=1)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError, match="range"):
            SweepConfig("kur_sweep", tau_low=2.0, tau_high=1.0)

    def test_draw_count_positive(self):
        with pytest.raises(ValueError):
            SweepConfig("kur_sweep", n_draws=0)

    def test_default_weight_ranges(self):
        assert sweeps._EXPERIMENTS["kur_sweep"].weight_range == (0.0, 1.0)
        assert sweeps._EXPERIMENTS["ep_sweep"].weight_range == (-1.0, 1.0)


class TestKurSweep:
    def test_full_cost_never_violated_diagonal_sometimes(self):
        result = run_sweep(SweepConfig("kur_sweep", n_draws=150, seed=7, workers=1))
        assert result.violations("full") == 0
        assert result.violations("diag") >= 1
        assert result.n_flagged == 0

    def test_rows_are_self_auditing(self):
        result = run_sweep(SweepConfig("kur_sweep", n_draws=40, seed=3, workers=1))
        assert all(rerun_row_check(result, k) for k in range(len(result.rows)))

    def test_activity_split_adds_up(self):
        result = run_sweep(SweepConfig("kur_sweep", n_draws=40, seed=5, workers=1))
        total = np.array(result.column("activity_rate"))
        parts = np.array(result.column("activity_rate_diag")) + np.array(
            result.column("activity_rate_offdiag")
        )
        assert np.abs(total - parts).max() <= 1e-12

    def test_parameters_inside_ranges(self):
        result = run_sweep(SweepConfig("kur_sweep", n_draws=40, seed=11, workers=1))
        for name in ("gamma_1", "gamma_2", "gamma_3", "gamma_4"):
            col = np.array(result.column(name))
            assert np.all((col > 0.0) & (col < 1.0))
        tau = np.array(result.column("tau"))
        assert np.all((tau >= 0.1) & (tau <= 10.0))


class TestEpSweep:
    def test_full_cost_never_violated_diagonal_sometimes(self):
        result = run_sweep(SweepConfig("ep_sweep", n_draws=200, seed=7, workers=1))
        assert result.violations("full") == 0
        assert result.violations("diag") >= 1

    def test_sigma_split_adds_up(self):
        result = run_sweep(SweepConfig("ep_sweep", n_draws=30, seed=1, workers=1))
        total = np.array(result.column("sigma"))
        parts = np.array(result.column("sigma_diag")) + np.array(
            result.column("sigma_offdiag")
        )
        assert np.abs(total - parts).max() <= 1e-12

    def test_weights_are_antisymmetric(self):
        result = run_sweep(SweepConfig("ep_sweep", n_draws=20, seed=2, workers=1))
        for a, b in (("c_1", "c_2"), ("c_3", "c_4"), ("c_5", "c_6")):
            assert np.array_equal(
                np.array(result.column(a)), -np.array(result.column(b))
            )

    def test_rows_are_self_auditing(self):
        result = run_sweep(SweepConfig("ep_sweep", n_draws=30, seed=4, workers=1))
        assert all(rerun_row_check(result, k) for k in range(len(result.rows)))


EXPERIMENTS = ("kur_sweep", "ep_sweep")


def _side_columns(result, which):
    """The lhs, rhs and slack columns of one cost."""
    lhs = "lhs" if "lhs" in result.header else f"lhs_{which}"
    rhs = "rhs" if "rhs" in result.header else f"rhs_{which}"
    return lhs, rhs, f"slack_{which}"


class TestBadDraws:
    """One bad draw becomes a row of its own; the run goes on."""

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    @pytest.mark.parametrize(
        "error",
        [
            SteadyStateError("residual too large"),
            DegenerateSteadyStateError("two stationary states"),
            ModelValidationError("not a density"),
        ],
        ids=type,
    )
    def test_failed_steady_state_is_flagged(self, experiment, error, monkeypatch):
        config = SweepConfig(experiment, n_draws=6, seed=5, workers=1)
        clean = result_to_csv(run_sweep(config)).splitlines()
        patch_nth_call(monkeypatch, sweeps, "steady_state", 2, raising(error))
        result = run_sweep(config)
        row = dict(zip(result.header, result.rows[2]))
        assert row["flagged"] is True and result.n_flagged == 1
        assert row["satisfied_full"] is None and row["satisfied_diag"] is None
        lines = result_to_csv(result).splitlines()
        assert lines[:3] + lines[4:] == clean[:3] + clean[4:]
        assert all(rerun_row_check(result, k) for k in range(len(result.rows)))

    def test_non_current_observable_is_flagged(self, monkeypatch):
        expand = sweeps.antisymmetric_current_weights

        def broken(model, free):
            return (*expand(model, free)[:-1], 0.5)

        monkeypatch.setattr(sweeps, "antisymmetric_current_weights", broken)
        result = run_sweep(SweepConfig("ep_sweep", n_draws=3, seed=5, workers=1))
        assert result.n_flagged == 3
        assert result.column("flagged") == [True, True, True]


class TestNotApplicableRows:
    """A mean that is rounding noise makes a row not applicable, as in
    ``qtur bounds``: nan sides and slack, empty verdicts."""

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_zero_mean_row(self, experiment, monkeypatch):
        config = SweepConfig(experiment, n_draws=8, seed=3, workers=1)
        clean = run_sweep(config)
        patch_nth_call(monkeypatch, sweeps, "counting_moments", 4, zero_mean)
        result = run_sweep(config)
        row = dict(zip(result.header, result.rows[4]))
        assert row["flagged"] is False and result.n_flagged == 0
        for which in ("full", "diag"):
            assert row[f"satisfied_{which}"] is None
            assert all(math.isnan(row[c]) for c in _side_columns(result, which))
            assert result.not_applicable(which) == 1
            before = clean.column(f"satisfied_{which}")
            assert result.violations(which) == clean.violations(which) - (before[4] is False)
        lines = result_to_csv(result).splitlines()
        assert lines[:5] + lines[6:] == result_to_csv(clean).splitlines()[:5] + lines[6:]
        assert all(rerun_row_check(result, k) for k in range(len(result.rows)))

    def test_summary_counts_them_apart(self, monkeypatch):
        config = SweepConfig("kur_sweep", n_draws=8, seed=3, workers=1)
        assert "not applicable" not in run_sweep(config).summary()
        patch_nth_call(monkeypatch, sweeps, "counting_moments", 4, zero_mean)
        result = run_sweep(config)
        diag_violated = result.violations("diag")
        assert result.summary().splitlines()[1:] == [
            "  full cost: 7 satisfied, 0 violated, 1 not applicable",
            f"  diag cost: {7 - diag_violated} satisfied, {diag_violated} violated, "
            "1 not applicable",
        ]


class TestRowAudit:
    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    @pytest.mark.parametrize("column", ["slack_full", "slack_diag"])
    def test_tampered_slack_fails(self, experiment, column):
        result = run_sweep(SweepConfig(experiment, n_draws=3, seed=8, workers=1))
        k = result.header.index(column)
        row = list(result.rows[1])
        row[k] = np.nextafter(row[k], math.inf)
        tampered = dataclasses.replace(result, rows=(result.rows[0], tuple(row), result.rows[2]))
        assert rerun_row_check(result, 1)
        assert not rerun_row_check(tampered, 1)
        assert rerun_row_check(tampered, 0) and rerun_row_check(tampered, 2)

    def test_tampered_verdict_fails(self):
        result = run_sweep(SweepConfig("kur_sweep", n_draws=2, seed=8, workers=1))
        k = result.header.index("satisfied_full")
        for forged in (not result.rows[0][k], None):
            row = result.rows[0][:k] + (forged,) + result.rows[0][k + 1 :]
            assert not rerun_row_check(dataclasses.replace(result, rows=(row,)), 0)


# SHA-256 of the CSV of a 64-draw, seed-42 sweep, as written once every sum
# over channels became one GEMM over the stack of jump operators (numpy 2.4,
# scipy 1.17); that reordering moved the 1000-draw seed-42 sweeps by at most
# 2.5e-12 relative, with no verdict changed. The tests
# below lower sweeps.POOL_MIN to 0, so that two workers split the draws
# whatever the measured threshold is.
PINNED_SWEEPS = {
    "kur_sweep": "ef6adc4b5c38ab2660914d428490d95d065674b56184de6c37097327e5d40d9c",
    "ep_sweep": "f6bcec8494573d907756decfbd9c8b25dcb1839a71bc13ff27533b6cddcb1c93",
}


class TestReproducibility:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("experiment", sorted(PINNED_SWEEPS))
    def test_pinned_bytes(self, experiment, workers, monkeypatch):
        monkeypatch.setattr(sweeps, "POOL_MIN", 0)
        result = run_sweep(SweepConfig(experiment, n_draws=64, seed=42, workers=workers))
        digest = hashlib.sha256(result_to_csv(result).encode()).hexdigest()
        assert digest == PINNED_SWEEPS[experiment]

    def test_same_seed_same_bytes(self):
        config = SweepConfig("kur_sweep", n_draws=60, seed=13, workers=1)
        a = result_to_csv(run_sweep(config))
        b = result_to_csv(run_sweep(config))
        assert a == b

    def test_worker_count_does_not_change_bytes(self, monkeypatch):
        monkeypatch.setattr(sweeps, "POOL_MIN", 0)
        base = SweepConfig("ep_sweep", n_draws=80, seed=21, workers=1)
        wide = SweepConfig("ep_sweep", n_draws=80, seed=21, workers=2)
        assert result_to_csv(run_sweep(base)) == result_to_csv(run_sweep(wide))

    def test_different_seeds_differ(self):
        a = result_to_csv(run_sweep(SweepConfig("kur_sweep", n_draws=10, seed=1, workers=1)))
        b = result_to_csv(run_sweep(SweepConfig("kur_sweep", n_draws=10, seed=2, workers=1)))
        assert a != b

    def test_csv_file_output(self, tmp_path):
        config = SweepConfig("kur_sweep", n_draws=5, seed=1, workers=1)
        result = run_sweep(config)
        path = tmp_path / "rows.csv"
        write_csv(result, path)
        text = path.read_text()
        lines = text.strip().split("\n")
        assert lines[0].split(",") == list(result.header)
        assert len(lines) == 6
        # 17 significant digits survive a parse round trip
        tau_col = result.header.index("tau")
        assert float(lines[1].split(",")[tau_col]) == result.rows[0][tau_col]


class TestCicSuite:
    def test_activity_model_checks(self, da_generic):
        rho = steady_state(build_generator(da_generic, coherent=True))
        report = run_cic_suite(da_generic, rho, 1.0, budget=1200, seed=5, workers=1)
        names = [c.name for c in report.checks]
        assert names == ["exact_moments_match", "path_norm_identity"]
        assert report.all_passed

    def test_entropy_model_checks(self, ep_generic):
        rho = steady_state(build_generator(ep_generic, coherent=True))
        report = run_cic_suite(ep_generic, rho, 1.0, budget=2500, seed=6, workers=1)
        names = [c.name for c in report.checks]
        assert names == [
            "exact_moments_match",
            "path_norm_identity",
            "entropy_production_match",
            "kl_matches_entropy_production",
            "backward_statistics_match",
        ]
        assert report.all_passed

    def test_transient_start(self, ep_generic):
        report = run_cic_suite(ep_generic, ground_state(), 0.8, budget=4000, seed=9, workers=1)
        assert report.all_passed

    def test_summary_format(self, da_generic):
        rho = steady_state(build_generator(da_generic, coherent=True))
        report = run_cic_suite(da_generic, rho, 0.5, budget=400, seed=1, workers=1)
        text = report.summary()
        assert "[PASS]" in text and "exact_moments_match" in text
