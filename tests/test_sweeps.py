import dataclasses
import hashlib
import math
import multiprocessing
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qtur.sweeps as sweeps
import qtur.trajectories as trajectories
from qtur.sweeps import (
    SweepConfig,
    csv_lines,
    rerun_row_check,
    run_cic_suite,
    run_sweep,
    write_csv,
)
from qtur.engine import (
    DegenerateSteadyStateError,
    SteadyStateError,
    build_generator,
    steady_state,
    steady_states,
)
from qtur.bounds import observable_scale
from qtur.cli import main
from qtur.counting import CountingObservable, activity_at, counting_moments, rate_split
from qtur.models import default_observable
from qtur.operators import ModelValidationError
from conftest import (
    assert_close,
    ground_state,
    patch_nth_draw,
    random_detailed_balance_model,
    zero_mean,
)


def csv_text(result) -> str:
    """The CSV that write_csv writes for ``result``, as one string."""
    return "".join(csv_lines(result.header, result.rows))


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

    @pytest.mark.parametrize("what", ["gamma", "tau"])
    def test_range_below_zero_rejected(self, what):
        with pytest.raises(ValueError, match=rf"{what} range \[-1.0, 1.0\] reaches below 0"):
            SweepConfig("ep_sweep", **{f"{what}_low": -1.0, f"{what}_high": 1.0})

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
        clean = csv_text(run_sweep(config)).splitlines()
        patch_nth_draw(monkeypatch, sweeps, "steady_states", 2, error)
        result = run_sweep(config)
        row = dict(zip(result.header, result.rows[2]))
        assert row["flagged"] is True and result.n_flagged == 1
        assert row["satisfied_full"] is None and row["satisfied_diag"] is None
        lines = csv_text(result).splitlines()
        assert lines[:3] + lines[4:] == clean[:3] + clean[4:]
        assert all(rerun_row_check(result, k) for k in range(len(result.rows)))

    def test_model_build_error_propagates(self, monkeypatch):
        build = sweeps.build_ep_models

        def broken(omega_e, rates, first):
            draws = np.arange(first, first + len(rates))
            return build(omega_e, np.where(draws[:, None] == 20, np.nan, rates), first)

        monkeypatch.setattr(sweeps, "build_ep_models", broken)
        # draw 20 is the fifth of the range [16, 32): the error names the draw
        with pytest.raises(ModelValidationError, match="model 20, channel 0 has NaN"):
            run_sweep(SweepConfig("ep_sweep", n_draws=40, seed=5, workers=1))

    def test_non_current_observable_is_flagged(self, monkeypatch):
        expand = sweeps.antisymmetric_current_weights

        def broken(model, free):
            return (*expand(model, free)[:-1], 0.5)

        monkeypatch.setattr(sweeps, "antisymmetric_current_weights", broken)
        result = run_sweep(SweepConfig("ep_sweep", n_draws=3, seed=5, workers=1))
        assert result.n_flagged == 3
        assert result.column("flagged") == [True, True, True]


class TestZeroSectorRows:
    """A sweep takes its draws on H's zero-frequency sector; each row agrees
    with the Liouville route of its draw."""

    @settings(max_examples=20, deadline=None)
    @given(experiment=st.sampled_from(EXPERIMENTS), n=st.integers(1, 16),
           seed=st.integers(0, 2**32 - 1))
    def test_rows_match_the_liouville_route(self, experiment, n, seed):
        states = []

        def recorded(*args):
            out = steady_states(*args)
            states.extend(out)
            return out

        with mock.patch.object(sweeps, "steady_states", recorded):
            result = run_sweep(SweepConfig(experiment, n_draws=n, seed=seed, workers=1))
        spec = sweeps._EXPERIMENTS[experiment]
        first = result.header.index(f"c_{spec.n_rates}") + 1
        assert result.n_flagged == 0 and len(states) == n
        for row, rho in zip(result.rows, states):
            gammas, tau = row[1 : spec.n_rates + 1], row[spec.n_rates + 1]
            weights = row[spec.n_rates + 2 : first]
            model = spec.build(1.0, [gammas])[0]
            want = steady_state(build_generator(model))
            assert_close(rho, want, scale=1.0)
            obs = CountingObservable(weights)
            moments = counting_moments(model, want, obs, tau)
            rates = rate_split(model, want)
            scale = observable_scale(obs, float(sum(r.sum() for r in rates)) * tau)
            mean, variance, total, part_d, part_nd = row[first : first + 5]
            assert_close(mean, moments.mean, scale)  # a mean may be rounding noise
            assert_close(variance, moments.variance)
            w = spec.cost_weights(model)
            parts = [float(w @ r) for r in rates]
            cost = float(np.abs(w) @ sum(np.abs(r) for r in rates))
            assert_close([total, part_d, part_nd], [sum(parts), *parts], cost)

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_crossing_draw_is_flagged(self, experiment, monkeypatch):
        config = SweepConfig(experiment, n_draws=6, seed=5, workers=1)
        clean = csv_text(run_sweep(config)).splitlines()
        name = {"kur_sweep": "build_da_models", "ep_sweep": "build_ep_models"}[experiment]
        build = getattr(sweeps, name)

        def crossing(omega_e, rates, first):
            # |e1><e2| lies in the zero-frequency sector, the rest of L_0 at
            # omega_e; the raw constructor does not check it
            models = build(omega_e, rates, first)
            ops = models[2].jump_ops.copy()
            ops[0, 1, 2] = 0.3
            models[2] = dataclasses.replace(models[2], jump_ops=ops)
            return models

        monkeypatch.setattr(sweeps, name, crossing)
        result = run_sweep(config)
        row = dict(zip(result.header, result.rows[2]))
        assert row["flagged"] is True and result.n_flagged == 1
        lines = csv_text(result).splitlines()
        assert lines[:3] + lines[4:] == clean[:3] + clean[4:]


class TestNotApplicableRows:
    """A mean that is rounding noise makes a row not applicable, as in
    ``qtur bounds``: nan sides and slack, empty verdicts."""

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_zero_mean_row(self, experiment, monkeypatch):
        config = SweepConfig(experiment, n_draws=8, seed=3, workers=1)
        clean = run_sweep(config)
        patch_nth_draw(monkeypatch, sweeps, "stacked_moments", 4, zero_mean)
        result = run_sweep(config)
        row = dict(zip(result.header, result.rows[4]))
        assert row["flagged"] is False and result.n_flagged == 0
        for which in ("full", "diag"):
            assert row[f"satisfied_{which}"] is None
            assert all(math.isnan(row[c]) for c in _side_columns(result, which))
            assert result.not_applicable(which) == 1
            before = clean.column(f"satisfied_{which}")
            assert result.violations(which) == clean.violations(which) - (before[4] is False)
        lines = csv_text(result).splitlines()
        assert lines[:5] + lines[6:] == csv_text(clean).splitlines()[:5] + lines[6:]
        assert all(rerun_row_check(result, k) for k in range(len(result.rows)))

    def test_summary_counts_them_apart(self, monkeypatch):
        config = SweepConfig("kur_sweep", n_draws=8, seed=3, workers=1)
        assert "not applicable" not in run_sweep(config).summary()
        patch_nth_draw(monkeypatch, sweeps, "stacked_moments", 4, zero_mean)
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


# SHA-256 of the CSV of a 64-draw, seed-42 sweep, as written once the
# moment block carried Tr rho2 as one trace row, (2 d^2 + 1)-square, in
# place of rho2's 3 d^2-square hierarchy (numpy 2.4, scipy 1.17). Against
# that hierarchy the 2000-draw sweeps at seeds 42 and 7 moved by at most
# 5.6e-14 relative in a variance, 8.6e-13 in a near-zero current mean and
# 1.3e-10 in a near-zero slack, with no verdict or flag changed.
# Re-captured when the steady state became one bordered LU in place of an
# eig and a least-squares solve: the 2000-draw sweeps at seeds 42 and 7
# moved by at most 7.3e-11 relative, in a near-zero slack, with no verdict
# or flag changed. Re-captured when a sweep took its draws on H's
# zero-frequency sector (real and 5-square, from the 9-square Liouville
# generator): the 2000-draw sweeps at seeds 42 and 7 moved by at most
# 8.7e-14 relative in a variance, 4.9e-12 in a near-zero current mean and
# 1.3e-10 in a near-zero slack, with no verdict, flag or not-applicable
# count changed. The tests below lower sweeps.POOL_MIN to 0, so that two
# workers split the draws whatever the measured threshold is.
PINNED_SWEEPS = {
    "kur_sweep": "3674fac2c2eb2a0249aebc814d5740783770b87ab4abcca249b1295a909d5894",
    "ep_sweep": "30f88ca814c335867379b290cd7b618dcc3201893b55ee89917c830dc24c88d1",
}


class TestReproducibility:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("experiment", sorted(PINNED_SWEEPS))
    def test_pinned_bytes(self, experiment, workers, monkeypatch):
        monkeypatch.setattr(sweeps, "POOL_MIN", 0)
        result = run_sweep(SweepConfig(experiment, n_draws=64, seed=42, workers=workers))
        digest = hashlib.sha256(csv_text(result).encode()).hexdigest()
        assert digest == PINNED_SWEEPS[experiment]

    def test_same_seed_same_bytes(self):
        config = SweepConfig("kur_sweep", n_draws=60, seed=13, workers=1)
        a = csv_text(run_sweep(config))
        b = csv_text(run_sweep(config))
        assert a == b

    def test_worker_count_does_not_change_bytes(self, monkeypatch):
        monkeypatch.setattr(sweeps, "POOL_MIN", 0)
        base = SweepConfig("ep_sweep", n_draws=80, seed=21, workers=1)
        wide = SweepConfig("ep_sweep", n_draws=80, seed=21, workers=2)
        serial = csv_text(run_sweep(base))
        monkeypatch.setattr(sweeps, "RANGE", 16)  # five stacks, split over two workers
        assert csv_text(run_sweep(wide)) == serial

    def test_different_seeds_differ(self):
        a = csv_text(run_sweep(SweepConfig("kur_sweep", n_draws=10, seed=1, workers=1)))
        b = csv_text(run_sweep(SweepConfig("kur_sweep", n_draws=10, seed=2, workers=1)))
        assert a != b

    def test_format_cell_of_every_cell_type(self):
        # exact floats and ints take a fast path; their subclasses (bool,
        # numpy scalars) must still print as the isinstance chain prints them
        cells = [None, "x", True, np.True_, 3, 2**70, np.int64(-4), 0.1, np.float64(0.1),
                 np.float32(0.1), -0.0, 1e-300, float("inf"), float("nan"), -np.float64("nan")]
        assert [sweeps.format_cell(c) for c in cells] == [
            "", "x", "true", "1", "3", str(2**70), "-4", "0.10000000000000001",
            "0.10000000000000001", "0.10000000149011612", "-0", "1e-300",
            "inf", "nan", "nan",
        ]

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


def _generator_reads(config: SweepConfig, n_rates: int, weight_range, n_free: int) -> tuple:
    """Each draw's gammas, tau and free weights as numpy's Generator reads
    them, one draw at a time, and how many draws redrew their gammas."""
    draws, redrawn = [], 0
    for k in range(config.n_draws):
        seed = trajectories.SeedPolicy(config.seed).trajectory_seed(k)
        rng = np.random.Generator(np.random.PCG64(seed))
        g = rng.uniform(config.gamma_low, config.gamma_high, n_rates)
        redrawn += bool(np.any(g <= config.gamma_low))
        while np.any(g <= config.gamma_low):
            fresh = rng.uniform(config.gamma_low, config.gamma_high, n_rates)
            g = np.where(g <= config.gamma_low, fresh, g)
        tau = float(rng.uniform(config.tau_low, config.tau_high))
        draws.append((g, tau, rng.uniform(*weight_range, n_free)))
    return draws, redrawn


class TestParameterReads:
    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_redrawn_gammas_are_numpys(self, experiment):
        # on (1, 1 + 2**-50), lo + (hi - lo) u rounds to lo for u < 1/8, so
        # about a third of the kur draws and half the ep draws are redrawn
        config = SweepConfig(experiment, n_draws=200, seed=5, gamma_low=1.0,
                             gamma_high=1.0 + 2.0**-50, workers=1)
        current = experiment == "ep_sweep"
        n_rates = 6 if current else 4
        weight_range = (-1.0, 1.0) if current else (0.0, 1.0)
        draws, redrawn = _generator_reads(config, n_rates, weight_range, n_rates // (1 + current))
        assert redrawn >= 40
        result = run_sweep(config)
        assert result.n_flagged == 0
        gammas = [result.column(f"gamma_{i}") for i in range(1, n_rates + 1)]
        weights = [result.column(f"c_{i}") for i in range(1, n_rates + 1)]
        for k, (g, tau, free) in enumerate(draws):
            assert [col[k] for col in gammas] == g.tolist()
            assert result.column("tau")[k] == tau
            expected = np.repeat(free, 2) * np.tile([1.0, -1.0], 3) if current else free
            assert [col[k] for col in weights] == expected.tolist()


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

    def test_sampled_checks_read_the_one_sigma_multiple(self, ep_generic, monkeypatch):
        # allowed no standard error, the sampled KL estimate misses the exact
        # entropy production; the exact checks do not read the multiple
        monkeypatch.setattr(sweeps, "MC_SIGMAS", 0.0)
        rho = steady_state(build_generator(ep_generic, coherent=True))
        report = run_cic_suite(ep_generic, rho, 1.0, budget=500, seed=6, workers=1)
        passed = {c.name: c.passed for c in report.checks}
        assert not passed.pop("kl_matches_entropy_production")
        assert not passed.pop("backward_statistics_match")
        assert all(passed.values()) and len(passed) == 3

    @pytest.mark.parametrize("sigmas", [0.0, 4.0], ids=["failing", "passing"])
    def test_every_verdict_is_a_python_bool(self, ep_generic, sigmas, monkeypatch):
        # the KL comparison reads numpy floats, which compare to numpy.bool_
        monkeypatch.setattr(sweeps, "MC_SIGMAS", sigmas)
        rho = steady_state(build_generator(ep_generic, coherent=True))
        report = run_cic_suite(ep_generic, rho, 1.0, budget=500, seed=6, workers=1)
        assert [type(c.passed) for c in report.checks] == [bool] * 5
        assert report.all_passed == (sigmas > 0)

    @pytest.mark.parametrize("start", ["stationary", "ground"])
    def test_backward_mean_is_not_judged_where_it_is_rounding_noise(
        self, ep_equilibrium, start, monkeypatch
    ):
        # at equilibrium the stationary current's mean is zero up to rounding;
        # from |g> the late window's mean is 0.05
        model = ep_equilibrium
        rho0 = ground_state() if start == "ground" else steady_state(build_generator(model, True))
        obs = default_observable(model)
        exact = counting_moments(model, rho0, obs.with_window((1.0, 2.0)), 2.0, False)
        activity = activity_at(model, rho0, [1.0, 2.0], coherent=False)[0]
        window = activity[1] - activity[0]
        # a sampled mean 1 off, at the exact variance: only a judged mean fails
        fake = SimpleNamespace(mean=-exact.mean - 1.0, stderr_mean=1e-3,
                               variance=exact.variance, stderr_variance=1e-3)
        monkeypatch.setattr(sweeps, "estimate", lambda records, obs: fake)
        check = sweeps._backward_check(model, rho0, 1.0, obs, [], window)
        assert check.passed == (start == "stationary")
        assert ("not judged" in check.detail) == (start == "stationary")
        # the variance still decides
        fake.variance = 2.0 * exact.variance
        assert not sweeps._backward_check(model, rho0, 1.0, obs, [], window).passed

    @pytest.mark.parametrize("seed, dim", [(0, 3), (2, 4), (6, 4)])
    def test_exact_means_of_rounding_noise_agree(self, seed, dim):
        # at stationarity these currents have zero mean; with and without H
        # the exact means differ by about 1e-16, over 40 % of their size
        model = random_detailed_balance_model(dim, np.random.default_rng(seed))
        rho = steady_state(build_generator(model, coherent=True))
        report = run_cic_suite(model, rho, 1.0, budget=100, seed=1, workers=1)
        check = report.checks[0]
        assert check.name == "exact_moments_match" and check.passed
        assert float(check.detail.split()[3].rstrip(",")) > 0.4

    def test_transient_start(self, ep_generic):
        report = run_cic_suite(ep_generic, ground_state(), 0.8, budget=4000, seed=9, workers=1)
        assert report.all_passed

    def test_forward_and_backward_ensembles_share_one_pool(self, monkeypatch, capsys):
        pools, pool = [], multiprocessing.Pool

        def counted(*args, **kwargs):
            pools.append(args)
            return pool(*args, **kwargs)

        monkeypatch.setattr(multiprocessing, "Pool", counted)
        monkeypatch.setattr(trajectories, "POOL_MIN", 0)  # 2 x 5000 is below the threshold
        monkeypatch.delenv("QTUR_THREADS", raising=False)
        argv = ["verify-cic", "--builtin", "ep", "--rates", "0.7,0.3,0.5,0.4,0.6,0.2",
                "--tau", "1", "--trajectories", "5000", "--workers", "2", "--seed", "3"]
        assert main(argv) == 0
        assert capsys.readouterr().out.count("[PASS]") == 5
        assert len(pools) == 1

    def test_summary_format(self, da_generic):
        rho = steady_state(build_generator(da_generic, coherent=True))
        report = run_cic_suite(da_generic, rho, 0.5, budget=400, seed=1, workers=1)
        text = report.summary()
        assert "[PASS]" in text and "exact_moments_match" in text
