import json
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

import qtur.bounds as bounds

from qtur.bounds import (
    EXACT_TOL,
    MC_SIGMAS,
    InputStat,
    csch_squared_bound,
    ep_lower_bound,
    entropy_scale,
    ep_tur,
    gamma_factor,
    half_angle_integral,
    inverse_x_tanh_x,
    kur_differential,
    observable_scale,
    survival_bound_check,
    tur_activity_integral,
)
from qtur.counting import (
    CountingObservable,
    MomentResult,
    _half_windows,
    activity_at,
    counting_moments,
)
from qtur.engine import build_generator, steady_state
from qtur.models import build_poisson_model
from qtur.operators import LindbladModel, von_neumann_trace_term
from qtur.trajectories import EnsembleEstimate, SeedPolicy, TrajectorySampler, estimate
from conftest import ground_state, random_ep_model

# ep_tur's keywords for a current whose entropy production is no rounding noise
CURRENT = {"sigma_scale": 0.0, "current": True}


def poisson_moments(rate, tau) -> MomentResult:
    mean = rate * tau
    return MomentResult(mean=mean, second_moment=mean + mean**2, variance=mean)


def exact_moments(mean, var) -> MomentResult:
    return MomentResult(mean=mean, second_moment=var + mean**2, variance=var)


def mc_moments(mean, var, se_mean, se_var) -> EnsembleEstimate:
    return EnsembleEstimate(
        n=2, mean=mean, variance=var, stderr_mean=se_mean, stderr_variance=se_var
    )


def _ep_report(x, err):
    return ep_tur(mc_moments(*x, *err), 1.3, 2.0, scale=0.0, **CURRENT)


# Monte Carlo-fed reports of every evaluator: the input keys, their values x
# and standard errors, the lhs as a function of x, and the report
MC_CASES = {
    "window": (
        ("mean_1", "mean_2", "variance_1", "variance_2"),
        [0.71, 1.38, 0.69, 1.43],
        [0.02, 0.03, 0.05, 0.08],
        lambda m1, m2, v1, v2: ((math.sqrt(v1) + math.sqrt(v2)) / (m2 - m1)) ** 2,
        lambda x, err: tur_activity_integral(
            mc_moments(x[0], x[2], err[0], err[2]), mc_moments(x[1], x[3], err[1], err[3]),
            0.6, scale=0.0,
        ),
    ),
    # a Poisson count at rate 0.7 over tau = 2: tau d_tau E = 1.4
    "rate": (
        ("variance",),
        [1.43],
        [0.08],
        lambda v: v / 1.4**2,
        lambda x, err: kur_differential(
            build_poisson_model(0.7), np.eye(1, dtype=complex), CountingObservable((1.0,)),
            2.0, 1.4, mc_moments(1.4, x[0], 0.03, err[0]),
        ),
    ),
    "ep": (
        ("mean_current", "variance_current"),
        [-0.4, 0.3],
        [0.05, 0.01],
        lambda mean, var: 1.3 * var / mean**2,
        _ep_report,
    ),
    # d lhs / d Var is finite at Var = 0, so its term counts there too
    "ep_zero_variance": (
        ("mean_current", "variance_current"),
        [-0.4, 0.0],
        [0.05, 0.01],
        lambda mean, var: 1.3 * var / mean**2,
        _ep_report,
    ),
}


class TestInverseXTanhX:
    def test_zero(self):
        assert inverse_x_tanh_x(0.0) == 0.0

    def test_unit_point(self):
        assert inverse_x_tanh_x(math.tanh(1.0)) == pytest.approx(1.0, abs=1e-10)

    def test_large_argument_asymptote(self):
        h = inverse_x_tanh_x(100.0)
        assert 100.0 <= h <= 100.0000001

    def test_residual_on_log_grid(self):
        for y in np.logspace(-6, 3, 31):
            h = inverse_x_tanh_x(float(y))
            assert abs(h * math.tanh(h) - y) <= 1e-12 * max(1.0, y)

    def test_bracket_and_monotonicity(self):
        grid = np.logspace(-6, 3, 31)
        values = [inverse_x_tanh_x(float(y)) for y in grid]
        assert all(y <= h <= y + 1 for y, h in zip(grid, values))
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            inverse_x_tanh_x(-0.1)


class TestActivityWindowBound:
    def test_poisson_holds_with_analytic_values(self, poisson, scalar_one):
        rate, t1, t2 = 0.7, 1.0, 2.0
        angle = half_angle_integral(poisson, scalar_one, t1, t2)
        rep = tur_activity_integral(
            poisson_moments(rate, t1), poisson_moments(rate, t2), angle, scale=0.0
        )
        lhs_ref = ((math.sqrt(rate * t2) + math.sqrt(rate * t1)) / (rate * (t2 - t1))) ** 2
        angle_ref = math.sqrt(rate) * (math.sqrt(t2) - math.sqrt(t1))
        assert rep.lhs == pytest.approx(lhs_ref, rel=1e-12)
        assert rep.rhs == pytest.approx(math.tan(angle_ref) ** -2, rel=1e-12)
        assert rep.satisfied and rep.precondition_ok

    def test_zero_start_reduces_to_single_horizon_form(self, poisson, scalar_one):
        rate, tau = 0.7, 2.0
        angle = half_angle_integral(poisson, scalar_one, 0.0, tau)
        zero = MomentResult(mean=0.0, second_moment=0.0, variance=0.0)
        rep = tur_activity_integral(zero, poisson_moments(rate, tau), angle, scale=0.0)
        # relative variance against cot^2 of sqrt(activity)
        assert rep.lhs == pytest.approx(1.0 / (rate * tau), rel=1e-12)
        assert rep.rhs == pytest.approx(math.tan(math.sqrt(rate * tau)) ** -2, rel=1e-12)
        assert rep.satisfied

    def test_precondition_flagged_not_violated(self, poisson, scalar_one):
        rate, tau = 0.7, 9.0  # sqrt(rate * tau) > pi/2
        angle = half_angle_integral(poisson, scalar_one, 0.0, tau)
        zero = MomentResult(mean=0.0, second_moment=0.0, variance=0.0)
        rep = tur_activity_integral(zero, poisson_moments(rate, tau), angle, scale=0.0)
        assert not rep.precondition_ok
        assert rep.satisfied is None

    def test_requires_growing_mean(self, poisson, scalar_one):
        angle = half_angle_integral(poisson, scalar_one, 0.5, 1.0)
        with pytest.raises(ValueError, match="does not change"):
            tur_activity_integral(
                poisson_moments(0.7, 1.0), poisson_moments(0.7, 1.0), angle, scale=0.0
            )

    @pytest.mark.parametrize("tau", [1.0, 2.0])
    def test_falling_mean_reports_as_its_negation(self, ep_generic, tau):
        # from |g> the excitations come first, so the net flux into |g> falls
        rho0 = ground_state()
        angle = half_angle_integral(ep_generic, rho0, tau / 2, tau)
        activity = activity_at(ep_generic, rho0, [tau])[0][0]
        reports = []
        for sign in (1.0, -1.0):
            obs = CountingObservable(tuple(sign * w for w in (1, -1, 1, -1, 1, -1)))
            m1 = counting_moments(ep_generic, rho0, obs, tau / 2)
            m2 = counting_moments(ep_generic, rho0, obs, tau)
            scale = observable_scale(obs, activity)
            reports.append(tur_activity_integral(m1, m2, angle, scale))
        falling, rising = reports
        assert falling.inputs["mean_2"].value < falling.inputs["mean_1"].value < 0
        assert falling.satisfied is True and falling.precondition_ok
        for key in ("lhs", "rhs", "slack", "tol"):
            assert getattr(falling, key) == pytest.approx(getattr(rising, key), rel=1e-12)
        assert (falling.satisfied, falling.extra) == (rising.satisfied, rising.extra)

    def test_steady_state_triple_satisfied(self, da_generic):
        rho = steady_state(build_generator(da_generic, coherent=True))
        obs = CountingObservable((0.8, 0.4, 0.3, 0.9))
        t1, t2 = 0.8, 1.6
        m1 = counting_moments(da_generic, rho, obs, t1)
        m2 = counting_moments(da_generic, rho, obs, t2)
        angle = half_angle_integral(da_generic, rho, t1, t2)
        rep = tur_activity_integral(m1, m2, angle, scale=0.0)
        assert rep.precondition_ok and rep.satisfied


class TestRateFormBound:
    def test_poisson_saturates(self, poisson, scalar_one):
        obs = CountingObservable((1.0,))
        for tau in (0.1, 1.0, 10.0):
            mom = counting_moments(poisson, scalar_one, obs, tau)
            activity = activity_at(poisson, scalar_one, [tau])[0][0]
            rep = kur_differential(poisson, scalar_one, obs, tau, activity, mom)
            assert abs(rep.lhs * activity - 1.0) <= 1e-9
            assert rep.satisfied

    def test_full_cost_always_holds_diagonal_sometimes_fails(self):
        from qtur.counting import decompose_activity
        from qtur.models import build_da_model

        rng = np.random.default_rng(19)
        diag_violations = 0
        for _ in range(120):
            g = rng.uniform(size=4)
            if np.any(g <= 0):
                continue
            model = build_da_model(1.0, *g)
            rho = steady_state(build_generator(model, coherent=True))
            tau = float(rng.uniform(0.1, 10.0))
            obs = CountingObservable(tuple(rng.uniform(size=4)))
            mom = counting_moments(model, rho, obs, tau)
            a_d, a_nd = decompose_activity(model, rho)
            full = mom.variance / mom.mean**2 - 1.0 / ((a_d + a_nd) * tau)
            assert full >= -1e-9
            if mom.variance / mom.mean**2 - 1.0 / (a_d * tau) < -1e-9:
                diag_violations += 1
        assert diag_violations >= 1

    def test_zero_rate_rejected(self, da_generic):
        rho = steady_state(build_generator(da_generic, coherent=True))
        obs = CountingObservable((0.0,) * 4)
        mom = counting_moments(da_generic, rho, obs, 1.0)
        with pytest.raises(ValueError, match="rate"):
            kur_differential(da_generic, rho, obs, 1.0, 1.2, mom)

    def test_monte_carlo_fed_bound_widens_tolerance(self, da_generic):
        rho = steady_state(build_generator(da_generic, coherent=True))
        tau = 1.0
        obs = CountingObservable.total_count(4)
        sampler = TrajectorySampler(da_generic, rho, tau)
        records = sampler.ensemble(2000, SeedPolicy(91), workers=1)
        est = estimate(records, obs)
        activity = activity_at(da_generic, rho, [tau])[0][0]
        rep = kur_differential(da_generic, rho, obs, tau, activity, est)
        assert rep.tol > 1e-9
        assert rep.inputs["variance"].source == "monte_carlo"
        assert rep.satisfied


class TestDegenerateMeans:
    """A mean that is rounding noise at the observable's scale max|w| A(tau)
    makes a bound not applicable instead of satisfied at a huge lhs."""

    def test_rate_bound_on_stationary_current(self, ep_generic):
        # net flux into |g>, which vanishes at stationarity
        rho = steady_state(build_generator(ep_generic, coherent=True))
        obs = CountingObservable((1.0, -1.0, 1.0, -1.0, 1.0, -1.0), antisymmetric=True)
        tau = 1.0
        mom = counting_moments(ep_generic, rho, obs, tau)
        activity = activity_at(ep_generic, rho, [tau])[0][0]
        rep = kur_differential(ep_generic, rho, obs, tau, activity, mom)
        assert rep.satisfied is None and not rep.precondition_ok
        assert math.isnan(rep.lhs) and math.isnan(rep.rhs)
        assert rep.extra["scale"] == pytest.approx(activity)

    def test_ep_bound_below_noise_floor(self):
        for mean in (0.0, 1e-16, -3e-12):
            rep = ep_tur(exact_moments(mean, 0.4), 1.0, 0.5, scale=1.2, **CURRENT)
            assert rep.satisfied is None and not rep.precondition_ok
        resolved = ep_tur(exact_moments(1e-6, 0.4), 1.0, 0.5, scale=1.2, **CURRENT)
        assert resolved.precondition_ok and resolved.satisfied

    def test_ep_bound_needs_a_current(self):
        rep = ep_tur(exact_moments(1.2, 0.4), 1.0, 0.5, scale=1.2,
                     sigma_scale=1.0, current=False)
        assert rep.satisfied is None and not rep.precondition_ok
        assert math.isnan(rep.lhs) and math.isnan(rep.rhs)
        assert rep.extra == {"reason": "the observable is not a current"}

    def test_ep_bound_below_sigma_noise_floor(self):
        # an equilibrium model started stationary: Sigma is rounding noise of either sign
        for sigma in (0.0, -2.2e-16, 1e-17):
            rep = ep_tur(exact_moments(1.2, 0.4), 1.0, sigma, scale=1.2,
                         sigma_scale=1.1, current=True)
            assert rep.satisfied is None and not rep.precondition_ok
            assert math.isnan(rep.lhs) and math.isnan(rep.rhs)
            assert rep.extra == {"reason": "entropy production is rounding noise", "scale": 1.1}
        resolved = ep_tur(exact_moments(1.2, 0.4), 1.0, 1e-6, scale=1.2,
                          sigma_scale=1.1, current=True)
        assert resolved.precondition_ok and resolved.satisfied is not None

    def test_entropy_scale_sums_the_term_sizes(self, ep_generic):
        rho = steady_state(build_generator(ep_generic, coherent=True))
        ds = np.abs(ep_generic.entropy_weights()).max()
        vn = abs(von_neumann_trace_term(rho))
        assert entropy_scale(ep_generic, rho, rho, 2.0) == pytest.approx(2 * vn + 2.0 * ds)
        assert entropy_scale(ep_generic, ground_state(), rho, 0.0) == pytest.approx(vn)

    @pytest.mark.parametrize("mean", [0.0, 1e-170, -3e-160, bounds.SQUARE_MIN / 2])
    def test_ep_bound_whose_squared_mean_underflows(self, mean):
        # a scale as small as the mean: no rounding noise, but E^2 is not a normal float
        rep = ep_tur(exact_moments(mean, 1e-160), 1.0, 0.5, scale=abs(mean) or 1e-170,
                     **CURRENT)
        assert rep.satisfied is None and math.isnan(rep.lhs) and math.isnan(rep.rhs)
        assert ("reason" in rep.extra) == (mean != 0.0)
        tiny = ep_tur(exact_moments(bounds.SQUARE_MIN, 1e-310), 1.0, 0.5,
                      scale=bounds.SQUARE_MIN, **CURRENT)
        assert tiny.precondition_ok and tiny.satisfied is not None

    def test_ep_lower_bound_of_an_underflowing_square_is_refused(self):
        with pytest.raises(ValueError, match="vanishes"):
            ep_lower_bound(1e-170, 1.0, 1.0)

    def test_window_bound_of_a_tiny_change_is_judged(self, poisson, scalar_one):
        # it divides by the change of the mean, not by its square
        angle = half_angle_integral(poisson, scalar_one, 0.5e-170, 1e-170)
        rep = tur_activity_integral(poisson_moments(0.7, 0.5e-170), poisson_moments(0.7, 1e-170),
                                    angle, scale=0.7e-170)
        assert rep.precondition_ok and rep.satisfied is True

    def test_rules_take_columns(self):
        # the rounding-noise test and the tolerance rule give, elementwise, what they give
        # one value at a time, and judge's tolerance is the rule's
        lhs = [0.5, -3e12, math.inf, math.nan, 2.0, 1e-300]
        rhs = [0.25, 7.0, 4.0, math.nan, -math.inf, 3e9]
        values = [0.0, 1e-11, 2e-10, 1e-170, bounds.SQUARE_MIN, 5.0]
        scales = [1.0, 0.1, 1.0, 1e-170, 0.0, 0.0]
        tol = bounds.exact_tolerance(np.array(lhs), np.array(rhs))
        assert tol.tolist() == [bounds.exact_tolerance(a, b) for a, b in zip(lhs, rhs)]
        assert tol.tolist() == [EXACT_TOL * s for s in (1.0, 3e12, 4.0, 1.0, 2.0, 3e9)]
        assert tol.tolist() == [bounds.BoundReport.judge("x", a, b, {}).tol
                                for a, b in zip(lhs, rhs)]
        for squared in (False, True):
            noise = bounds.rounding_noise(np.array(values), np.array(scales), squared)
            assert noise.tolist() == [bounds.rounding_noise(v, s, squared)
                                      for v, s in zip(values, scales)]
            assert noise.tolist() == [True, True, False, squared, False, False]

    def test_window_bound_without_growth(self, poisson, scalar_one):
        angle = half_angle_integral(poisson, scalar_one, 0.5, 1.0)
        flat = poisson_moments(0.7, 1.0)
        rep = tur_activity_integral(flat, flat, angle, scale=0.7)
        assert rep.satisfied is None and not rep.precondition_ok
        assert rep.inputs["half_angle"].value > 0


class TestGammaFactor:
    def test_poisson_independent_increments(self, poisson, scalar_one):
        first, second, total, _ = _half_windows(
            poisson, scalar_one, CountingObservable((1.0,)), 2.0, True
        )
        g = gamma_factor(first.variance, second.variance, total.variance)
        assert g == pytest.approx(2.0, rel=1e-9)

    def test_definition_identity(self):
        assert gamma_factor(0.3, 0.5, 0.9) == 4 * 0.5 / 0.9

    def test_stationary_halves_equal(self, ep_generic):
        rho = steady_state(build_generator(ep_generic, coherent=True))
        obs = CountingObservable((1.0, -1.0, 0.5, -0.5, 0.2, -0.2))
        tau = 1.4
        first = counting_moments(ep_generic, rho, obs.with_window((0.0, tau / 2)), tau)
        second = counting_moments(ep_generic, rho, obs.with_window((tau / 2, tau)), tau)
        assert first.variance == pytest.approx(second.variance, rel=1e-9)

    def test_zero_total_variance_rejected(self):
        with pytest.raises(ValueError):
            gamma_factor(1.0, 1.0, 0.0)


class TestEntropyProductionBound:
    def test_chain_on_grid(self):
        for sigma in np.logspace(-3, math.log10(20.0), 60):
            assert csch_squared_bound(float(sigma)) >= 2.0 / math.expm1(sigma) - 1e-12

    def test_arctanh_arcsinh_identity(self):
        for ratio in (0.1, 1.0, 10.0):
            assert abs(
                math.atanh(1.0 / math.sqrt(ratio + 1.0))
                - math.asinh(1.0 / math.sqrt(ratio))
            ) <= 1e-12

    def test_closed_form_point(self):
        assert ep_lower_bound(1.0, 1.0, 1.0) == pytest.approx(
            math.sqrt(2.0) * math.log(1.0 + math.sqrt(2.0)), abs=1e-12
        )

    def test_vanishing_at_large_ratio(self):
        assert ep_lower_bound(1.0, 1e12, 1.0) < 1e-5

    def test_zero_mean_rejected(self):
        with pytest.raises(ValueError):
            ep_lower_bound(0.0, 1.0, 1.0)

    def test_report_satisfied_at_stationarity(self, ep_generic):
        from qtur.counting import entropy_production_rate

        rho = steady_state(build_generator(ep_generic, coherent=True))
        obs = CountingObservable((1.0, -1.0, 1.0, -1.0, 1.0, -1.0), antisymmetric=True)
        tau = 1.0
        mom = counting_moments(ep_generic, rho, obs, tau)
        sigma = entropy_production_rate(ep_generic, rho) * tau
        rep = ep_tur(mom, 1.0, sigma, scale=0.0, **CURRENT)
        assert rep.satisfied
        assert rep.rhs >= rep.extra["rhs_weak"] - 1e-12
        assert abs(rep.extra["arctanh_form"] - rep.extra["arcsinh_form"]) <= 1e-12
        # inverse consistency between the two formulations
        assert sigma >= rep.extra["entropy_lower_bound"] - 1e-9

    def test_inverse_consistency_random_models(self):
        from qtur.counting import entropy_production_rate
        from qtur.models import antisymmetric_current_weights

        rng = np.random.default_rng(3)
        lower_holds = 0
        for _ in range(30):
            model = random_ep_model(rng)
            rho = steady_state(build_generator(model, coherent=True))
            tau = float(rng.uniform(0.1, 10.0))
            weights = antisymmetric_current_weights(model, rng.uniform(-1, 1, 3))
            mom = counting_moments(model, rho, CountingObservable(weights), tau)
            if mom.mean == 0.0:
                continue
            sigma = entropy_production_rate(model, rho) * tau
            bound = ep_lower_bound(mom.mean, mom.variance, 1.0)
            assert sigma >= bound - 1e-9
            lower_holds += 1
        assert lower_holds > 20

    def test_diagonal_part_violates_for_some_draws(self):
        from qtur.counting import rate_split
        from qtur.models import antisymmetric_current_weights

        rng = np.random.default_rng(8)
        violations = 0
        for _ in range(200):
            model = random_ep_model(rng)
            rho = steady_state(build_generator(model, coherent=True))
            tau = float(rng.uniform(0.1, 10.0))
            weights = antisymmetric_current_weights(model, rng.uniform(-1, 1, 3))
            mom = counting_moments(model, rho, CountingObservable(weights), tau)
            if mom.mean == 0.0:
                continue
            s_d = model.entropy_weights() @ rate_split(model, rho)[0]
            if s_d * tau < ep_lower_bound(mom.mean, mom.variance, 1.0) - 1e-9:
                violations += 1
        assert violations >= 1

    def test_mc_inputs_widen_tolerance(self):
        rep = ep_tur(mc_moments(1.0, 1.0, 0.05, 0.08), 1.0, 2.0, scale=0.0, **CURRENT)
        assert rep.tol > 1e-9


class TestSurvivalBound:
    @pytest.mark.parametrize("tau", [np.nan, np.inf, -0.1])
    def test_nonfinite_or_negative_horizon_rejected(self, tau, da_generic):
        # a nan horizon used to become a report with lhs nan, judged violated
        with pytest.raises(ValueError, match="finite and nonnegative"):
            survival_bound_check(da_generic, ground_state(), tau)

    def test_ground_state_equality(self, da_generic):
        rep = survival_bound_check(da_generic, ground_state(), 1.3)
        assert abs(rep.lhs - rep.rhs) <= 1e-9
        assert rep.satisfied

    def test_stationary_state_strict(self, da_generic):
        rho = steady_state(build_generator(da_generic, coherent=True))
        rep = survival_bound_check(da_generic, rho, 1.0)
        assert rep.satisfied and rep.slack > 1e-6

    def test_short_horizon_limit(self, ep_generic):
        rep = survival_bound_check(ep_generic, ground_state(), 1e-9)
        assert rep.lhs == pytest.approx(1.0, abs=1e-8)
        assert rep.rhs == pytest.approx(1.0, abs=1e-8)


class TestBoundReport:
    def test_pure_evaluators_reproduce_bitwise(self, da_generic):
        rho = steady_state(build_generator(da_generic, coherent=True))
        a = survival_bound_check(da_generic, rho, 1.0)
        b = survival_bound_check(da_generic, rho, 1.0)
        assert a.lhs == b.lhs and a.rhs == b.rhs and a.slack == b.slack

    def test_lhs_recomputable_from_stored_inputs(self):
        rep = ep_tur(exact_moments(0.7, 0.9), 1.3, 2.0, scale=0.0, **CURRENT)
        mean = rep.inputs["mean_current"].value
        var = rep.inputs["variance_current"].value
        assert rep.lhs == rep.extra["gamma"] * var / mean**2
        assert rep.rhs == csch_squared_bound(rep.inputs["entropy_production"].value)

    def test_json_round_trip(self, da_generic):
        rep = survival_bound_check(da_generic, ground_state(), 1.0)
        obj = json.loads(json.dumps(rep.to_json()))
        assert obj["name"] == "survival_bound"
        assert obj["satisfied"] is True
        assert obj["inputs"]["initial_rate"]["source"] == "exact"

    def test_csv_row_contains_core_fields(self, da_generic):
        row = survival_bound_check(da_generic, ground_state(), 1.0).to_csv_row()
        for key in ("name", "lhs", "rhs", "slack", "satisfied", "precondition_ok"):
            assert key in row

    def test_csv_row_carries_monte_carlo_stderrs(self):
        row = _ep_report([-0.4, 0.3], [0.05, 0.01]).to_csv_row()
        assert row["input_mean_current_source"] == "monte_carlo"
        assert (row["input_mean_current_stderr"], row["input_variance_current_stderr"]) == (0.05, 0.01)
        assert row["input_entropy_production_source"] == "exact"
        assert "input_entropy_production_stderr" not in row

    @pytest.mark.parametrize("sampled", [False, True])
    def test_csv_row_flattens_the_json(self, sampled):
        rep = _ep_report([-0.4, 0.3], [0.05, 0.01] if sampled else [None, None])
        obj = rep.to_json()
        flat = {k: v for k, v in obj.items() if k not in ("inputs", "extra")}
        for key, stat in obj["inputs"].items():
            flat[f"input_{key}"] = stat["value"]
            flat[f"input_{key}_source"] = stat["source"]
            if stat["stderr"] is not None:
                flat[f"input_{key}_stderr"] = stat["stderr"]
        flat.update({f"extra_{key}": value for key, value in obj["extra"].items()})
        assert rep.to_csv_row() == flat
        assert (rep.satisfied, str(rep)) == (True, json.dumps(obj))

    @pytest.mark.parametrize("case", MC_CASES)
    def test_monte_carlo_inputs_widen_tolerance(self, case):
        # tol is MC_SIGMAS standard errors of the lhs, by first-order
        # propagation against a central-difference gradient
        keys, x, err, lhs, report = MC_CASES[case]
        x, err = np.array(x), np.array(err)
        rep = report(x, err)
        grad = []
        for k in range(len(x)):
            h = np.zeros(len(x))
            h[k] = 1e-6 * max(abs(x[k]), 1.0)
            grad.append((lhs(*(x + h)) - lhs(*(x - h))) / (2 * h[k]))
        propagated = math.sqrt(sum((g * e) ** 2 for g, e in zip(grad, err)))
        assert rep.lhs == pytest.approx(lhs(*x), rel=1e-12)
        assert rep.tol == pytest.approx(MC_SIGMAS * propagated, rel=1e-6)
        assert rep.tol > EXACT_TOL
        for key, value, se in zip(keys, x, err):
            assert rep.inputs[key] == InputStat(value, se)

    def test_monotonicity_of_bounds(self):
        # entropy bound decreasing in Sigma; rate bound decreasing in activity
        sigmas = np.linspace(0.01, 10, 50)
        values = [csch_squared_bound(float(s)) for s in sigmas]
        assert all(a > b for a, b in zip(values, values[1:]))
        activities = np.linspace(0.1, 20, 50)
        kur_rhs = [1.0 / a for a in activities]
        assert all(a > b for a, b in zip(kur_rhs, kur_rhs[1:]))


def two_level_decay(rate: float) -> LindbladModel:
    """One decay channel sqrt(rate) |g><e|; from |e>, A(t) = 1 - exp(-rate t)."""
    lower = np.zeros((2, 2), dtype=complex)
    lower[0, 1] = math.sqrt(rate)
    return LindbladModel.build(np.diag([0.0, 1.3]).astype(complex), [lower])


def quad_half_angle(activity, t1: float, t2: float) -> float:
    """The half angle by adaptive quadrature in u = sqrt(t), at 1e-14."""

    def integrand(u):
        return math.sqrt(activity(u * u)) / u

    with warnings.catch_warnings():
        # the requested tolerance sits at rounding; quad says so and still converges
        warnings.simplefilter("ignore", IntegrationWarning)
        return quad(integrand, math.sqrt(t1), math.sqrt(t2), epsabs=1e-15, epsrel=1e-14, limit=200)[0]


class TestHalfAngleIntegral:
    def test_stationary_closed_form(self, da_equal):
        rho = steady_state(build_generator(da_equal, coherent=True))
        rate = 1.2
        expected = math.sqrt(rate) * (math.sqrt(4.0) - math.sqrt(1.0))
        assert half_angle_integral(da_equal, rho, 1.0, 4.0) == pytest.approx(expected, rel=1e-12)
        expected0 = math.sqrt(rate) * math.sqrt(4.0)
        assert half_angle_integral(da_equal, rho, 0.0, 4.0) == pytest.approx(expected0, rel=1e-12)

    def test_empty_window(self, da_equal):
        rho = steady_state(build_generator(da_equal, coherent=True))
        assert half_angle_integral(da_equal, rho, 0.7, 0.7) == 0.0

    @pytest.mark.parametrize("tau", [1.0, 4.0])
    def test_transient_matches_quadrature_reference(self, ep_generic, tau):
        # a two-level decay from its excited state (closed-form A) and the ep
        # model from its ground state (A from the moment hierarchy); a
        # 2048-sample interpolated trapezoid misses by 1e-9 to 1e-5 here
        rate = 0.8
        excited = np.diag([0.0, 1.0]).astype(complex)
        count = CountingObservable.total_count(6)
        cases = (
            (two_level_decay(rate), excited, lambda t: -math.expm1(-rate * t)),
            (ep_generic, ground_state(), lambda t: counting_moments(ep_generic, ground_state(), count, t).mean),
        )
        for model, rho0, activity in cases:
            for t1 in (tau / 2, 0.0):
                want = quad_half_angle(activity, t1, tau)
                got = half_angle_integral(model, rho0, t1, tau)
                assert got == pytest.approx(want, rel=1e-12)

    def test_refused_past_the_node_cap(self, monkeypatch):
        # eight nodes against sixteen miss 1e-12 on this long window, so a
        # cap of sixteen leaves no pair of rules to agree
        model, excited = two_level_decay(0.8), np.diag([0.0, 1.0]).astype(complex)
        assert half_angle_integral(model, excited, 0.0, 50.0) > 0
        monkeypatch.setattr(bounds, "HALF_ANGLE_MAX_NODES", 16)
        with pytest.raises(ValueError, match=r"half angle over \[0.0, 50.0\]"):
            half_angle_integral(model, excited, 0.0, 50.0)

    def test_battery_reads_the_same_angle_and_activity(self, ep_generic):
        rho0, tau = ground_state(), 1.3
        obs = CountingObservable((1.0, -1.0, 1.0, -1.0, 1.0, -1.0))
        rate, window = bounds.battery(ep_generic, rho0, obs, tau)[:2]
        angle = half_angle_integral(ep_generic, rho0, tau / 2, tau)
        assert window.inputs["half_angle"].value == angle
        activity = activity_at(ep_generic, rho0, [tau])[0][0]
        assert rate.inputs["activity"].value == pytest.approx(activity, rel=1e-13)
