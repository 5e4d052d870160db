import dataclasses
import hashlib
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm

import qtur.bounds as bounds
import qtur.counting as counting
import qtur.engine as engine
from qtur.bounds import half_angle_integral
from qtur.counting import (
    ACTION_MIN_DIM,
    CountingObservable,
    activity_at,
    counting_moments,
    decompose_activity,
    entropy_production_rate,
    evolve,
    mean_rate,
    rate_split,
    sigma_from,
    stacked_moments,
    stationary,
    _half_windows,
)
from qtur.engine import (
    SteadyStateError,
    _channel_sums,
    build_generator,
    steady_state,
    steady_states,
    unvec,
    vec,
)
from qtur.models import build_da_models, build_ep_model, build_ep_models
from qtur.operators import SECTOR_TOL, LindbladModel, ModelValidationError, von_neumann_trace_term
from conftest import (
    assert_close,
    da_activity_split_closed_form,
    ground_state,
    ladder_model,
    liouville_route,
    liouville_state,
    random_da_model,
    random_detailed_balance_model,
    random_eigenoperator_model,
    random_ep_model,
    random_pure_state,
    record_exponentials,
    rotate_model,
)


class TestMomentHierarchy:
    def test_poisson_moments_exact(self, poisson, scalar_one):
        obs = CountingObservable((1.0,))
        for tau in (0.1, 1.0, 10.0):
            res = counting_moments(poisson, scalar_one, obs, tau)
            assert res.mean == pytest.approx(0.7 * tau, rel=1e-9)
            assert res.variance == pytest.approx(0.7 * tau, rel=1e-9)

    def test_zero_weights(self, da_generic):
        rho = steady_state(build_generator(da_generic, coherent=True))
        res = counting_moments(da_generic, rho, CountingObservable((0.0,) * 4), 2.0)
        assert res.mean == 0.0
        assert res.variance == pytest.approx(0.0, abs=1e-12)

    def test_stationary_activity_mean(self, da_equal):
        # equal rates gamma: total jump rate is 12 gamma / 5
        rho = steady_state(build_generator(da_equal, coherent=True))
        tau = 1.7
        res = counting_moments(da_equal, rho, CountingObservable.total_count(4), tau)
        assert res.mean == pytest.approx(12 * 0.5 / 5 * tau, rel=1e-10)

    def test_variance_nonnegative(self, ep_generic):
        rho = steady_state(build_generator(ep_generic, coherent=True))
        obs = CountingObservable((0.3, -0.3, 0.8, -0.8, 0.1, -0.1))
        res = counting_moments(ep_generic, rho, obs, 1.0)
        assert res.variance >= -1e-9

    def test_window_outside_horizon_rejected(self, da_generic):
        rho = steady_state(build_generator(da_generic, coherent=True))
        obs = CountingObservable((1.0,) * 4, window=(0.0, 3.0))
        with pytest.raises(ValueError, match="window"):
            counting_moments(da_generic, rho, obs, 2.0)

    @pytest.mark.parametrize("scale", [1e-13, 1.0, 1e13])
    def test_window_check_is_free_of_time_units(self, scale):
        # the same windows in units where the horizon is 1e-13, 1 and 1e13
        obs = CountingObservable((1.0,))
        with pytest.raises(ValueError, match="outside"):
            obs.with_window((-5 * scale, scale)).resolved_window(scale)
        with pytest.raises(ValueError, match="outside"):
            obs.with_window((0.0, 1.5 * scale)).resolved_window(scale)
        rounded = obs.with_window((-1e-13 * scale, scale * (1 + 1e-13)))
        assert rounded.resolved_window(scale) == (0.0, scale)

    def test_windowed_additivity_of_means(self, da_generic):
        rho0 = ground_state()
        tau = 2.4
        base = CountingObservable((0.5, 1.0, 0.25, 0.75))
        full = counting_moments(da_generic, rho0, base, tau).mean
        first = counting_moments(da_generic, rho0, base.with_window((0.0, tau / 2)), tau).mean
        second = counting_moments(da_generic, rho0, base.with_window((tau / 2, tau)), tau).mean
        assert first + second == pytest.approx(full, abs=1e-9)

    def test_mean_growth_matches_rate(self, da_generic):
        rho0 = ground_state()
        obs = CountingObservable((1.0, 0.3, 0.6, 0.2))
        tau, h = 1.3, 5e-5
        up = counting_moments(da_generic, rho0, obs, tau + h).mean
        down = counting_moments(da_generic, rho0, obs, tau - h).mean
        deriv = (up - down) / (2 * h)
        rate = mean_rate(da_generic, evolve(da_generic, rho0, tau), obs)
        assert deriv == pytest.approx(rate, rel=1e-6)

    def test_moments_match_without_hamiltonian(self):
        # one hundred random structurally valid models, including rotated
        # bases where the Hamiltonian is not diagonal
        rng = np.random.default_rng(101)
        for k in range(100):
            if k % 3 == 0:
                model = random_ep_model(rng)
            else:
                model = random_da_model(rng)
            if k % 2 == 0:
                model = rotate_model(model, rng)
            rho0 = random_pure_state(3, rng)
            weights = tuple(rng.uniform(0.0, 1.0, model.n_channels))
            tau = float(rng.uniform(0.1, 3.0))
            obs = CountingObservable(weights)
            a = counting_moments(model, rho0, obs, tau, coherent=True, reduced=False)
            b = counting_moments(model, rho0, obs, tau, coherent=False, reduced=False)
            assert a.mean == pytest.approx(b.mean, rel=1e-8, abs=1e-10)
            assert a.variance == pytest.approx(b.variance, rel=1e-8, abs=1e-10)


class TestMeanRate:
    def test_equal_rate_total(self, da_equal):
        rho = steady_state(build_generator(da_equal, coherent=True))
        assert mean_rate(da_equal, rho, CountingObservable.total_count(4)) == pytest.approx(
            1.2, rel=1e-10
        )

    def test_zero_weights(self, da_equal):
        rho = steady_state(build_generator(da_equal, coherent=True))
        assert mean_rate(da_equal, rho, CountingObservable((0.0,) * 4)) == 0.0

    def test_single_channel_from_ground(self, da_generic):
        obs = CountingObservable((0.0, 1.0, 0.0, 0.0))
        assert mean_rate(da_generic, ground_state(), obs) == pytest.approx(
            2 * 0.35, rel=1e-12
        )


# non-uniform, unsorted times, one of them repeated
TIMES = (0.3, 0.0, 2.9, 1.1, 0.31, 1.1, 3.0)

# SHA-256 of the bytes of A, Phi and rho(t) from activity_at, as computed
# while its rows block had a stepper of its own (numpy 2.4, scipy 1.17):
# (dim, coherent, times, Taylor actions taken, digest)
PINNED_ACTIVITY = {
    "ep": (3, True, TIMES, 0, "dd857a7a980e71dc2ad9c21e3092decd50dfffae06585bdbbf87fbf182d787b0"),
    "ep_incoherent": (
        3, False, TIMES, 0, "f0e9232c3d97f5f5d05f77b8cff45281537e786fb2470f9e4e964e60574d0add"
    ),
    "ladder": (
        ACTION_MIN_DIM, True, (0.05, 2.0, 0.7, 3.5), 4,
        "04b857851723b568031a8e03cc25ca51f48dc834152fd13d9896cc735d5116c6",
    ),
    "ladder_incoherent": (
        ACTION_MIN_DIM, False, (0.05, 2.0, 0.7, 3.5), 4,
        "4cc2ce242a554cf78a28cf9c839d9e9bbc30f07caf0309f7b0ab7054b3961012",
    ),
}


def entropy_production(model, rho0, tau, coherent=True):
    """Sigma(tau) from one :func:`activity_at` step and the von Neumann end terms."""
    _, flow, states = activity_at(model, rho0, [tau], coherent, reduced=False)
    return sigma_from(rho0, states[0], flow if flow is None else flow[0])


class TestActivityCurve:
    def test_stationary_curve_is_linear(self, da_equal):
        rho = steady_state(build_generator(da_equal, coherent=True))
        activity, flow, states = activity_at(da_equal, rho, TIMES, reduced=False)
        np.testing.assert_allclose(activity, 1.2 * np.array(TIMES), rtol=1e-12, atol=0)
        assert activity[1] == 0.0 and flow is None
        assert np.abs(states - rho).max() < 1e-12

    def test_poisson_closed_form_at_any_times(self, poisson, scalar_one):
        activity, flow, states = activity_at(poisson, scalar_one, TIMES, reduced=False)
        np.testing.assert_allclose(activity, 0.7 * np.array(TIMES), rtol=1e-13, atol=0)
        assert flow is None and np.all(states == 1.0)

    def test_times_must_be_finite_and_nonnegative(self, poisson, scalar_one):
        for bad in ([1.0, -0.1], [np.nan], [np.inf]):
            with pytest.raises(ValueError, match="nonnegative"):
                activity_at(poisson, scalar_one, bad)

    def test_no_channels_means_silence(self):
        from qtur.operators import LindbladModel

        model = LindbladModel.build(np.diag([0.0, 1.0]).astype(complex), [])
        activity, _, _ = activity_at(model, np.eye(2, dtype=complex) / 2, TIMES)
        assert np.abs(activity).max() == 0.0

    def test_activity_curves_match_without_hamiltonian(self, da_generic):
        rho0 = ground_state()
        with_h, _, _ = activity_at(da_generic, rho0, TIMES, coherent=True, reduced=False)
        without_h, _, _ = activity_at(da_generic, rho0, TIMES, coherent=False, reduced=False)
        assert np.abs(with_h - without_h).max() < 1e-9

    def test_activity_nondecreasing(self, ep_generic):
        times = np.sort(np.random.default_rng(4).uniform(0.0, 4.0, 64))
        activity, _, _ = activity_at(ep_generic, ground_state(), times)
        assert np.all(np.diff(activity) >= -1e-12)

    @pytest.mark.parametrize("case", sorted(PINNED_ACTIVITY))
    def test_values_pinned_where_the_path_is_unchanged(self, case, monkeypatch):
        # the dense rows steps below ACTION_MIN_DIM and, on short gaps, the
        # Taylor action from it up: A, Phi and rho(t) keep their bits
        dim, coherent, times, actions, digest = PINNED_ACTIVITY[case]
        rng = np.random.default_rng(10)
        if dim == 3:
            model = build_ep_model(1.0, 0.7, 0.3, 0.5, 0.4, 0.6, 0.2)
        else:
            model = ladder_model(dim, np.random.default_rng(9))
        rho0 = random_pure_state(dim, rng)
        calls, action = [], counting._taylor_action
        monkeypatch.setattr(counting, "_taylor_action", lambda *a: calls.append(a) or action(*a))
        activity, flow, states = activity_at(model, rho0, times, coherent, reduced=False)
        assert len(calls) == actions
        data = activity.tobytes() + flow.tobytes() + states.tobytes()
        assert hashlib.sha256(data).hexdigest() == digest

    def test_action_matches_dense_steps(self, monkeypatch):
        # from ACTION_MIN_DIM up the rows block acts on vectors; the dense
        # steps below it are the reference
        model = ladder_model(ACTION_MIN_DIM, np.random.default_rng(9))
        rho0 = random_pure_state(ACTION_MIN_DIM, np.random.default_rng(10))
        times = (0.05, 2.0, 0.7, 7.5)
        got = activity_at(model, rho0, times, reduced=False)
        monkeypatch.setattr(counting, "ACTION_MIN_DIM", ACTION_MIN_DIM + 1)
        want = activity_at(model, rho0, times, reduced=False)
        for g, w in zip(got, want):
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()


class TestEntropyProduction:
    def test_equilibrium_is_zero(self, ep_equilibrium):
        rho = steady_state(build_generator(ep_equilibrium, coherent=True))
        assert entropy_production(ep_equilibrium, rho, 2.0) == pytest.approx(
            0.0, abs=1e-10
        )

    def test_stationary_linearity(self, ep_generic):
        rho = steady_state(build_generator(ep_generic, coherent=True))
        sigma = entropy_production_rate(ep_generic, rho)
        for tau in (0.5, 1.0, 2.0):
            total = entropy_production(ep_generic, rho, tau)
            assert total == pytest.approx(sigma * tau, rel=1e-9, abs=1e-11)

    def test_matches_without_hamiltonian(self, ep_generic):
        rho0 = ground_state()
        a = entropy_production(ep_generic, rho0, 1.5, coherent=True)
        b = entropy_production(ep_generic, rho0, 1.5, coherent=False)
        assert a == pytest.approx(b, abs=1e-9)

    def test_second_law_on_random_models(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            model = random_ep_model(rng)
            rho0 = random_pure_state(3, rng)
            tau = float(rng.uniform(0.2, 2.0))
            assert entropy_production(model, rho0, tau) >= -1e-9

    def test_missing_entropy_weights_rejected(self, da_generic):
        with pytest.raises(ModelValidationError, match="ds"):
            entropy_production(da_generic, ground_state(), 1.0)


def moment_route_entropy(model, rho0, tau):
    """Sigma by an independent exact route: the mean of the ds-weighted
    count plus the von Neumann end terms of a separately propagated state."""
    flow = counting_moments(model, rho0, CountingObservable(model.entropy_weights()), tau).mean
    rho_tau = liouville_state(model, rho0, tau)
    return von_neumann_trace_term(rho0) - von_neumann_trace_term(rho_tau) + flow


def assert_moments_close(got, want, rel):
    for field in ("mean", "second_moment", "variance"):
        assert getattr(got, field) == pytest.approx(getattr(want, field), rel=rel), field


class TestExactKernel:
    def test_entropy_production_matches_moment_route(self, ep_generic):
        rng = np.random.default_rng(12)
        for model in (ep_generic, rotate_model(ep_generic, rng)):
            rho_ss = steady_state(build_generator(model, coherent=True))
            for rho0, tau in ((ground_state(), 50.0), (ground_state(), 1.0), (rho_ss, 1.0)):
                assert entropy_production(model, rho0, tau) == pytest.approx(
                    moment_route_entropy(model, rho0, tau), rel=1e-12
                )

    def test_half_windows_match_separate_windows(self, da_generic, ep_generic):
        rng = np.random.default_rng(31)
        cases = (
            (da_generic, (0.5, 1.0, 0.25, 0.75)),
            (rotate_model(ep_generic, rng), (1.0, -0.3, 0.6, 0.2, -0.8, 0.4)),
        )
        for model, weights in cases:
            rho0 = random_pure_state(3, rng)
            obs = CountingObservable(weights)
            tau = 1.7
            merged = _half_windows(model, rho0, obs, tau, True)
            windows = ((0.0, tau / 2), (tau / 2, tau), (0.0, tau))
            separate = [counting_moments(model, rho0, obs.with_window(w), tau) for w in windows]
            for got, want in zip(merged, separate):
                assert_moments_close(got, want, 1e-12)
            assert_moments_close(merged[0], counting_moments(model, rho0, obs, tau / 2), 1e-12)

    def test_curve_samples_are_exact(self, ep_generic):
        rho0 = ground_state()
        activity, flow, states = activity_at(ep_generic, rho0, TIMES, reduced=False)
        count = CountingObservable.total_count(6)
        entropy = CountingObservable(ep_generic.entropy_weights())
        for k, t in enumerate(TIMES):
            assert activity[k] == pytest.approx(
                counting_moments(ep_generic, rho0, count, t).mean, rel=1e-12
            )
            assert flow[k] == pytest.approx(
                counting_moments(ep_generic, rho0, entropy, t).mean, rel=1e-12, abs=1e-15
            )
            np.testing.assert_allclose(states[k], liouville_state(ep_generic, rho0, t), rtol=0,
                                       atol=1e-13)

    def test_final_activity_matches_the_count_mean(self, da_generic, ep_generic):
        for model in (da_generic, ep_generic):
            for rho0 in (ground_state(), steady_state(build_generator(model, coherent=True))):
                count = CountingObservable.total_count(model.n_channels)
                total = counting_moments(model, rho0, count, 3.0)
                assert activity_at(model, rho0, [3.0])[0][0] == pytest.approx(
                    total.mean, rel=1e-12
                )


class TestStackedMoments:
    """A stack of draws, as a sweep takes their moments on the zero-frequency
    sector, against ``counting_moments(..., reduced=True)`` of each draw:
    the same bits."""

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["da", "ep"]), n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_stack_matches_counting_moments(self, kind, n, seed):
        rng = np.random.default_rng(seed)
        n_rates, build = {"da": (4, build_da_models), "ep": (6, build_ep_models)}[kind]
        models = build(rng.uniform(0.1, 3.0), rng.uniform(1e-3, 1.0, (n, n_rates)))
        zeros = [m.zero_sector() for m in models]
        assert all(z.generator.dtype == float for z in zeros)  # |e1>, |e2> degenerate: n0 = 5
        rhos = steady_states([z.generator for z in zeros], zeros[0].pairs, models[0].spectrum()[1])
        weights = rng.uniform(-1.0, 1.0, (n, n_rates))
        taus = np.where(rng.random(n) < 0.1, 0.0, rng.uniform(0.1, 10.0, n))
        stacked = stacked_moments(models, rhos, weights, taus)
        assert len(stacked) == n
        for model, rho, w, tau, got in zip(models, rhos, weights, taus, stacked):
            obs = CountingObservable(tuple(w))
            want = counting_moments(model, rho, obs, tau, reduced=True)
            fields = ("mean", "second_moment", "variance")
            assert [np.float64(getattr(got, f)).tobytes() for f in fields] == [
                np.float64(getattr(want, f)).tobytes() for f in fields
            ]

    def test_refusals(self, ep_generic):
        rho = steady_state(build_generator(ep_generic))
        assert stacked_moments([], [], [], []) == []
        with pytest.raises(ValueError, match="tau"):
            stacked_moments([ep_generic], [rho], [[1.0] * 6], [np.inf])
        with pytest.raises(ValueError, match="channel count"):
            stacked_moments([ep_generic], [rho], [[1.0] * 5], [1.0])
        crossing = dataclasses.replace(ep_generic, jump_ops=ep_generic.jump_ops + np.eye(3))
        with pytest.raises(ModelValidationError, match="outside its Bohr sector"):
            stacked_moments([crossing], [rho], [[1.0] * 6], [1.0])


class TestMemoisedStep:
    @pytest.mark.parametrize("coherent", [True, False])
    def test_windows_from_the_step_match_fresh_moments(self, coherent, da_generic, ep_generic):
        rng = np.random.default_rng(17)
        cases = (
            (da_generic, (0.5, 1.0, 0.25, 0.75), (1.0, 0.0, -0.5, 0.3)),
            (ep_generic, (1.0, -1.0, 0.5, -0.5, 0.2, -0.2), (1.0,) * 6),
            (rotate_model(ep_generic, rng), (1.0, -0.3, 0.6, 0.2, -0.8, 0.4), (0.0,) * 5 + (1.0,)),
        )
        windows = ((0.0, 0.85), (0.85, 1.7), (0.0, 1.7))
        for model, weights, other in cases:
            rho0 = random_pure_state(3, rng)
            for flag, w in ((coherent, weights), (not coherent, weights), (coherent, other)):
                obs = CountingObservable(w)
                want = [counting_moments(model, rho0, obs.with_window(v), 1.7, flag) for v in windows]
                *got, rho_tau = _half_windows(model, rho0, obs, 1.7, flag)
                for g, v in zip(got, want):
                    assert_moments_close(g, v, 1e-12)
                reference = liouville_state(model, rho0, 1.7, flag)
                np.testing.assert_allclose(rho_tau, reference, rtol=0, atol=1e-12)


class TestNoStateOnTheModel:
    @pytest.mark.parametrize("case", ["liouville", "action", "sector"])
    def test_kernels_leave_the_model_bytes_alone(self, case, da_generic, ep_generic, monkeypatch):
        # generators and blocks live for one call: every kernel, on the
        # Liouville route below ACTION_MIN_DIM, on the Taylor action at
        # d = 8, and on the zero-frequency sector, leaves the model's pickle
        # bytes as they were
        model = {"liouville": da_generic, "action": ladder_model(8, np.random.default_rng(8)),
                 "sector": ep_generic}[case]
        reduced = case == "sector"
        if not reduced:  # battery too
            monkeypatch.setattr(counting, "_route", liouville_route)
        rho0 = random_pure_state(model.dim, np.random.default_rng(3))
        obs = CountingObservable(np.linspace(-1.0, 1.0, model.n_channels))
        before = pickle.dumps(model)
        with mock.patch.object(counting, "_taylor_action", wraps=counting._taylor_action) as act:
            for coherent in (True, False):
                build_generator(model, coherent)
                counting_moments(model, rho0, obs.with_window((0.5, 2.0)), 2.0, coherent, reduced)
                activity_at(model, rho0, [0.5, 2.0], coherent, reduced)
                _half_windows(model, rho0, obs, 2.0, coherent)
                bounds.battery(model, rho0, obs, 2.0, coherent)
            build_generator(model, reduced=True)
        assert act.called == (case == "action")
        assert pickle.dumps(model) == before


class TestDecompositions:
    def test_equal_rate_split(self, da_equal):
        rho = steady_state(build_generator(da_equal, coherent=True))
        a_d, a_nd = decompose_activity(da_equal, rho)
        assert a_d == pytest.approx(1.0, rel=1e-10)
        assert a_nd == pytest.approx(0.2, rel=1e-10)

    def test_closed_form_split_random_rates(self):
        rng = np.random.default_rng(77)
        from qtur.models import build_da_model

        for _ in range(5):
            g = rng.uniform(0.05, 1.0, 4)
            model = build_da_model(1.0, *g)
            rho = steady_state(build_generator(model, coherent=True))
            a_d, a_nd = decompose_activity(model, rho)
            ref_d, ref_nd = da_activity_split_closed_form(*g)
            assert a_d == pytest.approx(ref_d, rel=1e-9)
            assert a_nd == pytest.approx(ref_nd, rel=1e-9)

    def test_diagonal_state_has_no_offdiagonal_part(self, da_generic):
        rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
        _, a_nd = decompose_activity(da_generic, rho)
        assert a_nd == pytest.approx(0.0, abs=1e-14)

    def test_additivity(self, ep_generic):
        rho = steady_state(build_generator(ep_generic, coherent=True))
        a_d, a_nd = decompose_activity(ep_generic, rho)
        total = mean_rate(ep_generic, rho, CountingObservable.total_count(6))
        assert a_d + a_nd == pytest.approx(total, abs=1e-12)
        s_d, s_nd = (ep_generic.entropy_weights() @ r for r in rate_split(ep_generic, rho))
        assert s_d + s_nd == pytest.approx(entropy_production_rate(ep_generic, rho), abs=1e-12)


class TestObservableValidation:
    def test_antisymmetry_check(self, ep_generic):
        good = CountingObservable((1.0, -1.0, 0.5, -0.5, 0.2, -0.2), antisymmetric=True)
        good.check_antisymmetry(ep_generic)
        bad = CountingObservable((1.0, -1.0, 0.5, -0.5, 0.2, 0.2), antisymmetric=True)
        with pytest.raises(ModelValidationError, match="antisymmetric"):
            bad.check_antisymmetry(ep_generic)

    def test_unpaired_model_has_no_current(self, da_generic):
        obs = CountingObservable((1.0, -1.0, 1.0, -1.0), antisymmetric=True)
        with pytest.raises(ModelValidationError, match="unpaired"):
            obs.check_antisymmetry(da_generic)

    def test_reversed_window_rejected(self):
        with pytest.raises(ValueError, match="reversed"):
            CountingObservable((1.0,), window=(2.0, 1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_rejected(self, bad):
        with pytest.raises(ValueError, match=r"weights \(1.0, .*\) are not finite"):
            CountingObservable((1.0, bad, 0.5))

    def test_weight_count_must_match_channels(self, ep_generic):
        with pytest.raises(ValueError, match="weight vector length"):
            counting_moments(ep_generic, ground_state(), CountingObservable((1.0, -1.0)), 1.0)


def _weights_with_zeros(rng, n_channels):
    weights = rng.normal(size=n_channels)
    weights[rng.random(n_channels) < 0.3] = 0.0
    if n_channels:  # none at d = 1
        weights[rng.integers(n_channels)] = 0.0
    return tuple(weights)


def reference_block(model, weights, coherent):
    """The 3 d^2-square hierarchy [[L, 0, 0], [J_c, L, 0], [J_c2, 2 J_c, L]]
    on (rho, rho1, rho2), which carries rho2 itself where the library's
    block carries only its trace."""
    gen = build_generator(model, coherent=coherent)
    n = gen.shape[0]
    w = np.asarray(weights, dtype=float)
    j1, j2 = _channel_sums(model.jump_ops, w), _channel_sums(model.jump_ops, w * w)
    block = np.zeros((3 * n, 3 * n), dtype=complex)
    for k in range(3):
        block[k * n : (k + 1) * n, k * n : (k + 1) * n] = gen
    block[n : 2 * n, :n] = j1
    block[2 * n :, :n] = j2
    block[2 * n :, n : 2 * n] = 2 * j1
    return block


def traced(y, dim):
    """(rho, rho1, Tr rho2) of the reference's (rho, rho1, rho2) columns."""
    n = dim * dim
    return np.concatenate([y[: 2 * n], (vec(np.eye(dim)).conj() @ y[2 * n :])[None]])


def reference_moments(model, rho0, obs, tau, coherent):
    """Mean and second moment from dense exponentials of L before the
    window and of the reference hierarchy over it."""
    t_a, t_b = obs.resolved_window(tau)
    n = model.dim**2
    y = np.zeros((3 * n, 1), dtype=complex)
    y[:n, 0] = expm(build_generator(model, coherent=coherent) * t_a) @ vec(rho0)
    y = traced(expm(reference_block(model, obs.weights, coherent) * (t_b - t_a)) @ y, model.dim)
    return float(np.real(vec(np.eye(model.dim)).conj() @ y[n : 2 * n, 0])), float(y[-1, 0].real)


def _block_norm(model, weights, coherent):
    """The reference block, and ||B - mu I||_1 of the (2 d^2 + 1) block
    formed from it with the trace row of (J_c2, 2 J_c) in place of rho2's
    rows, checked against the library's exact norm."""
    block = reference_block(model, weights, coherent)
    n = model.dim**2
    reduced = traced(block[:, : 2 * n + 1], model.dim)
    reduced[:, 2 * n] = 0.0
    mu = np.trace(block[:n, :n]) / n
    norm = np.abs(reduced - mu * np.eye(2 * n + 1)).sum(axis=0).max()
    assert counting._block(model, weights, coherent, False).norm == pytest.approx(norm, rel=1e-13)
    return block, norm


def reference_rows_block(model, coherent):
    """[[L, 0], [R, 0]] formed densely, R the activity row sum_m
    vec(L_m^dag L_m)^dag and the entropy row weighted by ds_m."""
    n = model.dim**2
    norms = [L.conj().T @ L for L in model.jump_ops]
    flows = sum(ds * k for ds, k in zip(model.ds, norms))
    block = np.zeros((n + 2, n + 2), dtype=complex)
    block[:n, :n] = build_generator(model, coherent=coherent)
    block[n:, :n] = [vec(sum(norms)).conj(), vec(flows).conj()]
    return block


SEEDS = st.integers(0, 2**32 - 1)
DIMS = st.integers(4, 8)
# h ||B||_1 from 0.1 to about 500, so the action takes up to ~50 steps
LOG_SCALES = st.floats(np.log(0.1), np.log(500.0))


class TestBlockAction:
    def test_one_column_norm_is_the_row_sum_form(self):
        rng = np.random.default_rng(5)
        for b in (rng.normal(size=(50, 1)) + 1j * rng.normal(size=(50, 1)), rng.normal(size=(7, 1))):
            assert counting._inf_norm(b) == float(np.abs(b).sum(axis=-1).max())

    @settings(max_examples=20)
    @given(seed=SEEDS, dim=DIMS, tau=st.floats(0.05, 5.0))
    def test_activity_entropy_and_angle_match_without_hamiltonian(self, seed, dim, tau):
        # the Hamiltonian-free equivalence of what `qtur bounds` reads besides
        # the moments, on the dense rows-block steps (d < ACTION_MIN_DIM) and
        # on the action
        rng = np.random.default_rng(seed)
        model = random_detailed_balance_model(dim, rng)
        rho0 = random_pure_state(dim, rng)
        values = []
        for coherent in (True, False):
            with mock.patch.object(counting, "_route", liouville_route):  # one matrix on sector 0
                activity, flow, states = activity_at(model, rho0, [tau], coherent)
                sigma = sigma_from(rho0, states[0], flow[0])
                angle = half_angle_integral(model, rho0, tau / 2, tau, coherent)
            values.append((activity[0], sigma, angle))
        for a, b in zip(*values):
            assert a == pytest.approx(b, rel=1e-9, abs=1e-13)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=SEEDS,
        dim=st.integers(ACTION_MIN_DIM, 8),
        coherent=st.booleans(),
        scale=st.floats(0.1, 15.0),
        fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10),
    )
    # a flow of 5.2e-4 off by 7e-17 to 8e-17: over 1e-13 of itself, 2e-16 of its terms
    @example(seed=200624072, dim=7, coherent=False, scale=4.690575417283462, fractions=[0.0])
    # a subnormal gap: x / theta_m rounds to 0 steps, and one must be taken
    @example(seed=1, dim=6, coherent=False, scale=2.0, fractions=[5e-324])
    def test_per_gap_actions_match_dense_exponential_at_every_time(
        self, seed, dim, coherent, scale, fractions
    ):
        # from ACTION_MIN_DIM up activity_at takes one Taylor action per gap
        # between the sorted times; the times hold 0 and a repeated time, in
        # any order
        rng = np.random.default_rng(seed)
        model = random_detailed_balance_model(dim, rng)
        rho0 = random_pure_state(dim, rng)
        span = scale / counting._block(model, None, coherent, False).norm
        times = [0.0, span, fractions[0] * span] + [f * span for f in fractions]
        times = rng.permutation(times)
        with mock.patch.object(counting, "_taylor_action", wraps=counting._taylor_action) as act:
            activity, flow, states = activity_at(model, rho0, times, coherent, reduced=False)
        assert act.call_count == len(set(times) - {0.0})
        n = dim * dim
        block = reference_rows_block(model, coherent)
        y = np.concatenate([vec(rho0), [0.0, 0.0]])
        want = np.array([expm(t * block) @ y for t in times])
        rho = np.array([unvec(w[:n]) for w in want])
        rho = (rho + rho.conj().swapaxes(1, 2)) / 2.0
        peak = np.abs(want[:, n].real).max()
        # the flow is a signed sum of terms of size max|ds| A, as in
        # bounds.entropy_scale, and can cancel far below them
        flow_scale = np.abs(model.entropy_weights()).max() * peak
        for got, ref, size in (
            (activity, want[:, n].real, peak),
            (flow, want[:, n + 1].real, flow_scale),
            (states, rho, np.abs(rho).max()),
        ):
            assert np.abs(got - ref).max() <= 1e-13 * size

    @settings(max_examples=25)
    @given(seed=SEEDS, dim=st.integers(1, 8), coherent=st.booleans(), log_scale=LOG_SCALES)
    def test_action_matches_dense_exponential(self, seed, dim, coherent, log_scale):
        rng = np.random.default_rng(seed)
        model = random_eigenoperator_model(dim, rng)
        weights = _weights_with_zeros(rng, model.n_channels)
        block, norm = _block_norm(model, weights, coherent)
        h = np.exp(log_scale) / max(norm, 1.0)  # at d = 1 L is rounding noise
        y = rng.normal(size=(3 * dim * dim, 2)) + 1j * rng.normal(size=(3 * dim * dim, 2))
        want = traced(expm(h * block) @ y, dim)
        start = traced(y, dim)
        # the action and the dense step at every drawn dimension, and
        # whichever path _act picks
        held = counting._block(model, weights, coherent, False)
        for got in (
            counting._taylor_action(held.shifted, held.mu, held.norm, h, start),
            held.step(h) @ start,
            counting._act(counting._block(model, weights, coherent, False), h, start),
        ):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @settings(max_examples=25)
    @given(seed=SEEDS, dim=DIMS, log_scale=LOG_SCALES, start=st.floats(0.05, 0.9))
    def test_moments_match_without_hamiltonian_beyond_three_levels(
        self, seed, dim, log_scale, start
    ):
        # the Hamiltonian-free equivalence beyond the 3-level models, on
        # both the dense and the action path, over windows that open after
        # t = 0
        rng = np.random.default_rng(seed)
        model = random_eigenoperator_model(dim, rng)
        weights = _weights_with_zeros(rng, model.n_channels)
        _, norm = _block_norm(model, weights, True)
        tau = float(np.exp(log_scale) / norm)
        obs = CountingObservable(weights, window=(start * tau, tau))
        rho0 = random_pure_state(dim, rng)
        a = counting_moments(model, rho0, obs, tau, coherent=True, reduced=False)
        b = counting_moments(model, rho0, obs, tau, coherent=False, reduced=False)
        assert a.mean == pytest.approx(b.mean, rel=1e-8, abs=1e-10)
        assert a.variance == pytest.approx(b.variance, rel=1e-8, abs=1e-10)
        # each against the reference hierarchy, at the scale of the state
        # and its moments
        for flag, got in ((True, a), (False, b)):
            mean, second = reference_moments(model, rho0, obs, tau, flag)
            scale = 1e-12 * max(1.0, abs(second))
            assert abs(got.mean - mean) <= scale and abs(got.second_moment - second) <= scale

    def test_action_repeats_bit_for_bit_and_leaves_numpy_rng_alone(self):
        dim = 8
        model = ladder_model(dim, np.random.default_rng(8))
        weights = model.entropy_weights()
        y = np.zeros(2 * dim**2 + 1, dtype=complex)
        y[0] = 1.0
        state = np.random.get_state()
        block = counting._block(model, weights, True, False)
        first = counting._act(block, 3.0, y)
        assert not block.steps  # the action, not a dense step
        for again in (counting._act(block, 3.0, y),
                      counting._act(counting._block(model, weights, True, False), 3.0, y)):
            assert again.tobytes() == first.tobytes()
        after = np.random.get_state()
        assert after[0] == state[0] and np.array_equal(after[1], state[1])
        assert after[2:] == state[2:]

    def test_long_horizon_takes_a_dense_step(self, monkeypatch):
        # from ACTION_MIN_DIM up, a step too long for the action to pay is
        # one dense exponential, which the block keeps for its further
        # steps of that length; above DENSE_MAX_DIM the action is taken at
        # any step length
        dim = 8
        model = ladder_model(dim, np.random.default_rng(5))
        weights = model.entropy_weights()
        block = counting._block(model, weights, True, False)
        h = 200.0 / block.norm
        assert not counting._action_pays(dim, h * block.norm)
        y = np.zeros(2 * dim * dim + 1, dtype=complex)
        y[0] = 1.0
        shapes = record_exponentials(monkeypatch)
        got = [counting._act(block, h, y) for _ in range(3)]
        assert shapes == [(2 * dim * dim + 1, 2 * dim * dim + 1)]
        want = counting._taylor_action(block.shifted, block.mu, block.norm, h, y[:, None])[:, 0]
        assert np.abs(got[0] - want).max() <= 1e-12 * np.abs(want).max()
        monkeypatch.setattr(counting, "DENSE_MAX_DIM", dim - 1)
        shapes.clear()
        fresh = counting._block(model, weights, True, False)
        assert counting._act(fresh, h, y).tobytes() == want.tobytes()
        assert shapes == [] and not fresh.steps


def evenly_spaced_model(dim: int, rng: np.random.Generator) -> LindbladModel:
    """A damped, pumped and dephased oscillator truncated to ``dim`` levels:
    H = diag(0, 1, ..., d - 1), so the Bohr sector of frequency k holds
    d - |k| of the |j><l|, which the ladder operators couple."""
    lower = np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex)
    down, up, dephase = rng.uniform(0.2, 1.0, 3)
    ops = [np.sqrt(down) * lower, np.sqrt(up) * lower.T, np.sqrt(dephase) * lower.T @ lower]
    return LindbladModel.build(np.diag(np.arange(dim, dtype=float)), ops)


def route_model(kind: str, rng: np.random.Generator) -> LindbladModel:
    if kind == "ladder":
        return ladder_model(int(rng.integers(8, 17)), rng)
    if kind == "rotated":
        return random_eigenoperator_model(int(rng.integers(2, 7)), rng)
    if kind == "evenly_spaced":
        return evenly_spaced_model(int(rng.integers(2, 7)), rng)
    return rotate_model(random_ep_model(rng), rng)  # |e1>, |e2> degenerate: n0 = 5


def _or_error(solve, model, coherent):
    """``solve(model, coherent)``, or the SteadyStateError it raises."""
    try:
        return solve(model, coherent)
    except SteadyStateError as exc:
        return exc


class TestZeroSector:
    @settings(max_examples=24)
    @given(seed=SEEDS, kind=st.sampled_from(["ladder", "rotated", "evenly_spaced", "degenerate"]),
           tau=st.floats(0.1, 4.0), coherent=st.booleans())
    # a flow of 8.9e-6 off by 2.2e-17: 2.5e-12 of itself, 2e-17 of its terms
    @example(seed=151, kind="degenerate", tau=3.5, coherent=False)
    def test_reduced_route_matches_the_liouville_route(self, seed, kind, tau, coherent):
        # the same statistics, steady states and rho(t) from the zero-frequency
        # sector as from the d^2-square generator, from a random pure state
        # with weight in every Bohr sector; a model whose sector does not hold
        # takes the d^2-square generator for every one of them
        rng = np.random.default_rng(seed)
        model = route_model(kind, rng)
        rho0 = random_pure_state(model.dim, rng)
        zero = model.zero_sector()
        levels = len(np.unique(np.round(model.spectrum()[0], 9)))
        # near-degenerate levels (a gap of 2e-5 at seed 745) raise the residual
        # past SECTOR_TOL, and both sides are the Liouville route
        assert (zero.reason == "") == (zero.residual <= SECTOR_TOL)
        if not zero.reason:
            assert len(zero.pairs[0]) == (5 if kind == "degenerate" else model.dim)
            assert (zero.generator.dtype == float) == (levels == model.dim)
        obs = CountingObservable(rng.uniform(-1.0, 1.0, model.n_channels))
        times = np.sort(rng.uniform(0.0, tau, 5))
        window = obs.with_window((tau / 3, tau))
        with mock.patch.object(engine, "_assemble", wraps=engine._assemble) as assemble:
            reduced = activity_at(model, rho0, times, coherent)
            halves = _half_windows(model, rho0, obs, tau, coherent)
            mean = counting_moments(model, rho0, window, tau, coherent).mean
            states = [evolve(model, rho0, tau, flag) for flag in (True, False)]
            steady = [_or_error(stationary, model, flag) for flag in (True, False)]
        assert assemble.called == bool(zero.reason)
        full = activity_at(model, rho0, times, coherent, reduced=False)
        assert (reduced[2] is None) == (zero.reason == "")
        assert_close(reduced[0], full[0])
        if full[1] is not None:
            # the flow is a signed sum of terms of size max|ds| A, as in
            # bounds.entropy_scale, and can cancel far below them
            assert_close(reduced[1], full[1], np.abs(model.entropy_weights()).max() * full[0])
        scale = np.abs(obs.weights).max() * full[0][-1]
        with mock.patch.object(counting, "_route", liouville_route):
            want_halves = _half_windows(model, rho0, obs, tau, coherent)
        for got, want in zip(halves, want_halves):
            if isinstance(want, np.ndarray):  # rho(tau)
                assert_close(got, want, scale=1.0)
            else:
                assert_close(got.mean, want.mean, scale)
                assert_close(got.variance, want.variance)
        assert_close(mean, counting_moments(model, rho0, window, tau, coherent, reduced=False).mean,
                     scale)
        for flag, got, rho in zip((True, False), states, steady):
            assert_close(got, liouville_state(model, rho0, tau, flag), scale=1.0)
            want = _or_error(lambda m, c: steady_state(build_generator(m, c)), model, flag)
            if isinstance(want, Exception):
                assert type(rho) is type(want)
            else:
                assert_close(rho, want, scale=1.0)

    @pytest.mark.parametrize("kind", ["ladder", "degenerate"])
    def test_battery_reports_match_the_liouville_route(self, kind, monkeypatch):
        # every side and input of every report, the survival's included
        rng = np.random.default_rng(17)
        model = route_model(kind, rng)
        rho0 = random_pure_state(model.dim, rng)
        obs = CountingObservable(rng.uniform(0.5, 1.0, model.n_channels))
        reduced = bounds.battery(model, rho0, obs, 1.5)
        monkeypatch.setattr(counting, "_route", liouville_route)
        for got, want in zip(reduced, bounds.battery(model, rho0, obs, 1.5)):
            assert got.satisfied == want.satisfied
            assert_close([got.lhs, got.rhs], [want.lhs, want.rhs])
            assert_close([s.value for s in got.inputs.values()],
                         [s.value for s in want.inputs.values()])

    def test_crossing_channel_takes_the_liouville_route(self):
        # L = |0><1| + |1><2| moves energy by 1 and by 2: X -> L X L^dag
        # mixes Bohr sectors, and the raw constructor does not check it
        L = np.zeros((3, 3), dtype=complex)
        L[0, 1], L[1, 2] = 1.0, 0.5
        model = LindbladModel(np.diag([0.0, 1.0, 3.0]), L[None], (1.0,), (None,), (None,))
        zero = model.zero_sector()
        assert zero.residual == pytest.approx(0.5 / np.sqrt(1.25))
        assert "channel 0" in zero.reason and "outside its Bohr sector" in zero.reason
        assert zero.generator is None and counting._route(model, True, np.eye(3))[0] is None
        rho0 = np.diag([0.0, 0.0, 1.0]).astype(complex)
        obs = CountingObservable((1.0,))
        with mock.patch.object(engine, "_assemble", wraps=engine._assemble) as assemble:
            reports = bounds.battery(model, rho0, obs, 2.0)
        assert assemble.called  # the Liouville route's coherent generators
        assert {call.args[1] for call in assemble.call_args_list} == {True}
        want = counting_moments(model, rho0, obs, 2.0, reduced=False)
        assert counting_moments(model, rho0, obs, 2.0) == want
        total = _half_windows(model, rho0, obs, 2.0, True)[2]
        assert reports[0].inputs["variance"].value == total.variance
        # rho(t) and the steady state, with and without H, on the d^2-square generator
        for coherent in (True, False):
            with mock.patch.object(engine, "_assemble", wraps=engine._assemble) as assemble:
                rho_t, rho_ss = evolve(model, rho0, 2.0, coherent), stationary(model, coherent)
            assert [call.args[1] for call in assemble.call_args_list] == [coherent] * 2
            assert np.array_equal(rho_t, liouville_state(model, rho0, 2.0, coherent))
            assert np.array_equal(rho_ss, steady_state(build_generator(model, coherent)))
