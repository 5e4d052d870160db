import contextlib
import io
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtur import counting, engine
from qtur.counting import evolve, stationary
from qtur.engine import (
    DegenerateSteadyStateError,
    build_generator,
    no_jump_family,
    steady_state,
    steady_states,
    survival_probability,
    unvec,
    vec,
)
from qtur.models import build_da_model, build_da_models, build_ep_model, build_ep_models
from qtur.operators import EigenoperatorError, LindbladModel, ModelValidationError, dagger
from conftest import (
    da_steady_state_closed_form,
    ground_state,
    ladder_model,
    liouville_route,
    liouville_state,
    random_da_model,
    random_detailed_balance_model,
    random_eigenoperator_model,
    random_pure_state,
    rotate_model,
)


class TestGenerator:
    def test_hamiltonian_only_spectrum_imaginary(self):
        h = np.diag([0.0, 1.0, 2.5]).astype(complex)
        gen = build_generator(LindbladModel.build(h, []), coherent=True)
        assert np.abs(np.linalg.eigvals(gen).real).max() < 1e-12

    def test_identity_jump_cancels(self):
        model = LindbladModel.build(np.zeros((1, 1)), [np.sqrt(0.8) * np.eye(1)])
        gen = build_generator(model, coherent=True)
        assert np.abs(gen).max() < 1e-14

    def test_trace_preservation(self, da_generic):
        gen = build_generator(da_generic, coherent=True)
        left = vec(np.eye(3)).conj() @ gen
        assert np.abs(left).max() < 1e-12

    def test_coherent_flag_adds_the_commutator(self, da_generic):
        coherent = build_generator(da_generic, coherent=True)
        incoherent = build_generator(da_generic, coherent=False)
        h, eye = da_generic.H, np.eye(da_generic.dim)
        commutator = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
        assert np.abs(coherent - incoherent - commutator).max() < 1e-14

    def test_generator_is_read_only(self, da_generic):
        gen = build_generator(da_generic, coherent=True)
        with pytest.raises(ValueError):
            gen[0, 0] = 1.0

    def test_each_call_assembles_its_own_generator(self):
        # nothing is kept on the model: each call assembles the same bytes anew
        model = random_da_model(np.random.default_rng(5))
        for flag in (True, False):
            first = build_generator(model, coherent=flag)
            again = build_generator(model, coherent=flag)
            assert again is not first and again.tobytes() == first.tobytes()
        assert build_generator(model).tobytes() == build_generator(model, True).tobytes()
        assert build_generator(model, False).tobytes() != build_generator(model, True).tobytes()


def _kron_generator(model, coherent: bool) -> np.ndarray:
    """The generator as a per-channel sum of np.kron products."""
    eye = np.eye(model.dim)
    gen = np.zeros((model.dim**2,) * 2, dtype=complex)
    if coherent:
        gen += -1j * (np.kron(eye, model.H) - np.kron(model.H.T, eye))
    for L in model.jump_ops:
        ldl = dagger(L) @ L
        gen += np.kron(L.conj(), L) - 0.5 * (np.kron(eye, ldl) + np.kron(ldl.T, eye))
    return gen


def _kron_jumps(model, weights) -> np.ndarray:
    """sum_m w_m kron(conj(L_m), L_m), one channel at a time."""
    out = np.zeros((model.dim**2,) * 2, dtype=complex)
    for w, L in zip(weights, model.jump_ops):
        out += w * np.kron(L.conj(), L)
    return out


class TestChannelStack:
    """Every sum over channels, formed from the (M, d, d) stack, against a
    per-channel np.kron sum."""

    @settings(max_examples=40)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 8),
        kind=st.sampled_from(["random", "ladder", "paired ladder"]),
    )
    def test_matches_a_kron_sum(self, seed, dim, kind):
        rng = np.random.default_rng(seed)
        if kind == "random":
            model = random_eigenoperator_model(dim, rng)
        else:
            model = ladder_model(dim, rng, entropy=kind == "paired ladder")
        # weights of both zero signs among nonzero ones
        kinds = rng.integers(0, 3, model.n_channels)
        weights = np.where(kinds == 0, 0.0, np.where(kinds == 1, -0.0, rng.uniform(-2, 2)))
        norms = [np.linalg.norm(L) ** 2 for L in model.jump_ops]
        # a sum that cancels (such as [H, .] at d = 1) is judged at the scale
        # of its terms
        scale = np.linalg.norm(model.H) + sum(norms)
        for coherent in (True, False):
            want = _kron_generator(model, coherent)
            got = build_generator(model, coherent=coherent)
            assert np.linalg.norm(got - want) <= 1e-14 * max(np.linalg.norm(want), scale)
        for power in (1, 2):
            got = engine._channel_sums(model.jump_ops, weights**power)
            want = _kron_jumps(model, weights**power)
            scale = sum(abs(w) ** power * n for w, n in zip(weights, norms))
            assert np.linalg.norm(got - want) <= 1e-14 * max(np.linalg.norm(want), scale)

    def test_no_superoperator_per_channel(self):
        d = 24
        model = ladder_model(d, np.random.default_rng(d))
        weights = model.entropy_weights()
        for build in (
            lambda: engine._assemble(model, True),
            lambda: engine._channel_sums(model.jump_ops, weights),
            lambda: engine._channel_sums(model.jump_ops, weights * weights),
        ):
            tracemalloc.start()
            try:
                build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # a few d^2-square arrays; an (M, d^2, d^2) stack of the 46
            # channels would take 244 MB
            assert peak <= 4 * d**4 * 16


@pytest.mark.parametrize("shape", [(3, 3), (2, 5, 3, 3), (1, 0, 4, 4)])
def test_vec_takes_a_stack_of_matrices(shape):
    # each matrix's columns stacked, and unvec undoes it; a stack of no
    # matrices (a model without channels) keeps its shape
    x = np.random.default_rng(0).normal(size=(*shape, 2)) @ np.array([1, 1j])
    flat = vec(x)
    assert flat.shape == (*shape[:-2], shape[-1] ** 2)
    cols = [m.reshape(-1, order="F") for m in x.reshape(-1, *shape[-2:])]
    assert np.array_equal(flat, np.array(cols).reshape(flat.shape))
    assert np.array_equal(unvec(flat), x)


BUILT_INS = {
    "da": (4, build_da_model, build_da_models),
    "ep": (6, build_ep_model, build_ep_models),
}


class TestStackedDraws:
    """A stack of draws, as a sweep builds one, against the single-model
    path of each draw: the same bits at every stage."""

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(sorted(BUILT_INS)), n=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1))
    def test_stack_matches_single_models(self, kind, n, seed):
        rng = np.random.default_rng(seed)
        n_rates, single, stacked = BUILT_INS[kind]
        omega_e, rates = rng.uniform(0.1, 3.0), rng.uniform(1e-3, 1.0, (n, n_rates))
        models = stacked(omega_e, rates)
        states = steady_states([build_generator(m, coherent=True) for m in models])
        assert len(models) == len(states) == n
        for model, row, rho in zip(models, rates, states):
            ref = single(omega_e, *row)
            assert model.jump_ops.tobytes() == ref.jump_ops.tobytes()
            assert model.jump_norms.tobytes() == ref.jump_norms.tobytes()
            assert (model.omegas, model.ds, model.partners) == (ref.omegas, ref.ds, ref.partners)
            gen = build_generator(ref, coherent=True)
            assert build_generator(model, coherent=True).tobytes() == gen.tobytes()
            assert rho.tobytes() == steady_state(gen).tobytes()

    def test_one_bad_draw_is_flagged_alone(self):
        models = build_ep_models(1.0, np.random.default_rng(3).uniform(0.1, 1.0, (5, 6)))
        # without channels every diagonal state is stationary; with a NaN in
        # H the generator is not trace preserving
        degenerate = LindbladModel.build(np.diag([0.0, 1.0, 2.0]), [])
        broken = replace(models[3], H=np.diag([0.0, np.nan, 1.0]))  # the raw constructor
        for _ in range(2):  # no failed assembly is kept
            with pytest.raises(ModelValidationError, match="not trace preserving"):
                build_generator(broken)
        gens = [build_generator(m) for m in models]
        leaking = gens[3] + 1e-3 * np.eye(9)  # the trace row does not annihilate it
        states = steady_states([gens[0], build_generator(degenerate), gens[2], leaking, gens[4]])
        assert isinstance(states[1], DegenerateSteadyStateError)
        assert isinstance(states[3], ModelValidationError) and "trace" in str(states[3])
        for k, rho in zip((0, 2, 4), (states[0], states[2], states[4])):
            assert rho.tobytes() == steady_state(gens[k]).tobytes()

    def test_a_bad_model_raises_and_is_named(self):
        stack = np.zeros((3, 1, 2, 2), dtype=complex)
        stack[:, 0, 0, 1] = 1.0
        stack[1, 0, 1, 0] = 1.0  # not an eigenoperator of diag(0, 1)
        with pytest.raises(EigenoperatorError, match="model 1, channel 0: eigenoperator"):
            LindbladModel.build_stack(np.diag([0.0, 1.0]), stack)
        with pytest.raises(ValueError, match="positive"):
            build_ep_models(1.0, [[0.5] * 6, [0.5, 0.5, -0.1, 0.5, 0.5, 0.5]])


class TestPropagate:
    # rho(t) from counting.evolve, on the zero-frequency sector where it holds
    # and, with the route patched, on the d^2-square generator
    def test_fixed_point(self, da_generic):
        rho = stationary(da_generic)
        out = evolve(da_generic, rho, 3.7)
        assert np.abs(out - rho).max() < 1e-9

    def test_commuting_state_is_static_without_channels(self):
        h = np.diag([0.0, 1.0, 2.0]).astype(complex)
        model = LindbladModel.build(h, [])
        rho0 = np.diag([0.5, 0.3, 0.2]).astype(complex)
        assert np.abs(evolve(model, rho0, 2.0) - rho0).max() < 1e-12

    def test_scalar_model_stays_normalized(self, poisson, scalar_one):
        for t in (0.1, 1.0, 10.0):
            assert evolve(poisson, scalar_one, t)[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_negative_time_rejected(self, da_generic):
        with pytest.raises(ValueError):
            evolve(da_generic, np.eye(3, dtype=complex) / 3, -0.1)

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_nonfinite_time_rejected(self, t, da_generic):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            evolve(da_generic, np.eye(3, dtype=complex) / 3, t)

    def test_semigroup_property(self):
        rng = np.random.default_rng(11)
        for route in (counting._route, liouville_route):
            with mock.patch.object(counting, "_route", route):
                for _ in range(5):
                    model = random_da_model(rng)
                    rho0 = random_pure_state(3, rng)
                    t1, t2 = rng.uniform(0.05, 2.0, 2)
                    once = evolve(model, rho0, t1 + t2)
                    twice = evolve(model, evolve(model, rho0, t1), t2)
                    assert np.abs(once - twice).max() < 1e-9

    def test_trace_one_on_log_grid(self, da_generic):
        rho0 = ground_state()
        for t in np.logspace(-3, 1, 9):
            assert evolve(da_generic, rho0, t).trace().real == pytest.approx(1.0, abs=1e-9)
            assert liouville_state(da_generic, rho0, t).trace().real == pytest.approx(1.0, abs=1e-9)

    def test_states_related_by_rotation(self):
        rng = np.random.default_rng(23)
        model = rotate_model(random_da_model(rng), rng)
        rho0 = random_pure_state(3, rng)
        t = 1.3
        u = no_jump_family(model, t).unitary
        for state in (evolve, liouville_state):
            with_h, without_h = state(model, rho0, t, True), state(model, rho0, t, False)
            assert np.abs(with_h - u @ without_h @ dagger(u)).max() < 1e-9


# prints one digest of the steady states of 20 random three-level models,
# with and without H
_STEADY_STATE_DIGEST = """
import hashlib
import numpy as np
from conftest import random_da_model, random_ep_model
from qtur.engine import build_generator, steady_state
digest = hashlib.sha256()
for seed in range(10):
    rng = np.random.default_rng(seed)
    for model in (random_da_model(rng), random_ep_model(rng)):
        for coherent in (True, False):
            digest.update(steady_state(build_generator(model, coherent)).tobytes())
print(digest.hexdigest())
"""


class TestSteadyState:
    def test_equal_rate_closed_form(self, da_equal):
        rho = steady_state(build_generator(da_equal, coherent=True))
        assert np.abs(rho - da_steady_state_closed_form(0.5, 0.5, 0.5, 0.5)).max() < 1e-10

    def test_commutes_with_hamiltonian(self, da_generic):
        rho = steady_state(build_generator(da_generic, coherent=True))
        assert np.abs(rho @ da_generic.H - da_generic.H @ rho).max() < 1e-10

    def test_incoherent_twin_shares_diagonal_and_rates(self, da_generic):
        from qtur.counting import channel_rates

        rho_c = steady_state(build_generator(da_generic, coherent=True))
        rho_i = steady_state(build_generator(da_generic, coherent=False))
        assert np.abs(np.diag(rho_c) - np.diag(rho_i)).max() < 1e-9
        assert np.abs(
            channel_rates(da_generic, rho_c) - channel_rates(da_generic, rho_i)
        ).max() < 1e-9

    def test_residual_small(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            model = random_da_model(rng)
            gen = build_generator(model, coherent=True)
            rho = steady_state(gen)
            assert np.linalg.norm(gen @ vec(rho)) < 1e-10

    def test_bytes_do_not_depend_on_the_blas_thread_count(self):
        tests = Path(__file__).resolve().parent
        path = os.pathsep.join(map(str, (tests.parent / "src", tests)))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": path}
        one_thread = subprocess.run(
            [sys.executable, "-c", _STEADY_STATE_DIGEST],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        ).stdout
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            exec(_STEADY_STATE_DIGEST, {})
        assert one_thread == buf.getvalue()

    def test_one_level_model_has_a_zero_generator(self, poisson):
        # d = 1: L = 0 has no scale, and [[1]] is the only state
        assert np.array_equal(steady_state(build_generator(poisson, coherent=True)), [[1.0]])

    def test_degenerate_generator_rejected(self):
        # no channels: every density matrix commuting with H is stationary;
        # two decaying pairs that never meet: every mixture of the pairs'
        # ground states is. Rejected at every scale, and without a warning.
        for c in (1e-12, 1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9):
            ops = np.zeros((2, 4, 4), dtype=complex)
            ops[0, 0, 1], ops[1, 2, 3] = np.sqrt(0.7 * c), np.sqrt(0.4 * c)
            h = c * np.diag([0.0, 1.0, 0.0, 1.0]).astype(complex)
            for model in (LindbladModel.build(h[:2, :2], []), LindbladModel.build(h, list(ops))):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(DegenerateSteadyStateError):
                        steady_state(build_generator(model, coherent=True))

    @settings(max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 6), exponent=st.floats(-9, 9))
    def test_time_rescaling_leaves_the_state(self, seed, dim, exponent):
        # H and every rate times c: the same process in other time units,
        # with the same steady state, or a degenerate one on both sides
        c = 10.0**exponent
        model = random_detailed_balance_model(dim, np.random.default_rng(seed))
        scaled = LindbladModel.build(
            c * model.H,
            [np.sqrt(c) * L for L in model.jump_ops],
            ds=model.ds,
            partners=model.partners,
        )
        states = []
        for m in (model, scaled):
            try:
                states.append(steady_state(build_generator(m, coherent=True)))
            except DegenerateSteadyStateError:
                states.append(None)
        if states[0] is None:
            assert states[1] is None
        else:
            assert np.abs(states[1] - states[0]).max() < 1e-12


class TestNoJumpFamily:
    @pytest.mark.parametrize("t", [np.nan, np.inf, -0.1])
    def test_nonfinite_or_negative_time_rejected(self, t, da_generic):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            no_jump_family(da_generic, t)

    def test_time_zero_is_identity(self, da_generic):
        fam = no_jump_family(da_generic, 0.0)
        for op in (fam.unitary, fam.damping, fam.full):
            assert np.abs(op - np.eye(3)).max() < 1e-12

    def test_hamiltonian_free_collapse(self):
        model = LindbladModel.build(
            np.zeros((2, 2)), [np.array([[0.0, 0.7], [0.0, 0.0]])]
        )
        fam = no_jump_family(model, 1.5)
        assert np.abs(fam.full - fam.damping).max() < 1e-12

    def test_factorization_residual(self, da_generic):
        fam = no_jump_family(da_generic, 1.0)
        assert fam.residual <= 1e-9
        assert np.abs(fam.full - fam.unitary @ fam.damping).max() < 1e-9
        assert np.abs(fam.full - fam.damping @ fam.unitary).max() < 1e-9

    def test_damping_hermitian_contractive(self, ep_generic):
        for t in (0.3, 2.0, 8.0):
            fam = no_jump_family(ep_generic, t)
            assert np.abs(fam.damping - dagger(fam.damping)).max() < 1e-12
            assert np.linalg.svd(fam.damping, compute_uv=False).max() <= 1.0 + 1e-12

    def test_rotated_model_keeps_factorization(self):
        rng = np.random.default_rng(31)
        model = rotate_model(random_da_model(rng), rng)
        assert no_jump_family(model, 2.0).residual <= 1e-9


class TestSurvival:
    @pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf, -0.1])
    def test_nonfinite_or_negative_horizon_rejected(self, tau, da_generic):
        # a nan horizon used to give nan, not an error
        with pytest.raises(ValueError, match="finite and nonnegative"):
            survival_probability(da_generic, ground_state(), tau)

    def test_zero_horizon(self, da_generic):
        assert survival_probability(da_generic, ground_state(), 0.0) == 1.0

    def test_poisson_closed_form(self, poisson, scalar_one):
        for tau in (0.2, 1.0, 5.0):
            assert survival_probability(poisson, scalar_one, tau) == pytest.approx(
                np.exp(-0.7 * tau), abs=1e-12
            )

    def test_ground_state_saturates_initial_rate(self, da_generic):
        # only the excitation channel acts on |g>, so the survival decay is
        # exactly the initial total jump rate
        g2 = 0.35
        tau = 1.7
        p = survival_probability(da_generic, ground_state(), tau)
        assert p == pytest.approx(np.exp(-2 * g2 * tau), abs=1e-12)

    def test_non_increasing(self, ep_generic):
        rho = steady_state(build_generator(ep_generic, coherent=True))
        values = [survival_probability(ep_generic, rho, t) for t in np.linspace(0, 4, 17)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
