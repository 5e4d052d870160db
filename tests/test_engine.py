import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtur import counting, engine
from qtur.engine import (
    DegenerateSteadyStateError,
    build_generator,
    left_multiply,
    no_jump_family,
    propagate,
    right_multiply,
    steady_state,
    survival_probability,
    vec,
)
from qtur.operators import LindbladModel, dagger
from conftest import (
    da_steady_state_closed_form,
    ground_state,
    ladder_model,
    random_da_model,
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
        h = da_generic.H
        commutator = -1j * (left_multiply(h) - right_multiply(h))
        assert np.abs(coherent - incoherent - commutator).max() < 1e-14

    def test_generator_is_read_only(self, da_generic):
        gen = build_generator(da_generic, coherent=True)
        with pytest.raises(ValueError):
            gen[0, 0] = 1.0

    def test_one_generator_per_model_and_flag(self):
        model = random_da_model(np.random.default_rng(5))
        coherent = build_generator(model, coherent=True)
        assert build_generator(model) is coherent
        assert build_generator(model, coherent=True) is coherent
        incoherent = build_generator(model, coherent=False)
        assert incoherent is not coherent
        assert build_generator(model, coherent=False) is incoherent


class TestSuperoperatorHelpers:
    @pytest.mark.parametrize("d", [1, 3, 8])
    def test_bit_for_bit_np_kron(self, d):
        rng = np.random.default_rng(d)
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        # zeros of both signs, where a different product order would show
        a.real.flat[::3] = -0.0
        a.imag.flat[1::4] = 0.0
        eye = np.eye(d)
        for got, want in (
            (left_multiply(a), np.kron(eye, a)),
            (right_multiply(a), np.kron(a.T, eye)),
        ):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def _kron_generator(model, coherent: bool) -> np.ndarray:
    """The generator as a per-channel sum of np.kron products."""
    eye = np.eye(model.dim)
    gen = np.zeros((model.dim**2,) * 2, dtype=complex)
    if coherent:
        gen += -1j * (np.kron(eye, model.H) - np.kron(model.H.T, eye))
    for c in model.channels:
        ldl = dagger(c.L) @ c.L
        gen += np.kron(c.L.conj(), c.L) - 0.5 * (np.kron(eye, ldl) + np.kron(ldl.T, eye))
    return gen


def _kron_jumps(model, weights) -> np.ndarray:
    """sum_m w_m kron(conj(L_m), L_m), one channel at a time."""
    out = np.zeros((model.dim**2,) * 2, dtype=complex)
    for w, c in zip(weights, model.channels):
        out += w * np.kron(c.L.conj(), c.L)
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
        norms = [np.linalg.norm(c.L) ** 2 for c in model.channels]
        # a sum that cancels (such as [H, .] at d = 1) is judged at the scale
        # of its terms
        scale = np.linalg.norm(model.H) + sum(norms)
        for coherent in (True, False):
            want = _kron_generator(model, coherent)
            got = build_generator(model, coherent=coherent)
            assert np.linalg.norm(got - want) <= 1e-14 * max(np.linalg.norm(want), scale)
        j1, j2 = counting._jump_superops(model, weights)
        for power, got in ((1, j1), (2, j2)):
            want = _kron_jumps(model, weights**power)
            scale = sum(abs(w) ** power * n for w, n in zip(weights, norms))
            assert np.linalg.norm(got - want) <= 1e-14 * max(np.linalg.norm(want), scale)

    def test_no_superoperator_per_channel(self):
        d = 24
        model = ladder_model(d, np.random.default_rng(d))
        weights = model.entropy_weights()
        for build in (
            lambda: engine._assemble(model, True),
            lambda: counting._jump_superops(model, weights),
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


class TestPropagate:
    def test_fixed_point(self, da_generic):
        gen = build_generator(da_generic, coherent=True)
        rho = steady_state(gen)
        out = propagate(gen, rho, 3.7)
        assert np.abs(out - rho).max() < 1e-9

    def test_commuting_state_is_static_without_channels(self):
        h = np.diag([0.0, 1.0, 2.0]).astype(complex)
        model = LindbladModel.build(h, [])
        gen = build_generator(model, coherent=True)
        rho0 = np.diag([0.5, 0.3, 0.2]).astype(complex)
        assert np.abs(propagate(gen, rho0, 2.0) - rho0).max() < 1e-12

    def test_scalar_model_stays_normalized(self, poisson, scalar_one):
        gen = build_generator(poisson, coherent=True)
        for t in (0.1, 1.0, 10.0):
            assert propagate(gen, scalar_one, t)[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_negative_time_rejected(self, da_generic):
        gen = build_generator(da_generic, coherent=True)
        with pytest.raises(ValueError):
            propagate(gen, np.eye(3, dtype=complex) / 3, -0.1)

    def test_semigroup_property(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            model = random_da_model(rng)
            gen = build_generator(model, coherent=True)
            rho0 = random_pure_state(3, rng)
            t1, t2 = rng.uniform(0.05, 2.0, 2)
            once = propagate(gen, rho0, t1 + t2)
            twice = propagate(gen, propagate(gen, rho0, t1), t2)
            assert np.abs(once - twice).max() < 1e-9

    def test_trace_one_on_log_grid(self, da_generic):
        gen = build_generator(da_generic, coherent=True)
        rho0 = ground_state()
        for t in np.logspace(-3, 1, 9):
            assert propagate(gen, rho0, t).trace().real == pytest.approx(1.0, abs=1e-9)

    def test_states_related_by_rotation(self):
        rng = np.random.default_rng(23)
        model = rotate_model(random_da_model(rng), rng)
        rho0 = random_pure_state(3, rng)
        t = 1.3
        with_h = propagate(build_generator(model, True), rho0, t)
        without_h = propagate(build_generator(model, False), rho0, t)
        u = no_jump_family(model, t).unitary
        assert np.abs(with_h - u @ without_h @ dagger(u)).max() < 1e-9


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

    def test_degenerate_generator_rejected(self):
        # no channels: every density matrix commuting with H is stationary
        model = LindbladModel.build(np.diag([0.0, 1.0]).astype(complex), [])
        with pytest.raises(DegenerateSteadyStateError):
            steady_state(build_generator(model, coherent=True))


class TestNoJumpFamily:
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
