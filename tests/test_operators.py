from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtur.engine import build_generator
from qtur.operators import (
    DetailedBalanceError,
    EigenoperatorError,
    LindbladModel,
    ModelValidationError,
    dagger,
    spectral_decompose,
    split_diagonal_offdiagonal,
    validate_density,
    von_neumann_trace_term,
)
from conftest import (
    assert_local_detailed_balance,
    da_steady_state_closed_form,
    random_eigenoperator_model,
    random_pure_state,
    random_unitary,
)


class TestValidateDensity:
    def test_maximally_mixed_passes(self):
        assert validate_density(np.eye(3, dtype=complex) / 3).ok

    def test_pure_projector_passes(self):
        rho = np.zeros((3, 3), dtype=complex)
        rho[0, 0] = 1.0
        assert validate_density(rho).ok

    def test_negative_eigenvalue_reported(self):
        check = validate_density(np.diag([0.6, 0.6, -0.2]).astype(complex))
        assert not check.ok
        assert check.min_eigenvalue == pytest.approx(-0.2, abs=1e-12)
        assert "negative" in check.message

    def test_trace_violation_reported(self):
        check = validate_density(np.eye(2, dtype=complex))
        assert not check.ok and "trace" in check.message

    def test_non_hermitian_reported(self):
        rho = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        check = validate_density(rho)
        assert not check.ok and "Hermitian" in check.message

    def test_nan_rejected(self):
        rho = np.eye(2, dtype=complex)
        rho[0, 0] = np.nan
        with pytest.raises(ValueError):
            validate_density(rho)


def _omega(h, ell) -> float:
    """The transition frequency ``build`` derives for the lone channel ell."""
    return LindbladModel.build(h, [ell]).omegas[0]


class TestBohrFrequency:
    def test_decay_channel_of_excited_manifold(self):
        omega_e = 1.3
        h = omega_e * np.diag([0.0, 1.0, 1.0]).astype(complex)
        ell = np.zeros((3, 3), dtype=complex)
        ell[0, 1] = np.sqrt(0.4)
        assert _omega(h, ell) == pytest.approx(omega_e, abs=1e-12)

    def test_zero_hamiltonian(self):
        rng = np.random.default_rng(0)
        ell = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert _omega(np.zeros((3, 3)), ell) == 0.0

    def test_rotated_multiple_of_identity(self):
        # every operator is an eigenoperator of 3.7 I, with omega = 0; in a
        # random basis eigh's spread and the residual are both rounding
        rng = np.random.default_rng(2)
        for d in (2, 5, 16):
            q = random_unitary(d, rng)
            ell = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            omega = _omega(q @ (3.7 * np.eye(d)) @ q.conj().T, ell)
            assert omega == pytest.approx(0.0, abs=1e-12)

    def test_nonconforming_channel_rejected(self):
        h = np.diag([1.0, -1.0]).astype(complex)
        ell = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)
        with pytest.raises(EigenoperatorError, match="residual"):
            _omega(h, ell)

    def test_zero_operator_rejected(self):
        with pytest.raises(ModelValidationError, match="zero"):
            _omega(np.eye(2), np.zeros((2, 2)))

    @settings(max_examples=40)
    @given(
        scale_re=st.floats(-5, 5),
        scale_im=st.floats(-5, 5),
        gap=st.floats(0.1, 4.0),
    )
    def test_scale_invariance(self, scale_re, scale_im, gap):
        scale = complex(scale_re, scale_im)
        if abs(scale) < 1e-3:
            scale = 1.0 + 1j
        h = gap * np.diag([0.0, 1.0, 1.0]).astype(complex)
        ell = np.zeros((3, 3), dtype=complex)
        ell[0, 1] = 0.7
        ell[0, 2] = 0.2
        base = _omega(h, ell)
        scaled = _omega(h, scale * ell)
        assert scaled == pytest.approx(base, rel=1e-12, abs=1e-12)

    def test_decay_operators_commute_with_hamiltonian(self, da_generic, ep_generic):
        for model in (da_generic, ep_generic):
            for L in model.jump_ops:
                ldl = dagger(L) @ L
                assert np.abs(model.H @ ldl - ldl @ model.H).max() < 1e-10
            gamma = model.total_decay()
            assert np.abs(model.H @ gamma - gamma @ model.H).max() < 1e-10


def _lowering(dim: int, k: int = 0) -> np.ndarray:
    op = np.zeros((dim, dim), dtype=complex)
    op[k, k + 1] = 0.6
    return op


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_hamiltonian_is_named(self, bad):
        h = np.diag([0.0, 1.0]).astype(complex)
        h[1, 1] = bad
        with pytest.raises(ModelValidationError, match="Hamiltonian has NaN or Inf"):
            LindbladModel.build(h, [_lowering(2)])
        with pytest.raises(ModelValidationError, match="Hamiltonian has NaN or Inf"):
            LindbladModel.build(h, [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.inf, 1.0)])
    def test_channel_is_named(self, bad):
        h = np.diag([0.0, 1.0, 2.0]).astype(complex)
        ops = [_lowering(3, 0), _lowering(3, 1)]
        ops[1][2, 0] = bad
        with pytest.raises(ModelValidationError, match="channel 1 has NaN or Inf"):
            LindbladModel.build(h, ops)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_entropy_change_is_named(self, bad):
        h = np.diag([0.0, 1.0, 2.0]).astype(complex)
        ops = [_lowering(3, 0), _lowering(3, 1)]
        with pytest.raises(ModelValidationError, match="channel 1 has a NaN or Inf entropy change"):
            LindbladModel.build(h, ops, ds=[0.5, bad])
        stack = np.array([ops, ops])
        with pytest.raises(ModelValidationError, match="model 8, channel 0 has a NaN or Inf"):
            LindbladModel.build_stack(h, stack, ds=[[0.5, 0.5], [bad, 0.5]], first=7)

    def test_trace_check_rejects_a_nan_generator(self):
        model = LindbladModel.build(np.diag([0.0, 1.0]), [_lowering(2)])
        h = np.diag([0.0, np.nan]).astype(complex)
        raw = replace(model, H=h)  # the raw constructor validates no values
        with pytest.raises(ModelValidationError, match="not trace preserving"):
            build_generator(raw)


def _least_squares_omega(h: np.ndarray, ell: np.ndarray) -> float:
    """Re Tr[L^dag [L, H]] / Tr[L^dag L], from the commutator."""
    comm = ell @ h - h @ ell
    return float(np.real(np.trace(dagger(ell) @ comm)) / np.real(np.trace(dagger(ell) @ ell)))


class TestRejections:
    """Each malformed model raises exactly the exception type it names."""

    @staticmethod
    def _raises(error, *args, **kwargs):
        with pytest.raises(ModelValidationError) as info:
            LindbladModel.build(*args, **kwargs)
        assert info.type is error
        return str(info.value)

    def test_channel_mixing_two_gaps_on_a_degenerate_hamiltonian(self):
        h = np.diag([0.0, 1.0, 1.0, 2.0]).astype(complex)
        mixed = np.zeros((4, 4), dtype=complex)
        mixed[0, 1] = 0.5  # gap 1
        mixed[1, 2] = 0.5  # gap 0, inside the degenerate pair
        message = self._raises(EigenoperatorError, h, [_lowering(4), mixed])
        assert message.startswith("channel 1: eigenoperator condition violated")

    def test_random_channel_on_a_nondegenerate_hamiltonian(self):
        rng = np.random.default_rng(3)
        h = np.diag([0.0, 0.7, 1.9]).astype(complex)
        ell = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        self._raises(EigenoperatorError, h, [ell])

    def test_zero_channel(self):
        h = np.diag([0.0, 1.0]).astype(complex)
        message = self._raises(ModelValidationError, h, [_lowering(2), np.zeros((2, 2))])
        assert message == "channel 1: jump operator is zero"

    @pytest.mark.parametrize(
        "h, ops",
        [
            ([[0.0, 1.0], [0.0, 0.0]], []),  # no channel to trigger the check
            (1e-9 * np.array([[0.0, 1.0], [0.0, 1.0]]), [np.eye(2)]),  # ||H||_F < 1
        ],
    )
    def test_non_hermitian_hamiltonian(self, h, ops):
        message = self._raises(ModelValidationError, h, ops)
        assert message == "Hamiltonian is not Hermitian"

    def test_wrong_ds(self):
        down = _lowering(2)
        up = 0.5 * dagger(down)
        h = np.diag([0.0, 1.0])
        ds = float(np.log(4.0))  # the rates' ratio; exp(ds / 2) maps up onto down
        LindbladModel.build(h, [down, up], ds=[ds, -ds], partners=[1, 0])
        self._raises(DetailedBalanceError, h, [down, up], ds=[ds, ds], partners=[1, 0])
        self._raises(DetailedBalanceError, h, [down, up], ds=[1.0, -1.0], partners=[1, 0])
        self._raises(DetailedBalanceError, h, [down, up], ds=[np.nan, np.nan], partners=[1, 0])

    def test_mismatched_partner_operator(self):
        down = _lowering(3, 0)
        up = 0.5 * dagger(down)
        other = _lowering(3, 1)
        h = np.diag([0.0, 1.0, 2.0])
        ds = float(np.log(4.0))
        message = self._raises(
            DetailedBalanceError, h, [down, up, other, 0.5 * dagger(other)],
            ds=[ds, -ds, 0.0, 0.0], partners=[1, 0, 3, 2],
        )
        assert message.startswith("channel 2: operator mismatch")

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 8))
    def test_omega_is_the_least_squares_projection(self, seed, dim):
        model = random_eigenoperator_model(dim, np.random.default_rng(seed))
        for L, omega in zip(model.jump_ops, model.omegas):
            assert omega == pytest.approx(_least_squares_omega(model.H, L), rel=0, abs=1e-12)
            assert _omega(model.H, L) == omega


class TestJumpNorms:
    def test_stack_holds_each_channel_product(self, ep_generic):
        norms = ep_generic.jump_norms
        assert norms.shape == (6, 3, 3) and not norms.flags.writeable
        for L, ldl in zip(ep_generic.jump_ops, norms):
            assert np.array_equal(ldl, dagger(L) @ L)

    def test_channel_free_model_has_an_empty_stack(self):
        model = LindbladModel.build(np.diag([0.0, 1.0]), [])
        assert model.jump_norms.shape == (0, 2, 2)
        assert not model.total_decay().any()

    def test_arrays_are_shared_only_when_nothing_can_write_them(self):
        h = np.diag([0.0, 1.0]).astype(complex)
        frozen = np.zeros((1, 2, 2), dtype=complex)
        frozen[0, 0, 1] = 1.0
        frozen.setflags(write=False)
        writable = frozen.copy()
        view = writable[:]
        view.setflags(write=False)  # read-only, over memory that is not
        for ops, shared in ((frozen, True), (frozen[:], True), (view, False), (writable, False)):
            model = LindbladModel(h, ops, (1.0,), (None,), (None,))
            assert np.shares_memory(model.jump_ops, ops) == shared
            assert not model.jump_ops.flags.writeable
        copied = LindbladModel(h, view, (1.0,), (None,), (None,))
        writable[0, 0, 1] = 2.0
        assert copied.jump_ops[0, 0, 1] == 1.0

    def test_raw_constructor_rejects_a_mismatched_channel(self, ep_generic):
        with pytest.raises(ModelValidationError, match="dimension"):
            replace(ep_generic, H=np.zeros((2, 2), dtype=complex))

    @pytest.mark.parametrize("short", ["omegas", "ds", "partners"])
    def test_raw_constructor_rejects_a_tuple_of_another_length(self, ep_generic, short):
        with pytest.raises(ModelValidationError, match=f"{short} has 5 entries, not 6"):
            replace(ep_generic, **{short: getattr(ep_generic, short)[:-1]})


class TestDetailedBalance:
    def test_rate_pair_passes(self):
        g3, g4 = 0.6, 0.25
        e1 = np.zeros((3, 1), dtype=complex)
        e1[1] = 1.0
        g = np.zeros((3, 1), dtype=complex)
        g[0] = 1.0
        h = np.diag([0.0, 1.0, 1.0]).astype(complex)
        down = np.sqrt(g3) * g @ e1.conj().T
        up = np.sqrt(g4) * e1 @ g.conj().T
        ds = float(np.log(g3 / g4))
        model = LindbladModel.build(h, [down, up], ds=[ds, -ds], partners=[1, 0])
        assert_local_detailed_balance(model)

    def test_symmetric_pair_zero_entropy(self):
        ell = np.array([[0.0, 0.5], [0.0, 0.0]], dtype=complex)
        model = LindbladModel.build(
            np.zeros((2, 2)), [ell, dagger(ell)], ds=[0.0, 0.0], partners=[1, 0]
        )
        assert_local_detailed_balance(model)

    def test_wrong_entropy_weight_fails(self):
        g3, g4 = 0.6, 0.25
        down = np.array([[0.0, np.sqrt(g3)], [0.0, 0.0]], dtype=complex)
        up = np.array([[0.0, 0.0], [np.sqrt(g4), 0.0]], dtype=complex)
        with pytest.raises(DetailedBalanceError):
            LindbladModel.build(
                np.zeros((2, 2)), [down, up], ds=[0.0, 0.0], partners=[1, 0]
            )

    def test_partner_involution_enforced(self):
        ell = np.array([[0.0, 0.5], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ModelValidationError, match="involution"):
            LindbladModel.build(
                np.zeros((2, 2)), [ell, dagger(ell)], ds=[0.0, 0.0], partners=[1, 1]
            )


class TestSpectralDecompose:
    def test_degenerate_qubit(self):
        dec = spectral_decompose(np.eye(2, dtype=complex) / 2)
        assert np.allclose(dec.probabilities, [0.5, 0.5])
        overlap = dagger(dec.vectors) @ dec.vectors
        assert np.abs(overlap - np.eye(2)).max() < 1e-10

    def test_pure_projector(self):
        rho = np.zeros((3, 3), dtype=complex)
        rho[0, 0] = 1.0
        dec = spectral_decompose(rho)
        assert np.allclose(dec.probabilities, [1.0, 0.0, 0.0], atol=1e-12)

    def test_equal_rate_stationary_spectrum(self):
        rho = da_steady_state_closed_form(0.5, 0.5, 0.5, 0.5)
        dec = spectral_decompose(rho)
        assert np.allclose(dec.probabilities, [3 / 5, 2 / 5, 0.0], atol=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(3)
        rho = random_pure_state(4, rng) * 0.7 + np.eye(4) * 0.3 / 4
        dec = spectral_decompose(rho)
        rebuilt = (dec.vectors * dec.probabilities) @ dagger(dec.vectors)
        assert np.abs(rebuilt - rho).max() < 1e-12

    def test_large_negative_eigenvalue_is_error(self):
        with pytest.raises(ModelValidationError):
            spectral_decompose(np.diag([0.6, 0.6, -0.2]).astype(complex))


class TestSplit:
    def test_diagonal_matrix_is_fixed_point(self):
        rho = np.diag([0.2, 0.3, 0.5]).astype(complex)
        d, nd = split_diagonal_offdiagonal(rho)
        assert np.array_equal(d, rho)
        assert np.abs(nd).max() == 0.0

    def test_pure_superposition(self):
        v = np.array([1.0, 1.0]) / np.sqrt(2)
        rho = np.outer(v, v).astype(complex)
        d, nd = split_diagonal_offdiagonal(rho)
        assert np.allclose(d, np.eye(2) / 2)
        assert np.allclose(nd, rho - np.eye(2) / 2)

    def test_equal_rate_stationary_offdiagonal(self):
        rho = da_steady_state_closed_form(0.5, 0.5, 0.5, 0.5)
        _, nd = split_diagonal_offdiagonal(rho)
        assert nd[1, 2] == pytest.approx(0.2, abs=1e-14)
        assert nd[2, 1] == pytest.approx(0.2, abs=1e-14)
        assert np.abs(np.diag(nd)).max() == 0.0

    @settings(max_examples=30)
    @given(seed=st.integers(0, 2**31))
    def test_projection_pair(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = a @ dagger(a)
        rho /= rho.trace()
        d, nd = split_diagonal_offdiagonal(rho)
        # exact reconstruction and idempotence
        assert np.array_equal(d + nd, rho)
        d2, nd2 = split_diagonal_offdiagonal(d)
        assert np.array_equal(d2, d) and np.abs(nd2).max() == 0.0


class TestEntropyTerm:
    def test_pure_state_zero(self):
        rho = np.zeros((3, 3), dtype=complex)
        rho[1, 1] = 1.0
        assert von_neumann_trace_term(rho) == pytest.approx(0.0, abs=1e-12)

    def test_mixed_state(self):
        rho = np.diag([0.25, 0.75]).astype(complex)
        expected = 0.25 * np.log(0.25) + 0.75 * np.log(0.75)
        assert von_neumann_trace_term(rho) == pytest.approx(expected, abs=1e-12)

    def test_rank_deficient_state_is_finite(self):
        rho = np.diag([0.5, 0.5, 0.0]).astype(complex)
        assert np.isfinite(von_neumann_trace_term(rho))


class TestModelBuild:
    def test_dimension_mismatch(self):
        with pytest.raises(ModelValidationError, match="shape"):
            LindbladModel.build(np.zeros((3, 3)), [np.eye(2)])

    def test_immutability(self, da_equal):
        with pytest.raises(ValueError):
            da_equal.H[0, 0] = 5.0
        with pytest.raises(ValueError):
            da_equal.jump_ops[0, 0, 0] = 5.0
