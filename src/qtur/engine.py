"""Deterministic propagation: generator, steady state, no-jump family.

Density matrices are column-vectorized (Fortran order), so a superoperator
rho -> A rho B maps to the matrix kron(B.T, A). With K = -i H - Gamma / 2
the generator is kron(I, K) + kron(conj(K), I) + sum_m kron(conj(L_m), L_m):
two Kronecker products, each one broadcast multiply, and a channel sum that
is one GEMM over the model's stack of jump operators. Generators here
are time homogeneous and tiny, which makes the dense matrix exponential
(scaling and squaring) both exact enough and cheaper to trust than ODE
stepping. Each model assembles its generator once per ``coherent`` flag:
models are frozen and hold read-only arrays, so :func:`build_generator`
memoizes the generator, a read-only array, on the model itself.

The no-jump propagator family exposes the three operators

    U(t) = exp(-i H t),   D(t) = exp(-Gamma t / 2),   V(t) = exp(-i H_eff t)

with Gamma = sum_m L_m^dag L_m and H_eff = H - (i/2) Gamma. Under the
eigenoperator condition V(t) factorizes as U(t) D(t) = D(t) U(t); the
residual of that factorization is checked and reported, since a violation
means a channel slipped past the structural validation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eig, expm, lstsq

from .operators import (
    LindbladModel,
    ModelValidationError,
    assert_density,
    dagger,
    frobenius,
    validate_density,
)

TRACE_PRESERVATION_TOL = 1e-10
STEADY_STATE_RESIDUAL_TOL = 1e-10
DEGENERACY_TOL = 1e-8
DECOMPOSITION_TOL = 1e-9


class SteadyStateError(RuntimeError):
    """No numerically trustworthy steady state was found."""


class DegenerateSteadyStateError(SteadyStateError):
    """The generator has more than one stationary direction."""


def vec(rho: np.ndarray) -> np.ndarray:
    return np.asarray(rho, dtype=complex).reshape(-1, order="F")


def unvec(x: np.ndarray) -> np.ndarray:
    d = int(round(np.sqrt(x.size)))
    return np.asarray(x, dtype=complex).reshape((d, d), order="F")


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two matrices: the same products, as one multiply."""
    shape = (a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(shape)


def left_multiply(a: np.ndarray) -> np.ndarray:
    return _kron(np.eye(a.shape[0]), a)


def right_multiply(a: np.ndarray) -> np.ndarray:
    return _kron(a.T, np.eye(a.shape[0]))


def channel_sum(model: LindbladModel, weights) -> np.ndarray:
    """rho -> sum_m w_m L_m rho L_m^dag, from one (d^2, M) x (M, d^2) GEMM:
    its (ij, kl) entry sum_m w_m conj(L_m)_ij (L_m)_kl is, transposed, the
    (ik, jl) entry of sum_m w_m kron(conj(L_m), L_m)."""
    d = model.dim
    flat = model.jump_ops.reshape(-1, d * d)
    raw = (flat.conj().T * np.asarray(weights, dtype=float)) @ flat
    return raw.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def build_generator(model: LindbladModel, coherent: bool = True) -> np.ndarray:
    """The (possibly Hamiltonian-free) Lindblad generator of ``model``, a
    read-only d^2-square array.

    Assembled on the first call for each ``coherent`` flag and memoized
    on the model after that. Trace preservation — the vectorized identity
    annihilates the generator from the left — is asserted at assembly.
    """
    memo = model._generators
    key = bool(coherent)
    if key not in memo:
        gen = _assemble(model, coherent)
        gen.setflags(write=False)
        memo[key] = gen
    return memo[key]


def _assemble(model: LindbladModel, coherent: bool) -> np.ndarray:
    d = model.dim
    k = -0.5 * model.total_decay() - (1j * model.H if coherent else 0.0)
    gen = channel_sum(model, np.ones(model.n_channels))
    gen += left_multiply(k)
    gen += right_multiply(dagger(k))
    residual = np.linalg.norm(vec(np.eye(d)).conj() @ gen)
    if not residual <= TRACE_PRESERVATION_TOL * max(1.0, np.linalg.norm(gen)):
        raise ModelValidationError(f"generator is not trace preserving: {residual:.3e}")
    return gen


def propagate(gen: np.ndarray, rho0: np.ndarray, t: float) -> np.ndarray:
    """Return exp(L t) rho0, validated as a density matrix at 1e-8."""
    if t < 0:
        raise ValueError(f"propagation time must be nonnegative, got {t}")
    rho0 = np.asarray(rho0, dtype=complex)
    return propagated_state(expm(gen * t) @ vec(rho0))


def propagated_state(x: np.ndarray) -> np.ndarray:
    """The density matrix of a propagated vector ``x``: the Hermitian part
    of unvec(x), validated at 1e-8."""
    out = unvec(x)
    out = (out + dagger(out)) / 2.0
    check = validate_density(out, 1e-8)
    if not check.ok:
        raise ModelValidationError(f"propagated state invalid: {check.message}")
    return out


def steady_state(gen: np.ndarray) -> np.ndarray:
    """Unique trace-one null state of the generator.

    The null direction comes from the full eigendecomposition (which also
    powers the uniqueness check: exactly one eigenvalue within 1e-8 of
    zero), then a least-squares solve of [L; trace row] x = [0; 1]
    polishes away eigensolver rounding before Hermitization.
    """
    w = eig(gen, right=False)
    moduli = np.sort(np.abs(w))
    if moduli[0] > DEGENERACY_TOL:
        raise SteadyStateError(f"no steady state found: smallest |eigenvalue| {moduli[0]:.3e}")
    if gen.shape[0] > 1 and moduli[1] < DEGENERACY_TOL:
        raise DegenerateSteadyStateError(
            f"degenerate steady state: second eigenvalue modulus {moduli[1]:.3e}"
        )

    d = round(gen.shape[0] ** 0.5)
    a = np.vstack([gen, vec(np.eye(d)).conj()[None, :]])
    b = np.zeros(d * d + 1, dtype=complex)
    b[-1] = 1.0
    x, *_ = lstsq(a, b, lapack_driver="gelsd")
    rho = unvec(x)
    rho = (rho + dagger(rho)) / 2.0
    rho /= rho.trace().real

    residual = np.linalg.norm(gen @ vec(rho))
    if residual > STEADY_STATE_RESIDUAL_TOL:
        raise SteadyStateError(f"steady-state residual {residual:.3e} too large")
    assert_density(rho)
    return rho


@dataclass(frozen=True)
class NoJumpFamily:
    """The commuting no-jump factor pair and their product.

    ``unitary`` is U(t), ``damping`` the Hermitian contraction D(t), and
    ``full`` the non-Hermitian V(t); ``residual`` is ||V - U D||_F.
    """

    unitary: np.ndarray
    damping: np.ndarray
    full: np.ndarray
    t: float
    residual: float


def _exp_hermitian(h: np.ndarray, scale: complex) -> np.ndarray:
    """exp(scale * h) for Hermitian h via its eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(scale * w)) @ dagger(v)


def no_jump_family(model: LindbladModel, t: float) -> NoJumpFamily:
    if t < 0:
        raise ValueError("time must be nonnegative")
    gamma = model.total_decay()
    u = _exp_hermitian(model.H, -1j * t)
    damping = _exp_hermitian(gamma, -0.5 * t)
    h_eff = model.H - 0.5j * gamma
    full = expm(-1j * h_eff * t)
    residual = frobenius(full - u @ damping)
    if residual > DECOMPOSITION_TOL * max(1.0, frobenius(full)):
        raise ModelValidationError(
            f"no-jump decomposition residual {residual:.3e}: a channel violates "
            "the eigenoperator condition"
        )
    return NoJumpFamily(unitary=u, damping=damping, full=full, t=t, residual=residual)


def survival_probability(model: LindbladModel, rho0: np.ndarray, tau: float) -> float:
    """Probability of observing no jump in [0, tau].

    Computed as Tr[V rho0 V^dag] and cross-checked against the
    Hamiltonian-free route Tr[D rho0 D]; the two must agree to 1e-10.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    rho0 = np.asarray(rho0, dtype=complex)
    fam = no_jump_family(model, tau)
    p_full = float(np.real(np.trace(fam.full @ rho0 @ dagger(fam.full))))
    p_damp = float(np.real(np.trace(fam.damping @ rho0 @ fam.damping)))
    if abs(p_full - p_damp) > 1e-10:
        raise ModelValidationError(
            f"survival probability differs between routes: {p_full!r} vs {p_damp!r}"
        )
    return min(max(p_damp, 0.0), 1.0)
