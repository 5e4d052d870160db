"""Deterministic propagation: generator, steady state, no-jump family.

Density matrices are column-vectorized (Fortran order), so a superoperator
rho -> A rho B maps to the matrix kron(B.T, A). With K = -i H - Gamma / 2
the generator is kron(I, K) + kron(conj(K), I) + sum_m kron(conj(L_m), L_m):
a channel sum that is one GEMM over the model's stack of jump operators,
with K and conj(K) added in place where the two Kronecker products put
them, so neither product is formed. Generators here
are time homogeneous and tiny, which makes the dense matrix exponential
(scaling and squaring) both exact enough and cheaper to trust than ODE
stepping. Each model assembles its generator once per ``coherent`` flag:
models are frozen and hold read-only arrays, so :func:`build_generator`
memoizes the generator, a read-only array, on the model itself. The
steady state is one LU of the generator bordered by its trace row, scaled
by ||L||_1: the factors give the state, and their reciprocal condition
number judges its uniqueness without a time unit.

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
from scipy.linalg import expm, lapack

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
    # kron(I, K), then kron(conj(K), I), added in place through writeable
    # einsum views of the (d, d, d, d) generator: K on each block [r, :, r, :],
    # conj(K) on each [:, r, :, r]
    view = gen.reshape(d, d, d, d)
    left = np.einsum("abac->abc", view)
    left += k
    right = np.einsum("arcr->rac", view)
    right += k.conj()
    residual = np.linalg.norm(vec(np.eye(d)).conj() @ gen)
    if not residual <= TRACE_PRESERVATION_TOL * max(1.0, np.linalg.norm(gen)):
        raise ModelValidationError(f"generator is not trace preserving: {residual:.3e}")
    return gen


def propagate(gen: np.ndarray, rho0: np.ndarray, t: float) -> np.ndarray:
    """Return exp(L t) rho0, validated as a density matrix at 1e-8."""
    if not (np.isfinite(t) and t >= 0):
        raise ValueError(f"propagation time must be finite and nonnegative, got {t}")
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
    """Unique trace-one null state of the generator, from one LU.

    With t the trace row and s = ||L||_1, [[L, s t^dag], [s t, 0]] is
    singular exactly when 0 is not a simple eigenvalue of L, and otherwise
    maps (rho, 0) to (0, s). Its reciprocal condition number judges
    uniqueness and ||L rho|| / (s ||rho||) the solve, both free of time units.
    """
    n = gen.shape[0]
    s = float(np.abs(gen).sum(axis=0).max()) or 1.0  # the zero generator has no scale
    bordered = np.zeros((n + 1, n + 1), dtype=complex)
    bordered[:n, :n] = gen
    bordered[:n, n] = bordered[n, :n] = s * vec(np.eye(round(n**0.5)))
    lu, piv, _ = lapack.zgetrf(bordered)
    rcond, _ = lapack.zgecon(lu, np.abs(bordered).sum(axis=0).max())
    if not rcond >= DEGENERACY_TOL:
        raise DegenerateSteadyStateError(f"degenerate steady state: bordered rcond {rcond:.3e}")
    # the pivots, then two triangular solves: zgetrs's bits move with the BLAS
    # thread count, these do not
    x = lapack.zlaswp(np.append(np.zeros(n), s)[:, None], piv)
    for lower in (1, 0):
        x, _ = lapack.ztrtrs(lu, x, lower=lower, unitdiag=lower)
    rho = unvec(x[:n, 0])
    rho = (rho + dagger(rho)) / (2.0 * rho.trace().real)
    residual = np.linalg.norm(gen @ vec(rho)) / (s * np.linalg.norm(rho))
    if not residual <= STEADY_STATE_RESIDUAL_TOL:
        raise SteadyStateError(f"steady-state relative residual {residual:.3e} too large")
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
    if not (np.isfinite(t) and t >= 0):
        raise ValueError(f"time must be finite and nonnegative, got {t}")
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
    if not (np.isfinite(tau) and tau >= 0):
        raise ValueError(f"tau must be finite and nonnegative, got {tau}")
    rho0 = np.asarray(rho0, dtype=complex)
    fam = no_jump_family(model, tau)
    p_full = float(np.real(np.trace(fam.full @ rho0 @ dagger(fam.full))))
    p_damp = float(np.real(np.trace(fam.damping @ rho0 @ fam.damping)))
    if abs(p_full - p_damp) > 1e-10:
        raise ModelValidationError(
            f"survival probability differs between routes: {p_full!r} vs {p_damp!r}"
        )
    return min(max(p_damp, 0.0), 1.0)
