"""Deterministic pieces: generator, steady-state solve, no-jump family.

Density matrices are column-vectorized (Fortran order), so a superoperator
rho -> A rho B maps to the matrix kron(B.T, A). With K = -i H - Gamma / 2
the generator is kron(I, K) + kron(conj(K), I) + sum_m kron(conj(L_m), L_m):
a channel sum that is one GEMM over the model's stack of jump operators,
with K and conj(K) added in place where the two Kronecker products put
them, so neither product is formed. :func:`build_generator` assembles one
per call, or gives L on H's zero-frequency sector (``reduced``), which
holds no H. The steady state is one LU of the generator bordered by its
trace row, scaled by ||L||_1: the factors give the state, and their
reciprocal condition number judges its uniqueness without a time unit.
:func:`steady_states` takes a stack of generators, on vec rho or on H's
zero-frequency sector (a sweep's draws), and checks them once over the
stack, where a failure marks only its own entry. Which of the two a
command takes, for rho(t) too, is :mod:`qtur.counting`'s one route rule
(``stationary``, ``evolve``): the sector wherever it holds.

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
    DENSITY_TOL,
    LindbladModel,
    ModelValidationError,
    _density_checks,
    _frozen,
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
    """The columns of rho stacked, for each matrix of a (..., d, d) stack."""
    rho = np.asarray(rho, dtype=complex)
    *lead, rows, cols = rho.shape  # sizes, not -1: a stack may hold no matrix
    return rho.swapaxes(-1, -2).reshape(*lead, rows * cols)


def unvec(x: np.ndarray) -> np.ndarray:
    """The (d, d) matrix of each vector of a (..., d^2) stack; see :func:`vec`."""
    x = np.asarray(x, dtype=complex)
    d = round(x.shape[-1] ** 0.5)
    return x.reshape(*x.shape[:-1], d, d).swapaxes(-1, -2)


def _channel_sums(ops: np.ndarray, weights) -> np.ndarray:
    """rho -> sum_m w_m L_m rho L_m^dag for each (M, d, d) channel stack of
    ``ops`` (..., M, d, d), from one batched (d^2, M) x (M, d^2) GEMM: its
    (ij, kl) entry sum_m w_m conj(L_m)_ij (L_m)_kl is, transposed, the
    (ik, jl) entry of sum_m w_m kron(conj(L_m), L_m)."""
    d = ops.shape[-1]
    flat = ops.reshape(*ops.shape[:-2], d * d)
    raw = (flat.conj().swapaxes(-1, -2) * np.asarray(weights, dtype=float)) @ flat
    return raw.reshape(*raw.shape[:-2], d, d, d, d).swapaxes(-3, -2).reshape(raw.shape)


def build_generator(model: LindbladModel, coherent: bool = True, reduced: bool = False):
    """The (possibly Hamiltonian-free) Lindblad generator of ``model``, a read-only d^2-square
    array, its trace preservation asserted at assembly; with ``reduced``, L on H's
    zero-frequency sector (with or without H, one matrix), where that sector holds."""
    if not reduced:
        return _assemble(model, coherent)
    if (zero := model.zero_sector()).reason:
        raise ModelValidationError(f"no zero-frequency reduction: {zero.reason}")
    return zero.generator


def _assemble(model: LindbladModel, coherent: bool) -> np.ndarray:
    d = model.dim
    k = -0.5 * model.total_decay() - (1j * model.H if coherent else 0.0)
    gen = _channel_sums(model.jump_ops, np.ones(model.n_channels))
    # kron(I, K), then kron(conj(K), I), added in place through writeable
    # einsum views of the (d, d, d, d) generator: K on each block [r, :, r, :],
    # conj(K) on each [:, r, :, r]
    view = gen.reshape(d, d, d, d)
    left = np.einsum("abac->abc", view)
    left += k
    right = np.einsum("arcr->rac", view)
    right += k.conj()
    (error,) = _trace_errors(gen[None], vec(np.eye(d)).real)
    if error:
        raise error
    return _frozen(gen)


def _trace_errors(gens: np.ndarray, trace: np.ndarray) -> list:
    """Per generator of the (N, n, n) stack ``gens``, None or the error of one that the
    trace row ``trace`` does not annihilate to TRACE_PRESERVATION_TOL max(1, ||L||_F)."""
    residual = np.linalg.norm(trace @ gens, axis=-1)
    parts = gens.view(float)  # ||L||_F without a temporary as large as L
    scale = TRACE_PRESERVATION_TOL * np.maximum(1.0, np.sqrt(np.einsum("nij,nij->n", parts, parts)))
    return [None if ok else ModelValidationError(f"generator is not trace preserving: {r:.3e}")
            for ok, r in zip((residual <= scale).tolist(), residual.tolist())]


def propagated_state(x: np.ndarray) -> np.ndarray:
    """The density matrix of a propagated vector ``x``: the Hermitian part
    of unvec(x), validated at 1e-8."""
    out = unvec(x)
    out = (out + dagger(out)) / 2.0
    check = validate_density(out, 1e-8)
    if not check.ok:
        raise ModelValidationError(f"propagated state invalid: {check.message}")
    return out


def steady_state(gen: np.ndarray, pairs=None, basis=None) -> np.ndarray:
    """Unique trace-one null state of the generator: :func:`steady_states` of one."""
    (rho,) = steady_states([gen], pairs, basis)
    if isinstance(rho, Exception):
        raise rho
    return rho


def steady_states(gens, pairs=None, basis=None) -> list:
    """The unique trace-one null state of each generator in ``gens`` (one size), or the
    SteadyStateError or ModelValidationError that refuses it. A generator acts on vec rho,
    or with ``pairs`` on those (j, k) entries of rho in H's eigenbasis ``basis`` (its
    zero-frequency sector), each state rotated back. With t the trace row (j == k) and
    s = ||L||_1, [[L, s t^dag], [s t, 0]] is singular exactly when 0 is not a simple
    eigenvalue of L, and otherwise maps (rho, 0) to (0, s): its reciprocal condition number
    judges uniqueness and ||L rho|| / (s ||rho||) the solve, free of time units. Each system
    gets its own LAPACK calls; the checks run once over the stack."""
    count = len(gens)
    if not count:
        return []
    n = gens[0].shape[0]
    d = round(n**0.5) if basis is None else len(basis)
    # on vec rho, entry r + d c is rho[r, c]
    j, k = pairs if pairs is not None else np.divmod(np.arange(n), d)[::-1]
    t = (j == k) * 1.0
    bordered = np.zeros((count, n + 1, n + 1), dtype=complex)
    for m, gen in enumerate(gens):  # no stacked temporary of the generators
        bordered[m, :n, :n] = gen
    stack = bordered[:, :n, :n]  # the generators, read in place
    out = _trace_errors(stack, t)
    s = np.abs(stack).sum(axis=1).max(axis=-1)
    s[s == 0.0] = 1.0  # the zero generator has no scale
    bordered[:, :n, n] = bordered[:, n, :n] = s[:, None] * t
    anorm = np.abs(bordered).sum(axis=1).max(axis=-1).tolist()
    rhs = np.zeros((count, n + 1, 1))
    rhs[:, n, 0] = s
    x = np.tile(t / d, (count, 1)).astype(complex)  # a stand-in where no state is solved
    for m in range(count):
        if out[m] is not None:
            continue
        lu, piv, _ = lapack.zgetrf(bordered[m])
        rcond, _ = lapack.zgecon(lu, anorm[m])
        if not rcond >= DEGENERACY_TOL:
            out[m] = DegenerateSteadyStateError(f"degenerate steady state: bordered rcond {rcond:.3e}")
            continue
        # the pivots, then two triangular solves: zgetrs's bits move with
        # the BLAS thread count, these do not
        y = lapack.zlaswp(rhs[m], piv)
        for lower in (1, 0):
            y, _ = lapack.ztrtrs(lu, y, lower=lower, unitdiag=lower)
        x[m] = y[:n, 0]
    rho = np.zeros((count, d, d), dtype=complex)
    rho[:, j, k] = x
    trace = np.trace(rho, axis1=1, axis2=2).real
    rho = np.ascontiguousarray((rho + dagger(rho)) / (2.0 * trace)[:, None, None])
    flat = rho[:, j, k, None]
    residual = np.linalg.norm(stack @ flat, axis=(1, 2)) / (s * np.linalg.norm(rho, axis=(1, 2)))
    residual = residual.tolist()
    rho = rho if basis is None else basis @ rho @ dagger(basis)
    solved = [m for m in range(count) if residual[m] <= STEADY_STATE_RESIDUAL_TOL]
    invalid = dict(zip(solved, _density_checks(rho[solved], DENSITY_TOL)[1]))
    for m in range(count):
        if out[m] is not None:
            continue
        if m not in invalid:
            out[m] = SteadyStateError(f"steady-state relative residual {residual[m]:.3e} too large")
        elif invalid[m]:
            out[m] = ModelValidationError(f"invalid density matrix: {invalid[m]}")
        else:
            out[m] = rho[m]
    return out


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
