"""Dense operator algebra, model containers and structural validation.

Everything operates on small dense complex matrices. The wall is the
d^2 x d^2 superoperator. Above ``qtur.counting.DENSE_MAX_DIM`` (16) no
(2 d^2 + 1)-square augmented block is ever formed, and every sum over
channels (the generator's dissipator and J_c) is one GEMM over the stack
of jump operators. So the d^2-square generator and J_c themselves are
what a ``qtur bounds`` call at d = 24 or 32 holds.
Operators and density matrices are plain ``numpy`` arrays; the model layer
below adds the structure a monitored open system needs:

* a Hermitian Hamiltonian ``H``,
* jump channels ``L_m`` that each satisfy the eigenoperator condition
  ``[L_m, H] = omega_m * L_m`` for a real transition frequency ``omega_m``
  (extracted, never user supplied),
* optional reverse-channel pairing with an environment entropy change
  ``ds`` per jump, obeying ``L_m = exp(ds_m / 2) * L_partner^dagger`` and
  ``ds_partner = -ds_m``.

All containers are frozen dataclasses holding read-only arrays, so they can
be shared freely across worker processes. A model also holds L_m and
L_m^dag L_m as (M, d, d) stacks, which every sum over channels reads, and
memoizes its generators (``qtur.engine.build_generator``), which its
arrays fix, and in one slot the last augmented block of ``qtur.counting``
with its last dense exponential.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Default tolerances. The eigenoperator residual is judged relative to
# ||L||_F times the spread of H's spectrum, so it carries no energy unit;
# the density tolerances separate rounding noise from modeling bugs.
EIGENOPERATOR_TOL = 1e-8
DENSITY_TOL = 1e-10
EIGENVALUE_CLIP = 1e-14


class ModelValidationError(ValueError):
    """A model or state violates a structural assumption."""


class EigenoperatorError(ModelValidationError):
    """``[L, H]`` is not proportional to ``L`` within tolerance."""


class DetailedBalanceError(ModelValidationError):
    """A channel pair violates the local detailed balance relation."""


def dagger(a: np.ndarray) -> np.ndarray:
    """The conjugate transpose of a matrix, or of each matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


def hermiticity_error(a: np.ndarray) -> float:
    """Frobenius distance to the Hermitian part, relative to nothing."""
    return frobenius(a - dagger(a))


@dataclass(frozen=True)
class DensityCheck:
    """Result of validating a density matrix.

    ``ok`` is True iff Hermiticity, unit trace and positivity all hold
    within ``tol``; ``worst`` is the largest violation found and
    ``message`` names the failing invariant.
    """

    ok: bool
    hermiticity: float
    trace_error: float
    min_eigenvalue: float
    tol: float
    worst: float
    message: str


def validate_density(rho: np.ndarray, tol: float = DENSITY_TOL) -> DensityCheck:
    """Check Hermiticity, unit trace and positive semidefiniteness of rho."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.shape[0] < 1:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    if not np.all(np.isfinite(rho.view(float))):
        raise ValueError("density matrix contains NaN/Inf entries")

    herm = hermiticity_error(rho)
    trace_err = abs(rho.trace() - 1.0)
    # eigvalsh on the Hermitian part: rounding asymmetry must not poison
    # the positivity check.
    min_eig = float(np.linalg.eigvalsh((rho + dagger(rho)) / 2.0).min())

    failures = []
    if herm > tol:
        failures.append(f"non-Hermitian by {herm:.3e}")
    if trace_err > tol:
        failures.append(f"trace off by {trace_err:.3e}")
    if min_eig < -tol:
        failures.append(f"negative eigenvalue {min_eig:.3e}")
    worst = max(herm, trace_err, max(0.0, -min_eig))
    return DensityCheck(
        ok=not failures,
        hermiticity=herm,
        trace_error=float(trace_err),
        min_eigenvalue=min_eig,
        tol=tol,
        worst=worst,
        message="; ".join(failures) if failures else "ok",
    )


def assert_density(rho: np.ndarray) -> None:
    check = validate_density(rho)
    if not check.ok:
        raise ModelValidationError(f"invalid density matrix: {check.message}")


def extract_bohr_frequency(H: np.ndarray, L: np.ndarray) -> float:
    """Return the real omega with ``[L, H] = omega * L``.

    omega is the least-squares projection Re(Tr[L^dag [L, H]]) / Tr[L^dag L];
    the channel conforms iff the residual ||[L,H] - omega L||_F stays below
    ``EIGENOPERATOR_TOL * ||L||_F`` times E_max - E_min, the spread of H's
    spectrum. Scaling L by any nonzero constant leaves omega unchanged.
    """
    H, L = np.asarray(H, dtype=complex), np.asarray(L, dtype=complex)
    _check_finite(H, "Hamiltonian")
    _check_finite(L, "jump operator")
    return float(_bohr_frequencies(H, L[None], "")[0])


def _check_finite(a: np.ndarray, name: str) -> None:
    if not np.isfinite(a).all():
        raise ModelValidationError(f"{name} has NaN or Inf entries")


def _bohr_frequencies(H: np.ndarray, ops: np.ndarray, where: str = "channel {}: ") -> np.ndarray:
    """:func:`extract_bohr_frequency` of each operator of the (M, d, d)
    stack ``ops``; ``where`` names channel m in errors.

    In the eigenbasis of H, [L, H]_ij = L_ij (E_j - E_i). With p_ij =
    |L_ij|^2 / ||L||_F^2 there, omega = sum p_ij (E_j - E_i) and the
    residual is ||L||_F sqrt(sum p_ij (E_j - E_i - omega)^2)."""
    if hermiticity_error(H) > EIGENOPERATOR_TOL * frobenius(H):
        raise ModelValidationError("Hamiltonian is not Hermitian")
    norms = np.linalg.norm(ops, axis=(1, 2))
    if not norms.all():
        raise ModelValidationError(f"{where.format(np.argmin(norms))}jump operator is zero")
    energies, basis = np.linalg.eigh((H + dagger(H)) / 2.0)
    gap = energies[None, :] - energies[:, None]
    weight = (np.abs(dagger(basis) @ ops @ basis) / norms[:, None, None]) ** 2
    omega = (weight * gap).sum(axis=(1, 2))
    residual = norms * np.sqrt((weight * (gap - omega[:, None, None]) ** 2).sum(axis=(1, 2)))
    # relative to the spectrum's spread (shift-free), never below eigh's rounding
    spread = energies[-1] - energies[0]
    rounding = 16 * len(energies) * np.spacing(abs(energies).max())
    bound = norms * max(EIGENOPERATOR_TOL * spread, rounding)
    bad = ~(residual <= bound)
    if bad.any():
        m = np.argmax(bad)
        raise EigenoperatorError(
            f"{where.format(m)}eigenoperator condition violated: residual "
            f"{residual[m]:.3e} > {bound[m]:.3e} ({EIGENOPERATOR_TOL:.1e} * ||L||_F "
            f"* spread {spread:.3e} of H)"
        )
    return omega


@dataclass(frozen=True)
class JumpChannel:
    """One monitored decay channel.

    ``omega`` is the derived transition frequency, ``ds`` the entropy
    handed to the environment per jump (None when thermodynamically
    unstructured) and ``partner`` the index of the reverse channel.
    """

    L: np.ndarray
    omega: float
    ds: float | None = None
    partner: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "L", _readonly(self.L))


@dataclass(frozen=True)
class LindbladModel:
    """Hamiltonian plus jump channels, validated at construction.

    Use :meth:`build` to derive transition frequencies and run the
    structural checks; the raw constructor checks only that every channel
    has the Hamiltonian's shape.
    """

    H: np.ndarray
    channels: tuple[JumpChannel, ...]
    # L_m of every channel as one (M, d, d) stack, and L_m^dag L_m, the
    # jump-rate operators, as another: every sum over channels reads these
    jump_ops: np.ndarray = field(init=False, repr=False, compare=False)
    jump_norms: np.ndarray = field(init=False, repr=False, compare=False)
    # coherent flag -> generator array, filled by qtur.engine.build_generator
    _generators: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # (coherent, weights) -> the augmented block of qtur.counting._block:
    # its d^2-square pieces, 1-norm and last dense step; one entry at most
    _block: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "H", _readonly(self.H))
        object.__setattr__(self, "channels", tuple(self.channels))
        if any(c.L.shape != self.H.shape for c in self.channels):
            raise ModelValidationError("channel dimension does not match the Hamiltonian")
        ops = np.array([c.L for c in self.channels], dtype=complex).reshape(-1, *self.H.shape)
        object.__setattr__(self, "jump_ops", _readonly(ops))
        object.__setattr__(self, "jump_norms", _readonly(dagger(ops) @ ops))

    @property
    def dim(self) -> int:
        return self.H.shape[0]

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    @property
    def has_entropy_weights(self) -> bool:
        return self.n_channels > 0 and all(c.ds is not None for c in self.channels)

    def entropy_weights(self) -> np.ndarray:
        if not self.has_entropy_weights:
            raise ModelValidationError("channel entropy changes (ds) are not set")
        return np.array([c.ds for c in self.channels], dtype=float)

    def total_decay(self) -> np.ndarray:
        """Sum of L^dag L over channels (the no-jump decay generator)."""
        return self.jump_norms.sum(axis=0)

    @classmethod
    def build(cls, H: np.ndarray, jump_ops, *, ds=None, partners=None) -> "LindbladModel":
        """Assemble and validate a model.

        ``ds`` and ``partners`` are parallel sequences (entries may be
        None). H and every L_m must be finite, each L_m an eigenoperator
        of H; partner pairs must be involutive with opposite ds and
        satisfy local detailed balance.
        """
        H = np.asarray(H, dtype=complex)
        n = len(jump_ops)
        ds = list(ds) if ds is not None else [None] * n
        partners = list(partners) if partners is not None else [None] * n
        if len(ds) != n or len(partners) != n:
            raise ValueError("ds/partners length must match the channel count")

        _check_finite(H, "Hamiltonian")
        ops = [np.asarray(L, dtype=complex) for L in jump_ops]
        for m, L in enumerate(ops):
            if L.shape != H.shape:
                raise ModelValidationError(f"channel {m} has shape {L.shape}, H {H.shape}")
            _check_finite(L, f"channel {m}")
        omegas = _bohr_frequencies(H, np.array(ops).reshape(n, *H.shape)).tolist()
        model = cls(H, tuple(map(JumpChannel, ops, omegas, ds, partners)))
        for m, c in enumerate(model.channels):
            p = c.partner
            if p is not None and (not (0 <= p < n) or model.channels[p].partner != m):
                raise ModelValidationError(f"partner map is not an involution at channel {m}")
        paired = [m for m, c in enumerate(model.channels) if None not in (c.partner, c.ds)]
        for m, check in zip(paired, _balance_checks(model, paired)):
            if not check.ok:
                raise DetailedBalanceError(f"channel {m}: {check.message}")
        return model


@dataclass(frozen=True)
class BalanceCheck:
    ok: bool
    residual: float
    message: str


def check_local_detailed_balance(model: LindbladModel, m: int) -> BalanceCheck:
    """Verify ``L_m = exp(ds_m/2) L_partner^dag`` and ``ds_partner = -ds_m``
    to ``EIGENOPERATOR_TOL``."""
    c = model.channels[m]
    if c.partner is None:
        raise ModelValidationError(f"channel {m} has no reverse partner")
    if c.ds is None:
        raise ModelValidationError(f"channel {m} has no entropy change set")
    return _balance_checks(model, [m])[0]


def _balance_checks(model: LindbladModel, idx: list) -> list[BalanceCheck]:
    """:func:`check_local_detailed_balance` of the channels ``idx``, each
    paired and with ds set, from one stacked expression of residuals."""
    tol = EIGENOPERATOR_TOL
    chans = [model.channels[m] for m in idx]
    ops = model.jump_ops[idx]
    factor = np.exp(np.array([c.ds for c in chans], dtype=float) / 2.0)[:, None, None]
    rev = dagger(model.jump_ops[[c.partner for c in chans]])
    residuals = np.linalg.norm(ops - factor * rev, axis=(1, 2)).tolist()
    out = []
    for c, residual, scale in zip(chans, residuals, tol * np.linalg.norm(ops, axis=(1, 2))):
        rev_ds = model.channels[c.partner].ds
        if rev_ds is None or not abs(rev_ds + c.ds) <= tol * max(1.0, abs(c.ds)):
            message = "partner entropy change is not the negative"
            out.append(BalanceCheck(False, float("inf"), message))
        elif not residual <= scale:
            message = f"operator mismatch: residual {residual:.3e} > {scale:.3e}"
            out.append(BalanceCheck(False, residual, message))
        else:
            out.append(BalanceCheck(True, residual, "ok"))
    return out


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (descending, clipped to [0,1], renormalized) and
    orthonormal eigenvectors of a density matrix; column k of ``vectors``
    belongs to ``probabilities[k]``."""

    probabilities: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        p = np.array(self.probabilities, dtype=float)
        p.setflags(write=False)
        object.__setattr__(self, "probabilities", p)
        object.__setattr__(self, "vectors", _readonly(self.vectors))


def spectral_decompose(rho: np.ndarray) -> SpectralDecomposition:
    """Spectrally decompose a valid density matrix.

    Eigenvalues below zero by more than ``DENSITY_TOL`` fail
    :func:`assert_density`; smaller negatives are rounding and get
    clipped to 0 before renormalizing.
    """
    assert_density(rho)
    w, v = np.linalg.eigh((np.asarray(rho, complex) + dagger(rho)) / 2.0)
    w = np.clip(w, 0.0, 1.0)
    order = np.argsort(w)[::-1]
    w, v = w[order], v[:, order]
    return SpectralDecomposition(probabilities=w / w.sum(), vectors=v)


def split_diagonal_offdiagonal(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split rho into its diagonal part and the zero-diagonal remainder
    in the computational basis; the two parts always sum back exactly."""
    rho = np.asarray(rho, dtype=complex)
    diag = np.diag(np.diag(rho))
    return diag, rho - diag


def von_neumann_trace_term(rho: np.ndarray) -> float:
    """Tr[rho ln rho] with the 0 ln 0 = 0 convention.

    Eigenvalues are floored at ``EIGENVALUE_CLIP`` inside the logarithm
    only, so exact zeros contribute nothing while tiny positive rounding
    noise cannot produce huge spurious logs.
    """
    w = np.linalg.eigvalsh((np.asarray(rho, complex) + dagger(rho)) / 2.0)
    if w.min() < -DENSITY_TOL:
        raise ModelValidationError(f"eigenvalue {w.min():.3e} below tolerance in entropy term")
    w = np.clip(w, 0.0, 1.0)
    return float(np.sum(w * np.log(np.maximum(w, EIGENVALUE_CLIP))))
