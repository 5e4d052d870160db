"""Dense operator algebra, model containers and structural validation.

Everything operates on small dense complex matrices. The wall is the
d^2 x d^2 superoperator: ``qtur bounds`` and the sweeps avoid it on H's
zero-frequency Bohr sector (:class:`ZeroSector`, d-square on a
non-degenerate H), and the Liouville route sums over channels as one GEMM
over the stack of jump operators. Operators and density matrices are plain
``numpy`` arrays; the model layer below adds the structure a monitored
open system needs, one home per fact:

* a Hermitian Hamiltonian ``H``,
* jump operators ``L_m``, one read-only (M, d, d) stack ``jump_ops``, that
  each satisfy ``[L_m, H] = omega_m * L_m`` for a real transition
  frequency ``omegas[m]`` (extracted, never user supplied),
* optional reverse channels ``partners[m]`` with an environment entropy
  change ``ds[m]`` per jump, obeying ``L_m = exp(ds_m / 2) L_partner^dag``
  and ``ds_partner = -ds_m``.

All containers are frozen dataclasses holding read-only arrays, so they can
be shared freely across worker processes. A model also holds the stack of
L_m^dag L_m, H's eigensystem and its zero-frequency sector; generators and
augmented blocks are built per call and kept nowhere.
:meth:`LindbladModel.build_stack` builds N models that share H as one
frozen (N, M, d, d) stack, row k of which is model k's ``jump_ops``: every
check, the ``eigh`` of H, the L_m^dag L_m and the zero-frequency sectors
are taken once over it, and :meth:`LindbladModel.build` is its stack of one.
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

# Default tolerances. The eigenoperator residual is judged relative to
# ||L||_F times the spread of H's spectrum, so it carries no energy unit;
# the density tolerances separate rounding noise from modeling bugs.
EIGENOPERATOR_TOL = 1e-8
# The zero-frequency reduction's residual (ZeroSector): its statistics moved by
# up to 12x the residual on rotated models with nearly degenerate levels.
SECTOR_TOL = 1e-12
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


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _readonly(a: np.ndarray) -> np.ndarray:
    """``a`` as a read-only complex array: itself when no array may write its
    memory (a stack frozen where it was made), else a frozen copy."""
    owner = a.base if isinstance(a, np.ndarray) and a.base is not None else a
    frozen = isinstance(owner, np.ndarray) and not (a.flags.writeable or owner.flags.writeable)
    return a if frozen and a.dtype == complex else _frozen(np.array(a, dtype=complex))


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
    ((herm, trace_err, min_eig),), (message,) = _density_checks(rho[None], tol)
    return DensityCheck(
        ok=not message,
        hermiticity=herm,
        trace_error=trace_err,
        min_eigenvalue=min_eig,
        tol=tol,
        worst=max(herm, trace_err, max(0.0, -min_eig)),
        message=message or "ok",
    )


_DENSITY_FAILURES = (
    "non-Hermitian by {:.3e}", "trace off by {:.3e}", "negative eigenvalue {:.3e}"
)


def _density_checks(rhos: np.ndarray, tol: float) -> tuple:
    """(Hermiticity error, trace error, least eigenvalue) of each matrix of
    the (N, d, d) stack ``rhos``, and per matrix the invariants that fail
    ``tol`` ("" where all hold; NaN fails)."""
    stats = np.stack([
        np.linalg.norm(rhos - dagger(rhos), axis=(-2, -1)),
        np.abs(np.trace(rhos, axis1=-2, axis2=-1) - 1.0),
        # on the Hermitian part: rounding asymmetry must not poison positivity
        np.linalg.eigvalsh((rhos + dagger(rhos)) / 2.0).min(axis=-1),
    ], axis=-1)
    failed = ~(stats * [1.0, 1.0, -1.0] <= tol)
    messages = [
        "; ".join(text.format(v) for text, v, bad in zip(_DENSITY_FAILURES, row, flags) if bad)
        for row, flags in zip(stats.tolist(), failed.tolist())
    ]
    return stats.tolist(), messages


def assert_density(rho: np.ndarray) -> None:
    check = validate_density(rho)
    if not check.ok:
        raise ModelValidationError(f"invalid density matrix: {check.message}")


def _level_tol(energies: np.ndarray) -> float:
    """EIGENOPERATOR_TOL times the spread of H's spectrum, at least eigh's rounding."""
    rounding = 16 * len(energies) * np.spacing(abs(energies).max())
    return max(EIGENOPERATOR_TOL * (energies[-1] - energies[0]), rounding)


def _bohr_frequencies(H: np.ndarray, ops: np.ndarray, where) -> tuple:
    """The real omega with ``[L, H] = omega * L`` of each operator L of the
    (N, M, d, d) stack ``ops``, from one ``eigh`` of H, and that eigensystem:
    H's energies, its eigenvectors and ``ops`` rotated into them; ``where(k,
    m)`` names operator m of model k in errors.

    omega is the least-squares projection Re(Tr[L^dag [L, H]]) / Tr[L^dag L];
    the channel conforms iff the residual ||[L,H] - omega L||_F stays below
    ``||L||_F * _level_tol``. Scaling L by any nonzero constant leaves omega
    unchanged.

    In the eigenbasis of H, [L, H]_ij = L_ij (E_j - E_i). With p_ij =
    |L_ij|^2 / ||L||_F^2 there, omega = sum p_ij (E_j - E_i) and the
    residual is ||L||_F sqrt(sum p_ij (E_j - E_i - omega)^2)."""
    if frobenius(H - dagger(H)) > EIGENOPERATOR_TOL * frobenius(H):
        raise ModelValidationError("Hamiltonian is not Hermitian")
    norms = np.linalg.norm(ops, axis=(-2, -1))
    if not norms.all():
        at = np.unravel_index(np.argmin(norms), norms.shape)
        raise ModelValidationError(f"{where(*at)}jump operator is zero")
    energies, basis = np.linalg.eigh((H + dagger(H)) / 2.0)
    gap = energies[None, :] - energies[:, None]
    rotated = dagger(basis) @ ops @ basis
    weight = (np.abs(rotated) / norms[..., None, None]) ** 2
    omega = (weight * gap).sum(axis=(-2, -1))
    residual = norms * np.sqrt((weight * (gap - omega[..., None, None]) ** 2).sum(axis=(-2, -1)))
    bound = norms * _level_tol(energies)
    bad = ~(residual <= bound)
    if bad.any():
        at = np.unravel_index(np.argmax(bad), bad.shape)
        raise EigenoperatorError(
            f"{where(*at)}eigenoperator condition violated: residual "
            f"{residual[at]:.3e} > {bound[at]:.3e} ({EIGENOPERATOR_TOL:.1e} * ||L||_F "
            f"* spread {energies[-1] - energies[0]:.3e} of H)"
        )
    return omega, energies, basis, rotated


@dataclass(frozen=True, eq=False)
class LindbladModel:
    """Hamiltonian plus M jump channels, validated at construction.

    Channel m is ``jump_ops[m]`` with frequency ``omegas[m]``, entropy per
    jump ``ds[m]`` (None when thermodynamically unstructured) and reverse
    channel ``partners[m]`` (None when unpaired). Use :meth:`build` to
    derive the frequencies and run the structural checks; the raw
    constructor checks only shapes: H's for every channel, M entries for
    each tuple. A model equals only itself and hashes by identity: the
    arrays it holds have no truth value to compare by.
    """

    H: np.ndarray
    jump_ops: np.ndarray
    omegas: tuple
    ds: tuple
    partners: tuple
    # L_m^dag L_m, the jump-rate operators, as an (M, d, d) stack
    jump_norms: np.ndarray = field(init=False, repr=False)
    # "eigh" -> H's eigensystem (:meth:`spectrum`), "zero" -> its ZeroSector
    _spectrum: dict = field(default_factory=dict, init=False, repr=False)
    # build_stack's hand-off: this model's jump_norms row and _spectrum entries
    _stacked: InitVar[tuple | None] = None

    def __post_init__(self, _stacked):
        H, ops = _readonly(self.H), _readonly(self.jump_ops)
        if ops.ndim != 3 or ops.shape[1:] != H.shape:
            raise ModelValidationError("channel dimension does not match the Hamiltonian")
        for name in ("omegas", "ds", "partners"):
            value = tuple(getattr(self, name))
            if len(value) != len(ops):
                raise ModelValidationError(f"{name} has {len(value)} entries, not {len(ops)}")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "jump_ops", ops)
        norms, spectrum = _stacked or (_frozen(dagger(ops) @ ops), {"eigh": None})
        self._spectrum.update(spectrum)
        object.__setattr__(self, "jump_norms", norms)

    @property
    def dim(self) -> int:
        return self.H.shape[0]

    @property
    def n_channels(self) -> int:
        return len(self.jump_ops)

    @property
    def has_entropy_weights(self) -> bool:
        return self.n_channels > 0 and None not in self.ds

    def entropy_weights(self) -> np.ndarray:
        if not self.has_entropy_weights:
            raise ModelValidationError("channel entropy changes (ds) are not set")
        return np.array(self.ds, dtype=float)

    def total_decay(self) -> np.ndarray:
        """Sum of L^dag L over channels (the no-jump decay generator)."""
        return self.jump_norms.sum(axis=0)

    def spectrum(self) -> tuple:
        """H's energies (ascending), eigenvectors and ``jump_ops`` rotated into
        them, read-only: from :meth:`build_stack`'s ``eigh`` or taken once."""
        if self._spectrum["eigh"] is None:
            energies, basis = np.linalg.eigh((self.H + dagger(self.H)) / 2.0)
            rotated = dagger(basis) @ self.jump_ops @ basis
            self._spectrum["eigh"] = tuple(map(_frozen, (energies, basis, rotated)))
        return self._spectrum["eigh"]

    def zero_sector(self) -> "ZeroSector":
        """H's zero-frequency Bohr sector (:class:`ZeroSector`), from build_stack or built once."""
        if "zero" not in self._spectrum:
            (energies, basis, ops), gamma = self.spectrum(), self.total_decay()
            self._spectrum["zero"] = _zero_sectors(energies, basis, ops[None], gamma[None])[0]
        return self._spectrum["zero"]

    @classmethod
    def build(cls, H: np.ndarray, jump_ops, *, ds=None, partners=None) -> "LindbladModel":
        """Assemble and validate a model: the stack of one of :meth:`build_stack`.

        ``ds`` and ``partners`` are parallel sequences (entries may be
        None). H, every L_m and every ds must be finite, each L_m an
        eigenoperator of H; partner pairs must be involutive with opposite
        ds and satisfy local detailed balance.
        """
        H = np.asarray(H, dtype=complex)
        ops = [np.asarray(L, dtype=complex) for L in jump_ops]
        for m, L in enumerate(ops):  # a ragged list is refused by name, not by numpy
            if L.shape != H.shape:
                raise ModelValidationError(f"channel {m} has shape {L.shape}, H {H.shape}")
        stack = np.reshape(ops, (1, len(ops), *H.shape))
        return cls.build_stack(H, stack, ds=None if ds is None else [ds], partners=partners)[0]

    @classmethod
    def build_stack(cls, H: np.ndarray, jump_ops, *, ds=None, partners=None, first=None) -> list:
        """:meth:`build` of N models that share H and the partner map: model
        k has the channels ``jump_ops[k]`` of the (N, M, d, d) stack and
        the entropy changes ``ds[k]``. Every check runs once over the
        stack, with one ``eigh`` of H; the first failure raises and names
        its channel, and its model as ``first + k`` when ``first`` is given
        or the stack holds more than one (a sweep passes its first draw)."""
        H = _readonly(np.asarray(H))  # one frozen H and one frozen stack for every model
        stack = _frozen(np.array(jump_ops, dtype=complex))
        count, n = stack.shape[:2]
        ds = [tuple(row) for row in ds] if ds is not None else [(None,) * n] * count
        partners = tuple(partners) if partners is not None else (None,) * n
        if len(partners) != n or len(ds) != count or any(len(row) != n for row in ds):
            raise ValueError("ds/partners length must match the channel count")
        if not np.isfinite(H).all():
            raise ModelValidationError("Hamiltonian has NaN or Inf entries")
        if stack.shape[2:] != H.shape:
            raise ModelValidationError(f"channels have shape {stack.shape[2:]}, H {H.shape}")
        label = "channel {1}" if first is None and count == 1 else "model {0}, channel {1}"

        def name(k, m):
            return label.format((first or 0) + k, m)

        finite = np.isfinite(stack).all(axis=(-2, -1))
        if not finite.all():
            at = np.unravel_index(np.argmin(finite), finite.shape)
            raise ModelValidationError(f"{name(*at)} has NaN or Inf entries")
        omegas, *spectrum = _bohr_frequencies(H, stack, lambda k, m: f"{name(k, m)}: ")
        for m, p in enumerate(partners):
            if p is not None and (not (0 <= p < n) or partners[p] != m):
                raise ModelValidationError(f"partner map is not an involution at channel {m}")
        has = np.array([[x is not None for x in r] for r in ds], dtype=bool).reshape(count, n)
        values = np.array([[0.0 if x is None else x for x in r] for r in ds], float)
        values = values.reshape(count, n)
        failed, residual, bound, bad_ds = _balance_checks(stack, has, values, partners)
        if failed.any():
            at = np.unravel_index(np.argmax(failed), failed.shape)
            message = "partner entropy change is not the negative" if bad_ds[at] else (
                f"operator mismatch: residual {residual[at]:.3e} > {bound[at]:.3e}"
            )
            raise DetailedBalanceError(f"{name(*at)}: {message}")
        finite = np.isfinite(values)  # a paired channel's has failed the balance
        if not finite.all():
            at = np.unravel_index(np.argmin(finite), finite.shape)
            raise ModelValidationError(f"{name(*at)} has a NaN or Inf entropy change ds")
        (energies, basis, rotated), norms = map(_frozen, spectrum), _frozen(dagger(stack) @ stack)
        zeros = _zero_sectors(energies, basis, rotated, norms.sum(axis=1))
        return [cls(H, ops, row, ds_row, partners,
                    (norm, {"eigh": (energies, basis, turned), "zero": zero}))
                for ops, row, ds_row, norm, turned, zero in
                zip(stack, omegas.tolist(), ds, norms, rotated, zeros)]


@dataclass(frozen=True, eq=False)
class ZeroSector:
    """H's zero-frequency Bohr sector: the n0 = sum_i g_i^2 |j><k| of its eigenbasis with
    E_j = E_k (g_i: level multiplicities). ``labels`` holds each |j><k|'s Bohr sector (0
    here), ``pairs`` sector 0's (j, k). There, ``tensors`` stacks the X -> L_m X L_m^dag,
    ``generator`` is L (free of H), ``rates`` holds the rows Tr(L_m X L_m^dag) and ``decay``
    sum_m L_m^dag L_m inside each level: real when n0 = d, or when no imaginary part is
    nonzero on the sectors of one build_stack (the built-ins, n0 = 5). ``residual`` is the
    largest entry of a rotated L_m outside its own sector (its largest entry's), over
    ||L_m||_F; above SECTOR_TOL ``reason`` says so and the arrays are None. A sector equals
    only itself, as its arrays have no truth value to compare by."""

    labels: np.ndarray
    pairs: tuple
    residual: float
    reason: str
    tensors: np.ndarray = None
    generator: np.ndarray = None
    rates: np.ndarray = None
    decay: np.ndarray = None


def _zero_sectors(energies, basis, ops, gammas) -> list:
    """The :class:`ZeroSector` of each model of a stack that shares H's eigensystem, from its
    rows of the rotated channels ``ops`` (N, M, d, d) and of their sums of L^dag L ``gammas``,
    in one pass; levels, and Bohr frequencies, within ``_level_tol`` are one."""
    d, tol = len(energies), _level_tol(energies)
    level = np.concatenate([[0], np.cumsum(np.diff(energies) > tol)])
    mean = np.bincount(level, energies) / np.bincount(level)
    bohr = (mean[:, None] - mean)[level[:, None], level].ravel()
    order, labels = np.argsort(bohr, kind="stable"), np.empty(d * d, dtype=int)
    labels[order] = np.concatenate([[0], np.cumsum(np.diff(bohr[order]) > tol)])
    labels -= labels[0]
    size = np.abs(ops).reshape(*ops.shape[:2], d * d)
    crossing = np.where(labels == labels[size.argmax(axis=-1)][..., None], 0.0, size)
    residual = crossing.max(axis=-1, initial=0.0) / np.linalg.norm(size, axis=-1)
    worst, labels = residual.max(axis=-1, initial=0.0), _frozen(labels.reshape(d, d))
    j, k = pairs = np.nonzero(labels == 0)
    decay = np.where(labels == 0, dagger(basis) @ gammas @ basis, 0.0)
    tensors, gen = _sector_maps(ops, decay, j, k)
    held, imag = worst <= SECTOR_TOL, np.any(tensors.imag, axis=(1, 2, 3))
    if (j == k).all() or not (imag | np.any(decay.imag, axis=(1, 2)))[held].any():
        tensors, gen, decay = tensors.real, gen.real, decay.real
    arrays = zip(*map(_frozen, (tensors, gen, tensors[:, :, j == k].sum(axis=2), decay)))
    reason = "channel {} has {:.3e} ||L||_F outside its Bohr sector"
    return [ZeroSector(labels, pairs, bad, "", *row) if ok else
            ZeroSector(labels, pairs, bad, reason.format(np.argmax(r), bad))
            for ok, bad, r, row in zip(held.tolist(), worst.tolist(), residual, arrays)]


def _sector_maps(ops: np.ndarray, decay: np.ndarray, j: np.ndarray, k: np.ndarray) -> tuple:
    """On the |j_a><k_a|: X -> L_m X L_m^dag of each channel of ``ops`` (..., M, d, d), and
    sum_m L_m X L_m^dag - (G X + X G) / 2 with G's entries ``decay`` (..., d, d)."""
    tensors, right = ops[..., j[:, None], j], ops[..., k[:, None], k]
    tensors *= np.conjugate(right, out=right)
    anti = decay[..., j[:, None], j] * (k[:, None] == k)
    anti += (j[:, None] == j) * decay[..., k, k[:, None]]
    return tensors, tensors.sum(axis=-3) - 0.5 * anti


def _balance_checks(ops: np.ndarray, has: np.ndarray, values: np.ndarray, partners) -> tuple:
    """Local detailed balance, ``L_m = exp(ds_m/2) L_partner^dag`` and
    ``ds_partner = -ds_m`` to ``EIGENOPERATOR_TOL``, of every channel of
    the (N, M, d, d) stack ``ops`` with the (N, M) entropy changes
    ``values`` (0 where the mask ``has`` is False), from one stacked
    expression: the (N, M) mask of paired channels with ds that fail, then
    the residuals, their bounds and the mask of ds that are missing or not
    negated on the partner."""
    tol = EIGENOPERATOR_TOL
    index = [m if p is None else p for m, p in enumerate(partners)]
    with np.errstate(invalid="ignore", over="ignore"):  # a ds too large or not finite fails
        negated = abs(values[:, index] + values) <= tol * np.maximum(1.0, abs(values))
        factor = np.exp(values / 2.0)[..., None, None]
        residual = np.linalg.norm(ops - factor * dagger(ops[:, index]), axis=(-2, -1))
    bad_ds = ~has[:, index] | ~negated
    scale = tol * np.linalg.norm(ops, axis=(-2, -1))
    paired = has & np.array([p is not None for p in partners], dtype=bool)
    return paired & (bad_ds | ~(residual <= scale)), residual, scale, bad_ds


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (descending, clipped to [0,1], renormalized) and
    orthonormal eigenvectors of a density matrix; column k of ``vectors``
    belongs to ``probabilities[k]``."""

    probabilities: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        p = _frozen(np.array(self.probabilities, dtype=float))
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
