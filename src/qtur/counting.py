"""Exact moments of counting observables and exact thermodynamic curves.

Every time integral comes from one kernel: the exponential of the
generator L augmented with what is integrated against it (C. F. Van Loan,
IEEE Trans. Autom. Control 23, 1978). For rows R,

    exp(t [[L, 0], [R, 0]]) (vec rho0, 0) = (vec rho(t), int_0^t R vec rho),

so the activity row a = sum_m vec(L_m^dag L_m)^dag and the entropy row
s = sum_m ds_m vec(L_m^dag L_m)^dag give A(t) and the environment entropy
flow exactly, and stepping the block along a uniform grid samples both
curves exactly. Moments of a weighted jump count put the superoperator
J_w rho = sum_m w_m L_m rho L_m^dag in place of rows:

    d rho  / dt = L rho
    d rho1 / dt = L rho1 + J_c rho
    d rho2 / dt = L rho2 + 2 J_c rho1 + J_c2 rho

gives mean = Tr rho1(tau) and second moment = Tr rho2(tau). Before the
observation window only rho evolves; after it the traces stay put (L
preserves the trace), so integration stops at the window end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .engine import build_generator, propagated_state, sandwich, unvec, vec
from .operators import (
    LindbladModel,
    ModelValidationError,
    von_neumann_trace_term,
)

DEFAULT_GRID = 2048  # activity-curve samples; half_angle_integral interpolates them


@dataclass(frozen=True)
class CountingObservable:
    """Real weights over channels, with an optional observation window.

    ``window=None`` means the full horizon [0, tau]. A current is a
    counting observable whose weights are exactly antisymmetric under the
    channel pairing; use :meth:`is_current` or :meth:`check_antisymmetry`
    against a model.
    """

    weights: tuple
    window: tuple | None = None
    antisymmetric: bool = False

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if self.window is not None:
            a, b = self.window
            if a > b:
                raise ValueError(f"window [{a}, {b}] is reversed")
            object.__setattr__(self, "window", (float(a), float(b)))

    @classmethod
    def total_count(cls, n_channels: int, window=None) -> "CountingObservable":
        """Unit weights: the raw number of jumps (dynamical activity)."""
        return cls(weights=(1.0,) * n_channels, window=window)

    def with_window(self, window) -> "CountingObservable":
        return CountingObservable(self.weights, window, self.antisymmetric)

    def is_current(self, model: LindbladModel) -> bool:
        """Whether :meth:`check_antisymmetry` passes against ``model``."""
        try:
            self.check_antisymmetry(model)
        except ModelValidationError:
            return False
        return True

    def check_antisymmetry(self, model: LindbladModel) -> None:
        for m, c in enumerate(model.channels):
            if c.partner is None:
                raise ModelValidationError(f"channel {m} is unpaired; no current exists")
            if self.weights[c.partner] != -self.weights[m]:
                raise ModelValidationError(
                    f"weights are not antisymmetric at pair ({m}, {c.partner})"
                )

    def resolved_window(self, tau: float) -> tuple[float, float]:
        if self.window is None:
            return (0.0, tau)
        a, b = self.window
        if a < -1e-12 or b > tau * (1 + 1e-12) + 1e-12:
            raise ValueError(f"window [{a}, {b}] outside [0, {tau}]")
        return (max(a, 0.0), min(b, tau))


@dataclass(frozen=True)
class MomentResult:
    """First two moments of a counting observable.

    ``method`` is "exact" (hierarchy) or "monte_carlo"; the stderr fields
    are populated only on the Monte Carlo path.
    """

    mean: float
    second_moment: float
    variance: float
    method: str = "exact"
    stderr_mean: float | None = None
    stderr_variance: float | None = None


@dataclass(frozen=True)
class ThermoCurve:
    """Jump-rate curves sampled exactly on a uniform time grid.

    ``activity_rate``/``activity`` are the instantaneous and integrated
    total jump rates a(t_k) and A(t_k); the entropy fields (rate and
    integrated environment flow) are present only when every channel
    carries an entropy change. Only rounding separates the samples from
    the true values.
    """

    times: np.ndarray
    activity_rate: np.ndarray
    activity: np.ndarray
    entropy_rate: np.ndarray | None = None
    entropy_flow: np.ndarray | None = None


def _weighted_jump_superop(model: LindbladModel, weights) -> np.ndarray:
    d = model.dim
    out = np.zeros((d * d, d * d), dtype=complex)
    for w, c in zip(weights, model.channels):
        if w != 0.0:
            out += w * sandwich(c.L)
    return out


def _moment_block(model: LindbladModel, gen: np.ndarray, weights) -> np.ndarray:
    """[[L, 0, 0], [J_c, L, 0], [J_c2, 2 J_c, L]], written into one array."""
    n = gen.shape[0]
    j1 = _weighted_jump_superop(model, weights)
    block = np.zeros((3 * n, 3 * n), dtype=complex)
    for k in range(3):
        block[k * n : (k + 1) * n, k * n : (k + 1) * n] = gen
    block[n : 2 * n, :n] = j1
    block[2 * n :, :n] = _weighted_jump_superop(model, [w * w for w in weights])
    block[2 * n :, n : 2 * n] = 2 * j1
    return block


def _moments(y: np.ndarray, dim: int) -> MomentResult:
    n = dim * dim
    tr = vec(np.eye(dim)).conj()
    mean = float(np.real(tr @ y[n : 2 * n]))
    second = float(np.real(tr @ y[2 * n :]))
    return MomentResult(mean=mean, second_moment=second, variance=second - mean * mean)


def _check(model: LindbladModel, obs: CountingObservable, tau: float) -> None:
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    if len(obs.weights) != model.n_channels:
        raise ValueError("weight vector length does not match the channel count")


def _step(model: LindbladModel, weights, h: float, coherent: bool) -> np.ndarray:
    """E = exp(h B) of the moment block B of ``weights``, read-only.

    The model keeps the last E in one slot keyed by (coherent, weights,
    h), so it never holds more than one 3d^2-square matrix; a call with
    another key recomputes E and replaces it."""
    key = (bool(coherent), tuple(weights), h)
    slot = model._moment_step
    if key not in slot:
        gen = build_generator(model, coherent=coherent).matrix
        step = expm(_moment_block(model, gen, weights) * h)
        step.setflags(write=False)
        slot.clear()
        slot[key] = step
    return slot[key]


def counting_moments(
    model: LindbladModel,
    rho0: np.ndarray,
    obs: CountingObservable,
    tau: float,
    coherent: bool = True,
) -> MomentResult:
    """Exact mean/variance of the windowed count up to ``tau``."""
    _check(model, obs, tau)
    t_a, t_b = obs.resolved_window(tau)
    n = model.dim**2
    y = np.zeros(3 * n, dtype=complex)
    if t_a > 0:
        y[:n] = expm(build_generator(model, coherent=coherent).matrix * t_a) @ vec(rho0)
    else:
        y[:n] = vec(rho0)
    if t_b > t_a:
        y = _step(model, obs.weights, t_b - t_a, coherent) @ y
    return _moments(y, model.dim)


def _half_windows(model, rho0, obs, tau: float, coherent: bool) -> tuple:
    """Moments over [0, tau/2], [tau/2, tau] and [0, tau], and rho(tau),
    from the block exponential E over tau/2: E y0, E (rho(tau/2), 0, 0)
    and E E y0, with y0 = (rho0, 0, 0); rho(tau) is the top d^2 entries
    of E E y0. E is the model's memoised step, so after
    ``counting_moments(model, rho0, obs, tau / 2, coherent)`` no further
    exponential is taken. ``obs.window`` is ignored."""
    _check(model, obs, tau)
    n = model.dim**2
    step = _step(model, obs.weights, tau / 2.0, coherent)
    first = np.zeros(3 * n, dtype=complex)
    first[:n] = vec(rho0)
    first = step @ first
    restart = np.zeros_like(first)
    restart[:n] = first[:n]
    second, total = (step @ np.stack([restart, first], axis=1)).T
    moments = tuple(_moments(y, model.dim) for y in (first, second, total))
    return moments + (propagated_state(total[:n]),)


def mean_rate(model: LindbladModel, rho_t: np.ndarray, obs: CountingObservable) -> float:
    """Instantaneous weighted jump rate sum_m c_m Tr[L_m rho L_m^dag],
    summed in channel order over the nonzero weights."""
    rate = 0.0
    for w, r in zip(obs.weights, channel_rates(model, rho_t)):
        if w != 0.0:
            rate += w * r
    return float(rate)


def channel_rates(model: LindbladModel, rho_t: np.ndarray) -> np.ndarray:
    """Tr[L_m rho L_m^dag] for every channel."""
    rho_t = np.asarray(rho_t, dtype=complex)
    return np.array([float(np.real(np.trace(ldl @ rho_t))) for ldl in model.jump_norms])


def _samples(model, weight_rows, rho0, h: float, steps: int, coherent: bool):
    """Rates r_j vec rho(t_k) and integrals int_0^t_k r_j vec rho, as
    (steps + 1, j) arrays with t_k = k h, where r_j vec rho = sum_m w_jm
    Tr[L_m^dag L_m rho]; plus vec rho(steps h). The Van Loan block's
    exponential over h is applied once per step."""
    if h < 0:
        raise ValueError("tau must be nonnegative")
    gen = build_generator(model, coherent=coherent).matrix
    n = gen.shape[0]
    ops = [vec(ldl).conj() for ldl in model.jump_norms]
    rows = np.atleast_2d(weight_rows) @ np.reshape(ops, (len(ops), n))
    k = rows.shape[0]
    block = np.zeros((n + k, n + k), dtype=complex)
    block[:n, :n] = gen
    block[n:, :n] = rows
    step = expm(block * h)
    y = np.zeros((steps + 1, n + k), dtype=complex)
    y[0, :n] = vec(rho0)
    for i in range(steps):
        y[i + 1] = step @ y[i]
    return (y[:, :n] @ rows.T).real, np.array(y[:, n:].real), y[-1, :n]


def activity_curve(
    model: LindbladModel,
    rho0: np.ndarray,
    tau: float,
    n_grid: int = DEFAULT_GRID,
    coherent: bool = True,
) -> ThermoCurve:
    """Exact total jump rate and its integral at ``n_grid`` uniform times
    over [0, tau], with the entropy-flow curves when the model has ds."""
    if n_grid < 2:
        raise ValueError("an activity curve needs at least two grid points")
    weights = [np.ones(model.n_channels)]
    if model.has_entropy_weights:
        weights.append(model.entropy_weights())
    rates, flows, _ = _samples(model, weights, rho0, tau / (n_grid - 1), n_grid - 1, coherent)
    entropy = len(weights) > 1
    return ThermoCurve(
        times=np.linspace(0.0, tau, n_grid),
        activity_rate=rates[:, 0],
        activity=flows[:, 0],
        entropy_rate=rates[:, 1] if entropy else None,
        entropy_flow=flows[:, 1] if entropy else None,
    )


def entropy_production(
    model: LindbladModel,
    rho0: np.ndarray,
    tau: float,
    coherent: bool = True,
) -> float:
    """Total entropy production over [0, tau].

    System term Tr[rho(0) ln rho(0)] - Tr[rho(tau) ln rho(tau)] plus the
    environment entropy flow, both from one exponential of the block
    [[L, 0], [s, 0]] tau. Requires ds on every channel.
    """
    _, flows, x = _samples(model, model.entropy_weights(), rho0, tau, 1, coherent)
    return von_neumann_trace_term(rho0) - von_neumann_trace_term(unvec(x)) + float(flows[-1, 0])


def entropy_production_rate(model: LindbladModel, rho: np.ndarray) -> float:
    """sum_m ds_m Tr[L_m rho L_m^dag]; at stationarity Sigma(tau) = rate * tau."""
    ds = model.entropy_weights()
    return float(ds @ channel_rates(model, rho))


def rate_split(model: LindbladModel, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Channel rates of the diagonal and off-diagonal parts of ``rho``."""
    from .operators import split_diagonal_offdiagonal

    rho_d, rho_nd = split_diagonal_offdiagonal(rho)
    return channel_rates(model, rho_d), channel_rates(model, rho_nd)


def decompose_activity(model: LindbladModel, rho: np.ndarray) -> tuple[float, float]:
    """Split the total jump rate into diagonal / off-diagonal state parts."""
    ones = np.ones(model.n_channels)
    return tuple(float(ones @ r) for r in rate_split(model, rho))


def decompose_sigma(model: LindbladModel, rho: np.ndarray) -> tuple[float, float]:
    """Split the entropy production rate the same way (needs ds)."""
    ds = model.entropy_weights()
    return tuple(float(ds @ r) for r in rate_split(model, rho))
