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

That moment block B = [[L, 0, 0], [J_c, L, 0], [J_c2, 2 J_c, L]] is
3 d^2 square. Below ``ACTION_MIN_DIM`` its dense exponential is taken
once per step length and applied to vectors. From ``ACTION_MIN_DIM`` up,
while h ||B - mu I||_1 is small enough for it to pay, no 3 d^2 matrix is
formed: exp(h B) acts on vectors through the truncated Taylor series of
Al-Mohy and Higham (SIAM J. Sci. Comput. 33, 2011, Algorithm 3.2), with
B applied block by block from the d^2-square pieces L, J_c and J_c2. Its
cost grows linearly with h ||B - mu I||_1, the dense step's only
logarithmically, so a long step up to ``DENSE_MAX_DIM`` is taken densely
again; above that dimension the action is always taken. Degree and step
count come from the exact 1-norm of B - mu I, so the result repeats bit
for bit. scipy's ``expm_multiply`` on a LinearOperator would estimate
that norm with ``onenormest``, which draws from numpy's global random
state: its results would not repeat and it would move the caller's RNG.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .engine import build_generator, channel_sum, propagated_state, unvec, vec
from .operators import (
    LindbladModel,
    ModelValidationError,
    split_diagonal_offdiagonal,
    von_neumann_trace_term,
)

DEFAULT_GRID = 2048  # activity-curve samples; half_angle_integral interpolates them
# Below this dimension the moment block is always exponentiated densely,
# so the small models of the sweeps keep the dense step's bits. At d = 6 the
# two paths cost the same on a `qtur bounds` call at tau = 2 (one BLAS
# thread: 5.2 ms dense, 5.1 ms action).
ACTION_MIN_DIM = 6
# Above this dimension the block is never exponentiated densely, however
# long the horizon: scipy's expm peaks at about eight times the 3 d^2-square
# block, 75 MB at d = 16 and 380 MB at d = 24.
DENSE_MAX_DIM = 16
# theta_m: the largest h ||B - mu I||_1 for which m Taylor terms reach
# double precision (Al-Mohy and Higham 2011, Table 3.1; m <= 30 from
# Higham, Functions of Matrices, Table A.3)
_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3, 6: 9.07e-3,
    7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1, 11: 2.14e-1, 12: 3.00e-1,
    13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1, 16: 7.81e-1, 17: 9.31e-1, 18: 1.09,
    19: 1.26, 20: 1.44, 21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54, 35: 4.7, 40: 6.0,
    45: 7.2, 50: 8.5, 55: 9.9,
}
_UNIT_ROUNDOFF = 2.0**-53


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
    total jump rates a(t_k) and A(t_k); ``entropy_flow``, the integrated
    environment entropy flow, is present only when every channel carries
    an entropy change. Only rounding separates the samples from the true
    values.
    """

    times: np.ndarray
    activity_rate: np.ndarray
    activity: np.ndarray
    entropy_flow: np.ndarray | None = None


def _jump_superops(model: LindbladModel, weights) -> tuple[np.ndarray, np.ndarray]:
    """J_c and J_c2: sum_m c_m L_m . L_m^dag and the same with c_m^2, each
    one GEMM over the channel stack (:func:`qtur.engine.channel_sum`)."""
    w = np.asarray(weights, dtype=float)
    return channel_sum(model, w), channel_sum(model, w * w)


def _moment_block(model: LindbladModel, gen: np.ndarray, weights) -> np.ndarray:
    """[[L, 0, 0], [J_c, L, 0], [J_c2, 2 J_c, L]], written into one array."""
    n = gen.shape[0]
    j1, j2 = _jump_superops(model, weights)
    block = np.zeros((3 * n, 3 * n), dtype=complex)
    for k in range(3):
        block[k * n : (k + 1) * n, k * n : (k + 1) * n] = gen
    block[n : 2 * n, :n] = j1
    block[2 * n :, :n] = j2
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
    """E = exp(h B) of the moment block B of ``weights``, read-only; the
    dense path of :func:`_act`.

    The model keeps the last E in one slot keyed by (coherent, weights,
    h), so it never holds more than one 3d^2-square matrix; a call with
    another key recomputes E and replaces it."""
    key = (bool(coherent), tuple(weights), h)
    slot = model._moment_step
    if key not in slot:
        gen = build_generator(model, coherent=coherent)
        step = expm(_moment_block(model, gen, weights) * h)
        step.setflags(write=False)
        slot.clear()
        slot[key] = step
    return slot[key]


def _pieces(model: LindbladModel, weights, coherent: bool) -> tuple:
    """(L, J_c, J_c2, mu, ||B - mu I||_1) of the moment block B of
    ``weights``, with mu = tr L / d^2; what :func:`_act` needs from
    ``ACTION_MIN_DIM`` up.

    The 1-norm is exact: the largest column sum, taken block column by
    block column. The model keeps these in a slot of their own, keyed by
    (coherent, weights), so a dense step taken beside them does not evict
    them."""
    key = (bool(coherent), tuple(weights))
    slot = model._moment_pieces
    if key not in slot:
        gen = build_generator(model, coherent=coherent)
        j1, j2 = _jump_superops(model, weights)
        mu = np.trace(gen) / gen.shape[0]
        shifted = np.abs(gen - mu * np.eye(gen.shape[0])).sum(axis=0)
        c1, c2 = np.abs(j1).sum(axis=0), np.abs(j2).sum(axis=0)
        norm = float(max((shifted + c1 + c2).max(), (shifted + 2 * c1).max()))
        j1.setflags(write=False)
        j2.setflags(write=False)
        slot.clear()
        slot[key] = (gen, j1, j2, mu, norm)
    return slot[key]


def _action_pays(dim: int, x: float) -> bool:
    """Whether the Taylor action beats a dense step at dimension ``dim``
    (from ``ACTION_MIN_DIM`` up) for x = h ||B - mu I||_1.

    The action's cost grows in proportion to x (about 5.6 Taylor terms per
    unit), each term a fixed interpreter cost plus products costing d^4;
    the dense step's cost grows as d^6 and only logarithmically with x.
    Fitted on `qtur bounds` calls on ladders at d = 6 to 16 and tau = 2 to
    200 (one BLAS thread), the action is the cheaper while
    x (4600 + d^4) <= 2 d^6: up to x = 16 at d = 6, 60 at d = 8, 240 at
    d = 12 and 480 at d = 16. Above ``DENSE_MAX_DIM`` it is taken at any x,
    for the dense step's memory."""
    return dim > DENSE_MAX_DIM or x * (4600 + dim**4) <= 2 * dim**6


def _taylor_degree(x: float) -> tuple[int, int]:
    """Taylor degree m and step count s with x / s <= theta_m and the
    fewest products m s, for x = h ||B - mu I||_1."""
    if x == 0.0:
        return 0, 1
    return min(
        ((m, int(np.ceil(x / theta))) for m, theta in _THETA.items()),
        key=lambda ms: ms[0] * ms[1],
    )


def _inf_norm(b: np.ndarray) -> float:
    return float(np.abs(b).sum(axis=-1).max())


def _taylor_action(pieces: tuple, h: float, y: np.ndarray) -> np.ndarray:
    """exp(h B) y for the block B of ``pieces`` (see :func:`_pieces`), by
    Al-Mohy and Higham's Algorithm 3.2 on the shifted block B - mu I: s
    steps of at most m Taylor terms, a step ending early once two
    successive terms fall below unit roundoff of the sum. Each term is
    three d^2-square products on the (3, d^2, k) stack, held as (d^2, 3, k)
    so that one product applies L to all three parts."""
    gen, j1, j2, mu, norm = pieces
    n = gen.shape[0]
    m, s = _taylor_degree(h * norm)
    eta = np.exp(h * mu / s)
    k = 1 if np.ndim(y) == 1 else np.shape(y)[1]
    out = np.asarray(y, dtype=complex).reshape(3, n, k).transpose(1, 0, 2).copy()
    for _ in range(s):
        term = out
        c1 = _inf_norm(term)
        for j in range(1, m + 1):
            nxt = (gen @ term.reshape(n, 3 * k)).reshape(n, 3, k) - mu * term
            jt = (j1 @ term[:, :2].reshape(n, 2 * k)).reshape(n, 2, k)
            nxt[:, 1] += jt[:, 0]
            nxt[:, 2] += 2.0 * jt[:, 1] + j2 @ term[:, 0]
            term = nxt * (h / (s * j))
            c2 = _inf_norm(term)
            out = out + term
            if c1 + c2 <= _UNIT_ROUNDOFF * _inf_norm(out):
                break
            c1 = c2
        out = eta * out
    return out.transpose(1, 0, 2).reshape(np.shape(y))


def _act(model: LindbladModel, weights, h: float, coherent: bool, y: np.ndarray) -> np.ndarray:
    """exp(h B) y for the moment block B of ``weights``; ``y`` holds
    (rho, rho1, rho2) stacked, as a 3 d^2 vector or a (3 d^2, k) matrix.

    From ``ACTION_MIN_DIM`` up, where :func:`_action_pays`, this is
    :func:`_taylor_action` and no 3 d^2 matrix is formed; otherwise it is
    the memoised dense step times y."""
    if model.dim >= ACTION_MIN_DIM:
        pieces = _pieces(model, weights, coherent)
        if _action_pays(model.dim, h * pieces[4]):
            return _taylor_action(pieces, h, y)
    return _step(model, weights, h, coherent) @ y


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
        y[:n] = expm(build_generator(model, coherent=coherent) * t_a) @ vec(rho0)
    else:
        y[:n] = vec(rho0)
    if t_b > t_a:
        y = _act(model, obs.weights, t_b - t_a, coherent, y)
    return _moments(y, model.dim)


def _half_windows(model, rho0, obs, tau: float, coherent: bool) -> tuple:
    """Moments over [0, tau/2], [tau/2, tau] and [0, tau], and rho(tau),
    from exp(h B) over h = tau/2 applied by :func:`_act`: to y0, to
    (rho(tau/2), 0, 0) and to exp(h B) y0, with y0 = (rho0, 0, 0); rho(tau)
    is the top d^2 entries of the last. The model memoises the dense step
    or the block's pieces, whichever :func:`_act` takes, so after
    ``counting_moments(model, rho0, obs, tau / 2, coherent)`` no further
    exponential is taken and no piece is rebuilt. ``obs.window`` is
    ignored."""
    _check(model, obs, tau)
    n = model.dim**2
    first = np.zeros(3 * n, dtype=complex)
    first[:n] = vec(rho0)
    first = _act(model, obs.weights, tau / 2.0, coherent, first)
    restart = np.zeros_like(first)
    restart[:n] = first[:n]
    pair = np.stack([restart, first], axis=1)
    second, total = _act(model, obs.weights, tau / 2.0, coherent, pair).T
    moments = tuple(_moments(y, model.dim) for y in (first, second, total))
    return moments + (propagated_state(total[:n]),)


def mean_rate(model: LindbladModel, rho_t: np.ndarray, obs: CountingObservable) -> float:
    """Instantaneous weighted jump rate sum_m c_m Tr[L_m rho L_m^dag]."""
    return float(np.dot(obs.weights, channel_rates(model, rho_t)))


def channel_rates(model: LindbladModel, rho_t: np.ndarray) -> np.ndarray:
    """Tr[L_m rho L_m^dag] = sum_ij (L_m^dag L_m)_ij rho_ji for every channel."""
    rho_t = np.asarray(rho_t, dtype=complex)
    return (model.jump_norms.reshape(-1, rho_t.size) @ rho_t.T.reshape(-1)).real


def _samples(model, weight_rows, rho0, h: float, steps: int, coherent: bool):
    """Rates r_j vec rho(t_k) and integrals int_0^t_k r_j vec rho, as
    (steps + 1, j) arrays with t_k = k h, where r_j vec rho = sum_m w_jm
    Tr[L_m^dag L_m rho]; plus vec rho(steps h). The Van Loan block's
    exponential over h is applied once per step."""
    if h < 0:
        raise ValueError("tau must be nonnegative")
    gen = build_generator(model, coherent=coherent)
    n = gen.shape[0]
    rows = np.atleast_2d(weight_rows) @ model.jump_norms.conj().swapaxes(1, 2).reshape(-1, n)
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
    return ThermoCurve(
        times=np.linspace(0.0, tau, n_grid),
        activity_rate=rates[:, 0],
        activity=flows[:, 0],
        entropy_flow=flows[:, 1] if len(weights) > 1 else None,
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
    return sigma_from(rho0, unvec(x), flows[-1, 0])


def sigma_from(rho0: np.ndarray, rho_tau: np.ndarray, flow: float) -> float:
    """Total entropy production Tr[rho0 ln rho0] - Tr[rho(tau) ln rho(tau)]
    plus the environment entropy flow over [0, tau]."""
    return von_neumann_trace_term(rho0) - von_neumann_trace_term(rho_tau) + float(flow)


def entropy_production_rate(model: LindbladModel, rho: np.ndarray) -> float:
    """sum_m ds_m Tr[L_m rho L_m^dag]; at stationarity Sigma(tau) = rate * tau."""
    ds = model.entropy_weights()
    return float(ds @ channel_rates(model, rho))


def rate_split(model: LindbladModel, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Channel rates of the diagonal and off-diagonal parts of ``rho``."""
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
