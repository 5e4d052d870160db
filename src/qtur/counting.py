"""Exact moments of counting observables and exact thermodynamic values.

Every time integral comes from one kernel: the exponential of the
generator L augmented with what is integrated against it (C. F. Van Loan,
IEEE Trans. Autom. Control 23, 1978). For rows R,

    exp(t [[L, 0], [R, 0]]) (vec rho0, 0) = (vec rho(t), int_0^t R vec rho),

so the activity row a = sum_m vec(L_m^dag L_m)^dag and the entropy row
s = sum_m ds_m vec(L_m^dag L_m)^dag give A(t) and the environment entropy
flow exactly, at any set of times (:func:`activity_at`). Moments of a
weighted jump count take the same form. With J_c rho = sum_m c_m L_m rho
L_m^dag and the rate rows N, N_m vec X = Tr(L_m X L_m^dag),

    d rho    / dt = L rho
    d rho1   / dt = L rho1 + J_c rho
    d Tr rho2 / dt = 2 (c . N) vec rho1 + (c^2 . N) vec rho

(L preserves the trace, so rho2 itself is never needed) gives mean =
Tr rho1(tau) and second moment = m2(tau), the last entry. Before the
observation window only rho evolves; after it the traces stay put, so
integration stops at the window end.

Both are one block B = [[S, 0], [R, 0]]: S is L on rho for the rows block,
and [[L, 0], [J_c, L]] on (rho, rho1) for the moment block. One builder
(:func:`_pieces`, laid out by :func:`_layout`) assembles a stack of blocks:
a sweep's draws take one stacked dense exponential (:func:`stacked_moments`),
and each call on one model builds its stack of one once (:func:`_block`),
which one stepper (:func:`_act`) applies as exp(h B).

Two routes give the same statistics; one rule (:func:`_route`) picks H's
zero-frequency sector (:class:`qtur.operators.ZeroSector`) for every entry
point unless its ``reason`` says why it does not hold. There the paper's
correspondence is the method: L and J_c map every Bohr sector into itself, the
trace and rate rows read only sector 0, and its (2 n0 + 1)-square block (n0 = d
on a non-degenerate H, 5 on a built-in model) is exponentiated densely; rho(t)
takes one exponential per other sector that rho0 weighs (:func:`evolve`), the
steady state one bordered solve (:func:`stationary`). Only ``verify-cic`` asks
for the Liouville route (``reduced`` False): on sector 0 the generators with and
without H are one matrix, which its exact checks would compare with itself.

The Liouville route works on vec rho: its moment block is (2 d^2 + 1)
square, exponentiated densely once per step length of a call below
``ACTION_MIN_DIM``. From it up, where that pays (:func:`_action_pays`),
exp(h B) acts on vectors by the truncated Taylor series of Al-Mohy and Higham
(SIAM J. Sci. Comput. 33, 2011, Algorithm 3.2), B applied part by part. Degree
and step count come from the exact 1-norm, so results repeat bit for bit;
scipy's ``expm_multiply`` estimates it from numpy's global random state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .engine import _channel_sums, build_generator, propagated_state, steady_state, unvec, vec
from .operators import (
    LindbladModel,
    ModelValidationError,
    _sector_maps,
    dagger,
    split_diagonal_offdiagonal,
    von_neumann_trace_term,
)

# Below this dimension the blocks are always exponentiated densely, so the
# small models of the sweeps keep the dense step's bits; fitted on ladder
# bounds calls at d = 5 to 7 on the Liouville route (one BLAS thread).
ACTION_MIN_DIM = 6
# Above this dimension no block is exponentiated densely, however long the
# horizon: scipy's expm peaks at eight to nine times the (2 d^2 + 1)-square
# moment block, 34 MB at d = 16 and 190 MB at d = 24.
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
        if not np.isfinite(self.weights).all():
            raise ValueError(f"weights {self.weights} are not finite")
        if self.window is not None:
            a, b = self.window
            if not (np.isfinite(a) and np.isfinite(b)):
                raise ValueError(f"window [{a}, {b}] is not finite")
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
        for m, p in enumerate(model.partners):
            if p is None:
                raise ModelValidationError(f"channel {m} is unpaired; no current exists")
            if self.weights[p] != -self.weights[m]:
                raise ModelValidationError(f"weights are not antisymmetric at pair ({m}, {p})")

    def resolved_window(self, tau: float) -> tuple[float, float]:
        if self.window is None:
            return (0.0, tau)
        a, b = self.window
        if a < -1e-12 * tau or b > tau * (1 + 1e-12):  # slack relative to tau
            raise ValueError(f"window [{a}, {b}] outside [0, {tau}]")
        return (max(a, 0.0), min(b, tau))


@dataclass(frozen=True)
class MomentResult:
    """Exact first two moments of a counting observable."""

    mean: float
    second_moment: float
    variance: float


@dataclass(frozen=True, eq=False)
class _BlockPieces:
    """The augmented block B = [[S, 0], [R, 0]] in d^2-square pieces.

    S is L on rho (``jump`` None, the rows block) or [[L, 0], [J_c, L]]
    on (rho, rho1) (the moment block); ``rows`` is R on S's state, and
    ``reduced`` says whether L is on H's zero-frequency sector. ``mu`` =
    tr L / d^2 is the Taylor action's shift and ``norm`` the exact
    ||B - mu I||_1. ``steps`` keeps the last dense exponential, keyed by
    its step length, for as long as the block lives: one call."""

    gen: np.ndarray
    jump: np.ndarray | None
    rows: np.ndarray
    reduced: bool
    mu: complex
    norm: float
    steps: dict = field(default_factory=dict)

    def shifted(self, term: np.ndarray) -> np.ndarray:
        """(B - mu I) term, as d^2-square products on each part of S's state."""
        gen, mu = self.gen, self.mu
        n, s = gen.shape[0], self.rows.shape[1]
        rho = term[:n]
        parts = [gen @ rho - mu * rho]
        if self.jump is not None:
            rho1 = term[n:s]
            parts.append(gen @ rho1 - mu * rho1 + self.jump @ rho)
        parts.append(self.rows @ term[:s] - mu * term[s:])
        return np.concatenate(parts)

    def step(self, h: float) -> np.ndarray:
        """exp(h B); another step length replaces it."""
        if h not in self.steps:
            jump = None if self.jump is None else self.jump[None]
            self.steps.clear()
            self.steps[h] = expm(_layout(self.gen[None], jump, self.rows[None])[0] * h)
        return self.steps[h]


def _pieces(models, weights, coherent: bool, reduced: bool) -> tuple:
    """The d^2-square pieces of the block of each of ``models`` (one dimension
    and channel count), or if ``reduced`` the n0-square ones on their
    zero-frequency sectors: the generators, and stacks of J_c and rows R; for
    (N, M) weights the moment blocks, for None the rows blocks (no J_c)."""
    gens = [build_generator(m, coherent, reduced) for m in models]
    if reduced:
        zeros = [m.zero_sector() for m in models]
        rates = np.stack([z.rates for z in zeros])
    else:
        rates = vec(np.stack([m.jump_norms for m in models])).conj()  # the rows N_m
    if weights is None:
        w = [[np.ones(m.n_channels), *([m.entropy_weights()] if m.has_entropy_weights else [])]
             for m in models]
        return gens, None, np.array(w) @ rates
    c = np.asarray(weights, dtype=float)[:, None, :]
    if not reduced:
        jumps = _channel_sums(np.stack([m.jump_ops for m in models]), c)
    else:
        tensors = np.stack([z.tensors for z in zeros])
        count, m, n = tensors.shape[:3]
        jumps = (c @ tensors.reshape(count, m, n * n)).reshape(count, n, n)
    return gens, jumps, np.concatenate([(c * c) @ rates, (2.0 * c) @ rates], axis=-1)


def _layout(gens: np.ndarray, jumps, rows: np.ndarray) -> np.ndarray:
    """The (N, s + r, s + r) blocks [[S, 0], [R, 0]] of the pieces of :func:`_pieces`."""
    gens = np.asarray(gens)
    (count, n), (r, s) = gens.shape[:2], rows.shape[1:]
    kind = np.result_type(gens, rows, rows if jumps is None else jumps)
    blocks = np.zeros((count, s + r, s + r), dtype=kind)
    for k in range(0, s, n):
        blocks[:, k : k + n, k : k + n] = gens
    if jumps is not None:
        blocks[:, n:s, :n] = jumps
    blocks[:, s:, :s] = rows
    return blocks


def _block(model: LindbladModel, weights, coherent: bool, reduced: bool) -> _BlockPieces:
    """The moment block of ``weights``, or for None the rows block (the
    activity row and, with ds, the entropy row): the pieces of
    :func:`_pieces` for a stack of one, on the zero-frequency sector if
    ``reduced``. The 1-norm is exact: the largest column sum, taken block
    column by block column."""
    w = None if weights is None else [weights]
    (gen,), jumps, (rows,) = _pieces([model], w, coherent, reduced)
    n = gen.shape[0]
    mu = np.trace(gen) / n
    lead = np.abs(gen - mu * np.eye(n)).sum(axis=0)  # L - mu I on a diagonal block
    if jumps is None:
        jump, columns = None, [lead + np.abs(rows).sum(axis=0)]
    else:
        jump, (first, second) = jumps[0], np.abs(rows[0]).reshape(2, n)
        columns = [lead + np.abs(jump).sum(axis=0) + first, lead + second]
    norm = float(max(max(col.max() for col in columns), abs(mu)))
    return _BlockPieces(gen, jump, rows, reduced, mu, norm)


def _initial(x: np.ndarray, n: int) -> np.ndarray:
    """(rho, 0, 0) from the first n entries of ``x`` (or of each row): the
    moment block's vector as a window opens."""
    y = np.zeros((*x.shape[:-1], 2 * n + 1), dtype=complex)
    y[..., :n] = x[..., :n]
    return y


def _moments(ys, trace: np.ndarray) -> list:
    """The moments read from each of the moment block's vectors ``ys`` by its ``trace`` row."""
    n = len(trace)
    means = [float(np.real(trace @ y[n : 2 * n])) for y in ys]
    seconds = [float(np.real(y[2 * n])) for y in ys]
    return [MomentResult(m, s, s - m * m) for m, s in zip(means, seconds)]


def _check(model: LindbladModel, weights, tau) -> None:
    if not np.all(np.isfinite(tau) & (np.asarray(tau) >= 0)):
        raise ValueError(f"tau must be finite and nonnegative, got {tau}")
    if np.shape(weights)[-1:] != (model.n_channels,):
        raise ValueError("weight vector length does not match the channel count")


def _action_pays(dim: int, x: float) -> bool:
    """Whether the Taylor action is taken at dimension ``dim`` for
    x = h ||B - mu I||_1: from ``ACTION_MIN_DIM`` up, where it beats a
    dense step.

    The action's cost grows in proportion to x (about 5.6 Taylor terms per
    unit), each term a fixed interpreter cost plus products costing d^4;
    the dense step's cost grows as d^6 and only logarithmically with x.
    Fitted on `qtur bounds` calls on ladders at d = 6 to 16 and tau = 2 to
    200 (one BLAS thread), the action is the cheaper while
    x (4600 + d^4) <= 2 d^6: up to x = 16 at d = 6, 60 at d = 8, 240 at
    d = 12 and 480 at d = 16. Above ``DENSE_MAX_DIM`` it is taken at any x,
    for the dense step's memory."""
    return dim >= ACTION_MIN_DIM and (dim > DENSE_MAX_DIM or x * (4600 + dim**4) <= 2 * dim**6)


def _taylor_degree(x: float) -> tuple[int, int]:
    """Taylor degree m and step count s >= 1 with x / s <= theta_m and the
    fewest products m s, for x = h ||B - mu I||_1."""
    if x == 0.0:
        return 0, 1
    return min(
        ((m, max(1, int(np.ceil(x / theta)))) for m, theta in _THETA.items()),
        key=lambda ms: ms[0] * ms[1],
    )


def _inf_norm(b: np.ndarray) -> float:
    b = np.abs(b)  # of one column, the largest row sum is the largest entry
    return float(b.max() if b.shape[-1] == 1 else b.sum(axis=-1).max())


def _taylor_action(shifted, mu, norm: float, h: float, y: np.ndarray) -> np.ndarray:
    """exp(h B) y by Al-Mohy and Higham's Algorithm 3.2 on the shifted
    block B - mu I: ``shifted(x)`` returns (B - mu I) x and ``norm`` is
    ||B - mu I||_1. s steps of at most m Taylor terms, a step ending early
    once two successive terms fall below unit roundoff of the sum, in the
    infinity norm of the (rows, k) matrix ``y``."""
    m, s = _taylor_degree(h * norm)
    eta = np.exp(h * mu / s)
    out = y
    for _ in range(s):
        term = out
        c1 = _inf_norm(term)
        for j in range(1, m + 1):
            term = shifted(term) * (h / (s * j))
            c2 = _inf_norm(term)
            out = out + term
            if c1 + c2 <= _UNIT_ROUNDOFF * _inf_norm(out):
                break
            c1 = c2
        out = eta * out
    return out


def _act(block: _BlockPieces, h: float, y: np.ndarray) -> np.ndarray:
    """exp(h B) y for the block B of :func:`_block`; ``y`` is one vector or
    a (rows, k) matrix of them.

    Where :func:`_action_pays`, from ``ACTION_MIN_DIM`` up and never on a
    sector, this is the Taylor action and no block matrix is formed;
    otherwise it is the block's dense step of length h times y."""
    if not block.reduced and _action_pays(round(len(block.gen) ** 0.5), h * block.norm):
        out = _taylor_action(block.shifted, block.mu, block.norm, h, y.reshape(len(y), -1))
        return out.reshape(y.shape)
    return block.step(h) @ y


def _route(model: LindbladModel, reduced: bool, rho: np.ndarray) -> tuple:
    """The route rule: the zero-frequency sector where the reduction holds, unless
    ``reduced`` is False (verify-cic), else None (Liouville); ``rho``, or each of a stack,
    as that route's vector (sector 0 of it in H's eigenbasis, or vec rho); its trace row."""
    zero = model.zero_sector() if reduced else None
    if zero is None or zero.reason:
        return None, vec(rho), vec(np.eye(model.dim)).conj()
    (j, k), basis = zero.pairs, model.spectrum()[1]
    return zero, (dagger(basis) @ rho @ basis)[..., j, k], (j == k) * 1.0


def counting_moments(
    model: LindbladModel, rho0: np.ndarray, obs: CountingObservable, tau: float,
    coherent: bool = True, reduced: bool = True,
) -> MomentResult:
    """Exact mean/variance of the windowed count up to ``tau`` (``reduced``: :func:`_route`)."""
    _check(model, obs.weights, tau)
    t_a, t_b = obs.resolved_window(tau)
    zero, x, trace = _route(model, reduced, rho0)
    block = _block(model, obs.weights, coherent, zero is not None)
    n = len(trace)
    y = _initial(x, n)
    if t_a > 0:
        y = _initial(_act(block, t_a, y), n)
    if t_b > t_a:
        y = _act(block, t_b - t_a, y)
    return _moments([y], trace)[0]


def stacked_moments(models, rhos, weights, taus) -> list:
    """The moments over [0, tau] of each of ``models`` (one build_stack) from its state,
    weight row and tau on its zero-frequency sector, which must hold: one stacked ``expm``
    of the (2 n0 + 1)-square blocks B tau, with the bits of counting_moments on the sector."""
    if not len(models):
        return []
    taus = np.asarray(taus, dtype=float)
    _check(models[0], weights, taus)
    blocks = _layout(*_pieces(models, weights, True, True)) * taus[:, None, None]
    _, x, trace = _route(models[0], True, np.asarray(rhos))
    return _moments((expm(blocks) @ _initial(x, len(trace))[..., None])[..., 0], trace)


def _half_windows(model, rho0, obs, tau: float, coherent: bool) -> tuple:
    """Moments over [0, tau/2], [tau/2, tau] and [0, tau], and rho(tau), from
    exp(h B), h = tau/2, applied by :func:`_act` to y0 = (rho0, 0, 0), then
    to the pair (rho(tau/2), 0, 0) and exp(h B) y0. ``obs.window`` is ignored."""
    _check(model, obs.weights, tau)
    zero, x, trace = _route(model, True, rho0)
    block = _block(model, obs.weights, coherent, zero is not None)
    n = len(trace)
    first = _act(block, tau / 2.0, _initial(x, n))
    pair = np.stack([_initial(first, n), first], axis=1)
    second, total = _act(block, tau / 2.0, pair).T
    moments = tuple(_moments((first, second, total), trace))
    return moments + (_route_state(model, zero, total[:n], rho0, tau, coherent),)


def _route_state(model, zero, top, rho0, tau: float, coherent: bool) -> np.ndarray:
    """rho(tau) from the route's state ``top``: on a sector, its entries and one exponential
    of each other Bohr sector's generator (-i(E_j - E_k) on |j><k| when ``coherent``) in
    which rho0 has weight (the 1x1 ones in one ``np.exp``, as ``expm``), rotated back."""
    if zero is None:
        return propagated_state(top)
    energies, basis, ops = model.spectrum()
    x = dagger(basis) @ rho0 @ basis
    _, labels, sizes = np.unique(zero.labels.ravel(), return_inverse=True, return_counts=True)
    out, weighed = np.zeros_like(x), np.bincount(labels, x.ravel() != 0) > 0
    out[zero.pairs] = top
    weighed[labels[0]] = False  # sector 0, which holds |0><0|
    flat = np.flatnonzero((weighed & (sizes > 1))[labels])
    flat = flat[np.argsort(labels[flat], kind="stable")]  # grouped by sector
    for group in np.split(flat, np.flatnonzero(np.diff(labels[flat])) + 1) if flat.size else ():
        j, k = np.divmod(group, len(x))
        gen = _sector_maps(ops, zero.decay, j, k)[1]
        gen[np.diag_indices(len(j))] -= 1j * coherent * (energies[j] - energies[k])
        out[j, k] = expm(gen * tau) @ x[j, k]
    j, k = np.divmod(np.flatnonzero((weighed & (sizes == 1))[labels]), len(x))
    turned, decay = ops.transpose(1, 2, 0), zero.decay  # a sum over channels along each row
    gen = (turned[j, j] * turned[k, k].conj()).sum(axis=-1) - 0.5 * (decay[j, j] + decay[k, k])
    step = np.exp((gen - 1j * coherent * (energies[j] - energies[k])) * tau)
    out[j, k] = (step[:, None, None] @ x[j, k, None, None])[:, 0, 0]  # a product, as expm's @
    return propagated_state(vec(basis @ out @ dagger(basis)))


def evolve(model: LindbladModel, rho0: np.ndarray, t: float, coherent: bool = True) -> np.ndarray:
    """rho(t) = exp(L t) rho0 on the route of :func:`_route`, validated at 1e-8."""
    if not (np.isfinite(t) and t >= 0):
        raise ValueError(f"propagation time must be finite and nonnegative, got {t}")
    zero, x, _ = _route(model, True, rho0)
    gen = build_generator(model, coherent, zero is not None)
    return _route_state(model, zero, expm(gen * t) @ x, rho0, t, coherent)


def stationary(model: LindbladModel, coherent: bool = True) -> np.ndarray:
    """The unique steady state, :func:`qtur.engine.steady_state` on the route of
    :func:`_route`: on the sector (with or without H, one matrix) rotated back."""
    zero = _route(model, True, np.eye(model.dim))[0]  # the identity stands in for a state
    sector = () if zero is None else (zero.pairs, model.spectrum()[1])
    return steady_state(build_generator(model, coherent, zero is not None), *sector)


def mean_rate(model: LindbladModel, rho_t: np.ndarray, obs: CountingObservable) -> float:
    """Instantaneous weighted jump rate sum_m c_m Tr[L_m rho L_m^dag]."""
    return float(np.dot(obs.weights, channel_rates(model, rho_t)))


def channel_rates(model: LindbladModel, rho_t: np.ndarray) -> np.ndarray:
    """Tr[L_m rho L_m^dag] = sum_ij (L_m^dag L_m)_ij rho_ji for every channel."""
    x = vec(rho_t)
    return (model.jump_norms.reshape(-1, x.size) @ x).real


def activity_at(model, rho0, times, coherent: bool = True, reduced: bool = True) -> tuple:
    """A(t) and the entropy flow Phi(t) as float arrays (Phi None unless
    every channel has ds), and the Hermitian parts of rho(t) as a (k, d, d)
    array, exact to rounding at each of ``times`` (nonnegative, any order):
    the rows block [[L, 0], [R, 0]] taken through the sorted times, one
    :func:`_act` step per gap. The states are not validated;
    :func:`sigma_from` and the samplers check what they read. ``reduced`` is
    as in counting_moments; the sector route gives no states."""
    times = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(times) & (times >= 0)):
        raise ValueError("times must be finite and nonnegative")
    zero, x, _ = _route(model, reduced, rho0)
    block = _block(model, None, coherent, zero is not None)
    n, rows = len(x), 1 + model.has_entropy_weights
    y = np.concatenate([x, np.zeros(rows)])[:, None]
    out = np.empty((times.size, n + rows), dtype=complex)
    now = 0.0
    for k in np.argsort(times, kind="stable"):
        if times[k] > now:
            h, now = times[k] - now, times[k]
            y = _act(block, h, y)
        out[k] = y[:, 0]
    integrals, states = out[:, n:].real, unvec(out[:, :n]) if zero is None else None
    if states is not None:
        states = (states + states.conj().swapaxes(1, 2)) / 2.0
    return integrals[:, 0], integrals[:, 1] if rows > 1 else None, states


def sigma_from(rho0: np.ndarray, rho_tau: np.ndarray, flow: float) -> float:
    """Total entropy production Tr[rho0 ln rho0] - Tr[rho(tau) ln rho(tau)]
    plus the environment entropy flow over [0, tau]. A ``flow`` of None,
    what :func:`activity_at` returns for a model without ds, is refused."""
    if flow is None:
        raise ModelValidationError("entropy production needs ds on every channel")
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

