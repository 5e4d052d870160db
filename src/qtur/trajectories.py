"""Jump-unraveled Monte Carlo trajectories and path-density bookkeeping.

Sampling follows the waiting-time construction: evolve an unnormalized
pure state with the no-jump contraction D(t) = exp(-Gamma t / 2), draw a
uniform u and bisect the survival norm ||D(t) psi||^2 = u to locate the
next jump exactly (no first-order-in-dt bias), then select the channel
with probability proportional to <psi|L_m^dag L_m|psi> and renormalize.
Since Gamma = sum_m L_m^dag L_m is Hermitian, the whole sampler runs in
its eigenbasis where D(t) is diagonal and the survival norm is a plain
exponential sum.

The sampler is chunked: it steps a whole chunk of trajectories at once,
one array row per trajectory, and bisects the waiting times of every row
still short of the horizon together. Each row goes through exactly the
arithmetic a lone trajectory would (stacked matmuls reach the same BLAS
kernel as one matrix-vector product), so a record does not depend on the
chunk it was sampled in. Path pricing runs the same way, over groups of
records with equal jump counts. Sampler and pricer share one
:class:`Unravelling` context: the decay eigenbasis, the rotated jump
operators, the Hamiltonian eigensystem and the endpoint spectra.

By default the Hamiltonian is dropped (the jump statistics are identical
with and without it, which the test suite verifies rather than assumes);
``coherent=True`` samples with the full non-Hermitian propagator instead,
applying the commuting unitary factor after each no-jump stretch, and
measures the final label in the correspondingly rotated basis.

Records begin with an initial eigenstate label drawn from the spectral
weights of rho(0) and end with a measured label in the eigenbasis of the
Hamiltonian-free state at the horizon, which is exactly the sample space
of the forward path density P. The reverse path density Q re-runs the
record backwards through the partner channels; their log-ratio per record
is ln q_i(0) - ln q_i'(tau) + sum_j ds_{m_j}, the per-trajectory entropy
production.

Reproducibility: trajectory k derives its own 64-bit seed from
(master_seed, k) through the splitmix64 finalizer and reads its own PCG64
stream in a fixed order (initial label; a waiting-time and a channel
uniform per jump; the last waiting-time uniform; the final label), so
ensembles are bit-identical for any worker count and chunking, and merge
order is fixed.

Workers: an ensemble of at least POOL_MIN trajectories is split across
worker processes by :func:`_map_ranges`, the one ordered map that the
sweeps use too. The worker count defaults to the CPUs this process may
run on (:func:`resolve_workers`).
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, field

import numpy as np

from .counting import CountingObservable, MomentResult
from .engine import build_generator, propagate
from .operators import (
    EIGENVALUE_CLIP,
    LindbladModel,
    ModelValidationError,
    dagger,
    spectral_decompose,
)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
BISECTION_REL_TOL = 1e-9
BISECTION_MAX_STEPS = 200
CHUNK = 1024  # trajectories stepped together
UNIFORM_BLOCK = 16  # uniforms read ahead per trajectory: a record of up to 6 jumps
# Smallest ensemble split across worker processes: the crossover measured
# on 2 cores (one BLAS thread each, one sampling call per fresh process, as
# a CLI run makes). Below it, pool start-up and shipping records back cost
# more than the second core saves.
POOL_MIN = 5000


def splitmix64(x: int) -> int:
    """One splitmix64 finalization round (public-domain mixing constants)."""
    z = x & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class SeedPolicy:
    """Deterministic per-trajectory seeds.

    seed(k) = splitmix64(master_seed + (k + 1) * GOLDEN), i.e. the k-th
    output of the splitmix64 stream started at master_seed.
    """

    master_seed: int

    def trajectory_seed(self, index: int) -> int:
        return splitmix64((self.master_seed + (index + 1) * _GOLDEN) & _MASK64)


@dataclass(frozen=True)
class TrajectoryRecord:
    """Ordered jump list on (0, tau] plus sampled endpoint labels."""

    jumps: tuple
    initial_label: int
    final_label: int
    horizon: float

    def __post_init__(self):
        last = 0.0
        for t, _ in self.jumps:
            if not (last < t <= self.horizon):
                raise ValueError("jump times must be strictly increasing within (0, tau]")
            last = t

    @property
    def n_jumps(self) -> int:
        return len(self.jumps)


class _Uniforms:
    """One PCG64 stream per row, read ahead UNIFORM_BLOCK doubles at a time.

    Row b reads ``Generator(PCG64(seeds[b])).random()`` in order. A block
    ``random(k)`` holds the same doubles as k single draws, so each row
    reads exactly the stream of a trajectory sampled on its own. A row
    that runs out seeds its stream again and advances it past the doubles
    already read, so no generator is kept per row.
    """

    def __init__(self, seeds):
        n = len(seeds)
        self._seeds = list(seeds)
        self._buffer = np.empty((n, 0))
        self._read = np.zeros(n, dtype=np.intp)
        self._filled = np.zeros(n, dtype=np.intp)
        self._extend(np.arange(n))

    def next(self, rows: np.ndarray) -> np.ndarray:
        """The next uniform of each of the (distinct) ``rows``."""
        read = self._read[rows]
        short = rows[read == self._filled[rows]]
        if short.size:
            self._extend(short)
        self._read[rows] = read + 1
        return self._buffer[rows, read]

    def _extend(self, rows: np.ndarray) -> None:
        start = self._filled[rows]
        width = self._buffer.shape[1]
        need = start.max(initial=0) + UNIFORM_BLOCK
        if need > width:
            grown = np.empty((len(self._seeds), max(need, 2 * width)))
            grown[:, :width] = self._buffer
            self._buffer = grown
        for row, col in zip(rows.tolist(), start.tolist()):
            stream = np.random.PCG64(self._seeds[row])
            stream.advance(col)  # one 64-bit draw per double
            block = np.random.Generator(stream).random(UNIFORM_BLOCK)
            self._buffer[row, col : col + UNIFORM_BLOCK] = block
        self._filled[rows] = start + UNIFORM_BLOCK


def _inverse_cdf(u: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Row-wise inverse-CDF draw from the weights ``p`` (one row or one per u).

    Returns the first k with u * sum(p) < p_0 + ... + p_k, else the last
    index: the comparisons of a sequential scan, so the stream layout
    stays frozen.
    """
    below = (u * p.sum(axis=-1))[:, None] < np.cumsum(p, axis=-1)
    return np.where(below.any(axis=1), below.argmax(axis=1), p.shape[-1] - 1)


def _row_norms(phi: np.ndarray) -> np.ndarray:
    """Row-wise 2-norms, accumulated the way ``np.linalg.norm`` does one vector."""
    re, im = phi.real, phi.imag
    return np.sqrt((re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])[:, 0, 0])


def _matvec(ops: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Row b of the result is ops[b] @ phi[b] (ops may be one shared matrix)."""
    return (ops @ phi[:, :, None])[:, :, 0]


class Unravelling:
    """Shared context of one (model, rho0, tau) triple.

    Holds the decay eigenbasis, where the no-jump damping is diagonal; the
    jump operators and their norms L^dag L rotated into it; the
    Hamiltonian eigensystem for coherent stretches; and the spectral
    decompositions of rho0 and of the Hamiltonian-free state at tau.
    """

    def __init__(self, model: LindbladModel, rho0: np.ndarray, tau: float):
        if tau < 0:
            raise ValueError("tau must be nonnegative")
        self.model = model
        self.tau = float(tau)

        g, w = np.linalg.eigh(model.total_decay())
        if g.min() < -1e-10:
            raise ModelValidationError(f"decay operator has negative eigenvalue {g.min():.3e}")
        self._decay_rates = np.clip(g, 0.0, None)
        self._jump_ops = dagger(w) @ model.jump_ops @ w
        self._jump_norms = dagger(self._jump_ops) @ self._jump_ops

        start = spectral_decompose(np.asarray(rho0, complex))
        gen0 = build_generator(model, coherent=False)
        final = spectral_decompose(propagate(gen0, rho0, tau)) if tau > 0 else start
        self.q0 = start.probabilities
        self.qtau = final.probabilities
        self._states0 = dagger(w) @ start.vectors
        self._states_tau = dagger(w) @ final.vectors

        eps, e = np.linalg.eigh(model.H)
        self._h_eigs = eps
        self._h_transform = dagger(w) @ e
        u_tau = (e * np.exp(-1j * eps * tau)) @ dagger(e)
        # bras of the horizon basis in the decay basis; coherent sampling
        # measures in the basis rotated by U(tau)
        self._final_projectors = {
            False: dagger(final.vectors) @ w,
            True: dagger(u_tau @ final.vectors) @ w,
        }

    def _propagate(self, phi: np.ndarray, dt: np.ndarray, rotate: bool) -> np.ndarray:
        """Row b of phi through D(dt[b]) and, when ``rotate``, U(dt[b])."""
        phi = np.exp(-self._decay_rates * dt[:, None] / 2.0) * phi
        if rotate:
            c = self._h_transform
            phases = c * np.exp(-1j * self._h_eigs * dt[:, None])[:, None, :]
            phi = _matvec(phases, _matvec(dagger(c), phi))
        return phi


class TrajectorySampler(Unravelling):
    """Chunked sampler over an unravelling context.

    ``sample(seed)`` is the one call that yields a record. An ensemble
    first calls ``read_ahead(seeds)``, which steps those trajectories
    together as one chunk, and then takes each record with ``sample``;
    a seed not read ahead is stepped as a chunk of one.
    """

    def __init__(
        self,
        model: LindbladModel,
        rho0: np.ndarray,
        tau: float,
        coherent: bool = False,
    ):
        super().__init__(model, rho0, tau)
        self.coherent = bool(coherent)
        self._ahead: dict = {}  # seed -> record stepped but not yet handed out

    def _survival(self, amp_sq: np.ndarray, dt: np.ndarray) -> np.ndarray:
        """Row-wise no-jump probability sum_i |phi_i|^2 exp(-g_i dt)."""
        decay = np.exp(-self._decay_rates * dt[:, None])
        return (amp_sq[:, None, :] @ decay[:, :, None])[:, 0, 0]

    def _locate_jumps(self, amp_sq: np.ndarray, u: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Row-wise bisection of survival(dt) = u on (0, hi], each row
        stopping once its bracket is within BISECTION_REL_TOL of hi."""
        lo = np.zeros_like(hi)
        out = np.empty_like(hi)
        rows = np.arange(hi.size)
        for _ in range(BISECTION_MAX_STEPS):
            if not rows.size:
                return out
            mid = 0.5 * (lo + hi)
            above = self._survival(amp_sq, mid) >= u
            lo = np.where(above, mid, lo)
            hi = np.where(above, hi, mid)
            done = hi - lo <= BISECTION_REL_TOL * hi
            if done.any():
                out[rows[done]] = 0.5 * (lo[done] + hi[done])
                todo = ~done
                rows, lo, hi, amp_sq, u = rows[todo], lo[todo], hi[todo], amp_sq[todo], u[todo]
        if rows.size:
            raise RuntimeError("survival bisection did not converge")
        return out

    def _jump_probabilities(self, phi: np.ndarray) -> np.ndarray:
        """Row-wise max(<phi|L_m^dag L_m|phi>, 0) for every channel m."""
        weighted = self._jump_norms @ phi[:, None, :, None]
        overlap = phi.conj()[:, None, None, :] @ weighted
        return np.maximum(overlap[:, :, 0, 0].real, 0.0)

    def sample(self, seed: int) -> TrajectoryRecord:
        record = self._ahead.pop(seed, None)
        return record if record is not None else self._step([seed])[0]

    def read_ahead(self, seeds) -> None:
        """Step the trajectories of ``seeds`` together, for ``sample`` to hand out."""
        self._ahead.update(zip(seeds, self._step(seeds)))

    def _step(self, seeds) -> list[TrajectoryRecord]:
        """One record per seed, all trajectories stepped together."""
        n = len(seeds)
        uniforms = _Uniforms(seeds)
        every = np.arange(n)
        label0 = _inverse_cdf(uniforms.next(every), self.q0)
        phi = np.ascontiguousarray(self._states0[:, label0].T)
        t = np.zeros(n)
        jumps = [[] for _ in range(n)]

        live = every
        while live.size:
            psi = phi[live]
            psi = psi / _row_norms(psi)[:, None]
            amp_sq = np.abs(psi) ** 2
            if np.any(self._survival(amp_sq, np.zeros(live.size)) > 1.0 + 1e-9):
                raise ModelValidationError("state norm increased during no-jump evolution")
            remaining = self.tau - t[live]
            u = uniforms.next(live)
            jump = (u != 0.0) & ~(self._survival(amp_sq, remaining) >= u)
            dt = remaining.copy()
            dt[jump] = self._locate_jumps(amp_sq[jump], u[jump], remaining[jump])
            psi = self._propagate(psi, dt, self.coherent)

            hit = live[jump]
            if hit.size:
                before = t[hit]
                after = before + dt[jump]
                # keep jump times strictly increasing even if dt underflows
                t[hit] = np.where(after > before, after, np.nextafter(before, np.inf))
                probs = self._jump_probabilities(psi[jump])
                if np.any(probs.sum(axis=1) <= 0.0):
                    raise ModelValidationError("no channel has positive jump probability")
                channels = _inverse_cdf(uniforms.next(hit), probs)
                psi[jump] = _matvec(self._jump_ops[channels], psi[jump])
                for row, time, m in zip(hit.tolist(), t[hit].tolist(), channels.tolist()):
                    jumps[row].append((time, m))
            phi[live] = psi
            live = hit

        overlaps = np.abs(_matvec(self._final_projectors[self.coherent], phi)) ** 2
        total = overlaps.sum(axis=1)
        if np.any(total <= 0.0):
            raise ModelValidationError("final state has no overlap with the horizon basis")
        label1 = _inverse_cdf(uniforms.next(every), overlaps / total[:, None])
        return [
            TrajectoryRecord(jumps=tuple(j), initial_label=a, final_label=b, horizon=self.tau)
            for j, a, b in zip(jumps, label0.tolist(), label1.tolist())
        ]


def resolve_workers(workers: int | None = None) -> int:
    """Worker count: ``workers``, else the CPUs this process may run on;
    capped by the QTUR_THREADS environment variable."""
    cap = os.environ.get("QTUR_THREADS")
    cap = int(cap) if cap else None
    if workers is None:
        workers = cap if cap is not None else _usable_cpus()
    if cap is not None:
        workers = min(workers, cap)
    return max(1, int(workers))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


_SHARED = None  # a pool worker's copy of the map's shared argument


def _init_shared(shared) -> None:
    global _SHARED
    _SHARED = shared


def _call_shared(task):
    func, lo, hi = task
    return func(_SHARED, lo, hi)


def _map_ranges(func, shared, n: int, chunk: int, workers: int) -> list:
    """The items of ``func(shared, lo, hi)`` over [0, n) in ranges of
    ``chunk``, joined in index order: in process for one worker, else in
    one pool of ``workers`` processes that receives ``shared`` once."""
    tasks = [(func, lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]
    if workers == 1:
        parts = [func(shared, lo, hi) for _, lo, hi in tasks]
    else:
        with multiprocessing.Pool(workers, initializer=_init_shared, initargs=(shared,)) as pool:
            parts = pool.map(_call_shared, tasks)
    return [item for part in parts for item in part]


def _sample_range(shared, lo: int, hi: int) -> list[TrajectoryRecord]:
    sampler, policy = shared
    seeds = [policy.trajectory_seed(i) for i in range(lo, hi)]
    sampler.read_ahead(seeds)
    return [sampler.sample(s) for s in seeds]


def sample_ensemble(
    model: LindbladModel,
    rho0: np.ndarray,
    tau: float,
    n: int,
    policy: SeedPolicy,
    coherent: bool = False,
    workers: int | None = None,
) -> list[TrajectoryRecord]:
    """Sample ``n`` records; identical output for every worker count.

    Trajectory i always consumes seed policy.trajectory_seed(i), whatever
    chunk steps it; chunks are merged back in index order.
    """
    workers = resolve_workers(workers) if n >= POOL_MIN else 1
    sampler = TrajectorySampler(model, rho0, tau, coherent=coherent)
    chunk = max(1, min(CHUNK, -(-n // workers)))
    return _map_ranges(_sample_range, (sampler, policy), n, chunk, workers)


def record_observable(record: TrajectoryRecord, obs: CountingObservable) -> float:
    """Weighted jump count of the record inside the observation window."""
    t_a, t_b = obs.resolved_window(record.horizon)
    total = 0.0
    for t, m in record.jumps:
        if t_a <= t <= t_b:
            total += obs.weights[m]
    return total


def _by_jump_count(records):
    """Yield (indices, jump times, channels) for groups of at most CHUNK
    records with the same jump count K; times and channels are (len(indices), K)."""
    groups = {}
    for i, rec in enumerate(records):
        groups.setdefault(rec.n_jumps, []).append(i)
    for k, members in groups.items():
        for lo in range(0, len(members), CHUNK):
            idx = members[lo : lo + CHUNK]
            jumps = np.array([records[i].jumps for i in idx], dtype=float).reshape(len(idx), k, 2)
            yield np.array(idx), jumps[:, :, 0], jumps[:, :, 1].astype(np.intp)


def _intervals(times: np.ndarray, horizons) -> np.ndarray:
    """Row-wise stretches between 0, the jump times (n, K) and the horizon."""
    bounds = np.zeros((len(times), times.shape[1] + 2))
    bounds[:, 1:-1] = times
    bounds[:, -1] = horizons
    return bounds[:, 1:] - bounds[:, :-1]


class PathWeights(Unravelling):
    """Path densities and per-record entropies over an unravelling context.

    Every method prices a batch of records, in groups of equal jump count;
    a single record is a batch of one.
    """

    def _thread(self, intervals, channels, start, rotate: bool) -> np.ndarray:
        """Rows of ``start`` through the stretches ``intervals`` (n, K + 1)
        with the jumps ``channels`` (n, K) between them."""
        phi = np.ascontiguousarray(start)
        for k in range(channels.shape[1]):
            phi = self._propagate(phi, intervals[:, k], rotate)
            phi = _matvec(self._jump_ops[channels[:, k]], phi)
        return self._propagate(phi, intervals[:, -1], rotate)

    def _path_densities(self, records, backward: bool) -> np.ndarray:
        """Forward densities of every record or, with ``backward``, the
        densities of the records run backwards through partner channels."""
        partners = np.array([-1 if c.partner is None else c.partner for c in self.model.channels])
        out = np.empty(len(records))
        for idx, times, channels in _by_jump_count(records):
            horizons = np.array([records[i].horizon for i in idx])
            start = self._states0[:, [records[i].initial_label for i in idx]].T
            end = self._states_tau[:, [records[i].final_label for i in idx]].T
            weight = self.q0[[records[i].initial_label for i in idx]]
            if backward:
                unpaired = channels[partners[channels] < 0]
                if unpaired.size:
                    raise ModelValidationError(
                        f"channel {unpaired[0]} is unpaired; no reverse path exists"
                    )
                times, channels = horizons[:, None] - times[:, ::-1], partners[channels[:, ::-1]]
                start, end = end, start
                weight = self.qtau[[records[i].final_label for i in idx]]
            phi = self._thread(_intervals(times, horizons), channels, start, False)
            amp = (end.conj()[:, None, :] @ phi[:, :, None])[:, 0, 0]
            out[idx] = weight * np.abs(amp) ** 2
        return out

    def densities_batch(self, records) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Forward, backward and predicted backward densities of every
        record, as three arrays. The prediction is the closed form
        exp(-sum ds) * (q_i'(tau)/q_i(0)) * forward that the backward
        density must reproduce; it is nan where the initial label has
        clipped weight."""
        forward = self._path_densities(records, False)
        backward = self._path_densities(records, True)
        ds = self.model.entropy_weights()
        total_ds = np.array([sum(ds[m] for _, m in rec.jumps) for rec in records], dtype=float)
        q0 = self.q0[[rec.initial_label for rec in records]]
        qt = self.qtau[[rec.final_label for rec in records]]
        predicted = np.full(len(records), np.nan)
        ok = q0 > EIGENVALUE_CLIP
        predicted[ok] = np.exp(-total_ds[ok]) * (qt[ok] / q0[ok]) * forward[ok]
        return forward, backward, predicted

    def entropies(self, records) -> tuple[np.ndarray, np.ndarray]:
        """Per-record entropies ln q_i(0) - ln q_i'(tau) + sum_j ds_{m_j}
        and the mask of records kept.

        A record whose labels hit clipped weights is not kept; its value
        is nan.
        """
        ds = self.model.entropy_weights()
        values = np.full(len(records), np.nan)
        keep = np.zeros(len(records), dtype=bool)
        for idx, _, channels in _by_jump_count(records):
            p_start = self.q0[[records[i].initial_label for i in idx]]
            p_end = self.qtau[[records[i].final_label for i in idx]]
            ok = ~((p_start <= EIGENVALUE_CLIP) | (p_end <= EIGENVALUE_CLIP))
            total = np.zeros(len(idx))
            for k in range(channels.shape[1]):
                total = total + ds[channels[:, k]]
            values[idx[ok]] = np.log(p_start[ok]) - np.log(p_end[ok]) + total[ok]
            keep[idx] = ok
        return values, keep

    def path_norms_batch(self, records) -> tuple[np.ndarray, np.ndarray]:
        """Squared path norms of every record without final projection.

        The first array threads the Hamiltonian-free contraction, the
        second the full no-jump propagator; unitarity makes them equal
        whenever the eigenoperator condition holds.
        """
        damped = np.empty(len(records))
        full = np.empty(len(records))
        for idx, times, channels in _by_jump_count(records):
            intervals = _intervals(times, [records[i].horizon for i in idx])
            start = self._states0[:, [records[i].initial_label for i in idx]].T
            for out, rotate in ((damped, False), (full, True)):
                phi = self._thread(intervals, channels, start, rotate)
                out[idx] = (phi.conj()[:, None, :] @ phi[:, :, None])[:, 0, 0].real
        return damped, full


def ensemble_entropies(pw: PathWeights, records) -> tuple[np.ndarray, int]:
    """Per-record entropies; records with clipped labels are dropped and counted."""
    values, keep = pw.entropies(records)
    return values[keep], int(np.count_nonzero(~keep))


@dataclass(frozen=True)
class EnsembleEstimate:
    """Sample statistics of an observable across records.

    Absolute moments E|N|^r are reported for each requested order; the
    entropy fields appear when per-record entropies were attached.
    ``values`` keeps the observable of every record, in record order.
    """

    n: int
    mean: float
    variance: float
    stderr_mean: float
    stderr_variance: float
    abs_moments: dict
    abs_moment_stderr: dict
    entropy_mean: float | None = None
    entropy_stderr: float | None = None
    n_discarded: int = 0
    values: np.ndarray | None = field(default=None, repr=False, compare=False)

    def as_moment_result(self) -> MomentResult:
        """The first two moments in the shape the bound evaluators take."""
        return MomentResult(
            mean=self.mean,
            second_moment=self.variance + self.mean**2,
            variance=self.variance,
            method="monte_carlo",
            stderr_mean=self.stderr_mean,
            stderr_variance=self.stderr_variance,
        )


def _mean_and_stderr(values: np.ndarray) -> tuple[float, float]:
    n = len(values)
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(n))


def estimate(
    records,
    obs: CountingObservable,
    r_list=(),
    entropies: np.ndarray | None = None,
    n_discarded: int = 0,
) -> EnsembleEstimate:
    """Ensemble mean/variance (with standard errors) and |N|^r moments."""
    n = len(records)
    if n < 2:
        raise ValueError("need at least two records")
    values = np.array([record_observable(rec, obs) for rec in records])
    mean, stderr_mean = _mean_and_stderr(values)
    var = float(values.var(ddof=1))
    centered = values - mean
    m4 = float(np.mean(centered**4))
    var_of_var = max(m4 - var * var * (n - 3) / (n - 1), 0.0) / n
    abs_moments, abs_stderr = {}, {}
    for r in r_list:
        if r <= 0:
            raise ValueError("absolute moment orders must be positive")
        powered = np.abs(values) ** r
        abs_moments[r], abs_stderr[r] = _mean_and_stderr(powered)
    entropy_mean = entropy_stderr = None
    if entropies is not None and len(entropies) >= 2:
        entropy_mean, entropy_stderr = _mean_and_stderr(np.asarray(entropies, float))
    return EnsembleEstimate(
        n=n,
        mean=mean,
        variance=var,
        stderr_mean=stderr_mean,
        stderr_variance=float(np.sqrt(var_of_var)),
        abs_moments=abs_moments,
        abs_moment_stderr=abs_stderr,
        entropy_mean=entropy_mean,
        entropy_stderr=entropy_stderr,
        n_discarded=n_discarded,
        values=values,
    )
