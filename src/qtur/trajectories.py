"""Jump-unraveled Monte Carlo trajectories and path-density bookkeeping.

Sampling follows the waiting-time construction: evolve an unnormalized
pure state with the no-jump contraction D(t) = exp(-Gamma t / 2), draw a
uniform u and solve the survival norm ||D(t) psi||^2 = u for the next jump
exactly (bracketed Newton steps, no first-order-in-dt bias), then draw
the channel with weights <psi|L_m^dag L_m|psi> and renormalize.
Since Gamma = sum_m L_m^dag L_m is Hermitian, the whole sampler runs in
its eigenbasis where D(t) is diagonal and the survival norm is a plain
exponential sum.

The sampler is chunked: it steps a whole chunk of trajectories at once,
one array row per trajectory, and solves for the waiting times of every
row still short of the horizon together. Each row goes through exactly the
arithmetic a lone trajectory would (stacked matmuls reach the same BLAS
kernel as one matrix-vector product), so a record does not depend on the
chunk it was sampled in. Path densities and norms are priced the same
way, over groups of records with equal jump counts; every weighted count
over a record's jumps (an observable, the entropy flow sum_j ds_{m_j}) is
:func:`record_observable`'s. One :class:`PathWeights` context holds
the decay eigenbasis, the rotated jump operators, the Hamiltonian
eigensystem and the endpoint spectra, and prices records; the
:class:`TrajectorySampler` is such a context that also draws them, so an
ensemble is sampled and priced over one context, built once.

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
production; nan marks a record discarded for a clipped label weight.

Reproducibility: trajectory k derives its own 64-bit seed from
(master_seed, k) through the splitmix64 finalizer and reads its own PCG64
stream in a fixed order (initial label; a waiting-time and a channel
uniform per jump; the last waiting-time uniform; the final label), so
ensembles are bit-identical for any worker count and chunking, and merge
order is fixed. A chunk holds the PCG64 states of all its rows as uint64
arrays and steps them together, and each row still reads exactly the
doubles of ``Generator(PCG64(seed)).random()``.

Workers: :meth:`TrajectorySampler.ensemble` is the one way to draw an
ensemble. One of at least POOL_MIN trajectories is split across worker
processes by :func:`_map_ranges`, the one ordered map that the sweeps use
too; the two ensembles of ``verify-cic`` share one map. The worker count
defaults to the CPUs this process may run on (:func:`resolve_workers`).
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np
import scipy

from .counting import CountingObservable, evolve
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
NEWTON_PASSES = 16  # a row still open after these bisects (rounding can flatten S)
CHUNK = 1024  # trajectories stepped together
# Smallest ensemble split across worker processes: from 50000 README ep
# trajectories up, two workers beat one on 2 cores (one BLAS thread each,
# one sampling call per fresh process, as a CLI run makes).
POOL_MIN = 50000


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

    def trajectory_seed(self, index):
        """The seed of trajectory ``index``, or a uint64 array of them for a uint64 array."""
        return splitmix64(((self.master_seed & _MASK64) + (index + 1) * _GOLDEN) & _MASK64)


@dataclass(frozen=True)
class TrajectoryRecord:
    """Ordered jump list on (0, tau] plus sampled endpoint labels."""

    jumps: tuple
    initial_label: int
    final_label: int
    horizon: float

    def __post_init__(self):
        last = 0.0
        for t, m in self.jumps:
            if not (last < t <= self.horizon):
                raise ValueError("jump times must be strictly increasing within (0, tau]")
            if not (isinstance(m, (int, np.integer)) and m >= 0):
                raise ValueError(f"jump channel {m!r} is not an integer >= 0")
            last = t

    @property
    def n_jumps(self) -> int:
        return len(self.jumps)


# numpy's SeedSequence hash constants (init, mult) for entropy mixing and
# for state generation and its two mix multipliers; PCG64's multiplier as
# (high, low) words, then the 32-bit halves of its low word. Every operand
# stays an array, since array products wrap silently where scalar ones warn.
_HASH = np.array(
    [[0x43B0D7E5, 0x931E8875], [0x8B51F9DD, 0x58F38DED], [0xCA01F9DD, 0x4973F715]], np.uint32
)[..., None]
_MULT = np.array(
    [0x2360ED051FC65DA4, 0x4385DF649FCCF645, 0x9FCCF645, 0x4385DF64], np.uint64
)[:, None]


def _seed_words(seeds) -> list[np.ndarray]:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for every seed s < 2**64,
    as four uint64 arrays. SeedSequence reads a seed below 2**32 as one
    32-bit word and a larger one as two, and hashes a missing word as a
    zero word, so every seed takes the two-word form here."""
    s = np.array(seeds, dtype=np.uint64)
    const = [_HASH[0, 0], _HASH[1, 0]]  # the running hash constants

    def hashmix(value, i):
        value = value ^ const[i]
        const[i] = const[i] * _HASH[i, 1]
        value = value * const[i]
        return value ^ (value >> 16)

    pool = [(s & 0xFFFFFFFF).astype(np.uint32), (s >> 32).astype(np.uint32)]
    pool = [hashmix(w, 0) for w in pool + [np.zeros_like(pool[0])] * 2]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                z = _HASH[2, 0] * pool[dst] - _HASH[2, 1] * hashmix(pool[src], 0)
                pool[dst] = z ^ (z >> 16)
    words = [hashmix(pool[k % 4], 1).astype(np.uint64) for k in range(8)]
    return [words[2 * j] | (words[2 * j + 1] << 32) for j in range(4)]


def _lcg_step(hi, lo, inc_hi, inc_lo) -> tuple[np.ndarray, np.ndarray]:
    """The 128-bit states (hi, lo) times PCG64's multiplier plus (inc_hi, inc_lo)."""
    m_hi, m_lo, b0, b1 = _MULT
    a1, a0 = lo >> 32, lo & 0xFFFFFFFF
    p10, p01 = a1 * b0, a0 * b1
    cross = (a0 * b0 >> 32) + (p10 & 0xFFFFFFFF) + p01  # at most 2**64 - 1
    hi = a1 * b1 + (p10 >> 32) + (cross >> 32) + hi * m_lo + lo * m_hi
    lo = lo * m_lo + inc_lo
    return hi + inc_hi + (lo < inc_lo), lo


class _Uniforms:
    """One PCG64 stream per row, every row's 128-bit state and increment
    held as uint64 arrays.

    Row b reads ``Generator(PCG64(seeds[b])).random()`` in order: the
    seeding runs numpy's SeedSequence and PCG64 set-up on the arrays, and
    each read takes one LCG step of the rows that read and turns the XSL-RR
    output x into the double (x >> 11) * 2**-53.
    """

    def __init__(self, seeds):
        # PCG64's set-up from seed words (s, q): increment 2q + 1, and the
        # state (increment + s) * multiplier + increment
        s_hi, s_lo, q_hi, q_lo = _seed_words(seeds)
        self._inc_hi = (q_hi << 1) | (q_lo >> 63)
        self._inc_lo = (q_lo << 1) | 1
        lo = self._inc_lo + s_lo
        hi = self._inc_hi + s_hi + (lo < s_lo)
        self._hi, self._lo = _lcg_step(hi, lo, self._inc_hi, self._inc_lo)

    def next(self, rows: np.ndarray) -> np.ndarray:
        """The next uniform of each of the (distinct) ``rows``."""
        hi, lo = _lcg_step(self._hi[rows], self._lo[rows], self._inc_hi[rows], self._inc_lo[rows])
        self._hi[rows], self._lo[rows] = hi, lo
        x, rot = hi ^ lo, hi >> 58
        out = (x >> rot) | (x << ((64 - rot) & 63))
        return (out >> 11) * 2.0**-53


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


def _check_horizon(records, tau: float) -> None:
    """Every record must end at ``tau``, the horizon of the context pricing it."""
    if any(rec.horizon != tau for rec in records):
        raise ValueError(f"every record must end at the context's horizon {tau}")


def _by_jump_count(records, tau: float):
    """Yield (indices, jump times, channels) for groups of at most CHUNK
    records with the same jump count K; times and channels are (len(indices), K)."""
    _check_horizon(records, tau)
    counts = np.fromiter((len(rec.jumps) for rec in records), np.intp, len(records))
    flat = chain.from_iterable(chain.from_iterable(rec.jumps for rec in records))
    jumps = np.fromiter(flat, float, 2 * counts.sum()).reshape(-1, 2)
    starts = np.cumsum(counts) - counts
    ks, first = np.unique(counts, return_index=True)
    for k in ks[np.argsort(first)].tolist():
        members = np.flatnonzero(counts == k)
        for lo in range(0, len(members), CHUNK):
            idx = members[lo : lo + CHUNK]
            group = jumps[starts[idx, None] + np.arange(k)]
            yield idx, group[:, :, 0], group[:, :, 1].astype(np.intp)


def _intervals(times: np.ndarray, tau: float) -> np.ndarray:
    """Row-wise stretches between 0, the jump times (n, K) and the horizon tau."""
    bounds = np.zeros((len(times), times.shape[1] + 2))
    bounds[:, 1:-1] = times
    bounds[:, -1] = tau
    return bounds[:, 1:] - bounds[:, :-1]


class PathWeights:
    """Unravelling context of one (model, rho0, tau) triple, and the path
    densities and per-record entropies priced over it.

    Holds the decay eigenbasis, where the no-jump damping is diagonal; the
    jump operators and their norms L^dag L rotated into it; the
    Hamiltonian eigensystem for coherent stretches; and the spectral
    decompositions of rho0 and of the Hamiltonian-free state at tau, which
    :func:`qtur.counting.evolve` takes on H's zero-frequency sector where
    it holds: they only label records and price entropies, judged against
    sampling error, while verify-cic's exact checks keep the Liouville
    route. Every pricing method takes a batch of records that end at tau
    (else a ValueError); one record is a batch of one.
    """

    def __init__(self, model: LindbladModel, rho0: np.ndarray, tau: float):
        if not (np.isfinite(tau) and tau >= 0):
            raise ValueError(f"tau must be finite and nonnegative, got {tau}")
        self.model = model
        self.tau = float(tau)

        g, w = np.linalg.eigh(model.total_decay())
        if g.min() < -1e-10 * g.max():
            raise ModelValidationError(f"decay operator has negative eigenvalue {g.min():.3e}")
        self._decay_rates = np.clip(g, 0.0, None)
        self._jump_ops = dagger(w) @ model.jump_ops @ w
        self._jump_norms = dagger(self._jump_ops) @ self._jump_ops

        start = spectral_decompose(np.asarray(rho0, complex))
        final = spectral_decompose(evolve(model, rho0, tau, coherent=False)) if tau > 0 else start
        self.q0 = start.probabilities
        self.qtau = final.probabilities
        self._states0 = dagger(w) @ start.vectors
        self._states_tau = dagger(w) @ final.vectors

        eps, e = model.spectrum()[:2]
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
        partners = np.array([-1 if p is None else p for p in self.model.partners])
        out = np.empty(len(records))
        for idx, times, channels in _by_jump_count(records, self.tau):
            start = self._states0[:, [records[i].initial_label for i in idx]].T
            end = self._states_tau[:, [records[i].final_label for i in idx]].T
            weight = self.q0[[records[i].initial_label for i in idx]]
            if backward:
                unpaired = channels[partners[channels] < 0]
                if unpaired.size:
                    raise ModelValidationError(
                        f"channel {unpaired[0]} is unpaired; no reverse path exists"
                    )
                times, channels = self.tau - times[:, ::-1], partners[channels[:, ::-1]]
                start, end = end, start
                weight = self.qtau[[records[i].final_label for i in idx]]
            phi = self._thread(_intervals(times, self.tau), channels, start, False)
            amp = (end.conj()[:, None, :] @ phi[:, :, None])[:, 0, 0]
            out[idx] = weight * np.abs(amp) ** 2
        return out

    def densities_batch(self, records) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Forward, backward and predicted backward densities of every
        record, as three arrays. The prediction exp(-entropy) * forward is
        what the backward density must reproduce; it is nan for a
        discarded record."""
        forward = self._path_densities(records, False)
        backward = self._path_densities(records, True)
        return forward, backward, np.exp(-self.entropies(records)) * forward

    def entropies(self, records) -> np.ndarray:
        """Per-record entropies ln q_i(0) - ln q_i'(tau) + sum_j ds_{m_j},
        nan for a record whose labels hit clipped weights (discarded)."""
        _check_horizon(records, self.tau)
        ds = CountingObservable(self.model.entropy_weights())
        p_start = self.q0[[rec.initial_label for rec in records]]
        p_end = self.qtau[[rec.final_label for rec in records]]
        keep = (p_start > EIGENVALUE_CLIP) & (p_end > EIGENVALUE_CLIP)
        flow = np.array([record_observable(rec, ds) for rec in records], dtype=float)
        values = np.full(len(records), np.nan)
        values[keep] = np.log(p_start[keep]) - np.log(p_end[keep]) + flow[keep]
        return values

    def path_norms_batch(self, records) -> tuple[np.ndarray, np.ndarray]:
        """Squared path norms of every record without final projection.

        The first array threads the Hamiltonian-free contraction, the
        second the full no-jump propagator; unitarity makes them equal
        whenever the eigenoperator condition holds.
        """
        damped = np.empty(len(records))
        full = np.empty(len(records))
        for idx, times, channels in _by_jump_count(records, self.tau):
            intervals = _intervals(times, self.tau)
            start = self._states0[:, [records[i].initial_label for i in idx]].T
            for out, rotate in ((damped, False), (full, True)):
                phi = self._thread(intervals, channels, start, rotate)
                out[idx] = (phi.conj()[:, None, :] @ phi[:, :, None])[:, 0, 0].real
        return damped, full


class TrajectorySampler(PathWeights):
    """Chunked sampler over its own unravelling context, which prices the
    records it draws.

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

    def _survival(self, dt: np.ndarray, *weights: np.ndarray) -> list:
        """Row-wise sum_i w_i exp(-g_i dt) per w in ``weights`` (S for |phi_i|^2, S'
        for -g_i |phi_i|^2): stacked dot products, so no row depends on another."""
        decay = np.exp(-self._decay_rates * dt[:, None])[:, :, None]
        return [(w[:, None, :] @ decay)[:, 0, 0] for w in weights]

    def _locate_jumps(self, amp_sq, u, hi, s0) -> np.ndarray:
        """Row-wise root of S(dt) = u on (0, hi] from S(0) = ``s0`` >= u, certified: each
        row keeps S(lo) >= u > S(hi) and stops once hi - lo <= BISECTION_REL_TOL * hi.
        ln S is convex and decreasing, so a Newton point on it lands left of the root (on
        it, from dt = 0, for one exponential; there every decay is 1, so it needs no exp).
        One from the left is pushed past the root by half the tolerance, one past hi pulled
        in as far, and one not past lo, or any from NEWTON_PASSES on, bisected."""
        slopes = amp_sq * -self._decay_rates  # the weights of S'
        lo, t, out, rows = *np.zeros((2, hi.size)), np.empty_like(hi), np.arange(hi.size)
        s, slope = s0, (slopes[:, None, :] @ np.ones((amp_sq.shape[1], 1)))[:, 0, 0]
        for step in range(BISECTION_MAX_STEPS):
            if not rows.size:
                return out
            with np.errstate(all="ignore"):  # a flat or vanished S gives inf or nan: bisected
                t = t + s * np.log(s / u) / -slope
                t = np.minimum(np.where(s >= u, t * (1 + 0.5 * BISECTION_REL_TOL), t),
                               hi * (1 - 0.5 * BISECTION_REL_TOL))
            t = np.where((lo < t) & (step < NEWTON_PASSES), t, 0.5 * (lo + hi))
            s, slope = self._survival(t, amp_sq, slopes)
            left = s >= u
            lo = np.where(left, t, lo)
            hi = np.where(left, hi, t)
            done = hi - lo <= BISECTION_REL_TOL * hi
            if done.any():
                out[rows[done]] = 0.5 * (lo[done] + hi[done])
                keep = np.flatnonzero(~done)
                rows, lo, hi, t, s, slope, amp_sq, slopes, u = (
                    a[keep] for a in (rows, lo, hi, t, s, slope, amp_sq, slopes, u))
        if rows.size:
            raise RuntimeError("survival root finder did not converge")
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

    def ensemble(
        self, n: int, policy: SeedPolicy, workers: int | None = None
    ) -> list[TrajectoryRecord]:
        """``n`` records drawn over this context; identical output for every
        worker count. Trajectory i always consumes seed policy.trajectory_seed(i),
        whatever chunk steps it; chunks are merged back in index order."""
        return _sample_ensembles([(self, policy, n)], workers)[0]

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
            (s0,) = self._survival(np.zeros(live.size), amp_sq)
            if np.any(s0 > 1.0 + 1e-9):
                raise ModelValidationError("state norm increased during no-jump evolution")
            remaining = self.tau - t[live]
            u = uniforms.next(live)
            jump = (u != 0.0) & ~(self._survival(remaining, amp_sq)[0] >= u)
            dt = remaining.copy()
            dt[jump] = self._locate_jumps(amp_sq[jump], u[jump], remaining[jump], s0[jump])
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


# numpy's and scipy's wheels each bundle an OpenBLAS, each with its own
# name for the thread-count setter
_OPENBLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads")


def _openblas_libraries() -> list:
    """ctypes handles of the OpenBLAS builds bundled with numpy and scipy,
    beside each package (``numpy.libs``) or inside it (``.dylibs``)."""
    found = []
    for package in (Path(np.__file__).parent, Path(scipy.__file__).parent):
        paths = [*package.parent.glob(f"{package.name}.libs/*openblas*"),
                 *package.glob(".dylibs/*openblas*")]
        found += [ctypes.CDLL(str(path)) for path in paths]
    return found


def _init_shared(shared) -> None:
    """A pool worker's set-up: keep ``shared`` and run every OpenBLAS on one
    thread, since the pool already has a process per CPU."""
    global _SHARED
    _SHARED = shared
    for lib in _openblas_libraries():
        for name in _OPENBLAS_SETTERS:
            if hasattr(lib, name):
                getattr(lib, name)(1)


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
    """Records [lo, hi) of the (sampler, policy, n) ensembles in ``shared``
    laid end to end; a range across two of them is split where they meet."""
    records, start = [], 0
    for sampler, policy, n in shared:
        span = np.arange(max(lo, start) - start, min(hi, start + n) - start, dtype=np.uint64)
        seeds = policy.trajectory_seed(span).tolist()
        sampler.read_ahead(seeds)
        records += [sampler.sample(s) for s in seeds]
        start += n
    return records


def _sample_ensembles(parts, workers: int | None) -> list[list[TrajectoryRecord]]:
    """The records of each (sampler, policy, n) in ``parts``, through one
    :func:`_map_ranges` call: one pool at most, however many ensembles."""
    total = sum(n for *_, n in parts)
    workers = resolve_workers(workers) if total >= POOL_MIN else 1
    chunk = max(1, min(CHUNK, -(-total // workers)))
    records = _map_ranges(_sample_range, parts, total, chunk, workers)
    ends = np.cumsum([n for *_, n in parts])
    return [records[end - n : end] for (*_, n), end in zip(parts, ends)]


def record_observable(record: TrajectoryRecord, obs: CountingObservable) -> float:
    """Weighted jump count of the record inside the observation window,
    summed in jump order: the one rule for a sum over a record's jumps."""
    t_a, t_b = obs.resolved_window(record.horizon)
    total = 0.0
    for t, m in record.jumps:
        if t_a <= t <= t_b:
            total += obs.weights[m]
    return total


@dataclass(frozen=True)
class EnsembleEstimate:
    """Sample statistics of an observable across records.

    The entropy fields appear when per-record entropies were attached, and
    ``n_discarded`` counts the nan ones among them.
    ``values`` keeps the observable of every record, in record order.
    """

    n: int
    mean: float
    variance: float
    stderr_mean: float
    stderr_variance: float
    entropy_mean: float | None = None
    entropy_stderr: float | None = None
    n_discarded: int = 0
    values: np.ndarray | None = field(default=None, repr=False, compare=False)


def _mean_and_stderr(values: np.ndarray) -> tuple[float, float]:
    n = len(values)
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(n))


def estimate(
    records, obs: CountingObservable, entropies: np.ndarray | None = None
) -> EnsembleEstimate:
    """Ensemble mean/variance with their standard errors; the entropy mean
    and its standard error are over the ``entropies`` that are not nan
    (discarded)."""
    n = len(records)
    if n < 2:
        raise ValueError("need at least two records")
    values = np.array([record_observable(rec, obs) for rec in records])
    mean, stderr_mean = _mean_and_stderr(values)
    var = float(values.var(ddof=1))
    centered = values - mean
    m4 = float(np.mean(centered**4))
    var_of_var = max(m4 - var * var * (n - 3) / (n - 1), 0.0) / n
    entropy_mean = entropy_stderr = None
    entropies = np.asarray(() if entropies is None else entropies, float)
    kept = entropies[~np.isnan(entropies)]
    if len(kept) >= 2:
        entropy_mean, entropy_stderr = _mean_and_stderr(kept)
    return EnsembleEstimate(
        n=n,
        mean=mean,
        variance=var,
        stderr_mean=stderr_mean,
        stderr_variance=float(np.sqrt(var_of_var)),
        entropy_mean=entropy_mean,
        entropy_stderr=entropy_stderr,
        n_discarded=len(entropies) - len(kept),
        values=values,
    )
