import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from qtur import trajectories
from qtur.counting import CountingObservable, counting_moments
from qtur.engine import build_generator, steady_state, survival_probability
from qtur.operators import EIGENVALUE_CLIP, LindbladModel, ModelValidationError
from qtur.trajectories import (
    PathWeights,
    SeedPolicy,
    TrajectoryRecord,
    TrajectorySampler,
    estimate,
    record_observable,
    splitmix64,
)
from conftest import ground_state, random_detailed_balance_model, rotate_model


def _scaled_range(factor, lo, hi):
    return [(factor * i, os.getpid()) for i in range(lo, hi)]


def _blas_threads() -> list:
    """The thread count of each bundled OpenBLAS, through its own getter."""
    return [getattr(lib, name.replace("_set_", "_get_"))()
            for lib in trajectories._openblas_libraries()
            for name in trajectories._OPENBLAS_SETTERS if hasattr(lib, name)]


def _worker_blas_threads(shared, lo, hi):
    return [_blas_threads() for _ in range(lo, hi)]


class TestWorkerMap:
    def test_pool_workers_run_blas_on_one_thread(self):
        libs = trajectories._openblas_libraries()
        setters = [getattr(lib, n) for lib in libs for n in trajectories._OPENBLAS_SETTERS
                   if hasattr(lib, n)]
        if not setters:
            pytest.skip("no bundled OpenBLAS")
        before = _blas_threads()
        try:
            for setter in setters:
                setter(2)
            parent = _blas_threads()
            workers = trajectories._map_ranges(_worker_blas_threads, None, 2, 1, 2)
            assert workers == [[1] * len(setters)] * 2
            assert _blas_threads() == parent
        finally:
            for setter, count in zip(setters, before):
                setter(count)
        assert _blas_threads() == before

    def test_uneven_chunks_join_in_index_order(self):
        serial = trajectories._map_ranges(_scaled_range, 3, 23, 5, 1)
        pooled = trajectories._map_ranges(_scaled_range, 3, 23, 5, 2)
        assert [v for v, _ in serial] == [v for v, _ in pooled] == [3 * i for i in range(23)]
        assert {pid for _, pid in serial} == {os.getpid()}
        assert os.getpid() not in {pid for _, pid in pooled}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_ensembles_end_to_end_match_separate_ensembles(self, ep_generic, monkeypatch, workers):
        # at two workers the second range straddles the two ensembles and is
        # split where they meet
        monkeypatch.setattr(trajectories, "POOL_MIN", 0)
        forward, backward = ground_state(), np.diag([0.2, 0.5, 0.3]).astype(complex)
        parts = [
            (TrajectorySampler(ep_generic, forward, 1.0), SeedPolicy(4), 300),
            (TrajectorySampler(ep_generic, backward, 1.0), SeedPolicy(5), 250),
        ]
        together = trajectories._sample_ensembles(parts, workers)
        separate = [
            TrajectorySampler(ep_generic, forward, 1.0).ensemble(300, SeedPolicy(4), 1),
            TrajectorySampler(ep_generic, backward, 1.0).ensemble(250, SeedPolicy(5), 1),
        ]
        assert together == separate

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call")
    def test_default_follows_cpu_affinity(self):
        code = (
            "import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
            "from qtur.trajectories import resolve_workers; print(resolve_workers())"
        )
        env = {k: v for k, v in os.environ.items() if k != "QTUR_THREADS"}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(trajectories.__file__))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        assert out.stdout.strip() == "1"


class TestSeedPolicy:
    def test_splitmix_reference_values(self):
        # first outputs of the splitmix64 stream seeded with 1234567
        # (cross-checked against the published reference sequence)
        policy = SeedPolicy(1234567)
        assert policy.trajectory_seed(0) == 6457827717110365317
        assert policy.trajectory_seed(1) == 3203168211198807973

    def test_distinct_indices_distinct_seeds(self):
        policy = SeedPolicy(9)
        seeds = {policy.trajectory_seed(i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_mask_is_64_bit(self):
        assert splitmix64((1 << 64) + 5) == splitmix64(5)

    @pytest.mark.parametrize("master", [0, 7, -1, -12345, 2**63 + 11, 2**64 + 5, 2**70 - 3])
    def test_array_indices_give_the_scalar_seeds(self, master):
        policy = SeedPolicy(master)
        seeds = policy.trajectory_seed(np.arange(3, 500, dtype=np.uint64)).tolist()
        assert seeds == [policy.trajectory_seed(i) for i in range(3, 500)]


class TestRecord:
    def test_times_must_increase(self):
        with pytest.raises(ValueError):
            TrajectoryRecord(((0.5, 0), (0.4, 1)), 0, 0, 1.0)
        with pytest.raises(ValueError):
            TrajectoryRecord(((0.0, 0),), 0, 0, 1.0)
        with pytest.raises(ValueError):
            TrajectoryRecord(((1.5, 0),), 0, 0, 1.0)

    @pytest.mark.parametrize("channel", [-1, 1.7, 1.0])
    def test_channel_must_be_a_nonnegative_integer(self, channel):
        # -1 would price as the last channel and 1.7 as channel 1
        with pytest.raises(ValueError, match="not an integer >= 0"):
            TrajectoryRecord(((0.3, 0), (0.5, channel)), 0, 0, 1.0)
        assert TrajectoryRecord(((0.5, np.int64(2)),), 0, 0, 1.0).jumps[0][1] == 2

    def test_observable_examples(self):
        rec = TrajectoryRecord(((0.3, 0), (0.7, 2)), 0, 0, 1.0)
        obs = CountingObservable((1.0, 0.0, 2.0, 0.0))
        assert record_observable(rec, obs) == 3.0
        assert record_observable(rec, obs.with_window((0.5, 1.0))) == 2.0

    def test_empty_record_scores_zero(self):
        rec = TrajectoryRecord((), 1, 2, 1.0)
        assert record_observable(rec, CountingObservable((1.0, 1.0))) == 0.0


class TestSampling:
    def test_poisson_counts(self, poisson, scalar_one):
        tau, rate, n = 2.0, 0.7, 4000
        records = TrajectorySampler(poisson, scalar_one, tau).ensemble(n, SeedPolicy(5), 1)
        counts = np.array([r.n_jumps for r in records])
        stderr = counts.std(ddof=1) / np.sqrt(n)
        assert abs(counts.mean() - rate * tau) <= 4 * stderr
        # Poisson: variance equals the mean
        assert abs(counts.var(ddof=1) - rate * tau) <= 4 * 2 * rate * tau / np.sqrt(n)

    def test_channel_free_model_never_jumps(self):
        model = LindbladModel.build(np.diag([0.0, 1.0]).astype(complex), [])
        rho0 = np.diag([0.6, 0.4]).astype(complex)
        sampler = TrajectorySampler(model, rho0, 3.0)
        for seed in range(5):
            assert sampler.sample(seed).n_jumps == 0

    def test_dark_level_accepted_at_large_scale(self):
        # rates of order 1e9 and a level that never decays: in a rotated
        # basis eigh puts Gamma's zero eigenvalue some 1e-7 below zero,
        # rounding at the scale of ||Gamma||, not a negative decay rate
        c, tau = 1e9, 2e-9
        ops = np.zeros((2, 3, 3), dtype=complex)
        ops[0, 0, 1], ops[1, 1, 2] = np.sqrt(0.7 * c), np.sqrt(0.4 * c)
        h = c * np.diag([0.0, 1.0, 2.5]).astype(complex)
        lowest = []
        for seed in range(5):
            model = rotate_model(LindbladModel.build(h, list(ops)), np.random.default_rng(seed))
            lowest.append(np.linalg.eigvalsh(model.total_decay()).min())
            sampler = TrajectorySampler(model, np.eye(3) / 3, tau)
            records = sampler.ensemble(50, SeedPolicy(seed), workers=1)
            assert sum(r.n_jumps for r in records) > 0
            assert all(0.0 < t <= tau for r in records for t, _ in r.jumps)
        assert min(lowest) < -1e-10  # what an absolute bound used to reject

    def test_no_jump_fraction_matches_survival(self, da_generic):
        rho = steady_state(build_generator(da_generic, coherent=True))
        tau, n = 1.0, 4000
        records = TrajectorySampler(da_generic, rho, tau).ensemble(n, SeedPolicy(17), workers=1)
        frac = np.mean([r.n_jumps == 0 for r in records])
        target = survival_probability(da_generic, rho, tau)
        stderr = np.sqrt(target * (1 - target) / n)
        assert abs(frac - target) <= 4 * stderr

    def test_determinism_same_seed(self, da_generic):
        rho = steady_state(build_generator(da_generic, coherent=True))
        a = TrajectorySampler(da_generic, rho, 2.0).sample(99)
        b = TrajectorySampler(da_generic, rho, 2.0).sample(99)
        assert a == b

    def test_determinism_across_worker_counts(self, ep_generic, monkeypatch):
        rho = steady_state(build_generator(ep_generic, coherent=True))
        serial = TrajectorySampler(ep_generic, rho, 1.0).ensemble(600, SeedPolicy(3), workers=1)
        monkeypatch.setattr(trajectories, "POOL_MIN", 0)  # split even a small ensemble
        parallel = TrajectorySampler(ep_generic, rho, 1.0).ensemble(600, SeedPolicy(3), workers=2)
        assert serial == parallel

    def test_jump_times_inside_horizon(self, ep_generic):
        rho = ground_state()
        records = TrajectorySampler(ep_generic, rho, 0.7).ensemble(500, SeedPolicy(1), workers=1)
        for rec in records:
            for t, m in rec.jumps:
                assert 0.0 < t <= 0.7
                assert 0 <= m < 6

    def test_mc_agrees_with_hierarchy(self, da_generic):
        rho = steady_state(build_generator(da_generic, coherent=True))
        tau, n = 1.5, 4000
        obs = CountingObservable((1.0, 0.4, 0.7, 0.2))
        records = TrajectorySampler(da_generic, rho, tau).ensemble(n, SeedPolicy(23), workers=1)
        est = estimate(records, obs)
        exact = counting_moments(da_generic, rho, obs, tau)
        assert abs(est.mean - exact.mean) <= 4 * est.stderr_mean
        assert abs(est.variance - exact.variance) <= 4 * est.stderr_variance

    def test_coherent_and_incoherent_jump_counts_indistinguishable(self, da_generic):
        rho = steady_state(build_generator(da_generic, coherent=True))
        tau, n = 1.0, 10_000
        inc = TrajectorySampler(da_generic, rho, tau).ensemble(n, SeedPolicy(41), workers=2)
        coh = TrajectorySampler(da_generic, rho, tau, coherent=True).ensemble(
            n, SeedPolicy(42), workers=2
        )
        k_inc = [r.n_jumps for r in inc]
        k_coh = [r.n_jumps for r in coh]
        assert ks_2samp(k_inc, k_coh).pvalue > 1e-3


# Records of SeedPolicy(2026) trajectories 0-3 at tau = 1.5 from the
# stationary state, as the sampler draws them without the Hamiltonian:
# (index, jumps, initial label, final label). Re-captured when the waiting
# times moved from bisection to bracketed Newton steps (every count, channel
# and label kept; times moved by at most 4.7e-10 relative), and again when
# the steady state became one bordered LU (its last bits moved; every
# count, channel and label kept, times moved by at most 2.3e-15 relative).
GOLDEN_RECORDS = {
    "ep": [
        (0, ((0.14492048856191572, 4), (0.22645492642368514, 3)), 2, 1),
        (1, ((0.6150771881400248, 2), (1.4977139309057699, 1)), 1, 2),
        (2, ((0.2972225838464235, 0), (1.4540843510232981, 1)), 2, 2),
        (3, ((0.417127537324832, 1), (1.0733833879309786, 4)), 0, 0),
    ],
    "da": [
        (0, ((0.11859241318451769, 2), (0.2583657352332653, 1)), 1, 1),
        (1, ((0.7169945622324378, 1), (1.2583845216511187, 0)), 0, 0),
        (2, ((0.23963582285198148, 0),), 1, 0),
        (3, ((0.7150757782711405, 1), (1.3706642658582158, 2)), 0, 0),
    ],
}

# The same records drawn with the Hamiltonian. Its unitary factor moves the
# state's last bits, and a Newton point moves with them: record 1's second
# jump time on the ep model differs from GOLDEN_RECORDS in its last digits.
GOLDEN_RECORDS_COHERENT = {
    "ep": [
        (0, ((0.14492048856191572, 4), (0.22645492642368514, 3)), 2, 1),
        (1, ((0.6150771881400248, 2), (1.4977139309057697, 1)), 1, 2),
        (2, ((0.2972225838464235, 0), (1.4540843510232981, 1)), 2, 2),
        (3, ((0.417127537324832, 1), (1.0733833879309786, 4)), 0, 0),
    ],
    "da": [
        (0, ((0.11859241318451769, 2), (0.2583657352332653, 1)), 1, 1),
        (1, ((0.7169945622324378, 1), (1.2583845216511187, 0)), 0, 0),
        (2, ((0.23963582285198148, 0),), 1, 0),
        (3, ((0.7150757782711405, 1), (1.3706642658582158, 2)), 0, 0),
    ],
}

# SeedPolicy(2026) trajectory 0 of ep_generic from |g> at tau = 12: 17 jumps
# read 3 + 2 * 17 uniforms of one stream (re-captured with GOLDEN_RECORDS;
# times moved by at most 1.8e-10 relative).
GOLDEN_LONG_RECORD = (
    (
        (0.18775313021190013, 5), (0.2641169661582449, 4), (2.7486609614403097, 3),
        (3.6332476358656627, 2), (3.774979139973795, 1), (4.757881800417448, 0),
        (5.766294839714764, 1), (6.083906341148304, 0), (6.418138334571359, 3),
        (6.517820221355224, 2), (7.424448776888786, 1), (8.097446662411658, 0),
        (8.349540978007598, 3), (8.753757857142617, 0), (9.273766036714877, 3),
        (9.616579358738852, 0), (9.78410761028617, 3),
    ),
    0,
    1,
)


def assert_same_path(record: TrajectoryRecord, reference: TrajectoryRecord) -> None:
    """The same labels and channels, and jump times within BISECTION_REL_TOL."""
    assert (record.initial_label, record.final_label) == (
        reference.initial_label, reference.final_label
    )
    assert [m for _, m in record.jumps] == [m for _, m in reference.jumps]
    times, ref_times = (np.array([t for t, _ in r.jumps]) for r in (record, reference))
    assert np.all(np.abs(times - ref_times) <= trajectories.BISECTION_REL_TOL * ref_times)


def reference_record(sampler: TrajectorySampler, seed: int) -> TrajectoryRecord:
    """One trajectory with one-vector arithmetic and its waiting times by
    bisection of the survival: the reference the sampler's records must
    match (exactly with no Newton pass, to the tolerance with them)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    g = sampler._decay_rates

    def draw(p):  # the first k with u sum(p) < p_0 + ... + p_k, else the last
        return min(int(np.searchsorted(np.cumsum(p), rng.random() * p.sum(), "right")), p.size - 1)

    def survival(amp_sq, dt):
        return float(amp_sq @ np.exp(-g * dt))

    def stretch(psi, dt):
        psi = np.exp(-g * dt / 2.0) * psi
        if sampler.coherent:
            c = sampler._h_transform
            psi = (c * np.exp(-1j * sampler._h_eigs * dt)) @ (c.conj().T @ psi)
        return psi

    label0 = draw(sampler.q0)
    psi, t, jumps = sampler._states0[:, label0], 0.0, []
    while True:
        psi = psi / np.linalg.norm(psi)
        amp_sq = np.abs(psi) ** 2
        lo, hi, u = 0.0, sampler.tau - t, rng.random()
        if u == 0.0 or survival(amp_sq, hi) >= u:
            psi = stretch(psi, hi)
            break
        while hi - lo > trajectories.BISECTION_REL_TOL * hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if survival(amp_sq, mid) >= u else (lo, mid)
        dt = 0.5 * (lo + hi)
        psi = stretch(psi, dt)
        t = max(t + dt, np.nextafter(t, np.inf))
        probs = np.maximum(np.einsum("i,mij,j->m", psi.conj(), sampler._jump_norms, psi).real, 0.0)
        m = draw(probs)
        psi = sampler._jump_ops[m] @ psi
        jumps.append((t, m))
    overlaps = np.abs(sampler._final_projectors[sampler.coherent] @ psi) ** 2
    return TrajectoryRecord(tuple(jumps), label0, draw(overlaps / overlaps.sum()), sampler.tau)


def stepped_together(sampler: TrajectorySampler, seeds) -> list:
    """The records of ``seeds``, stepped as one chunk and handed out by ``sample``."""
    sampler.read_ahead(seeds)
    return [sampler.sample(s) for s in seeds]


class TestChunkedSampler:
    @pytest.mark.parametrize("coherent", [False, True])
    @pytest.mark.parametrize("name", ["ep", "da"])
    def test_golden_records(self, name, coherent, ep_generic, da_generic):
        model = ep_generic if name == "ep" else da_generic
        rho = steady_state(build_generator(model, coherent=True))
        sampler = TrajectorySampler(model, rho, 1.5, coherent=coherent)
        records = sampler.ensemble(4, SeedPolicy(2026), workers=1)
        pins = [GOLDEN_RECORDS, GOLDEN_RECORDS_COHERENT]
        expected, other = (
            [TrajectoryRecord(jumps, i0, i1, 1.5) for _, jumps, i0, i1 in pin[name]]
            for pin in (pins[coherent], pins[not coherent])
        )
        # exact float equality on every jump time
        assert records == expected
        # with and without the Hamiltonian: the same paths, to the root finder's tolerance
        for record, golden in zip(records, other, strict=True):
            assert_same_path(record, golden)
        sampler = TrajectorySampler(model, rho, 1.5, coherent=coherent)
        assert sampler.sample(SeedPolicy(2026).trajectory_seed(2)) == expected[2]

    def test_long_record_reads_its_whole_stream(self, ep_generic):
        jumps, i0, i1 = GOLDEN_LONG_RECORD
        sampler = TrajectorySampler(ep_generic, ground_state(), 12.0)
        seeds = [SeedPolicy(2026).trajectory_seed(i) for i in range(40)]
        records = stepped_together(sampler, seeds)
        assert records[0] == TrajectoryRecord(jumps, i0, i1, 12.0)
        # rows that read different numbers of uniforms still read their own streams
        assert max(r.n_jumps for r in records) > len(jumps)
        assert [sampler.sample(s) for s in seeds[:5]] == records[:5]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n", [1, 2, 255, 257, 1000])
    def test_records_do_not_depend_on_chunking(self, ep_generic, monkeypatch, n, workers):
        rho = ground_state()
        policy = SeedPolicy(31)
        sampler = TrajectorySampler(ep_generic, rho, 1.0)
        whole = stepped_together(sampler, [policy.trajectory_seed(i) for i in range(n)])
        monkeypatch.setattr(trajectories, "CHUNK", 128)
        monkeypatch.setattr(trajectories, "POOL_MIN", 0)
        assert TrajectorySampler(ep_generic, rho, 1.0).ensemble(n, policy, workers=workers) == whole
        for i in {0, n // 2, n - 1}:
            assert sampler.sample(policy.trajectory_seed(i)) == whole[i]

    def test_uniform_rows_follow_their_own_streams(self):
        seeds = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
        seeds += [SeedPolicy(5).trajectory_seed(i) for i in range(50)]
        uniforms = trajectories._Uniforms(seeds)
        drawn = [[] for _ in seeds]
        for step in range(64):
            # a shifting subset of rows, so rows step their states at different reads
            rows = np.arange(step % 3, len(seeds), 2)
            for row, u in zip(rows.tolist(), uniforms.next(rows).tolist()):
                drawn[row].append(u)
        for seed, row in zip(seeds, drawn):
            assert row == np.random.Generator(np.random.PCG64(seed)).random(len(row)).tolist()

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 24)), min_size=1, max_size=12
        )
    )
    def test_uniform_rows_match_numpy_for_any_seed(self, rows):
        # ragged read counts: each row stops once it has read its own count
        seeds, counts = [s for s, _ in rows], np.array([k for _, k in rows])
        uniforms = trajectories._Uniforms(seeds)
        drawn = [[] for _ in seeds]
        for step in range(counts.max()):
            live = np.flatnonzero(counts > step)
            for row, u in zip(live.tolist(), uniforms.next(live).tolist()):
                drawn[row].append(u)
        for (seed, k), row in zip(rows, drawn):
            assert row == np.random.Generator(np.random.PCG64(seed)).random(k).tolist()

    def test_repeated_seed_gives_the_same_record(self, ep_generic):
        sampler = TrajectorySampler(ep_generic, ground_state(), 1.0)
        seed = SeedPolicy(8).trajectory_seed(0)
        lone = sampler.sample(seed)
        assert stepped_together(sampler, [seed, 5, seed]) == [lone, sampler.sample(5), lone]

    def test_norm_increase_raises(self, ep_generic, monkeypatch):
        norms = trajectories._row_norms
        monkeypatch.setattr(trajectories, "_row_norms", lambda phi: 0.5 * norms(phi))
        with pytest.raises(ModelValidationError, match="norm increased"):
            TrajectorySampler(ep_generic, ground_state(), 1.0).sample(3)

    def test_no_positive_channel_raises(self, ep_generic):
        sampler = TrajectorySampler(ep_generic, ground_state(), 5.0)
        sampler._jump_norms = np.zeros_like(sampler._jump_norms)
        with pytest.raises(ModelValidationError, match="no channel"):
            sampler.read_ahead([SeedPolicy(1).trajectory_seed(i) for i in range(20)])

    def test_zero_final_overlap_raises(self, ep_generic):
        sampler = TrajectorySampler(ep_generic, ground_state(), 1.0)
        sampler._final_projectors = {
            k: np.zeros_like(v) for k, v in sampler._final_projectors.items()
        }
        with pytest.raises(ModelValidationError, match="no overlap"):
            sampler.sample(4)

    def test_bisection_step_limit_raises(self, ep_generic, monkeypatch):
        # these waiting times take up to 5 root-finder passes, so 3 stop it
        seeds = [SeedPolicy(1).trajectory_seed(i) for i in range(20)]
        TrajectorySampler(ep_generic, ground_state(), 5.0).read_ahead(seeds)
        monkeypatch.setattr(trajectories, "BISECTION_MAX_STEPS", 3)
        sampler = TrajectorySampler(ep_generic, ground_state(), 5.0)
        with pytest.raises(RuntimeError, match="did not converge"):
            sampler.read_ahead(seeds)


def survival_rows(rates, draws) -> tuple:
    """A root finder over decay ``rates`` and the (amplitudes, u, hi) rows
    of ``draws``, as arrays, with S(0) of each row."""
    finder = TrajectorySampler.__new__(TrajectorySampler)
    finder._decay_rates = np.asarray(rates, dtype=float)
    amp_sq, u, hi = (np.array(column, dtype=float) for column in zip(*draws))
    return finder, amp_sq, u, hi, finder._survival(np.zeros(u.size), amp_sq)[0]


@st.composite
def waiting_time_rows(draw):
    """Decay rates with a zero rate and a stiff spread over 1e-3..1e4, and
    1-4 rows of normalized amplitudes (some zero), a horizon hi and a
    uniform u in (S(hi), 1) with S(0) >= u."""
    rates = [0.0] + draw(st.lists(st.floats(-3, 4).map(lambda e: 10.0**e), min_size=1, max_size=5))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        amp = draw(st.lists(st.sampled_from([0.0, 1e-3, 0.5]) | st.floats(1e-3, 1.0),
                            min_size=len(rates), max_size=len(rates)))
        assume(sum(amp[1:]) > 0)
        amp = np.array(amp) / sum(amp)
        hi = draw(st.floats(1e-3, 1e2))
        finder, *_ = survival_rows(rates, [(amp, 0.5, hi)])
        ((s_hi, s_0),) = finder._survival(np.array([hi, 0.0]), np.array([amp, amp]))
        assume(s_hi < min(s_0, 1.0))
        top = min(float(s_0), 1.0)  # u < 1, as a uniform draw is
        u = draw(st.floats(float(s_hi), top, exclude_min=True, exclude_max=top == 1.0))
        rows.append((amp, u, hi))
    return rates, rows


class TestRootFinder:
    @pytest.mark.parametrize(
        "name, coherent, tau, n",
        [("ep", False, 1.5, 400), ("ep", True, 1.5, 300), ("da", False, 1.5, 300), ("ep", False, 12.0, 30)],
    )
    def test_records_match_reference_bisection(
        self, name, coherent, tau, n, ep_generic, da_generic, monkeypatch
    ):
        model = ep_generic if name == "ep" else da_generic
        rho = ground_state() if tau > 2 else steady_state(build_generator(model, coherent=True))
        seeds = [SeedPolicy(11).trajectory_seed(i) for i in range(n)]
        records = stepped_together(TrajectorySampler(model, rho, tau, coherent=coherent), seeds)
        sampler = TrajectorySampler(model, rho, tau, coherent=coherent)
        reference = [reference_record(sampler, seed) for seed in seeds]
        assert sum(r.n_jumps for r in reference) > n
        for record, ref in zip(records, reference, strict=True):
            assert_same_path(record, ref)
        # with no Newton pass the root finder is the bisection, bit for bit
        monkeypatch.setattr(trajectories, "NEWTON_PASSES", 0)
        assert stepped_together(sampler, seeds) == reference

    @settings(max_examples=80, deadline=None)
    @given(waiting_time_rows())
    def test_root_is_certified_by_a_bracket(self, drawn):
        rates, rows = drawn
        tol = trajectories.BISECTION_REL_TOL
        alone = []
        for amp, u, hi0 in rows:
            finder, amp_sq, us, his, s0 = survival_rows(rates, [(amp, u, hi0)])
            survival, seen = finder._survival, []

            def recorded(dt, *weights):
                out = survival(dt, *weights)
                seen.append((dt[0], out[0][0]))
                return out

            finder._survival = recorded
            (t,) = finder._locate_jumps(amp_sq, us, his, s0)
            lo = max([0.0] + [dt for dt, s in seen if s >= u])  # S(0) >= u as drawn
            hi = min([hi0] + [dt for dt, s in seen if s < u])
            assert t == 0.5 * (lo + hi) and hi - lo <= tol * hi
            # never more passes than a bisection of (0, hi0] takes, and
            # NEWTON_PASSES before it, to the same tolerance (one pass of slack)
            a, b, bisections = 0.0, hi0, 0
            while b - a > tol * b:
                mid, bisections = 0.5 * (a + b), bisections + 1
                a, b = (mid, b) if survival(np.array([mid]), amp_sq)[0][0] >= u else (a, mid)
            assert len(seen) <= trajectories.NEWTON_PASSES + bisections + 1
            alone.append(t)
        # a row's bits do not depend on the rows beside it
        finder, amp_sq, u, hi, s0 = survival_rows(rates, rows)
        assert finder._locate_jumps(amp_sq, u, hi, s0).tolist() == alone


def reference_path_norms(pw: PathWeights, record: TrajectoryRecord) -> tuple:
    """Record-at-a-time loop with one-vector arithmetic: the reference the
    batched pricing must reproduce exactly."""
    c = pw._h_transform

    def stretch(phi, dt, rotate):
        phi = np.exp(-pw._decay_rates * dt / 2.0) * phi
        if rotate:
            phi = (c * np.exp(-1j * pw._h_eigs * dt)) @ (c.conj().T @ phi)
        return phi

    bounds = [0.0] + [t for t, _ in record.jumps] + [record.horizon]
    intervals = [b - a for a, b in zip(bounds[:-1], bounds[1:])]
    norms = []
    for rotate in (False, True):
        phi = pw._states0[:, record.initial_label].copy()
        for dt, (_, m) in zip(intervals, record.jumps):
            phi = pw._jump_ops[m] @ stretch(phi, dt, rotate)
        phi = stretch(phi, intervals[-1], rotate)
        norms.append(float(np.vdot(phi, phi).real))
    return tuple(norms)


def reference_entropy(pw: PathWeights, record: TrajectoryRecord) -> float | None:
    """Scalar per-record entropy ln q_i(0) - ln q_i'(tau) + sum_j ds_{m_j}, or
    None where a label hits clipped weight: the reference the batched
    entropies must reproduce exactly."""
    ds = pw.model.entropy_weights()
    p_start = pw.q0[record.initial_label]
    p_end = pw.qtau[record.final_label]
    if p_start <= EIGENVALUE_CLIP or p_end <= EIGENVALUE_CLIP:
        return None
    return float(np.log(p_start) - np.log(p_end) + sum(ds[m] for _, m in record.jumps))


class TestBatchedPricing:
    def test_path_norms_match_reference_loop(self, ep_generic):
        model = rotate_model(ep_generic, np.random.default_rng(4))
        rho = steady_state(build_generator(model, coherent=True))
        records = TrajectorySampler(model, rho, 2.0).ensemble(300, SeedPolicy(19), workers=1)
        assert len({r.n_jumps for r in records}) > 3
        pw = PathWeights(model, rho, 2.0)
        expected = [reference_path_norms(pw, r) for r in records]
        damped, full = pw.path_norms_batch(records)
        assert list(zip(damped.tolist(), full.tolist())) == expected
        # a batch of one prices a record exactly as the batch of n does
        for rec, norms in zip(records[:20], expected):
            one_damped, one_full = pw.path_norms_batch([rec])
            assert (one_damped[0], one_full[0]) == norms

    def test_entropies_match_per_record(self, ep_generic):
        rho0 = ground_state()
        records = TrajectorySampler(ep_generic, rho0, 1.0).ensemble(300, SeedPolicy(23), workers=1)
        # q0 of |g> puts zero weight on labels 1 and 2
        clipped = TrajectoryRecord(((0.5, 1),), initial_label=1, final_label=0, horizon=1.0)
        records.insert(7, clipped)
        pw = PathWeights(ep_generic, rho0, 1.0)
        values = pw.entropies(records)
        assert np.flatnonzero(np.isnan(values)).tolist() == [7]
        for rec, value in zip(records, values):
            reference = reference_entropy(pw, rec)
            assert np.array_equal([value], [np.nan if reference is None else reference],
                                  equal_nan=True)
            assert np.array_equal(pw.entropies([rec]), [value], equal_nan=True)
        obs = CountingObservable((1.0,) * ep_generic.n_channels)
        est = estimate(records, obs, entropies=values)
        assert est.n_discarded == 1
        assert est.entropy_mean == np.delete(values, 7).mean()


class TestPathDensities:
    def test_backward_matches_closed_form_on_every_record(self, ep_generic):
        rho = steady_state(build_generator(ep_generic, coherent=True))
        records = TrajectorySampler(ep_generic, rho, 1.0).ensemble(500, SeedPolicy(7), workers=1)
        pw = PathWeights(ep_generic, rho, 1.0)
        _, backward, predicted = pw.densities_batch(records)
        rel = np.abs(backward - predicted) / np.maximum(np.maximum(backward, predicted), 1e-300)
        assert np.all(rel < 1e-9)

    def test_jump_free_record_ratio(self, ep_generic):
        rho = steady_state(build_generator(ep_generic, coherent=True))
        pw = PathWeights(ep_generic, rho, 1.0)
        rec = TrajectoryRecord((), initial_label=0, final_label=0, horizon=1.0)
        forward, backward, _ = pw.densities_batch([rec])
        # same label at both ends: Q/P = q(tau)/q(0) = 1 at stationarity
        assert backward[0] / forward[0] == pytest.approx(1.0, rel=1e-9)

    def test_entropy_equals_log_density_ratio(self, ep_generic):
        rho = steady_state(build_generator(ep_generic, coherent=True))
        records = TrajectorySampler(ep_generic, rho, 1.0).ensemble(500, SeedPolicy(13), workers=1)
        pw = PathWeights(ep_generic, rho, 1.0)
        forward, backward, _ = pw.densities_batch(records)
        direct = pw.entropies(records)
        assert not np.isnan(direct).any()
        via_ratio = np.log(forward / backward)
        assert np.all(np.abs(direct - via_ratio) <= 1e-9 * np.maximum(1.0, np.abs(direct)))

    def test_batch_equals_per_record(self, ep_generic):
        rng = np.random.default_rng(41)
        model = rotate_model(ep_generic, rng)
        rho0 = ground_state()
        records = TrajectorySampler(model, rho0, 1.5).ensemble(600, SeedPolicy(37), workers=1)
        # q0 of |g> puts zero weight on labels 1 and 2
        clipped = TrajectoryRecord(((0.5, 1),), initial_label=1, final_label=0, horizon=1.5)
        records.insert(5, clipped)
        pw = PathWeights(model, rho0, 1.5)
        batch = pw.densities_batch(records)
        assert np.isnan(batch[2][5]) and np.isnan(batch[2]).sum() == 1
        # a batch of one prices a record exactly as the batch of n does
        for i, rec in enumerate(records):
            for one, whole in zip(pw.densities_batch([rec]), batch):
                assert np.array_equal(one, whole[i : i + 1], equal_nan=True)

    def test_path_norm_identity_per_record(self, ep_generic):
        rho0 = ground_state()
        records = TrajectorySampler(ep_generic, rho0, 1.2).ensemble(400, SeedPolicy(29), workers=1)
        pw = PathWeights(ep_generic, rho0, 1.2)
        damped, full = pw.path_norms_batch(records)
        assert np.all(np.abs(damped - full) <= 1e-9 * np.maximum(damped, full))

    def test_kl_estimate_matches_entropy_production(self, ep_generic):
        from qtur.counting import activity_at, sigma_from

        rho0 = ground_state()
        tau, n = 0.8, 8000
        records = TrajectorySampler(ep_generic, rho0, tau).ensemble(n, SeedPolicy(51), workers=2)
        pw = PathWeights(ep_generic, rho0, tau)
        entropies = pw.entropies(records)
        assert not np.isnan(entropies).any()
        _, flow, states = activity_at(ep_generic, rho0, [tau], coherent=False)
        target = sigma_from(rho0, states[0], flow[0])
        stderr = entropies.std(ddof=1) / np.sqrt(len(entropies))
        assert abs(entropies.mean() - target) <= 4 * stderr

    def test_kl_nonnegative(self, ep_generic):
        rho = steady_state(build_generator(ep_generic, coherent=True))
        records = TrajectorySampler(ep_generic, rho, 1.0).ensemble(3000, SeedPolicy(61), workers=1)
        pw = PathWeights(ep_generic, rho, 1.0)
        entropies = pw.entropies(records)
        stderr = entropies.std(ddof=1) / np.sqrt(len(entropies))
        assert entropies.mean() >= -3 * stderr

    def test_records_of_another_horizon_refused(self, ep_generic):
        # the endpoint spectra belong to the context's tau, not to the records'
        rho0 = ground_state()
        records = TrajectorySampler(ep_generic, rho0, 2.0).ensemble(50, SeedPolicy(3), workers=1)
        pw = PathWeights(ep_generic, rho0, 1.0)
        for price in (pw.entropies, pw.densities_batch, pw.path_norms_batch):
            with pytest.raises(ValueError, match="horizon 1.0"):
                price(records)

    def test_unpaired_channel_has_no_backward_density(self, da_generic):
        rho = steady_state(build_generator(da_generic, coherent=True))
        rec = TrajectoryRecord(((0.5, 0),), initial_label=0, final_label=0, horizon=1.0)
        with pytest.raises(ModelValidationError, match="channel 0 is unpaired"):
            PathWeights(da_generic, rho, 1.0).densities_batch([rec])

    def test_zero_probability_label_rejected(self, ep_generic):
        # q0 = (0.9, 0.1, 0): label 2 has zero weight at the start
        rho0 = np.diag([0.9, 0.1, 0.0]).astype(complex)
        pw = PathWeights(ep_generic, rho0, 1.0)
        rec = TrajectoryRecord((), initial_label=2, final_label=0, horizon=1.0)
        assert np.isnan(pw.entropies([rec])[0])
        assert np.isnan(pw.densities_batch([rec])[2][0])


def random_full_rank_state(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / rho.trace().real


class TestPricingProperties:
    """The pricing identities beyond the 3-level models: paired models at
    d = 4 to 8 in a random basis, from a full-rank state, on small
    ensembles."""

    @settings(max_examples=10)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(4, 8), tau=st.floats(0.2, 3.0))
    def test_path_norms_match_without_hamiltonian(self, seed, dim, tau):
        rng = np.random.default_rng(seed)
        model = random_detailed_balance_model(dim, rng)
        rho0 = random_full_rank_state(dim, rng)
        records = TrajectorySampler(model, rho0, tau).ensemble(40, SeedPolicy(seed), workers=1)
        damped, full = PathWeights(model, rho0, tau).path_norms_batch(records)
        assert np.all(np.abs(damped - full) <= 1e-9 * np.maximum(damped, full))

    @settings(max_examples=10)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(4, 8), tau=st.floats(0.2, 3.0))
    def test_backward_density_matches_closed_form(self, seed, dim, tau):
        rng = np.random.default_rng(seed)
        model = random_detailed_balance_model(dim, rng)
        rho0 = random_full_rank_state(dim, rng)
        records = TrajectorySampler(model, rho0, tau).ensemble(40, SeedPolicy(seed), workers=1)
        _, backward, predicted = PathWeights(model, rho0, tau).densities_batch(records)
        rel = np.abs(backward - predicted) / np.maximum(np.maximum(backward, predicted), 1e-300)
        assert np.all(rel < 1e-9)


class TestEstimate:
    def test_poisson_absolute_moment(self, poisson, scalar_one):
        tau, rate, n = 1.5, 0.7, 4000
        records = TrajectorySampler(poisson, scalar_one, tau).ensemble(n, SeedPolicy(2), 1)
        est = estimate(records, CountingObservable((1.0,)))  # a count: E|N| = E N
        assert abs(est.mean - rate * tau) <= 4 * est.stderr_mean

    def test_constant_zero_observable(self, da_generic):
        rho = steady_state(build_generator(da_generic, coherent=True))
        records = TrajectorySampler(da_generic, rho, 0.5).ensemble(100, SeedPolicy(8), workers=1)
        est = estimate(records, CountingObservable((0.0,) * 4))
        assert est.mean == 0.0 and est.variance == 0.0

    def test_needs_two_records(self, da_generic):
        rho = steady_state(build_generator(da_generic, coherent=True))
        rec = TrajectorySampler(da_generic, rho, 0.5).sample(1)
        with pytest.raises(ValueError):
            estimate([rec], CountingObservable((1.0,) * 4))
