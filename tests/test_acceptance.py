"""Acceptance suite: one test per release criterion.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
live) and asserts the criterion at its stated tolerance. Statistical
criteria use four standard errors; exact criteria use the listed
absolute/relative tolerances. Runtime limits are asserted where the
criterion states one.
"""

import math
import time

import numpy as np

from qtur.bounds import csch_squared_bound, inverse_x_tanh_x, kur_differential
from qtur.counting import (
    CountingObservable,
    activity_at,
    counting_moments,
    entropy_production_rate,
    mean_rate,
)
from qtur.engine import build_generator, propagate, steady_state, survival_probability
from qtur.models import build_da_model, build_ep_model, build_poisson_model
from qtur.sweeps import SweepConfig, csv_lines, run_sweep
from qtur.trajectories import (
    PathWeights,
    SeedPolicy,
    TrajectorySampler,
    estimate,
    record_observable,
)
from conftest import ground_state, open_uniform, random_pure_state


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_01_analytic_steady_state():
    start = time.monotonic()
    model = build_da_model(1.0, 0.5, 0.5, 0.5, 0.5)
    rho = steady_state(build_generator(model, coherent=True))
    target = np.zeros((3, 3), dtype=complex)
    target[0, 0] = 0.6
    target[1, 1] = target[2, 2] = target[1, 2] = target[2, 1] = 0.2
    err = np.abs(rho - target).max()
    elapsed = time.monotonic() - start
    report(
        "1 analytic steady state",
        err <= 1e-10 and elapsed < 1.0,
        f"max entry error {err:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_cic_exact_moments():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        model = build_da_model(1.0, *open_uniform(rng, 4))
        rho0 = (
            steady_state(build_generator(model, coherent=True))
            if rng.random() < 0.5
            else random_pure_state(3, rng)
        )
        obs = CountingObservable(tuple(rng.uniform(0.0, 1.0, 4)))
        tau = float(rng.uniform(0.1, 10.0))
        a = counting_moments(model, rho0, obs, tau, coherent=True)
        b = counting_moments(model, rho0, obs, tau, coherent=False)
        worst = max(
            worst,
            abs(a.mean - b.mean) / max(abs(a.mean), 1e-300),
            abs(a.variance - b.variance) / max(abs(a.variance), 1e-300),
        )
    elapsed = time.monotonic() - start
    report(
        "2 exact moment correspondence over 100 random models",
        worst <= 1e-8 and elapsed < 60.0,
        f"worst relative difference {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_03_kur_sweep_1000():
    start = time.monotonic()
    result = run_sweep(SweepConfig("kur_sweep", n_draws=1000, seed=20240, workers=2))
    elapsed = time.monotonic() - start
    full, diag = result.violations("full"), result.violations("diag")
    report(
        "3 activity sweep (1000 draws)",
        full == 0 and diag >= 1 and result.n_flagged == 0 and elapsed < 120.0,
        f"full-cost violations {full}, diagonal-cost violations {diag}, {elapsed:.1f}s",
    )


def test_criterion_04_ep_sweep_1000():
    start = time.monotonic()
    result = run_sweep(SweepConfig("ep_sweep", n_draws=1000, seed=20241, workers=2))
    elapsed = time.monotonic() - start
    full, diag = result.violations("full"), result.violations("diag")
    report(
        "4 entropy sweep (1000 draws)",
        full == 0 and diag >= 1 and elapsed < 300.0,
        f"full-cost violations {full}, diagonal-cost violations {diag}, {elapsed:.1f}s",
    )


def test_criterion_05_poisson_saturation():
    model = build_poisson_model(0.7)
    one = np.eye(1, dtype=complex)
    obs = CountingObservable((1.0,))
    worst = 0.0
    for tau in (0.1, 1.0, 10.0):
        mom = counting_moments(model, one, obs, tau)
        activity = activity_at(model, one, [tau])[0][0]
        rep = kur_differential(model, one, obs, tau, activity, mom)
        worst = max(worst, abs(rep.lhs * activity - 1.0))
    report(
        "5 rate-form bound saturation on the Poisson fixture",
        worst <= 1e-9,
        f"worst |lhs * activity - 1| = {worst:.2e}",
    )


def test_criterion_06_monte_carlo_oracle():
    model = build_da_model(1.0, 0.5, 0.5, 0.5, 0.5)
    rho = steady_state(build_generator(model, coherent=True))
    tau, n = 1.0, 10_000
    obs = CountingObservable.total_count(4)
    records = TrajectorySampler(model, rho, tau).ensemble(n, SeedPolicy(606), workers=2)
    est = estimate(records, obs)
    exact = counting_moments(model, rho, obs, tau)
    mean_gap = abs(est.mean - exact.mean)
    var_gap = abs(est.variance - exact.variance)

    frac = float(np.mean([r.n_jumps == 0 for r in records]))
    target = survival_probability(model, rho, tau)
    frac_err = math.sqrt(target * (1 - target) / n)
    report(
        "6 Monte Carlo reproduces the exact hierarchy",
        mean_gap <= 4 * est.stderr_mean
        and var_gap <= 4 * est.stderr_variance
        and abs(frac - target) <= 4 * frac_err,
        f"mean gap {mean_gap:.4f} (4se {4*est.stderr_mean:.4f}), "
        f"variance gap {var_gap:.4f} (4se {4*est.stderr_variance:.4f}), "
        f"no-jump fraction {frac:.4f} vs {target:.4f} (4se {4*frac_err:.4f})",
    )


def test_criterion_07_entropy_equals_kl():
    model = build_ep_model(1.0, 0.7, 0.3, 0.5, 0.4, 0.6, 0.2)
    rho = steady_state(build_generator(model, coherent=True))
    tau, n = 1.0, 100_000
    records = TrajectorySampler(model, rho, tau).ensemble(n, SeedPolicy(707), workers=2)
    pw = PathWeights(model, rho, tau)

    _, backward, predicted = pw.densities_batch(records)
    worst_ratio = float(
        np.max(
            np.abs(backward - predicted) / np.maximum(np.maximum(backward, predicted), 1e-300),
            initial=0.0,
        )
    )

    entropies = pw.entropies(records)
    discarded = int(np.isnan(entropies).sum())
    entropies = entropies[~np.isnan(entropies)]
    kl = float(entropies.mean())
    stderr = float(entropies.std(ddof=1) / math.sqrt(len(entropies)))
    target = entropy_production_rate(model, rho) * tau
    report(
        "7 per-record reversal identity and KL = entropy production",
        worst_ratio <= 1e-9 and abs(kl - target) <= 4 * stderr and discarded == 0,
        f"worst identity error {worst_ratio:.2e}; KL {kl:.5f} ± {stderr:.5f} "
        f"vs exact {target:.5f} ({discarded} discarded)",
    )


def test_criterion_08_backward_statistics():
    model = build_ep_model(1.0, 0.7, 0.3, 0.5, 0.4, 0.6, 0.2)
    rho = steady_state(build_generator(model, coherent=True))
    tau, n = 1.0, 30_000
    obs = CountingObservable((1.0, -1.0, 1.0, -1.0, 1.0, -1.0), antisymmetric=True)
    obs.check_antisymmetry(model)

    # backward process: forward sampling from the horizon state with every
    # channel read through its reverse partner (sign flip for a current)
    gen0 = build_generator(model, coherent=False)
    rho_tau = propagate(gen0, rho, tau)
    records = TrajectorySampler(model, rho_tau, tau).ensemble(n, SeedPolicy(808), workers=2)
    values = -np.array([record_observable(r, obs) for r in records])
    mc_mean = float(values.mean())
    mean_se = float(values.std(ddof=1) / math.sqrt(n))
    mc_var = float(values.var(ddof=1))
    centered = values - mc_mean
    var_se = float(
        math.sqrt(max(np.mean(centered**4) - mc_var**2 * (n - 3) / (n - 1), 0.0) / n)
    )

    late = counting_moments(model, rho, obs.with_window((tau, 2 * tau)), 2 * tau)
    mean_gap = abs(mc_mean - (-late.mean))
    var_gap = abs(mc_var - late.variance)
    report(
        "8 backward-process current statistics",
        mean_gap <= 4 * mean_se and var_gap <= 4 * var_se,
        f"mean {mc_mean:.5f} vs {-late.mean:.5f} (4se {4*mean_se:.5f}); "
        f"variance {mc_var:.5f} vs {late.variance:.5f} (4se {4*var_se:.5f})",
    )


def test_criterion_09_special_functions():
    worst_h = 0.0
    for y in np.logspace(-6, 3, 31):
        h = inverse_x_tanh_x(float(y))
        worst_h = max(worst_h, abs(h * math.tanh(h) - y) / max(1.0, y))

    worst_identity = max(
        abs(math.atanh(1 / math.sqrt(r + 1)) - math.asinh(1 / math.sqrt(r)))
        for r in (0.1, 1.0, 10.0)
    )

    chain_ok = all(
        csch_squared_bound(float(s)) >= 2.0 / math.expm1(float(s)) - 1e-12
        for s in np.linspace(1e-3, 20.0, 400)
    )
    report(
        "9 special functions",
        worst_h <= 1e-12 and worst_identity <= 1e-12 and chain_ok,
        f"h residual {worst_h:.2e}, identity error {worst_identity:.2e}, "
        f"bound chain holds: {chain_ok}",
    )


def test_criterion_10_survival_bound():
    rng = np.random.default_rng(1010)
    worst_slack = math.inf
    for k in range(100):
        if k % 2 == 0:
            model = build_da_model(1.0, *open_uniform(rng, 4))
        else:
            model = build_ep_model(1.0, *open_uniform(rng, 6))
        rho0 = random_pure_state(3, rng) if k % 3 else np.eye(3, dtype=complex) / 3
        a0_obs = CountingObservable.total_count(model.n_channels)
        a0 = mean_rate(model, rho0, a0_obs)
        for tau in np.logspace(-2, 1, 7):
            slack = survival_probability(model, rho0, float(tau)) - math.exp(-a0 * tau)
            worst_slack = min(worst_slack, slack)

    model = build_da_model(1.0, 0.8, 0.35, 0.6, 0.15)
    eq_err = max(
        abs(
            survival_probability(model, ground_state(), float(t))
            - math.exp(-2 * 0.35 * t)
        )
        for t in np.logspace(-2, 1, 7)
    )
    report(
        "10 no-jump survival bound",
        worst_slack >= -1e-9 and eq_err <= 1e-9,
        f"worst slack {worst_slack:.2e} over 100 models x 7 horizons; "
        f"ground-state equality error {eq_err:.2e}",
    )


def test_criterion_11_sweep_determinism():
    csv_texts = []
    for workers in (1, 2):
        for _ in range(2):
            result = run_sweep(
                SweepConfig("ep_sweep", n_draws=100, seed=111, workers=workers)
            )
            csv_texts.append("".join(csv_lines(result.header, result.rows)))
    identical = all(text == csv_texts[0] for text in csv_texts)
    report(
        "11 byte-identical sweeps across reruns and worker counts",
        identical,
        f"{len(csv_texts)} runs compared, identical: {identical}",
    )
