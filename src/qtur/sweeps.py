"""Random-sweep experiments, the correspondence test battery, CSV output.

Both sweeps draw model parameters uniformly from configured open
intervals, evaluate exact steady-state statistics, and score one bound
twice: once with the full thermodynamic cost and once with only its
diagonal (classical) part. The point of the exercise is that the full
cost never produces a violation while the diagonal-only cost does, which
is what the coherent contribution buys.

Sweeps are reproducible to the byte: draw k derives its own generator
from (seed, k) through the same splitmix64 mixing the trajectory sampler
uses, rows are emitted in draw order whatever the worker count, and
floats are printed with 17 significant digits.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field

import numpy as np

from .bounds import ep_lower_bound
from .counting import (
    CountingObservable,
    counting_moments,
    decompose_activity,
    decompose_sigma,
    entropy_production,
)
from .engine import DegenerateSteadyStateError, build_generator, propagate, steady_state
from .models import antisymmetric_current_weights, default_observable
from .operators import LindbladModel
from .trajectories import (
    PathWeights,
    SeedPolicy,
    ensemble_entropies,
    estimate,
    resolve_workers,
    sample_ensemble,
    splitmix64,
)

SLACK_TOL = 1e-9


@dataclass(frozen=True)
class SweepConfig:
    """Protocol of one random sweep.

    Rates and weights are drawn uniformly from the open intervals below;
    boundary hits are redrawn so rates stay strictly positive.
    """

    experiment: str
    n_draws: int = 1000
    seed: int = 0
    omega_e: float = 1.0
    gamma_low: float = 0.0
    gamma_high: float = 1.0
    tau_low: float = 0.1
    tau_high: float = 10.0
    workers: int | None = None

    EXPERIMENTS = ("kur_sweep", "ep_sweep")

    def __post_init__(self):
        if self.experiment not in self.EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.n_draws < 1:
            raise ValueError("n_draws must be at least 1")
        for lo, hi, what in (
            (self.gamma_low, self.gamma_high, "gamma"),
            (self.tau_low, self.tau_high, "tau"),
        ):
            if hi <= lo:
                raise ValueError(f"empty {what} range [{lo}, {hi}]")

    def weight_range(self) -> tuple[float, float]:
        # Activity sweeps keep the mean count positive; current sweeps
        # need sign freedom before antisymmetrization.
        return (0.0, 1.0) if self.experiment == "kur_sweep" else (-1.0, 1.0)


@dataclass(frozen=True)
class SweepResult:
    experiment: str
    header: tuple
    rows: tuple
    n_flagged: int

    def column(self, name: str):
        k = self.header.index(name)
        return [row[k] for row in self.rows]

    def violations(self, which: str) -> int:
        flags = self.column(f"satisfied_{which}")
        return sum(1 for f in flags if f is False)

    def summary(self) -> str:
        lines = [f"{self.experiment}: {len(self.rows)} rows, {self.n_flagged} flagged"]
        for which in ("full", "diag"):
            violated = self.violations(which)
            ok = len(self.rows) - violated - self.n_flagged
            lines.append(f"  {which} cost: {ok} satisfied, {violated} violated")
        return "\n".join(lines)


def _draw_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(SeedPolicy(seed).trajectory_seed(index)))


def _open_uniform(rng: np.random.Generator, lo: float, hi: float, n: int) -> np.ndarray:
    out = rng.uniform(lo, hi, n)
    while np.any(out <= lo):
        out = np.where(out <= lo, rng.uniform(lo, hi, n), out)
    return out


KUR_HEADER = (
    "draw_index",
    "gamma_1",
    "gamma_2",
    "gamma_3",
    "gamma_4",
    "tau",
    "c_1",
    "c_2",
    "c_3",
    "c_4",
    "mean",
    "variance",
    "activity_rate",
    "activity_rate_diag",
    "activity_rate_offdiag",
    "lhs",
    "rhs_full",
    "rhs_diag",
    "slack_full",
    "slack_diag",
    "satisfied_full",
    "satisfied_diag",
    "flagged",
)

EP_HEADER = (
    "draw_index",
    "gamma_1",
    "gamma_2",
    "gamma_3",
    "gamma_4",
    "gamma_5",
    "gamma_6",
    "tau",
    "c_1",
    "c_2",
    "c_3",
    "c_4",
    "c_5",
    "c_6",
    "mean_current",
    "variance_current",
    "sigma",
    "sigma_diag",
    "sigma_offdiag",
    "lhs_full",
    "lhs_diag",
    "rhs",
    "slack_full",
    "slack_diag",
    "satisfied_full",
    "satisfied_diag",
    "flagged",
)


def _kur_draw(config: SweepConfig, index: int):
    from .models import build_da_model

    rng = _draw_rng(config.seed, index)
    g = _open_uniform(rng, config.gamma_low, config.gamma_high, 4)
    tau = float(rng.uniform(config.tau_low, config.tau_high))
    c_lo, c_hi = config.weight_range()
    c = rng.uniform(c_lo, c_hi, 4)

    model = build_da_model(config.omega_e, *g)
    base = [index, *g, tau, *c]
    try:
        rho = steady_state(build_generator(model, coherent=True))
    except DegenerateSteadyStateError:
        return tuple(base + [np.nan] * 10 + [None, None, True])

    obs = CountingObservable(tuple(c))
    mom = counting_moments(model, rho, obs, tau)
    a_d, a_nd = decompose_activity(model, rho)
    a = a_d + a_nd
    lhs = mom.variance / mom.mean**2
    rhs_full = 1.0 / (a * tau)
    rhs_diag = 1.0 / (a_d * tau)
    slack_full = lhs - rhs_full
    slack_diag = lhs - rhs_diag
    return tuple(
        base
        + [
            mom.mean,
            mom.variance,
            a,
            a_d,
            a_nd,
            lhs,
            rhs_full,
            rhs_diag,
            slack_full,
            slack_diag,
            slack_full >= -SLACK_TOL,
            slack_diag >= -SLACK_TOL,
            False,
        ]
    )


def _ep_draw(config: SweepConfig, index: int):
    from .models import build_ep_model

    rng = _draw_rng(config.seed, index)
    g = _open_uniform(rng, config.gamma_low, config.gamma_high, 6)
    tau = float(rng.uniform(config.tau_low, config.tau_high))
    c_lo, c_hi = config.weight_range()
    free = rng.uniform(c_lo, c_hi, 3)

    model = build_ep_model(config.omega_e, *g)
    c = antisymmetric_current_weights(model, free)
    base = [index, *g, tau, *c]
    try:
        rho = steady_state(build_generator(model, coherent=True))
    except DegenerateSteadyStateError:
        return tuple(base + [np.nan] * 10 + [None, None, True])

    obs = CountingObservable(c, antisymmetric=True)
    obs.check_antisymmetry(model)
    mom = counting_moments(model, rho, obs, tau)
    s_d, s_nd = decompose_sigma(model, rho)
    sigma = s_d + s_nd
    lhs_full = sigma * tau
    lhs_diag = s_d * tau
    if mom.mean == 0.0:
        rhs = 0.0
    else:
        rhs = ep_lower_bound(mom.mean, mom.variance, gamma=1.0)
    slack_full = lhs_full - rhs
    slack_diag = lhs_diag - rhs
    return tuple(
        base
        + [
            mom.mean,
            mom.variance,
            sigma,
            s_d,
            s_nd,
            lhs_full,
            lhs_diag,
            rhs,
            slack_full,
            slack_diag,
            slack_full >= -SLACK_TOL,
            slack_diag >= -SLACK_TOL,
            False,
        ]
    )


_SWEEP_CONFIG: SweepConfig | None = None


def _init_sweep_worker(config: SweepConfig):
    global _SWEEP_CONFIG
    _SWEEP_CONFIG = config


def _sweep_chunk(args):
    lo, hi = args
    draw = _kur_draw if _SWEEP_CONFIG.experiment == "kur_sweep" else _ep_draw
    return [draw(_SWEEP_CONFIG, i) for i in range(lo, hi)]


def run_sweep(config: SweepConfig) -> SweepResult:
    """Execute every draw, in parallel when workers allow; rows stay in
    draw order so the output is independent of scheduling."""
    draw = _kur_draw if config.experiment == "kur_sweep" else _ep_draw
    header = KUR_HEADER if config.experiment == "kur_sweep" else EP_HEADER
    workers = resolve_workers(config.workers)
    n = config.n_draws
    if workers == 1 or n < 64:
        rows = [draw(config, i) for i in range(n)]
    else:
        chunk = max(16, (n + 4 * workers - 1) // (4 * workers))
        tasks = [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]
        with multiprocessing.Pool(
            workers, initializer=_init_sweep_worker, initargs=(config,)
        ) as pool:
            rows = [row for part in pool.map(_sweep_chunk, tasks) for row in part]
    flagged = sum(1 for row in rows if row[-1])
    return SweepResult(
        experiment=config.experiment, header=header, rows=tuple(rows), n_flagged=flagged
    )


def format_cell(value) -> str:
    """One CSV cell: strings as they are, None empty, bools lowercase,
    integers exact and floats with 17 significant digits."""
    if isinstance(value, str):
        return value
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"  # nan prints as "nan" whatever its sign bit


def csv_text(header, rows) -> str:
    """CSV text of ``rows`` under ``header``, every cell through :func:`format_cell`."""
    lines = [",".join(header)]
    lines += [",".join(format_cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def result_to_csv(result: SweepResult) -> str:
    return csv_text(result.header, result.rows)


def write_csv(result: SweepResult, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(result_to_csv(result))


# --- correspondence verification battery -----------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    values: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CicReport:
    checks: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            lines.append(f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.detail}")
        return "\n".join(lines)


def _rel_diff(a, b):
    """|a - b| / max(|a|, |b|), elementwise for arrays."""
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)


def run_cic_suite(
    model: LindbladModel,
    rho0: np.ndarray,
    tau: float,
    budget: int = 10_000,
    seed: int = 0,
    workers: int | None = None,
) -> CicReport:
    """Verify that monitored-jump statistics do not depend on the Hamiltonian.

    Checks: (a) exact moment equality with and without the Hamiltonian,
    (b) per-record path-norm equality between the damped and full no-jump
    propagators, and — when the model carries entropy weights — (c) exact
    entropy-production equality, (d) the sampled per-record entropy mean
    against the exact value, (e) backward-process current statistics
    against the forward statistics of the following window.
    """
    rho0 = np.asarray(rho0, complex)
    checks = []
    obs = default_observable(model)

    with_h = counting_moments(model, rho0, obs, tau, coherent=True)
    without_h = counting_moments(model, rho0, obs, tau, coherent=False)
    dm = float(_rel_diff(with_h.mean, without_h.mean))
    dv = float(_rel_diff(with_h.variance, without_h.variance))
    checks.append(
        CheckResult(
            "exact_moments_match",
            dm <= 1e-8 and dv <= 1e-8,
            f"relative differences mean {dm:.2e}, variance {dv:.2e}",
            {"mean": with_h.mean, "variance": with_h.variance},
        )
    )

    policy = SeedPolicy(seed)
    records = sample_ensemble(model, rho0, tau, budget, policy, workers=workers)
    pw = PathWeights(model, rho0, tau)
    damped, full = pw.path_norms_batch(records)
    worst = float(np.max(_rel_diff(damped, full), initial=0.0))
    checks.append(
        CheckResult(
            "path_norm_identity",
            worst <= 1e-9,
            f"worst relative norm difference {worst:.2e} over {len(records)} records",
        )
    )

    if model.has_entropy_weights:
        sigma_coherent = entropy_production(model, rho0, tau, coherent=True)
        sigma_incoherent = entropy_production(model, rho0, tau, coherent=False)
        diff = abs(sigma_coherent - sigma_incoherent)
        tol = 1e-9 * max(1.0, abs(sigma_coherent))
        checks.append(
            CheckResult(
                "entropy_production_match",
                diff <= tol,
                f"with H {sigma_coherent:.12g}, without {sigma_incoherent:.12g}",
                {"sigma": sigma_coherent},
            )
        )

        entropies, discarded = ensemble_entropies(pw, records)
        est = estimate(records, obs, entropies=entropies, n_discarded=discarded)
        gap = abs(est.entropy_mean - sigma_incoherent)
        checks.append(
            CheckResult(
                "kl_matches_entropy_production",
                gap <= 4.0 * est.entropy_stderr,
                f"KL estimate {est.entropy_mean:.6g} ± {est.entropy_stderr:.2g} "
                f"vs exact {sigma_incoherent:.6g} ({discarded} records discarded)",
                {"kl": est.entropy_mean, "stderr": est.entropy_stderr},
            )
        )

        checks.append(_backward_check(model, rho0, tau, obs, budget, seed, workers))

    return CicReport(checks=tuple(checks))


def _backward_check(model, rho0, tau, obs, budget, seed, workers) -> CheckResult:
    """Sampled backward-process statistics against exact window statistics.

    Backward sampling runs forward from the Hamiltonian-free state at tau
    with each channel read through its reverse partner, which for an
    antisymmetric current flips the sign of every sampled value.
    """
    gen0 = build_generator(model, coherent=False)
    rho_tau = propagate(gen0, rho0, tau)
    policy = SeedPolicy(splitmix64(seed ^ 0xB2C3A4D5E6F70819))
    records = sample_ensemble(model, rho_tau, tau, budget, policy, workers=workers)
    est = estimate(records, obs)
    # the partner reading negates every value, which negates the mean exactly
    mc_mean, mc_mean_err = -est.mean, est.stderr_mean
    mc_var, mc_var_err = est.variance, est.stderr_variance

    late = counting_moments(model, rho0, obs.with_window((tau, 2 * tau)), 2 * tau, False)
    mean_ok = abs(mc_mean - (-late.mean)) <= 4.0 * mc_mean_err
    var_ok = abs(mc_var - late.variance) <= 4.0 * max(mc_var_err, 1e-300)
    return CheckResult(
        "backward_statistics_match",
        mean_ok and var_ok,
        f"mean {mc_mean:.6g} ± {mc_mean_err:.2g} vs {-late.mean:.6g}; "
        f"variance {mc_var:.6g} ± {mc_var_err:.2g} vs {late.variance:.6g}",
        {
            "backward_mean": mc_mean,
            "target_mean": -late.mean,
            "backward_variance": mc_var,
            "target_variance": late.variance,
        },
    )


def rerun_row_check(result: SweepResult, row_index: int) -> bool:
    """Recompute a row's satisfied flags from its own columns (audit)."""
    row = dict(zip(result.header, result.rows[row_index]))
    if row["flagged"]:
        return True
    if result.experiment == "kur_sweep":
        ok_full = (row["lhs"] - row["rhs_full"]) >= -SLACK_TOL
        ok_diag = (row["lhs"] - row["rhs_diag"]) >= -SLACK_TOL
    else:
        ok_full = (row["lhs_full"] - row["rhs"]) >= -SLACK_TOL
        ok_diag = (row["lhs_diag"] - row["rhs"]) >= -SLACK_TOL
    return ok_full == row["satisfied_full"] and ok_diag == row["satisfied_diag"]
