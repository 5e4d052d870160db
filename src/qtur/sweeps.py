"""Random-sweep experiments, the correspondence test battery, CSV output.

Both sweeps draw model parameters uniformly from configured open
intervals, evaluate exact steady-state statistics, and score one bound
twice: once with the full thermodynamic cost and once with only its
diagonal (classical) part. The point of the exercise is that the full
cost never produces a violation while the diagonal-only cost does, which
is what the coherent contribution buys.

One range function serves both sweeps, with a table of what differs per
experiment. Over a range of RANGE draws it reads the parameters, builds and
checks the models, and takes the steady states and moments on H's
zero-frequency sector (:mod:`qtur.counting`'s reduced route: on a built-in
model, 5 real entries of rho, its populations and |e1><e2| coherences), each
as one stack; then each row gets its rate split, off rho_ss in the given
basis, and reports. Each cost is judged by the rule of every bound report
(:class:`~qtur.bounds.BoundReport`), so a mean that is rounding noise makes
a row not applicable (nan sides and slack, empty verdicts). A draw whose
sector, steady state or observable fails validation is a flagged row; a
model that fails to build aborts the sweep.

Sweeps are reproducible to the byte: draw k reads the PCG64 stream
seeded from (seed, k) through the same splitmix64 mixing the trajectory
sampler uses, read on arrays as the sampler reads its streams; ranges do
not depend on the worker count, rows come in draw order, and floats are
printed with 17 significant digits. A sweep of at least POOL_MIN draws is
split across worker processes by :mod:`qtur.trajectories`' ordered map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bounds import (
    CIC_MOMENTS_REL_TOL,
    CIC_NORMS_REL_TOL,
    CIC_SIGMA_TOL,
    DEGENERATE_REL_TOL,
    MC_SIGMAS,
    BoundReport,
    entropy_scale,
    ep_lower_bound,
    observable_scale,
)
from .counting import CountingObservable, activity_at, counting_moments, rate_split, sigma_from
from .counting import stacked_moments
from .engine import build_generator, steady_states
from .models import antisymmetric_current_weights, build_da_models, build_ep_models
from .models import default_observable
from .operators import LindbladModel, ModelValidationError
from .trajectories import (
    SeedPolicy,
    TrajectorySampler,
    _map_ranges,
    _Uniforms,
    _sample_ensembles,
    estimate,
    resolve_workers,
    splitmix64,
)

# Smallest sweep split across worker processes: the crossover measured on 2 cores (one
# BLAS thread each, a fresh process per sweep, as a CLI run makes; 4 alternating pairs per
# size and sweep): serial won 7 of 8 pairs at 2000 draws and 6 of 8 at 3000, pooled 8 of
# 8 at 4000 (ep 0.35 s against 0.51).
POOL_MIN = 4000
# Draws per range, one stack each, whatever the worker count. On a serial
# 1000-draw sweep, 64 took 8 % longer and 256 raised the peak RSS by 1.7 MB.
RANGE = 128


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

    def __post_init__(self):
        if self.experiment not in _EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.n_draws < 1:
            raise ValueError("n_draws must be at least 1")
        for lo, hi, what in (
            (self.gamma_low, self.gamma_high, "gamma"),
            (self.tau_low, self.tau_high, "tau"),
        ):
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise ValueError(f"{what} range [{lo}, {hi}] is not finite")
            if hi <= lo:
                raise ValueError(f"empty {what} range [{lo}, {hi}]")
            if lo < 0:
                raise ValueError(f"{what} range [{lo}, {hi}] reaches below 0")


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

    def not_applicable(self, which: str) -> int:
        """Unflagged rows whose mean is rounding noise: neither satisfied
        nor violated."""
        flags = zip(self.column(f"satisfied_{which}"), self.column("flagged"))
        return sum(1 for f, flagged in flags if f is None and not flagged)

    def summary(self) -> str:
        lines = [f"{self.experiment}: {len(self.rows)} rows, {self.n_flagged} flagged"]
        for which in ("full", "diag"):
            violated, skipped = self.violations(which), self.not_applicable(which)
            ok = len(self.rows) - violated - skipped - self.n_flagged
            line = f"  {which} cost: {ok} satisfied, {violated} violated"
            lines.append(line + (f", {skipped} not applicable" if skipped else ""))
        return "\n".join(lines)


def _kur_sides(mom, tau, a, a_d):
    """Var / E^2 against 1 / (a tau), with the full and the diagonal activity a."""
    lhs = mom.variance / mom.mean**2
    return (lhs, 1.0 / (a * tau)), (lhs, 1.0 / (a_d * tau))


def _ep_sides(mom, tau, sigma, s_d):
    """Sigma tau, full and diagonal, against the entropy lower bound of the current."""
    rhs = ep_lower_bound(mom.mean, mom.variance, gamma=1.0)
    return (sigma * tau, rhs), (s_d * tau, rhs)


@dataclass(frozen=True)
class _Experiment:
    """What one sweep draws, builds and judges; :func:`_draw_range` does
    the rest. ``build(omega_e, rates, first)`` gives the model of each
    rate row, naming row k draw ``first + k`` in errors.

    ``current``: the weights are drawn once per channel pair and
    antisymmetrized, else once per channel, uniformly from
    ``weight_range``: activity sweeps keep the mean count positive,
    current sweeps need sign freedom before antisymmetrization.
    ``cost_weights(model)`` weighs the channel rates into the cost (ones:
    activity; ds: entropy production). ``sides(mom, tau, full cost, diag
    cost)`` gives the (lhs, rhs) of each cost, which ``columns`` names.
    """

    header: tuple
    n_rates: int
    build: Callable
    current: bool
    weight_range: tuple
    cost_weights: Callable
    bound: str
    sides: Callable
    columns: tuple


def _header(n_rates: int, *middle: str) -> tuple:
    k = range(1, n_rates + 1)
    return (
        "draw_index", *(f"gamma_{i}" for i in k), "tau", *(f"c_{i}" for i in k), *middle,
        "slack_full", "slack_diag", "satisfied_full", "satisfied_diag", "flagged",
    )


_EXPERIMENTS = {
    "kur_sweep": _Experiment(
        header=_header(
            4, "mean", "variance", "activity_rate", "activity_rate_diag",
            "activity_rate_offdiag", "lhs", "rhs_full", "rhs_diag",
        ),
        n_rates=4,
        build=lambda *args: build_da_models(*args),  # resolved per call, as other calls here are
        current=False,
        weight_range=(0.0, 1.0),
        cost_weights=lambda model: np.ones(model.n_channels),
        bound="activity_rate_bound",
        sides=_kur_sides,
        columns=(("lhs", "rhs_full"), ("lhs", "rhs_diag")),
    ),
    "ep_sweep": _Experiment(
        header=_header(
            6, "mean_current", "variance_current", "sigma", "sigma_diag", "sigma_offdiag",
            "lhs_full", "lhs_diag", "rhs",
        ),
        n_rates=6,
        build=lambda *args: build_ep_models(*args),
        current=True,
        weight_range=(-1.0, 1.0),
        cost_weights=LindbladModel.entropy_weights,
        bound="entropy_production_bound",
        sides=_ep_sides,
        columns=(("lhs_full", "rhs"), ("lhs_diag", "rhs")),
    ),
}


def _parameters(config: SweepConfig, spec: _Experiment, lo: int, hi: int) -> tuple:
    """The gammas, taus and free weights of draws [lo, hi): what each draw's
    ``Generator(PCG64(seed))`` reads, in order, each a ``uniform`` lo + (hi - lo) u;
    a gamma vector that reaches gamma_low is read again whole, keeping its entries above it."""
    every = np.arange(hi - lo)
    uniforms = _Uniforms(SeedPolicy(config.seed).trajectory_seed(every.astype(np.uint64) + lo))

    def uniform(low, high, rows, n):
        return low + (high - low) * np.stack([uniforms.next(rows) for _ in range(n)], axis=-1)

    low, high = config.gamma_low, config.gamma_high
    g, redraw = np.full((hi - lo, spec.n_rates), -np.inf), every  # every row reads a first vector
    while redraw.size:
        g[redraw] = np.where(g[redraw] <= low, uniform(low, high, redraw, spec.n_rates), g[redraw])
        redraw = redraw[(g[redraw] <= low).any(axis=1)]
    tau = uniform(config.tau_low, config.tau_high, every, 1)[:, 0]
    n_free = spec.n_rates // 2 if spec.current else spec.n_rates
    return g, tau, uniform(*spec.weight_range, every, n_free)


def _draw_range(config: SweepConfig, lo: int, hi: int) -> list:
    """Rows [lo, hi) of the sweep: parameters, models, steady states and moments as stacks on
    H's zero-frequency sector, then per row the rate split and both costs judged by the bound
    reports' rule. A draw whose sector, steady state or observable fails is a flagged row."""
    spec = _EXPERIMENTS[config.experiment]
    g, taus, free = _parameters(config, spec, lo, hi)
    models = spec.build(config.omega_e, g, lo)
    zeros = [m.zero_sector() for m in models]
    gens = [build_generator(m, reduced=True) for m, z in zip(models, zeros) if not z.reason]
    states = iter(steady_states(gens, zeros[0].pairs, models[0].spectrum()[1]))
    rhos = [ModelValidationError(z.reason) if z.reason else next(states) for z in zeros]
    weights = [antisymmetric_current_weights(m, c) if spec.current else c
               for m, c in zip(models, free.tolist())]
    observables = [_observable(spec, *draw) for draw in zip(models, weights, rhos)]
    judged = [k for k, obs in enumerate(observables) if obs is not None]
    picked = ([x[k] for k in judged] for x in (models, rhos, weights))
    moments = dict(zip(judged, stacked_moments(*picked, taus[judged])))
    draws = zip(g.tolist(), taus.tolist(), weights, models, rhos, observables)
    return [_row(spec, lo + k, *draw, moments.get(k)) for k, draw in enumerate(draws)]


def _observable(spec: _Experiment, model: LindbladModel, c, rho):
    """A draw's observable, or None if flagged: ``rho`` an error, or no current."""
    if isinstance(rho, Exception):
        return None
    obs = CountingObservable(tuple(c), antisymmetric=spec.current)
    return obs if not spec.current or obs.is_current(model) else None


def _row(spec: _Experiment, index: int, g, tau: float, c, model, rho, obs, mom) -> tuple:
    """The row of one draw; ``obs`` and ``mom`` are None for a flagged draw."""
    base = [index, *g, tau, *c]
    if obs is None:
        return tuple(base + [np.nan] * 10 + [None, None, True])

    w = spec.cost_weights(model)
    rates = rate_split(model, rho)
    part_d, part_nd = (float(w @ r) for r in rates)
    total = part_d + part_nd
    scale = observable_scale(obs, float(sum(r.sum() for r in rates)) * tau)
    message = "mean vanishes; the bound is undefined"
    if skipped := BoundReport.not_applicable(spec.bound, abs(mom.mean), scale, {}, message):
        reports = (skipped, skipped)
    else:
        sides = spec.sides(mom, tau, total, part_d)
        reports = [BoundReport.judge(spec.bound, lhs, rhs, {}) for lhs, rhs in sides]
    cells = {"flagged": False}
    for which, (lhs, rhs), rep in zip(("full", "diag"), spec.columns, reports):
        cells.update({lhs: rep.lhs, rhs: rep.rhs, f"slack_{which}": rep.slack})
        cells[f"satisfied_{which}"] = rep.satisfied
    row = base + [mom.mean, mom.variance, total, part_d, part_nd]
    return tuple(row + [cells[name] for name in spec.header[len(row):]])


def run_sweep(config: SweepConfig) -> SweepResult:
    """Execute every draw, in parallel from POOL_MIN draws when workers
    allow; rows stay in draw order so the output is independent of
    scheduling."""
    workers = resolve_workers(config.workers) if config.n_draws >= POOL_MIN else 1
    rows = tuple(_map_ranges(_draw_range, config, config.n_draws, RANGE, workers))
    header = _EXPERIMENTS[config.experiment].header
    return SweepResult(config.experiment, header, rows, sum(1 for row in rows if row[-1]))


def format_cell(value) -> str:
    """One CSV cell: strings as they are, None empty, bools lowercase,
    integers exact and floats with 17 significant digits."""
    if value is None:
        return ""
    kind = type(value)  # exact types only: bool and numpy scalars take the chain below
    if kind is float:
        return f"{value:.17g}"
    if kind is int:
        return str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"  # nan prints as "nan" whatever its sign bit


def csv_lines(header, rows):
    """The CSV lines of ``rows`` under ``header``, every cell through :func:`format_cell`."""
    yield ",".join(header) + "\n"
    for row in rows:
        yield ",".join(map(format_cell, row)) + "\n"


def write_csv(result: SweepResult, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.writelines(csv_lines(result.header, result.rows))


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

    Checks: (a) exact moment equality with and without the Hamiltonian
    (means to rounding noise at the observable's scale),
    (b) per-record path-norm equality between the damped and full no-jump
    propagators, and — when the model carries entropy weights — (c) exact
    entropy-production equality, (d) the sampled per-record entropy mean
    against the exact value, (e) backward-process current statistics
    against the forward statistics of the following window. The forward
    and backward ensembles are sampled through one worker map.
    """
    rho0 = np.asarray(rho0, complex)
    checks = []
    obs = default_observable(model)

    activity, flow, (rho_tau, _) = activity_at(model, rho0, [tau, 2 * tau], coherent=False)
    with_h = counting_moments(model, rho0, obs, tau, coherent=True)
    without_h = counting_moments(model, rho0, obs, tau, coherent=False)
    dm = float(_rel_diff(with_h.mean, without_h.mean))
    dv = float(_rel_diff(with_h.variance, without_h.variance))
    # two means that differ by rounding noise at the observable's scale agree
    mean_noise = DEGENERATE_REL_TOL * observable_scale(obs, activity[0])
    checks.append(
        CheckResult(
            "exact_moments_match",
            (dm <= CIC_MOMENTS_REL_TOL or abs(with_h.mean - without_h.mean) <= mean_noise)
            and dv <= CIC_MOMENTS_REL_TOL,
            f"relative differences mean {dm:.2e}, variance {dv:.2e}",
            {"mean": with_h.mean, "variance": with_h.variance},
        )
    )

    # the forward sampler also prices its records
    forward = TrajectorySampler(model, rho0, tau)
    ensembles = [(forward, SeedPolicy(seed), budget)]
    if model.has_entropy_weights:
        backward = SeedPolicy(splitmix64(seed ^ 0xB2C3A4D5E6F70819))
        ensembles.append((TrajectorySampler(model, rho_tau, tau), backward, budget))
    records, *backward_records = _sample_ensembles(ensembles, workers)
    damped, full = forward.path_norms_batch(records)
    worst = float(np.max(_rel_diff(damped, full), initial=0.0))
    checks.append(
        CheckResult(
            "path_norm_identity",
            worst <= CIC_NORMS_REL_TOL,
            f"worst relative norm difference {worst:.2e} over {len(records)} records",
        )
    )

    if model.has_entropy_weights:
        _, flow_coherent, (rho_coherent,) = activity_at(model, rho0, [tau], coherent=True)
        sigma_coherent = sigma_from(rho0, rho_coherent, flow_coherent[0])
        sigma_incoherent = sigma_from(rho0, rho_tau, flow[0])
        diff = abs(sigma_coherent - sigma_incoherent)
        tol = CIC_SIGMA_TOL * max(1.0, abs(sigma_coherent))
        checks.append(
            CheckResult(
                "entropy_production_match",
                diff <= tol,
                f"with H {sigma_coherent:.12g}, without {sigma_incoherent:.12g}",
                {"sigma": sigma_coherent},
            )
        )

        est = estimate(records, obs, entropies=forward.entropies(records))
        gap = abs(est.entropy_mean - sigma_incoherent)
        # on an equilibrium model both sides are rounding noise of the terms
        # summing to Sigma; that noise must not decide the check
        noise = DEGENERATE_REL_TOL * entropy_scale(model, rho0, rho_tau, activity[0])
        checks.append(
            CheckResult(
                "kl_matches_entropy_production",
                bool(gap <= MC_SIGMAS * est.entropy_stderr + noise),  # not a numpy.bool_
                f"KL estimate {est.entropy_mean:.6g} ± {est.entropy_stderr:.2g} "
                f"vs exact {sigma_incoherent:.6g} ({est.n_discarded} records discarded)",
                {"kl": est.entropy_mean, "stderr": est.entropy_stderr},
            )
        )

        window_activity = activity[1] - activity[0]  # A(2 tau) - A(tau)
        checks.append(_backward_check(model, rho0, tau, obs, backward_records[0], window_activity))

    return CicReport(checks=tuple(checks))


def _backward_check(model, rho0, tau, obs, records, window_activity: float) -> CheckResult:
    """Sampled backward-process statistics against exact window statistics.

    The backward ``records`` run forward from the Hamiltonian-free state
    at tau, with each channel read through its reverse partner, which for
    an antisymmetric current flips the sign of every sampled value.
    """
    est = estimate(records, obs)
    # the partner reading negates every value, which negates the mean exactly
    mc_mean, mc_mean_err = -est.mean, est.stderr_mean
    mc_var, mc_var_err = est.variance, est.stderr_variance

    late = counting_moments(model, rho0, obs.with_window((tau, 2 * tau)), 2 * tau, False)
    # a target mean that is rounding noise at the window's scale is not judged
    scale = observable_scale(obs, window_activity)
    noise = abs(late.mean) <= DEGENERATE_REL_TOL * scale
    mean_ok = noise or abs(mc_mean - (-late.mean)) <= MC_SIGMAS * mc_mean_err
    var_ok = abs(mc_var - late.variance) <= MC_SIGMAS * mc_var_err
    unjudged = f" (rounding noise at scale {scale:.3g}, not judged)" if noise else ""
    return CheckResult(
        "backward_statistics_match",
        mean_ok and var_ok,
        f"mean {mc_mean:.6g} ± {mc_mean_err:.2g} vs {-late.mean:.6g}{unjudged}; "
        f"variance {mc_var:.6g} ± {mc_var_err:.2g} vs {late.variance:.6g}",
        {
            "backward_mean": mc_mean,
            "target_mean": -late.mean,
            "backward_variance": mc_var,
            "target_variance": late.variance,
        },
    )


def rerun_row_check(result: SweepResult, row_index: int) -> bool:
    """Re-judge both costs of a row from its own lhs and rhs columns by the
    rule its draw used (audit): True when the row's sides, slack and
    satisfied cells are the rule's, as the CSV prints them. A row whose
    satisfied cell is empty must be a skipped report (nan sides and
    slack); ep rows carry no activity, so the rounding-noise test itself
    is not redone."""
    row = dict(zip(result.header, result.rows[row_index]))
    if row["flagged"]:
        return True
    spec = _EXPERIMENTS[result.experiment]
    for which, (lhs, rhs) in zip(("full", "diag"), spec.columns):
        cells = (row[lhs], row[rhs], row[f"slack_{which}"], row[f"satisfied_{which}"])
        if cells[3] is None:
            rep = BoundReport.skipped(spec.bound, {}, {})
        else:
            rep = BoundReport.judge(spec.bound, cells[0], cells[1], {})
        expected = (rep.lhs, rep.rhs, rep.slack, rep.satisfied)
        if [format_cell(v) for v in cells] != [format_cell(v) for v in expected]:
            return False
    return True
