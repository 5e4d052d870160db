"""Uncertainty-relation evaluators and the special functions they need.

Every evaluator returns a :class:`BoundReport` carrying both sides, its
tolerance, the inputs with their provenance, and whether the stated
precondition held; the slack and the verdict follow from these. The
inequalities themselves are exact, so a bound fed by exact statistics is
"satisfied" only within a slack of 1e-9 times the larger of 1 and its
two sides, the size of their rounding. An evaluator states the partial
derivative of its lhs in each input, and inputs with a standard error
(Monte Carlo ones) widen the tolerance to ``MC_SIGMAS``, four, standard
errors of the lhs, propagated to first order, so noise cannot
manufacture violations; every sampled comparison in qtur allows the same
four, for the false-FAIL rate given at the constant. A failed
precondition marks the report not applicable (``satisfied is None``)
rather than violated; so does a mean that is rounding noise,
|mean| <= DEGENERATE_REL_TOL max|w| A(tau), for which the ratio of
variance to squared mean is undefined. The entropy-production bound also
needs a current and an entropy production above the rounding noise of
the terms it sums; otherwise its report says why it does not apply.
That rule lives on :class:`BoundReport` itself (``judge``, ``skipped``,
``not_applicable``), and the random sweeps judge their rows with it too.

Bound inventory:

* windowed activity bound: squared coefficient-of-variation combination
  against cot^2 of the half angle integral of sqrt(A(t))/t (Gauss-Legendre
  in u = sqrt(t) on exact A, two orders agreeing to ``HALF_ANGLE_TOL``),
* rate-form bound: Var / (tau d_tau E)^2 against 1 / A(tau) (which the
  Poisson fixture saturates),
* entropy-production bound csch^2(h(Sigma/2)) and its weaker companion
  2/(e^Sigma - 1), plus the inverted form that lower-bounds Sigma from
  current statistics alone,
* the no-jump survival bound exp(-a(0) tau).

h(y) here is the inverse of x tanh(x), computed by safeguarded Newton on
the bracket [y, y+1]. :func:`battery` is what ``qtur bounds`` prints: the
rate-form, windowed, survival and entropy-production reports of one
observable, fed by exact statistics from ``qtur.counting``'s reduced route
(H's zero-frequency sector) or, where that does not hold, the Liouville one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .counting import (
    CountingObservable,
    MomentResult,
    _half_windows,
    activity_at,
    counting_moments,
    mean_rate,
    sigma_from,
)
from .engine import survival_probability
from .operators import LindbladModel, von_neumann_trace_term

EXACT_TOL = 1e-9
# Every comparison of a sampled statistic allows MC_SIGMAS standard errors:
# BoundReport.judge's Monte Carlo widening and verify-cic's KL and backward
# checks. The two-sided false-FAIL rate is 6.3e-5 per comparison, against
# 2.7e-3 at 3 sigma; with three such comparisons per verify-cic run, two
# dozen runs would print a FAIL one time in six at 3 sigma, one in 220 here.
MC_SIGMAS = 4.0
# verify-cic's exact comparisons, of one quantity with and without H: the
# moments relative; the path norms relative, as they span many decades;
# the entropy production to CIC_SIGMA_TOL max(1, |Sigma|), absolute below
# 1 as Sigma vanishes at equilibrium.
CIC_MOMENTS_REL_TOL = 1e-8
CIC_NORMS_REL_TOL = 1e-9
CIC_SIGMA_TOL = 1e-9
DEGENERATE_REL_TOL = 1e-10
# The half angle's rules: HALF_ANGLE_NODES nodes against twice as many,
# doubled until they agree to HALF_ANGLE_TOL (relative above an angle of 1).
HALF_ANGLE_NODES = 8
HALF_ANGLE_MAX_NODES = 256
HALF_ANGLE_TOL = 1e-12


@dataclass(frozen=True)
class InputStat:
    """One statistic feeding a bound: Monte Carlo when it carries a
    standard error, else exact."""

    value: float
    stderr: float | None = None

    @property
    def source(self) -> str:
        return "exact" if self.stderr is None else "monte_carlo"


@dataclass(frozen=True)
class BoundReport:
    """Evaluated inequality lhs >= rhs.

    The verdict follows from the sides: ``satisfied`` is None when the
    precondition failed (the bound does not apply), otherwise slack >= -tol
    decides it. ``extra`` holds chained right-hand sides and companion
    values. Build reports through the classmethods, which hold the one
    tolerance rule.
    """

    name: str
    lhs: float
    rhs: float
    tol: float
    precondition_ok: bool = True
    inputs: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    @property
    def slack(self) -> float:
        return self.lhs - self.rhs

    @property
    def satisfied(self) -> bool | None:
        return None if not self.precondition_ok else self.slack >= -self.tol

    @classmethod
    def judge(cls, name, lhs, rhs, inputs, extra=None, partials=None, precondition_ok=True):
        """The report of lhs >= rhs at tol EXACT_TOL max(1, |lhs|, |rhs|)
        (finite sides only), widened to MC_SIGMAS sqrt(sum (d lhs/d x *
        se_x)^2) over the inputs x with a nonzero standard error se_x;
        ``partials`` maps each key x to d lhs/d x."""
        stderrs = {key: inputs[key].stderr for key in partials or ()}
        var_lhs = sum((partials[key] * se) ** 2 for key, se in stderrs.items() if se)
        size = max([1.0] + [abs(side) for side in (lhs, rhs) if math.isfinite(side)])
        tol = max(EXACT_TOL * size, MC_SIGMAS * math.sqrt(var_lhs))
        return cls(name, float(lhs), float(rhs), float(tol), precondition_ok, inputs, extra or {})

    @classmethod
    def skipped(cls, name, inputs, extra) -> "BoundReport":
        """The report of a bound that does not apply: neither side evaluated."""
        return cls.judge(name, math.nan, math.nan, inputs, extra, precondition_ok=False)

    @classmethod
    def not_applicable(cls, name, value, scale, inputs, message) -> "BoundReport | None":
        """The report of a bound whose mean ``value`` is rounding noise at the
        observable's ``scale``, else None. A zero scale (all weights zero, or
        no jumps) leaves nothing to compare against: a nonpositive value then
        raises ``message``."""
        if value > DEGENERATE_REL_TOL * scale:
            return None
        if scale == 0.0:
            raise ValueError(message)
        return cls.skipped(name, inputs, {"scale": scale})

    def to_json(self) -> dict:
        keys = ("name", "lhs", "rhs", "slack", "satisfied", "tol", "precondition_ok")
        inputs = {k: {"value": v.value, "source": v.source, "stderr": v.stderr}
                  for k, v in self.inputs.items()}
        return {k: getattr(self, k) for k in keys} | {"inputs": inputs, "extra": dict(self.extra)}

    def to_csv_row(self) -> dict:
        """:meth:`to_json` flattened: an input's value under ``input_<key>``,
        its source and, where it has one, its standard error under suffixed
        keys, and each extra under ``extra_<key>``."""
        row = self.to_json()
        for key, stat in row.pop("inputs").items():
            row[f"input_{key}"] = stat.pop("value")
            row.update({f"input_{key}_{k}": v for k, v in stat.items() if v is not None})
        row.update({f"extra_{key}": value for key, value in row.pop("extra").items()})
        return row

    def __str__(self) -> str:
        return json.dumps(self.to_json())


def observable_scale(obs: CountingObservable, activity: float) -> float:
    """max_m |w_m| A(tau): the size of the largest mean the observable can reach."""
    return max((abs(w) for w in obs.weights), default=0.0) * activity


def entropy_scale(
    model: LindbladModel, rho0: np.ndarray, rho_tau: np.ndarray, activity: float
) -> float:
    """|Tr rho0 ln rho0| + |Tr rho_tau ln rho_tau| + max_m |ds_m| A(tau): the
    size of the terms whose sum is Sigma(tau)."""
    flow = observable_scale(CountingObservable(model.entropy_weights()), activity)
    return abs(von_neumann_trace_term(rho0)) + abs(von_neumann_trace_term(rho_tau)) + flow


def inverse_x_tanh_x(y: float) -> float:
    """The h with h tanh(h) = y, for y >= 0; residual <= 1e-12 max(1, y).

    Newton iteration safeguarded by the bracket [y, y+1], which always
    holds the root: with z = y + 1, z tanh z - y > 0 because 2z < e^{2z} + 1.
    """
    if y < 0:
        raise ValueError(f"argument must be nonnegative, got {y}")
    if y == 0.0:
        return 0.0

    def f(h):
        return h * math.tanh(h) - y

    lo, hi = y, y + 1.0
    h = min(max(math.sqrt(y), lo), hi)
    for _ in range(100):
        val = f(h)
        if val > 0:
            hi = h
        else:
            lo = h
        deriv = math.tanh(h) + h / math.cosh(h) ** 2 if h < 350 else 1.0
        step = val / deriv if deriv > 0 else 0.0
        nxt = h - step
        if not (lo <= nxt <= hi):
            nxt = 0.5 * (lo + hi)
        if abs(val) <= 1e-15 * max(1.0, y) or nxt == h:
            h = nxt
            break
        h = nxt
    if abs(f(h)) > 1e-12 * max(1.0, y):
        raise RuntimeError(f"inverse of x tanh x failed to converge at y={y}")
    return h


@lru_cache(maxsize=None)
def _legendre(n: int) -> tuple:
    """Gauss-Legendre nodes and weights of order n, computed once."""
    return np.polynomial.legendre.leggauss(n)


def _horizon(model, rho0, t1: float, t2: float, coherent: bool) -> tuple:
    """The half angle over [t1, t2], A(t2) and the entropy flow at t2 (None
    without ds), from one reduced :func:`activity_at` pass per pair of rules.

    With t = u^2 the angle is the integral of sqrt(A(u^2))/u over
    [sqrt t1, sqrt t2], smooth even at u = 0 since A grows like a power of
    t, so Gauss-Legendre converges fast."""
    if t1 < 0:
        raise ValueError("window start must be nonnegative")
    if t2 <= t1:
        activity, flow, _ = activity_at(model, rho0, [t2], coherent, reduced=True)
        return 0.0, activity[0], flow if flow is None else flow[0]
    lo, hi = math.sqrt(t1), math.sqrt(t2)
    n = HALF_ANGLE_NODES
    while 2 * n <= HALF_ANGLE_MAX_NODES:
        (x1, w1), (x2, w2) = _legendre(n), _legendre(2 * n)
        u = 0.5 * (hi - lo) * np.concatenate([x1, x2]) + 0.5 * (hi + lo)
        activity, flow, _ = activity_at(model, rho0, np.append(u * u, t2), coherent, reduced=True)
        w = 0.5 * (hi - lo) * np.concatenate([w1, w2])
        terms = w * np.sqrt(np.maximum(activity[:-1], 0.0)) / u
        coarse, fine = terms[:n].sum(), terms[n:].sum()
        if abs(fine - coarse) <= HALF_ANGLE_TOL * max(1.0, abs(fine)):
            return float(fine), activity[-1], flow if flow is None else flow[-1]
        n *= 2
    raise ValueError(f"half angle over [{t1}, {t2}]: rules disagree up to {n} nodes")


def half_angle_integral(model, rho0, t1: float, t2: float, coherent: bool = True) -> float:
    """(1/2) integral of sqrt(A(t))/t over [t1, t2] from ``rho0`` (0 on an
    empty window), to about ``HALF_ANGLE_TOL``; see :func:`_horizon`."""
    return _horizon(model, rho0, t1, t2, coherent)[0]


def _stat(m, field: str) -> InputStat:
    """``m.mean`` or ``m.variance`` (``field``): Monte Carlo when ``m``
    carries its standard error (an ``EnsembleEstimate``), else exact."""
    return InputStat(getattr(m, field), getattr(m, f"stderr_{field}", None))


def tur_activity_integral(
    moments_1: MomentResult,
    moments_2: MomentResult,
    angle: float,
    scale: float,
) -> BoundReport:
    """Windowed activity bound between two horizons t1 < t2.

    lhs = ((sqrt Var_2 + sqrt Var_1) / (E_2 - E_1))^2, rhs = cot^2 of the
    half ``angle`` over [t1, t2] (:func:`half_angle_integral`); applies
    only while that angle stays below pi/2
    and |E_2 - E_1| exceeds rounding noise at ``scale``
    (:func:`observable_scale`). Both sides are even in the weights, so a
    falling mean is certified like the rising mean of the negated weights.
    A moment may be a Monte Carlo ``EnsembleEstimate``: its standard
    errors widen the tolerance.
    """
    inputs = {
        "mean_1": _stat(moments_1, "mean"),
        "mean_2": _stat(moments_2, "mean"),
        "variance_1": _stat(moments_1, "variance"),
        "variance_2": _stat(moments_2, "variance"),
        "half_angle": InputStat(angle),
    }
    name = "activity_window_bound"
    de = moments_2.mean - moments_1.mean
    message = "mean does not change between the two horizons"
    if skipped := BoundReport.not_applicable(name, abs(de), scale, inputs, message):
        return skipped
    s1 = math.sqrt(max(moments_1.variance, 0.0))
    s2 = math.sqrt(max(moments_2.variance, 0.0))
    lhs = ((s1 + s2) / de) ** 2
    pre = angle <= math.pi / 2 + 1e-12
    tangent = math.tan(angle)
    rhs = tangent**-2 if tangent != 0.0 else math.inf
    # d lhs / d Var_i is infinite at Var_i = 0, where that term is left out
    partials = {"mean_1": 2 * lhs / de, "mean_2": -2 * lhs / de} | {
        f"variance_{i}": lhs / (s * (s1 + s2)) for i, s in ((1, s1), (2, s2)) if s > 0
    }
    return BoundReport.judge(name, lhs, rhs, inputs, {"half_angle": angle}, partials, pre)


def kur_differential(
    model: LindbladModel,
    rho_tau: np.ndarray,
    obs: CountingObservable,
    tau: float,
    activity_total: float,
    moments: MomentResult,
) -> BoundReport:
    """Rate-form bound Var / (tau d_tau E)^2 >= 1 / A(tau).

    The mean growth rate is evaluated exactly from the state at tau; at
    stationarity this is the relative-variance form with A = a tau. The
    bound does not apply when tau d_tau E is rounding noise at the
    observable's scale max|w| A(tau). ``moments`` may be Monte Carlo.
    """
    dmean = mean_rate(model, rho_tau, obs)
    scale = observable_scale(obs, activity_total)
    inputs = {
        "variance": _stat(moments, "variance"),
        "mean_growth_rate": InputStat(dmean),
        "activity": InputStat(activity_total),
    }
    name = "activity_rate_bound"
    message = "mean growth rate vanishes; the bound is undefined"
    if skipped := BoundReport.not_applicable(name, abs(tau * dmean), scale, inputs, message):
        return skipped
    lhs = moments.variance / (tau * dmean) ** 2
    rhs = 1.0 / activity_total
    return BoundReport.judge(name, lhs, rhs, inputs, partials={"variance": 1 / (tau * dmean) ** 2})


def gamma_factor(var_first_half: float, var_second_half: float, var_total: float) -> float:
    """Windowed-variance factor 4 max(half variances) / total variance."""
    if var_total <= 0:
        raise ValueError("total variance must be positive")
    return 4.0 * max(var_first_half, var_second_half) / var_total


def csch_squared_bound(sigma: float) -> float:
    """csch^2(h(Sigma/2)): the strong entropy-production bound."""
    if sigma < 0:
        raise ValueError("entropy production must be nonnegative")
    if sigma == 0.0:
        return math.inf
    h = inverse_x_tanh_x(sigma / 2.0)
    return 1.0 / math.sinh(h) ** 2


def ep_lower_bound(mean_j: float, var_j: float, gamma: float = 1.0) -> float:
    """Entropy lower bound 2 arcsinh(1/sqrt(R)) / sqrt(R+1), R = gamma Var/E^2."""
    if mean_j == 0.0:
        raise ValueError("mean current vanishes; the bound is undefined")
    ratio = gamma * var_j / mean_j**2
    if ratio <= 0:
        return math.inf
    return 2.0 * math.asinh(1.0 / math.sqrt(ratio)) / math.sqrt(ratio + 1.0)


def ep_tur(
    moments: MomentResult,
    gamma: float,
    sigma: float,
    scale: float,
    *,
    sigma_scale: float,
    current: bool,
) -> BoundReport:
    """Entropy-production bound R >= csch^2(h(Sigma/2)) >= 2/(e^Sigma - 1).

    R = gamma Var[J]/E[J]^2 from the current's ``moments``, which may be
    a Monte Carlo ``EnsembleEstimate``; pass gamma = 1 for the stationary
    form. The report also carries the inverted bound on Sigma and the equivalent
    arctanh/arcsinh representations. It is not applicable, with the
    reason in ``extra``, when the observable is not a ``current`` (weights
    antisymmetric under the channel pairing), when E[J] is rounding noise
    at ``scale`` (:func:`observable_scale`), or when Sigma is rounding
    noise at ``sigma_scale`` (:func:`entropy_scale`).
    """
    name = "entropy_production_bound"
    mean_j, var_j = moments.mean, moments.variance
    inputs = {
        "mean_current": _stat(moments, "mean"),
        "variance_current": _stat(moments, "variance"),
        "entropy_production": InputStat(sigma),
    }
    if not current:
        return BoundReport.skipped(name, inputs, {"reason": "the observable is not a current"})
    message = "mean current vanishes; the bound is undefined"
    if skipped := BoundReport.not_applicable(name, abs(mean_j), scale, inputs, message):
        return skipped
    if abs(sigma) <= DEGENERATE_REL_TOL * sigma_scale:
        reason = "entropy production is rounding noise"
        return BoundReport.skipped(name, inputs, {"reason": reason, "scale": sigma_scale})
    ratio = gamma * var_j / mean_j**2
    rhs_strong = csch_squared_bound(sigma)
    rhs_weak = 2.0 / math.expm1(sigma) if sigma > 0 else math.inf
    partials = {"variance_current": gamma / mean_j**2, "mean_current": -2 * ratio / mean_j}
    extra = {
        "rhs_weak": rhs_weak,
        "entropy_lower_bound": ep_lower_bound(mean_j, var_j, gamma),
        "arctanh_form": math.atanh(1.0 / math.sqrt(ratio + 1.0)) if ratio > 0 else math.inf,
        "arcsinh_form": math.asinh(1.0 / math.sqrt(ratio)) if ratio > 0 else math.inf,
        "gamma": gamma,
    }
    return BoundReport.judge(name, ratio, rhs_strong, inputs, extra, partials)


def survival_bound_check(model: LindbladModel, rho0: np.ndarray, tau: float) -> BoundReport:
    """No-jump probability against exp(-a(0) tau); ``survival_probability``
    refuses a negative or non-finite tau."""
    lhs = survival_probability(model, rho0, tau)
    obs = CountingObservable.total_count(model.n_channels)
    a0 = mean_rate(model, np.asarray(rho0, complex), obs)
    rhs = math.exp(-a0 * tau)
    inputs = {
        "survival_probability": InputStat(lhs),
        "initial_rate": InputStat(a0),
    }
    return BoundReport.judge("survival_bound", lhs, rhs, inputs)


def battery(
    model: LindbladModel, rho0: np.ndarray, obs: CountingObservable, tau: float, coherent=True
) -> list[BoundReport]:
    """The bounds of ``obs`` over [0, tau] from ``rho0``: rate form,
    activity window [tau/2, tau], survival and, on a model with ds,
    entropy production, all from exact statistics.

    The counting statistics take ``qtur.counting``'s reduced route: the
    moments over tau/2, then the three windows and rho(tau) from one step
    length, and one ``activity_at`` pass over the half angle's nodes and tau
    for that angle, A(tau) and the flow in Sigma(tau)."""
    half = counting_moments(model, rho0, obs, tau / 2.0, coherent=coherent, reduced=True)
    _, second, mom, rho_tau = _half_windows(model, rho0, obs, tau, coherent, reduced=True)
    angle, activity, flow = _horizon(model, rho0, tau / 2.0, tau, coherent)
    scale = observable_scale(obs, activity)
    reports = [
        kur_differential(model, rho_tau, obs, tau, activity, mom),
        tur_activity_integral(half, mom, angle, scale),
        survival_bound_check(model, rho0, tau),
    ]
    if model.has_entropy_weights:
        sigma = sigma_from(rho0, rho_tau, flow)
        gamma = gamma_factor(half.variance, second.variance, mom.variance)
        sigma_scale = entropy_scale(model, rho0, rho_tau, activity)
        current = obs.is_current(model)
        reports.append(ep_tur(mom, gamma, sigma, scale, sigma_scale=sigma_scale, current=current))
    return reports
