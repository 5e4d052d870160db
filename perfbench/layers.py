"""Per-layer metrics of a traced pass: span groups, counters and derived costs.

The layers are qtur's modules. ``<module>.self_s`` is the self time of
every traced callable defined in that module. The finer metrics group
the entry points of one stage; the self time of an ungrouped helper span
(``engine.left_multiply``, ``sweeps.format_cell``, ...) counts toward the
group of its nearest grouped caller, so the groups partition the traced
time under ``cli.main``. README.md gives the end-to-end metric and
workload each one should move.
"""

from __future__ import annotations

LAYERS = ("operators", "models", "engine", "counting", "trajectories", "bounds", "sweeps", "cli")

# metric prefix -> the span names that open it
GROUPS = {
    "operators.build": ("operators.LindbladModel.build",),
    "operators.validate_density": ("operators.validate_density", "operators.assert_density"),
    "models.build": (
        "models.build_da_model",
        "models.build_ep_model",
        "models.build_poisson_model",
        "models.load_model",
        "models.model_from_json",
    ),
    "engine.build_generator": ("engine.build_generator",),
    "engine.steady_state": ("engine.steady_state",),
    "engine.propagate": ("engine.propagate", "engine.step_propagator"),
    "engine.survival_probability": ("engine.survival_probability",),
    "counting.counting_moments": ("counting.counting_moments",),
    "counting.activity_curve": ("counting.activity_curve",),
    "counting.entropy_production": ("counting.entropy_production",),
    "counting.decompose": ("counting.decompose_activity", "counting.decompose_sigma"),
    "trajectories.sample": (
        "trajectories.TrajectorySampler.sample",
        "trajectories.sample_ensemble",
        "trajectories.sample_trajectory",
    ),
    "trajectories.setup": (
        "trajectories.TrajectorySampler.__init__",
        "trajectories.PathWeights.__init__",
    ),
    "trajectories.price": tuple(
        f"trajectories.PathWeights.{m}"
        for m in ("path_norms", "entropy", "densities", "forward_density", "backward_density")
    ) + ("trajectories.ensemble_entropies", "trajectories.forward_backward_densities"),
    "trajectories.estimate": ("trajectories.estimate",),
    "bounds.windowed_gamma": ("bounds.windowed_gamma",),
    "sweeps.run_sweep": ("sweeps.run_sweep",),
    "sweeps.write_csv": ("sweeps.write_csv", "sweeps.result_to_csv"),
    "sweeps.run_cic_suite": ("sweeps.run_cic_suite",),
    "cli.main": ("cli.main",),
}
EVALUATORS = "bounds.evaluators"  # every other public function of qtur.bounds
CALL_COUNTS = ("engine.build_generator", "engine.steady_state", "counting.counting_moments")
COMPLEX_BYTES = 16


def _count_sweep(counters, args, kwargs, result):
    counters["sweeps.draws"] += len(result.rows)
    counters["sweeps.flagged"] += result.n_flagged


def _count_trajectory(counters, args, kwargs, result):
    counters["trajectories.sample.trajectories"] += 1
    counters["trajectories.sample.jumps"] += result.n_jumps


def _count_record(counters, args, kwargs, result):
    counters["trajectories.price.records"] += 1


def _count_discarded(counters, args, kwargs, result):
    counters["trajectories.discarded"] += result[1]


def _count_block(counters, args, kwargs, result):
    # the augmented (rho, rho1, rho2) generator is 3 d^2 square, complex128
    model = args[0] if args else kwargs["model"]
    dim = 3 * model.dim**2
    counters["counting.counting_moments.max_block_dim"] = max(
        counters["counting.counting_moments.max_block_dim"], dim
    )
    counters["counting.counting_moments.block_bytes"] = max(
        counters["counting.counting_moments.block_bytes"], dim * dim * COMPLEX_BYTES
    )


def _count_reports(counters, args, kwargs, result):
    reports = result if isinstance(result, tuple) else (result,)
    for report in reports:
        if hasattr(report, "satisfied"):
            counters["bounds.reports"] += 1
            counters["bounds.not_applicable"] += report.satisfied is None


_HOOKS = {
    "sweeps.run_sweep": _count_sweep,
    "trajectories.TrajectorySampler.sample": _count_trajectory,
    "trajectories.PathWeights.path_norms": _count_record,
    "trajectories.PathWeights.entropy": _count_record,
    "trajectories.PathWeights.densities": _count_record,
    "trajectories.ensemble_entropies": _count_discarded,
    "counting.counting_moments": _count_block,
}


def hook_for(name: str):
    """The counter hook of a span name, or None."""
    if name.startswith("bounds."):
        return _count_reports
    return _HOOKS.get(name)


def group_of(name: str) -> str | None:
    for prefix, names in GROUPS.items():
        if name in names:
            return prefix
    return EVALUATORS if name.startswith("bounds.") else None


def group_self_times(spans) -> dict:
    """``<group>.self_s`` for every group, from the spans (name, start, end, parent).

    Parents precede their children in ``spans``, so one forward pass finds
    each span's owning group and one more sums the self times.
    """
    groups = {name: group_of(name) for name in {s[0] for s in spans}}
    child_time = [0.0] * len(spans)
    owner = [None] * len(spans)
    for i, (name, start, end, parent) in enumerate(spans):
        owner[i] = groups[name] or (owner[parent] if parent >= 0 else None)
        if parent >= 0:
            child_time[parent] += end - start
    out = {f"{g}.self_s": 0.0 for g in (*GROUPS, EVALUATORS)}
    for i, (name, start, end, parent) in enumerate(spans):
        if owner[i] is not None:
            out[f"{owner[i]}.self_s"] += end - start - child_time[i]
    return out


def _per_unit_us(seconds: float, count: int) -> float:
    return seconds / count * 1e6 if count else 0.0


def layer_metrics(tracer, wall_s: float, span_cost_s: float) -> dict:
    """Per-layer values of one traced pass, by metric name. ``span_cost_s``
    is the time one traced call adds, so ``trace.overhead_est`` is the
    tracing overhead computed from the span count, free of the machine
    noise in the measured ``trace.overhead``."""
    stats = tracer.stats
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v[1] for k, v in stats.items() if k.split(".")[0] == layer)
    out.update(group_self_times(tracer.spans))
    for prefix in CALL_COUNTS:
        out[f"{prefix}.calls"] = tracer.calls(*GROUPS[prefix])
    for name in (
        "sweeps.draws",
        "sweeps.flagged",
        "trajectories.sample.trajectories",
        "trajectories.sample.jumps",
        "trajectories.price.records",
        "trajectories.discarded",
        "counting.counting_moments.max_block_dim",
        "counting.counting_moments.block_bytes",
        "bounds.reports",
        "bounds.not_applicable",
    ):
        out[name] = tracer.counters[name]
    sample_s = out["trajectories.sample.self_s"]
    out["trajectories.us_per_trajectory"] = _per_unit_us(
        sample_s, out["trajectories.sample.trajectories"]
    )
    out["trajectories.us_per_jump"] = _per_unit_us(sample_s, out["trajectories.sample.jumps"])
    out["trajectories.us_per_record"] = _per_unit_us(
        out["trajectories.price.self_s"], out["trajectories.price.records"]
    )
    covered = sum(v[1] for v in stats.values())
    out["trace.wall_s"] = wall_s
    out["trace.coverage"] = covered / wall_s if wall_s > 0 else 0.0
    out["trace.spans"] = len(tracer.spans)
    added = len(tracer.spans) * span_cost_s
    out["trace.overhead_est"] = added / (wall_s - added) if wall_s > added else 0.0
    return out
