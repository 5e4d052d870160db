"""Command-line front end: it parses, resolves the inputs and prints.

Subcommands: steady-state, evolve, moments, trajectories, bounds,
sweep-kur, sweep-ep, verify-cic. Each resolves its inputs, calls the
library (``bounds`` runs :func:`qtur.bounds.battery`), prints the result
and sets the exit code.
Models come from --model (JSON file) or --builtin with --rates; any flag
of a subcommand can also be preloaded from a JSON --config file, with
explicit flags taking precedence, and an undeclared key or a value
outside a flag's choices exiting 2. The exit code is 0 exactly when
every asserted check passed; expected diagonal-cost violations in sweeps
are reported but do not fail the run. The worker count defaults to the
CPUs the process may run on, and QTUR_THREADS caps it everywhere.
Malformed input (a rate or weight count, a model JSON key, a range)
exits 2 with a message.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import models as models_mod
from .bounds import battery
from .counting import (
    CountingObservable,
    counting_moments,
    decompose_activity,
    entropy_production_rate,
    evolve,
    stationary,
)
from .engine import SteadyStateError
from .operators import validate_density
from .sweeps import (
    SweepConfig,
    csv_lines,
    run_cic_suite,
    run_sweep,
    write_csv,
)
from .trajectories import SeedPolicy, TrajectorySampler, estimate


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", help="path to a model JSON file")
    p.add_argument(
        "--builtin",
        choices=("da", "ep", "poisson"),
        help="use a built-in model (da: 4 rates, ep: 6 rates, poisson: 1 rate)",
    )
    p.add_argument("--omega-e", type=float, default=1.0, help="energy gap for built-ins")
    p.add_argument("--rates", help="comma-separated rates for the built-in model")


# the flags a subcommand may declare besides --config and the model flags
_FLAGS = {
    "--seed": {"type": int, "default": None},
    "--out": {"default": None, "help": "CSV output path"},
    "--workers": {"type": int, "default": None},
    "--rho0": {"choices": ("ss", "ground", "mixed"), "default": None},
    "--incoherent": {"action": "store_true", "help": "drop the Hamiltonian"},
    "--coherent": {"action": "store_true", "help": "sample with the full propagator"},
    "--tau": {"type": float, "required": True},
    "--trajectories": {"type": int, "default": 10_000},
    "--weights": {"help": "comma-separated channel weights"},
    "--t": {"type": float, "required": True},
    "--window": {"help": "observation window a,b"},
    "--draws": {"type": int, "default": None},
    "--omega-e": {"type": float, "default": 1.0},
    "--gamma-range": {"default": None, "help": "rate range lo,hi"},
    "--tau-range": {"default": None, "help": "horizon range lo,hi"},
}


# built-in model: rate count, default rate and builder, looked up per call
# so that a name patched on qtur.models is seen
_BUILTINS = {
    "da": (4, 0.5, lambda omega_e, *g: models_mod.build_da_model(omega_e, *g)),
    "ep": (6, 0.5, lambda omega_e, *g: models_mod.build_ep_model(omega_e, *g)),
    "poisson": (1, 1.0, lambda omega_e, rate: models_mod.build_poisson_model(rate)),
}


def _resolve_model(args):
    if getattr(args, "model", None):
        return models_mod.load_model(args.model)
    kind = getattr(args, "builtin", None) or "da"
    n_rates, default, build = _BUILTINS[kind]
    rates = [default] * n_rates
    if args.rates is not None:
        rates = [float(x) for x in args.rates.split(",") if x.strip()]
        if len(rates) != n_rates:
            raise ValueError(f"--rates: {len(rates)} given, --builtin {kind} takes {n_rates}")
    return build(args.omega_e, *rates)


def _initial_state(args, model):
    choice = getattr(args, "rho0", None) or "ss"
    d = model.dim
    if choice == "ss":
        return stationary(model)
    if choice == "mixed":
        return np.eye(d, dtype=complex) / d
    rho = np.zeros((d, d), dtype=complex)  # ground
    rho[0, 0] = 1.0
    return rho


def _weights(args, model):
    if getattr(args, "weights", None):
        w = tuple(float(x) for x in args.weights.split(","))
        if len(w) != model.n_channels:
            raise ValueError(f"--weights: {len(w)} weights for {model.n_channels} channels")
        return CountingObservable(w)
    return models_mod.default_observable(model)


def _print_matrix(label: str, m: np.ndarray) -> None:
    print(label)
    for row in m:
        print("  " + "  ".join(f"{v.real:+.12f}{v.imag:+.12f}j" for v in row))


def _cmd_steady_state(args) -> int:
    model = _resolve_model(args)
    rho = stationary(model, coherent=not args.incoherent)
    _print_matrix("steady state:", rho)
    check = validate_density(rho)
    print(f"validation: {check.message} (worst {check.worst:.3e})")
    a_d, a_nd = decompose_activity(model, rho)
    print(f"activity rate: {a_d + a_nd:.12g} (diag {a_d:.12g}, offdiag {a_nd:.12g})")
    if model.has_entropy_weights:
        print(f"entropy production rate: {entropy_production_rate(model, rho):.12g}")
    return 0 if check.ok else 1


def _cmd_evolve(args) -> int:
    model = _resolve_model(args)
    rho0 = _initial_state(args, model)
    rho = evolve(model, rho0, args.t, coherent=not args.incoherent)
    _print_matrix(f"state at t={args.t}:", rho)
    return 0


def _cmd_moments(args) -> int:
    model = _resolve_model(args)
    rho0 = _initial_state(args, model)
    obs = _weights(args, model)
    if args.window:
        obs = obs.with_window(_parse_range("--window", args.window))
    mom = counting_moments(model, rho0, obs, args.tau, coherent=not args.incoherent)
    print(f"mean: {mom.mean:.17g}")
    print(f"variance: {mom.variance:.17g}")
    print(f"second_moment: {mom.second_moment:.17g}")
    return 0


def _cmd_trajectories(args) -> int:
    model = _resolve_model(args)
    rho0 = _initial_state(args, model)
    obs = _weights(args, model)
    seed = args.seed if args.seed is not None else 0
    n = args.trajectories
    sampler = TrajectorySampler(model, rho0, args.tau, coherent=args.coherent)
    records = sampler.ensemble(n, SeedPolicy(seed), args.workers)
    entropies = sampler.entropies(records) if model.has_entropy_weights else None
    est = estimate(records, obs, entropies=entropies)
    print(f"trajectories: {n} (seed {seed})")
    print(f"mean: {est.mean:.12g} ± {est.stderr_mean:.3g}")
    print(f"variance: {est.variance:.12g} ± {est.stderr_variance:.3g}")
    if est.entropy_mean is not None:
        print(f"entropy per record: {est.entropy_mean:.12g} ± {est.entropy_stderr:.3g}")
    exact = counting_moments(model, rho0, obs, args.tau, coherent=True)
    print(f"exact mean: {exact.mean:.12g}   exact variance: {exact.variance:.12g}")
    if args.out:
        _dump_records(args.out, records, est.values, entropies)
        print(f"wrote {args.out}")
    return 0


def _dump_records(path, records, values, entropies) -> None:
    """Record CSV; ``values`` holds each record's observable, ``entropies``
    per-record values, nan where a record was discarded, or is None when
    the model carries no entropy weights."""
    kmax = max((r.n_jumps for r in records), default=0)
    header = (
        ["run_index", "K"]
        + [f"t_{j+1}" for j in range(kmax)]
        + [f"m_{j+1}" for j in range(kmax)]
        + ["i", "i_prime", "N_value", "entropy_value"]
    )
    entropies = [None] * len(records) if entropies is None else entropies.tolist()

    def rows():
        for idx, (rec, value, entropy) in enumerate(zip(records, values.tolist(), entropies)):
            times, channels = zip(*rec.jumps) if rec.jumps else ((), ())
            pad = [None] * (kmax - rec.n_jumps)
            yield [
                idx, rec.n_jumps, *times, *pad, *channels, *pad,
                rec.initial_label, rec.final_label, value,
                None if entropy != entropy else entropy,  # nan: discarded
            ]

    with open(path, "w", newline="") as fh:
        fh.writelines(csv_lines(header, rows()))


def _cmd_bounds(args) -> int:
    model = _resolve_model(args)
    rho0 = _initial_state(args, model)
    obs = _weights(args, model)
    reports = battery(model, rho0, obs, args.tau, coherent=not args.incoherent)
    for rep in reports:
        print(rep)
    if args.out:
        rows = [rep.to_csv_row() for rep in reports]
        keys = sorted({k for row in rows for k in row}, key=lambda k: (k != "name", k))
        with open(args.out, "w", newline="") as fh:
            fh.writelines(csv_lines(keys, [[row.get(k) for k in keys] for row in rows]))
    bad = [r for r in reports if r.satisfied is False]
    return 1 if bad else 0


def _parse_range(flag: str, text: str) -> tuple[float, float]:
    bounds = [float(x) for x in text.split(",")]
    if len(bounds) != 2:
        raise ValueError(f"{flag} takes lo,hi, got {text!r}")
    return bounds[0], bounds[1]


def _cmd_sweep(args, experiment: str) -> int:
    # SweepConfig holds the defaults; pass only the flags that were given
    given = dict(n_draws=args.draws, seed=args.seed, omega_e=args.omega_e, workers=args.workers)
    for name, text in (("gamma", args.gamma_range), ("tau", args.tau_range)):
        if text is not None:
            given[f"{name}_low"], given[f"{name}_high"] = _parse_range(f"--{name}-range", text)
    config = SweepConfig(experiment, **{k: v for k, v in given.items() if v is not None})
    result = run_sweep(config)
    print(result.summary())
    if args.out:
        write_csv(result, args.out)
        print(f"wrote {args.out}")
    return 0 if result.violations("full") == 0 else 1


def _cmd_verify_cic(args) -> int:
    model = _resolve_model(args)
    rho0 = _initial_state(args, model)
    report = run_cic_suite(
        model,
        rho0,
        args.tau,
        budget=args.trajectories,
        seed=args.seed if args.seed is not None else 0,
        workers=args.workers,
    )
    print(report.summary())
    return 0 if report.all_passed else 1


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser; with ``only``, every other subcommand keeps its help but no flags."""
    parser = argparse.ArgumentParser(
        prog="qtur",
        description="jump statistics and uncertainty-relation checks for monitored Lindblad models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, doc, func, *flags, model=True):
        """A subcommand that declares --config, the model flags when
        ``model``, and exactly the ``flags`` it reads."""
        p = sub.add_parser(name, help=doc)
        if only not in (None, name):
            return
        p.add_argument("--config", help="JSON file with defaults for this subcommand")
        if model:
            _add_model_args(p)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)

    command("steady-state", "solve and print the stationary state", _cmd_steady_state,
            "--incoherent")
    command("evolve", "propagate an initial state", _cmd_evolve, "--rho0", "--incoherent", "--t")
    command("moments", "exact counting moments", _cmd_moments,
            "--rho0", "--incoherent", "--tau", "--weights", "--window")
    command("trajectories", "Monte Carlo ensemble", _cmd_trajectories,
            "--seed", "--out", "--workers", "--rho0", "--coherent",
            "--tau", "--trajectories", "--weights")
    command("bounds", "evaluate the bound battery", _cmd_bounds,
            "--out", "--rho0", "--incoherent", "--tau", "--weights")
    for name, experiment, doc in (
        ("sweep-kur", "kur_sweep", "random activity-bound sweep"),
        ("sweep-ep", "ep_sweep", "random entropy-bound sweep"),
    ):
        command(name, doc, lambda a, e=experiment: _cmd_sweep(a, e), "--seed", "--out",
                "--workers", "--draws", "--omega-e", "--gamma-range", "--tau-range", model=False)
    command("verify-cic", "run the correspondence test battery", _cmd_verify_cic,
            "--seed", "--workers", "--rho0", "--tau", "--trajectories")
    return parser


def _parse(argv) -> argparse.Namespace:
    """Parse ``argv``. The keys of a --config file become the subcommand's
    defaults, so explicit flags still win. A JSON string or number goes
    through its flag's type as on the command line, and a switch takes a
    JSON boolean; a key that the subcommand does not declare, a value of
    another JSON type, or one outside its flag's choices, exits 2."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("command", nargs="?")
    pre.add_argument("--config")
    known = pre.parse_known_args(argv)[0]
    parser = build_parser(known.command)
    commands = next(a for a in parser._actions if a.dest == "command").choices
    if known.config and known.command in commands:
        sub = commands[known.command]
        with open(known.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            sub.error(f"{known.config} does not hold a JSON object")
        actions = {a.dest: a for a in sub._actions if a.dest not in ("help", "config")}
        for key, value in cfg.items():
            action = actions.get(key.replace("-", "_"))
            if action is None:
                sub.error(f"unknown config key {key!r}")
            if action.nargs == 0:  # a switch
                if not isinstance(value, bool):
                    sub.error(f"config key {key!r} takes true or false, got {json.dumps(value)}")
            elif isinstance(value, (str, int, float)) and not isinstance(value, bool):
                value = str(value)  # argparse applies the type to a string default
            else:
                sub.error(f"config key {key!r} takes a string or a number, got {json.dumps(value)}")
            if action.choices is not None and value not in action.choices:
                choices = ", ".join(map(repr, action.choices))
                sub.error(f"config key {key!r}: invalid choice {value!r} (choose from {choices})")
            action.default, action.required = value, False
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse(argv)
        return args.func(args)
    except (ValueError, FileNotFoundError, SteadyStateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
