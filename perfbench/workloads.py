"""The benchmark's workloads: seeded inputs, the ``qtur`` CLI commands of
one pass, and the checks on their outputs.

Each workload stresses qtur from a different side (README.md gives the
layer predictions):

* ``sweep``: ``sweep-kur`` and ``sweep-ep``, thousands of tiny (d = 3)
  exact solves, where per-call Python overhead dominates.
* ``ensemble``: ``trajectories`` (with the record CSV) and ``verify-cic``
  on the ep model, the Monte Carlo sampling and pricing path.
* ``certify``: ``bounds`` on the ep model and on nearest-neighbour ladder
  models at d = 8, 12 and 16: a few large dense solves.

Every input of pass ``k`` is a function of (seed, k) alone; the program
sees only argv and the files written here.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from qtur.counting import CountingObservable, counting_moments
from qtur.engine import build_generator, steady_state
from qtur.models import antisymmetric_current_weights, build_ep_model, save_model
from qtur.operators import LindbladModel
from qtur.sweeps import SweepResult, rerun_row_check

WORKLOADS = ("sweep", "ensemble", "certify")

EP_RATES = (0.7, 0.3, 0.5, 0.4, 0.6, 0.2)  # the README's ep example
SWEEP_DRAWS = 1000
ENSEMBLE_TRAJECTORIES = 5000
ENSEMBLE_TAU = 1.0
CERTIFY_DIMS = (8, 12, 16)
LADDER_TAU = 2.0
SIGMAS = 4.0
CIC_CHECKS = 5  # the verify-cic battery on a model with entropy weights


class CheckFailed(Exception):
    """A command's output is wrong."""


@dataclass(frozen=True)
class Command:
    """One ``qtur`` CLI call: its argv, the units of work it completes,
    a check ``check(exit_code, stdout) -> counters`` that raises
    :class:`CheckFailed`, and the output files to fingerprint."""

    argv: tuple
    units: int
    check: Callable[[int, str], dict]
    outputs: tuple = ()


def pass_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed & (2**64 - 1), index])


def _cli_seed(rng: np.random.Generator) -> str:
    return str(int(rng.integers(2**31)))


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _read_csv(path) -> tuple[list, list]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    _require(len(rows) >= 1, f"{path} is empty")
    return rows[0], rows[1:]


# --- sweep -------------------------------------------------------------------


def _sweep_cell(text: str):
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    return float(text)


def _check_sweep(path, experiment: str, draws: int, code: int, stdout: str) -> dict:
    _require(code == 0, f"exit code {code}")
    header, rows = _read_csv(path)
    _require(len(rows) == draws, f"{len(rows)} rows for {draws} draws")
    result = SweepResult(
        experiment=experiment,
        header=tuple(header),
        rows=tuple(tuple(_sweep_cell(c) for c in row) for row in rows),
        n_flagged=0,
    )
    _require(result.violations("full") == 0, "full-cost violations")
    bad = [k for k in range(len(rows)) if not rerun_row_check(result, k)]
    _require(not bad, f"rerun_row_check fails on rows {bad[:5]}")
    return {"sweeps.flagged": sum(1 for f in result.column("flagged") if f)}


def sweep_commands(rng, workdir: Path, workers: int, draws: int = SWEEP_DRAWS) -> list:
    commands = []
    for name, experiment in (("sweep-kur", "kur_sweep"), ("sweep-ep", "ep_sweep")):
        out = workdir / f"{name}.csv"
        argv = (name, "--draws", str(draws), "--seed", _cli_seed(rng),
                "--out", str(out), "--workers", str(workers))
        commands.append(Command(argv, draws, partial(_check_sweep, out, experiment, draws), (out,)))
    return commands


# --- ensemble ------------------------------------------------------------------


def _exact_current_moments(tau: float):
    """Exact moments of the CLI's default current on the stationary ep model."""
    model = build_ep_model(1.0, *EP_RATES)
    rho = steady_state(build_generator(model, coherent=True))
    obs = CountingObservable(antisymmetric_current_weights(model, [1.0] * 3), antisymmetric=True)
    return counting_moments(model, rho, obs, tau)


def _check_records(path, n: int, code: int, stdout: str) -> dict:
    _require(code == 0, f"exit code {code}")
    header, rows = _read_csv(path)
    _require(len(rows) == n, f"{len(rows)} records for {n} trajectories")
    col = header.index("N_value")
    values = np.array([float(row[col]) for row in rows])
    mean = float(values.mean())
    var = float(values.var(ddof=1))
    stderr_mean = float(values.std(ddof=1) / np.sqrt(n))
    m4 = float(np.mean((values - mean) ** 4))
    stderr_var = float(np.sqrt(max(m4 - var * var * (n - 3) / (n - 1), 0.0) / n))
    exact = _exact_current_moments(ENSEMBLE_TAU)
    _require(abs(mean - exact.mean) <= SIGMAS * stderr_mean,
             f"sampled mean {mean:.6g} ± {stderr_mean:.2g} vs exact {exact.mean:.6g}")
    _require(abs(var - exact.variance) <= SIGMAS * stderr_var,
             f"sampled variance {var:.6g} ± {stderr_var:.2g} vs exact {exact.variance:.6g}")
    ent = header.index("entropy_value")
    return {"trajectories.discarded": sum(1 for row in rows if row[ent] == "")}


def _check_cic(code: int, stdout: str) -> dict:
    _require(code == 0, f"exit code {code}")
    lines = [line for line in stdout.splitlines() if line.startswith("[")]
    _require(len(lines) == CIC_CHECKS, f"{len(lines)} checks reported, expected {CIC_CHECKS}")
    failed = [line for line in lines if not line.startswith("[PASS]")]
    _require(not failed, "; ".join(failed))
    found = re.search(r"\((\d+) records discarded\)", stdout)
    return {"trajectories.discarded": int(found.group(1)) if found else 0}


def ensemble_commands(rng, workdir: Path, workers: int, n: int = ENSEMBLE_TRAJECTORIES) -> list:
    model = ("--builtin", "ep", "--rates", ",".join(map(repr, EP_RATES)),
             "--tau", repr(ENSEMBLE_TAU), "--trajectories", str(n), "--workers", str(workers))
    records = workdir / "records.csv"
    return [
        Command(("trajectories", *model, "--seed", _cli_seed(rng), "--out", str(records)),
                n, partial(_check_records, records, n), (records,)),
        # forward and backward ensembles of n trajectories each
        Command(("verify-cic", *model, "--seed", _cli_seed(rng)), 2 * n, _check_cic),
    ]


# --- certify -------------------------------------------------------------------


def ladder_model(dim: int, rng: np.random.Generator, entropy: bool) -> LindbladModel:
    """Nearest-neighbour ladder: H = diag(E_k) with seeded gaps, a lowering
    and a raising channel on every rung. With ``entropy`` the pair carries
    ds = ln(down / up), so local detailed balance holds."""
    energies = np.concatenate([[0.0], np.cumsum(rng.uniform(0.8, 1.2, dim - 1))])
    ops, ds, partners = [], [], []
    for k in range(dim - 1):
        down, up = rng.uniform(0.5, 1.5), rng.uniform(0.1, 0.5)
        lower = np.zeros((dim, dim), dtype=complex)
        lower[k, k + 1] = np.sqrt(down)
        raise_ = np.zeros((dim, dim), dtype=complex)
        raise_[k + 1, k] = np.sqrt(up)
        ops += [lower, raise_]
        ds += [float(np.log(down / up)), -float(np.log(down / up))]
        partners += [2 * k + 1, 2 * k]
    h = np.diag(energies).astype(complex)
    if entropy:
        return LindbladModel.build(h, ops, ds=ds, partners=partners)
    return LindbladModel.build(h, ops)


def _check_bounds(code: int, stdout: str) -> dict:
    _require(code == 0, f"exit code {code}")
    reports = []
    for line in stdout.splitlines():
        try:
            reports.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"report does not parse: {exc}") from exc
    _require(bool(reports), "no reports")
    _require(all({"name", "satisfied"} <= set(r) for r in reports), "malformed report")
    return {
        "bounds.reports": len(reports),
        "bounds.not_applicable": sum(1 for r in reports if r["satisfied"] is None),
    }


def certify_commands(rng, workdir: Path, workers: int, dims=CERTIFY_DIMS) -> list:
    out = workdir / "bounds-ep.csv"
    commands = [
        Command(("bounds", "--builtin", "ep", "--rates", ",".join(map(repr, EP_RATES)),
                 "--tau", "1", "--out", str(out)), 1, _check_bounds, (out,))
    ]
    for i, dim in enumerate(dims):
        # The second model counts every jump with unit weight, so the
        # activity-window bound runs; it carries no ds, because the CLI
        # would apply the entropy-production bound to that non-current.
        unit = i == 1
        model = ladder_model(dim, rng, entropy=not unit)
        path = workdir / f"ladder-{dim}.json"
        save_model(model, path)
        out = workdir / f"bounds-ladder-{dim}.csv"
        argv = ("bounds", "--model", str(path), "--rho0", "ground",
                "--tau", repr(LADDER_TAU), "--out", str(out))
        if unit:
            argv += ("--weights", ",".join(["1"] * model.n_channels))
        commands.append(Command(argv, 1, _check_bounds, (out,)))
    return commands


BUILDERS = {"sweep": sweep_commands, "ensemble": ensemble_commands, "certify": certify_commands}


def commands(workload: str, seed: int, index: int, workdir: Path, workers: int, **size) -> list:
    """The commands of pass ``index``; ``size`` overrides a workload's size
    (the smoke test runs them small)."""
    return BUILDERS[workload](pass_rng(seed, index), workdir, workers, **size)
