"""The qtur benchmark: one command, three workloads, every metric by name.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Workloads are ``sweep``, ``ensemble`` and ``certify`` (see workloads.py and
README.md). A run starts one warm-up process that fills the bytecode
cache, then runs passes of the workload, each in a fresh process
(worker.py), until ``--seconds`` have gone by, and at least three. When
the passes give fewer than eight set-up samples, set-up-only processes
make up the difference.

``--trace 0`` runs every pass with ``--workers`` = nproc and reports the
end-to-end metrics:

* ``setup_s``: fresh process to first command (interpreter, numpy, scipy
  and qtur imports, input generation), the median over the run's samples;
* ``units_per_s``: work per second of command time (sweep draws,
  sampled trajectories, or certified models, one ``qtur bounds`` call
  each), the mean over the run's passes;
* ``peak_rss_mb``: peak RSS of the largest process of the pass, the pass
  process or one of its pool children, the median over the run's passes.

Both times are scaled to a nominal machine speed by the mean time of a
fixed reference kernel that each process runs when ready and after every
command (README.md); the values as measured are printed too.

``--trace 1`` alternates an untraced and a traced pass of the same inputs,
both in one process (``--workers 1``, since spans recorded in forked pool
workers would be lost), and reports the per-layer metrics of layers.py
plus ``trace.overhead``, traced over untraced command time, minus one.

A command fails when it raises, exits non-zero or fails its output check;
``failed`` / ``attempted`` is the error rate. Compute threads are capped
at nproc: BLAS runs one thread per process and the pool has nproc workers.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "ensemble", "certify")
MIN_PASSES = 3
MIN_SETUPS = 8
SETUP_TIMEOUT_S = 30.0
# worker.reference_s() on a 2-vCPU x86_64 VM at its faster speed
# (Python 3.11.7, numpy 2.4.6, scipy 1.17.1)
REFERENCE_NOMINAL_S = 0.16
DEADLINE_S = 170.0  # the whole run, which must end within 180 s
WORK_ROOT = ROOT / ".perfbench_work"
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
END_TO_END_UNITS = {"setup_s": "s", "units_per_s": "1/s", "peak_rss_mb": "MB"}


class PassFailed(RuntimeError):
    pass


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env(workers: int) -> dict:
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    env["QTUR_THREADS"] = str(workers)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(argv: list, env: dict, timeout: float) -> tuple[float, dict]:
    """Run a worker in its own process group; return (spawn time, result).

    On timeout the whole group, pool workers included, is killed and
    reaped before the error propagates.
    """
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        stdout=subprocess.PIPE,
        env=env,
        start_new_session=True,
        text=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise PassFailed(f"pass exceeded {timeout:.0f} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"worker exited with code {proc.returncode}")
    return spawned, json.loads(lines[-1])


def source_fingerprint(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(root: Path, workers: int, versions: dict) -> dict:
    return {
        "commit": git_commit(),
        "source_sha256": source_fingerprint(root),
        "python": platform.python_version(),
        **versions,
        "nproc": nproc(),
        "workers": workers,
        "QTUR_THREADS": str(workers),
        "blas_threads": {var: "1" for var in BLAS_THREAD_VARS},
        "machine": platform.machine(),
    }


class Run:
    """The passes of one benchmark run and their bookkeeping."""

    def __init__(self, args, workers: int, workdir: Path):
        self.args = args
        self.workers = workers
        self.workdir = workdir
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.passes = []
        self.setups = []
        self.references = []

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def child(self, index: int, *extra: str) -> tuple[float, dict]:
        argv = [
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--pass-index", str(index),
            "--workdir", str(self.workdir / f"pass-{index}"),
            "--workers", str(self.workers),
            *extra,
        ]
        return run_child(argv, child_env(self.workers), self.remaining())

    def setup_sample(self, index: int) -> None:
        spawned, result = self.child(index, "--setup-only")
        self.setups.append(result["ready_at"] - spawned)
        self.references += result["references_s"]

    def one_pass(self, index: int, spans: Path | None = None) -> dict | None:
        try:
            spawned, result = self.child(index, *(["--spans", str(spans)] if spans else []))
        except PassFailed as exc:
            print(f"pass {index}: {exc}", file=sys.stderr)
            self.attempted += 1
            self.failed += 1
            return None
        result["setup_s"] = result["ready_at"] - spawned
        self.setups.append(result["setup_s"])
        self.references += result["references_s"]
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.passes.append(result)
        return result

    def more(self, count: int, cost: float, minimum: int) -> bool:
        """Whether to start another pass that is expected to take ``cost``."""
        elapsed = time.monotonic() - self.started
        if cost >= self.remaining():
            return False
        return count < minimum or elapsed + cost <= self.args.seconds


def report_pass(index: int, p: dict, label: str = "") -> None:
    print(
        f"pass {index}{label}: setup {p['setup_s']:.3f} s, {p['units']} units in "
        f"{p['elapsed_s']:.3f} s ({p['units'] / p['elapsed_s']:.4g} 1/s), "
        f"references {', '.join(f'{r:.3f}' for r in p['references_s'])} s, "
        f"peak RSS {p['peak_rss_mb']:.1f} MB, "
        f"{p['attempted'] - p['failed']}/{p['attempted']} commands ok"
    )


def measure(run: Run) -> dict:
    index, cost = 0, 0.0
    while run.more(index, cost, MIN_PASSES):
        begun = time.monotonic()
        p = run.one_pass(index)
        cost = time.monotonic() - begun
        if p is not None:
            report_pass(index, p)
        index += 1
    if not run.passes:
        return {}
    # short passes give a setup sample each; long ones are topped up
    index = 0
    while len(run.setups) < MIN_SETUPS and run.remaining() > SETUP_TIMEOUT_S:
        run.setup_sample(index)
        index += 1
    print(f"setup samples: {', '.join(f'{s:.3f}' for s in run.setups)} s")
    setup_s = statistics.median(run.setups)
    rate = statistics.mean(p["units"] / p["elapsed_s"] for p in run.passes)
    slowdown = statistics.mean(run.references) / REFERENCE_NOMINAL_S
    print(f"as measured: setup_s {setup_s!r} s, units_per_s {rate!r} 1/s; machine slowdown "
          f"{slowdown!r} (mean of {len(run.references)} reference kernels over "
          f"{REFERENCE_NOMINAL_S} s)")
    return {
        "setup_s": setup_s / slowdown,
        "units_per_s": rate * slowdown,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in run.passes),
    }


def measure_traced(run: Run, spans: Path) -> dict:
    index, cost, pairs = 0, 0.0, []
    while run.more(index, cost, 1):
        begun = time.monotonic()
        plain = run.one_pass(index)
        traced = run.one_pass(index, spans) if plain is not None else None
        cost = time.monotonic() - begun
        if traced is not None:
            report_pass(index, plain, " untraced")
            report_pass(index, traced, " traced")
            pairs.append((plain, traced))
        index += 1
    if not pairs:
        return {}
    names = pairs[0][1]["layers"]
    metrics = {n: statistics.median(t["layers"][n] for _, t in pairs) for n in names}
    metrics["trace.overhead"] = (
        sum(t["elapsed_s"] for _, t in pairs) / sum(p["elapsed_s"] for p, _ in pairs) - 1.0
    )
    return metrics


def load_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qtur benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run unwinds, so run_child kills and reaps its worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "qtur" / "__init__.py").is_file():
        print("perfbench: run from the root of a qtur checkout (no src/qtur here)", file=sys.stderr)
        return 2
    workdir = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workers = 1 if args.trace else nproc()
    run = Run(args, workers, workdir)
    print(f"perfbench {args.workload}: seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}, workers {workers}")
    try:
        # fills src/__pycache__, so that no measured process compiles qtur
        run.child(0, "--setup-only")
        if args.trace:
            spans = WORK_ROOT / f"spans-{args.workload}.csv"
            metrics = measure_traced(run, spans)
            units = load_units()
        else:
            metrics = measure(run)
            units = END_TO_END_UNITS
    except PassFailed as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not run.passes:
        print("perfbench: no pass completed", file=sys.stderr)
        return 1

    first = run.passes[0]
    for cmd in first["commands"]:
        for name, digest in cmd["sha256"].items():
            print(f"output {name} (pass 0): sha256 {digest}")
    rate = run.failed / run.attempted
    print(f"passes: {len(run.passes)}; error_rate: {run.failed}/{run.attempted} = {rate:.4g}")
    counted = Counter()
    for p in run.passes:
        counted.update(p["counters"])
    print(f"counted by the output checks, not failures: {json.dumps(counted)}")
    print("provenance: " + json.dumps(provenance(ROOT, workers, first["versions"])))
    for name, value in metrics.items():
        print(f"{name}: {value!r} {units.get(name, '')}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items() if name in metrics
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
