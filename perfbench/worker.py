"""One pass of a benchmark workload, in a fresh process.

Run by run.py. It imports qtur from the repository's ``src/``,
generates the pass's inputs, notes the monotonic time at which it is
ready (run.py subtracts its spawn time to get ``setup_s``), runs the
workload's commands through ``qtur.cli.main`` in process, then checks
their outputs. The last line of its standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402,F401

import qtur  # noqa: E402
import qtur.cli  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, span_cost_s  # noqa: E402


REFERENCE_ROUNDS = 600


def reference_s() -> float:
    """Seconds taken by a fixed kernel that does not use qtur: small dense
    complex linear algebra and interpreter work, like qtur's own mix.
    A pass runs it before its first command and after each command; run.py
    scales the run's times by the mean of these timings."""
    a = 0.1 * np.exp(1j * np.arange(27 * 27).reshape(27, 27))
    start = time.perf_counter()
    acc = 0
    for _ in range(REFERENCE_ROUNDS):
        scipy.linalg.expm(a)
        np.linalg.eig(a[:9, :9])
        for _ in range(8):
            acc += sum(k * k for k in range(300))
    return time.perf_counter() - start


def _peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest reaped child, in MB."""
    who = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    return max(resource.getrusage(w).ru_maxrss for w in who) / 1024.0


def run_pass(workload, seed, index, workdir: Path, workers, spans=None, setup_only=False,
             **size) -> dict:
    """Run one pass; with ``setup_only``, stop once the inputs exist and the
    reference kernel has run."""
    commands = workloads.commands(workload, seed, index, workdir, workers, **size)
    ready_at = time.monotonic()
    references = [reference_s()]
    if setup_only:
        return {"ready_at": ready_at, "references_s": references}
    tracer = None
    if spans is not None:
        tracer = Tracer(layers.hook_for)
        tracer.install()
    outcomes, elapsed = [], 0.0
    try:
        for cmd in commands:
            buf = io.StringIO()
            code, error = None, None
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    code = qtur.cli.main(list(cmd.argv))
            except (Exception, SystemExit) as exc:
                error = f"{type(exc).__name__}: {exc}"
                traceback.print_exc(file=sys.stderr)
            elapsed += time.perf_counter() - start
            references.append(reference_s())
            outcomes.append((cmd, code, buf.getvalue(), error))
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = _peak_rss_mb()

    units, failed, counters, results = 0, 0, {}, []
    for cmd, code, stdout, error in outcomes:
        if error is None:
            try:
                for key, value in cmd.check(code, stdout).items():
                    counters[key] = counters.get(key, 0) + value
            except workloads.CheckFailed as exc:
                error = f"check failed: {exc}"
        if error is None:
            units += cmd.units
        else:
            failed += 1
            print(f"{cmd.argv[0]}: {error}", file=sys.stderr)
        results.append({
            "command": cmd.argv[0],
            "exit_code": code,
            "error": error,
            "sha256": {Path(p).name: workloads.sha256(p) for p in cmd.outputs if Path(p).exists()},
        })

    out = {
        "ready_at": ready_at,
        "elapsed_s": elapsed,
        "units": units,
        "attempted": len(commands),
        "failed": failed,
        "peak_rss_mb": peak_rss_mb,
        "references_s": references,
        "counters": counters,
        "commands": results,
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        out["layers"] = layers.layer_metrics(tracer, elapsed, span_cost_s())
        tracer.write_spans(spans)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--spans", help="trace the pass and write its spans to this CSV")
    parser.add_argument("--setup-only", action="store_true", help="exit once the inputs exist")
    args = parser.parse_args(argv)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    result = run_pass(args.workload, args.seed, args.pass_index, workdir, args.workers,
                      args.spans, args.setup_only)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
