"""Outside-in span tracer for the qtur package, standard library only.

The tracer does not touch qtur's sources. It replaces every public
function bound in a ``qtur.*`` namespace with a timing wrapper, under
each name that binds it (``qtur.sweeps`` holds its own ``steady_state``,
``qtur.cli`` its own ``counting_moments``), plus ``LindbladModel.build``
and the methods of ``TrajectorySampler`` and ``PathWeights``. Module code
looks those names up at call time, so calls between qtur modules are
seen; calls to private helpers are not, and their time counts as the
self time of the nearest traced caller.

A span is (name, start, end, parent index). Spans are kept in memory and
written out by :meth:`Tracer.write_spans` when the run ends. Self time is
a span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

TRACED_CLASSES = ("TrajectorySampler", "PathWeights")


class Tracer:
    def __init__(self, hook_for=lambda name: None):
        """``hook_for(name)`` gives the span's ``hook(counters, args, kwargs,
        result)`` or None; a hook runs after each call that returns, to
        count work at that boundary."""
        self.hook_for = hook_for
        self.spans: list = []
        self.stats: dict = {}  # name -> [calls, self_s]
        self.counters: Counter = Counter()
        self._stack: list = []  # [span index, time covered by children]
        self._patches: list = []  # (owner, attribute, original value)
        self._wrappers: dict = {}  # id(original function) -> wrapper

    def _wrap(self, name: str, fn):
        key = id(fn)
        if key in self._wrappers:
            return self._wrappers[key]
        spans, stack = self.spans, self._stack
        stats = self.stats.setdefault(name, [0, 0.0])
        hook = self.hook_for(name)
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                spans[index] = (name, start, end, parent)
                stats[0] += 1
                stats[1] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        self._wrappers[key] = traced
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package: str = "qtur") -> None:
        """Wrap the public callables of every loaded ``package.*`` module."""
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))
        ]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__ or ""
                if not home.startswith(package + "."):
                    continue
                layer = home.rsplit(".", 1)[-1]
                self._patch(module, attr, self._wrap(f"{layer}.{obj.__name__}", obj))
        operators = sys.modules[f"{package}.operators"]
        model_cls = operators.LindbladModel
        build = model_cls.__dict__["build"].__func__
        self._patch(model_cls, "build", classmethod(self._wrap("operators.LindbladModel.build", build)))
        trajectories = sys.modules[f"{package}.trajectories"]
        for cls_name in TRACED_CLASSES:
            cls = getattr(trajectories, cls_name)
            for attr, obj in list(vars(cls).items()):
                if inspect.isfunction(obj) and (attr == "__init__" or not attr.startswith("_")):
                    self._patch(cls, attr, self._wrap(f"trajectories.{cls_name}.{attr}", obj))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def calls(self, *names: str) -> int:
        return sum(self.stats[n][0] for n in names if n in self.stats)

    def write_spans(self, path) -> None:
        """Write the spans as CSV: index, name, start_s, end_s, parent index."""
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent}\n")


def span_cost_s(rounds: int = 20000) -> float:
    """Seconds one traced call adds to a plain call, timed on a no-op."""

    def noop():
        return None

    traced = Tracer()._wrap("noop", noop)
    clock = time.perf_counter
    start = clock()
    for _ in range(rounds):
        noop()
    plain = clock() - start
    start = clock()
    for _ in range(rounds):
        traced()
    return max(clock() - start - plain, 0.0) / rounds
