"""Traced mode: one span per call into a spinring module's public function.

Spans are recorded from the benchmark's own files.  `install` swaps, for the
duration of a `with` block, the names a caller module resolves (for example
`spinring.optimize.xi` or `spinring.cli.csv_text`) and the callables a
workload holds for a wrapper that records (name, start, end, parent).  Spans
stay in memory; `write` saves them when the run ends and `layer_metrics`
derives the per-layer figures from them.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path


def _grid_points(args, kwargs, result):
    spec = args[2]  # cli passes (n, ds, spec) positionally
    return {"optimize.grid_points": len(spec.f_candidates) * len(spec.beta_grid())}


def _csv_size(args, kwargs, result):
    return {"serialize.csv_text.rows": result.count("\n") - 1, "serialize.csv_text.bytes": len(result)}


# (caller module, name it resolves, span name, counters taken from the call)
MODULE_PATCHES = (
    ("spinring.cli", "optimize_transfers", "optimize.transfers", _grid_points),
    ("spinring.cli", "xi", "amplitude.xi", None),
    ("spinring.optimize", "xi", "amplitude.xi", None),
    ("spinring.blockage", "xi", "amplitude.xi", None),
    ("spinring.cli", "xi_profile", "amplitude.xi_profile",
     lambda a, k, r: {"amplitude.xi_profile.points": len(r)}),
    ("spinring.amplitude", "bessel_j_ladder", "bessel.ladder",
     lambda a, k, r: {"bessel.ladder.orders": len(r)}),
    ("spinring.amplitude", "propagate_oracle", "ring.propagate_oracle", None),
    ("spinring.entangle", "propagate_oracle", "ring.propagate_oracle", None),
    ("spinring.cli", "entanglement_curve", "entangle.curve",
     lambda a, k, r: {"entangle.curve.points": len(r[0])}),
    ("spinring.entangle", "entanglement_curve", "entangle.curve",
     lambda a, k, r: {"entangle.curve.points": len(r[0])}),
    ("spinring.cli", "find_entangling_time", "entangle.find", None),
    ("spinring.cli", "verify_blockage", "blockage.verify",
     lambda a, k, r: {"blockage.verify.samples": r.samples}),
    ("spinring.cli", "csv_text", "serialize.csv_text", _csv_size),
    ("spinring.cli", "dumps", "serialize.dumps", None),
    ("spinring.cli", "write_text", "serialize.write_text", None),
)

# Spans whose call count and self time are reported, and the counters.
SPAN_CALLS = ("amplitude.xi", "bessel.ladder", "ring.propagate_oracle")
SPAN_SELF = (
    "cli", "optimize.transfers", "amplitude.xi", "amplitude.xi_profile", "amplitude.spectral",
    "amplitude.bessel", "amplitude.oracle", "bessel.ladder", "ring.propagate_oracle",
    "entangle.curve", "entangle.find", "blockage.verify", "serialize.csv_text",
    "serialize.dumps", "serialize.write_text",
)
COUNTERS = (
    "optimize.grid_points", "amplitude.xi_profile.points", "bessel.ladder.orders",
    "entangle.curve.points", "blockage.verify.samples", "serialize.csv_text.rows",
    "serialize.csv_text.bytes",
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []  # name, start, end, parent, pass
        self.counts: dict[str, int] = defaultdict(int)
        self.pass_index = 0
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.pass_index)
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    counts[key] += value
            return result

        return traced

    @contextlib.contextmanager
    def install(self, workload):
        """Wrap the module names above and the callables the workload holds."""
        undo = []

        def swap(owner, attr, new):
            undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        for module, attr, name, count in MODULE_PATCHES:
            owner = importlib.import_module(module)
            swap(owner, attr, self.wrap(name, getattr(owner, attr), count))
        if hasattr(workload, "main"):
            swap(workload, "main", self.wrap("cli", workload.main))
        if hasattr(workload, "routes"):
            swap(workload, "routes", {
                route: self.wrap(f"amplitude.{route}", fn) for route, fn in workload.routes.items()
            })
            swap(workload, "blockage", self.wrap(
                "blockage.verify", workload.blockage,
                lambda a, k, r: {"blockage.verify.samples": r.samples},
            ))
        try:
            yield self
        finally:
            for owner, attr, old in reversed(undo):
                setattr(owner, attr, old)

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass totals: span self time (duration minus child spans), calls, counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for (name, start, end, _, _), inner in zip(self.spans, child):
            self_s[name] += end - start - inner
            calls[name] += 1
        out = {f"{name}.calls": calls[name] / passes for name in SPAN_CALLS}
        out.update({f"{name}.self_s": self_s[name] / passes for name in SPAN_SELF})
        out.update({name: self.counts[name] / passes for name in COUNTERS})
        out["trace.overhead_s"] = span_cost() * len(self.spans) / passes
        return out

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "pass")
        path.write_text(json.dumps([dict(zip(keys, span)) for span in self.spans]), encoding="utf-8")


def span_cost(calls: int = 20000) -> float:
    """Seconds one recorded span adds to a call, from timing a wrapped no-op."""

    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    times = []
    for fn in (noop, traced) * 3:
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append(time.perf_counter() - start)
    return max(min(times[1::2]) - min(times[0::2]), 0.0) / calls
