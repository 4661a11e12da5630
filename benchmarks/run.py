"""spinring benchmark: one workload per run, or all four with --workload all.

    python3 benchmarks/run.py --workload table1 --seed 1 --seconds 15 --trace 0

The package is imported from the checkout's own `src/`.  A run measures
set-up (fresh interpreters importing `spinring.cli`), does an untimed warm-up
pass, after which its own peak memory is that of a fresh process that ran one
pass, and then does timed passes until `--seconds` have elapsed.  Every pass
is checked.

Times are reported at a fixed machine speed: set-up samples and passes
alternate with speed probes (calibration rounds of a fixed mix of numpy,
Python-loop and formatting work that does not touch spinring), and each
sample is scaled by CALIBRATION_REF_S over the mean of the probes on its two
sides.  On a shared machine whose speed drifts by tens of percent within a
minute this keeps the run-to-run spread of the timings under a tenth; the raw
medians and the speed factor go to stderr.

The last line of stdout is one JSON object: `correct`, `attempted`, `failed`
and `metrics`, which are the end-to-end metrics with `--trace 0` and the
per-layer metrics of a traced run with `--trace 1`.  Spans of a traced run are
written to `.bench_build/spinring-bench/`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "spinring-bench"
NAMES = ("table1", "crosscheck", "protocol", "landscape")
SETUP_REPEATS = 11
# Seconds one calibration round takes on the machine the README's figures come from.
CALIBRATION_REF_S = 0.020
UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MiB", "query_p50_ms": "ms", "query_p99_ms": "ms"}


def _env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def calibration_round() -> float:
    """Seconds for a fixed mix of complex exp, a scalar recurrence and float formatting."""
    import numpy as np

    start = time.perf_counter()
    z = np.linspace(0.0, 50.0, 40000) * 1j
    for _ in range(3):
        np.abs(np.exp(z)).sum()
    x, y = 1e-30, 0.0
    for k in range(40000, 0, -1):
        x, y = k * 1e-4 * x - y, x
        if abs(x) > 1e250:
            x, y = x * 1e-250, y * 1e-250
    vals = np.arange(4000) * 0.3711
    "\n".join(f"{a:.12g},{b:.12g}" for a, b in zip(vals, vals * 1.7))
    return time.perf_counter() - start


def speed_probe() -> float:
    """Median of three calibration rounds: the machine's speed at this moment."""
    return statistics.median(calibration_round() for _ in range(3))


def scaled(raw: list[float], probes: list[float]) -> list[float]:
    """Each raw time at the reference speed; sample i lies between probes i and i + 1."""
    return [t * CALIBRATION_REF_S / ((a + b) / 2.0) for t, a, b in zip(raw, probes, probes[1:])]


def setup_seconds() -> tuple[float, float]:
    """(scaled, raw) median wall time of a fresh interpreter that imports spinring.cli."""
    cmd = [sys.executable, "-c", "import spinring.cli"]
    subprocess.run(cmd, env=_env(), check=True)  # writes the bytecode cache, untimed
    times, probes = [], [speed_probe()]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, env=_env(), check=True)
        times.append(time.perf_counter() - start)
        probes.append(speed_probe())
    return statistics.median(scaled(times, probes)), statistics.median(times)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank q-quantile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    from spans import Tracer
    from workloads import WORKLOADS, CheckFailed

    metrics = {}
    if not trace:
        metrics["setup_s"], raw_setup = setup_seconds()
    workload = WORKLOADS[name](seed, workdir)
    attempted = failed = 0
    try:
        warm = workload.run_pass()
        # this process is fresh and has run one pass and nothing else yet
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted, failed = warm.attempted, workload.check(warm)
        tracer = Tracer()
        passes, probes = [], [speed_probe()]
        with tracer.install(workload) if trace else contextlib.nullcontext():
            deadline = time.perf_counter() + seconds
            while not passes or time.perf_counter() < deadline:
                tracer.pass_index = len(passes)
                result = workload.run_pass()
                probes.append(speed_probe())
                failed += workload.check(result)
                attempted += result.attempted
                passes.append(result)
    except CheckFailed as exc:
        print(f"incorrect: {exc}", file=sys.stderr)
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}

    if trace:
        tracer.write(WORK / f"trace-{name}-seed{seed}.json")
        values = tracer.layer_metrics(len(passes))
        metrics = {key: {"value": v, "unit": _layer_unit(key)} for key, v in values.items()}
    else:
        factors = scaled([1.0] * len(passes), probes)
        metrics["pass_s"] = statistics.median(p.seconds * k for p, k in zip(passes, factors))
        # every pass repeats the same queries: a query's latency is its median over the passes
        latencies = [statistics.median(q) for q in zip(*([x * k for x in p.latencies] for p, k in zip(passes, factors)))]
        metrics["query_p50_ms"] = 1e3 * statistics.median(latencies)
        metrics["query_p99_ms"] = 1e3 * percentile(latencies, 0.99)
        print(
            f"raw: setup_s {raw_setup:.4g}, pass_s {statistics.median(p.seconds for p in passes):.4g}; "
            f"speed factor median {statistics.median(factors):.3f} over {len(passes)} passes",
            file=sys.stderr,
        )
        metrics = {key: {"value": metrics[key], "unit": UNITS[key]} for key in UNITS}
    return {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}


def _layer_unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    return "B" if key.endswith(".bytes") else "count"


def machine_info() -> str:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return (
        f"python {sys.version.split()[0]}, numpy {np.__version__}, "
        f"blas {blas.get('name', '?')} {blas.get('version', '')}, cpus {os.cpu_count()}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spinring" / "__init__.py").is_file():
        print(f"error: no spinring sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    print(machine_info(), file=sys.stderr)
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except Exception:
        traceback.print_exc()
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own fresh process, so memory figures stay per workload."""
    results = {}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: {json.dumps(results[name])}", flush=True)
    final = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
