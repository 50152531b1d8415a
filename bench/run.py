"""Benchmark of the ruinwalk batch operation, one workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the package from src/.
With --trace 0 it measures the end-to-end metrics: set-up time from a few
fresh interpreters, then one fresh worker process that runs whole passes over
the workload for about S seconds. With --trace 1 the worker splits S between
untraced and traced passes and the per-layer metrics are reported, tracing
overhead included. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The exit code is 1 when an
accepted result misses the reference gate, 2 when the run cannot be made.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
DEADLINE_S = 175.0  # every run must end within 180 s

class BenchError(RuntimeError):
    pass


def _child(args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh interpreter with one thread of numeric work."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args, "--out", str(OUT)],
            capture_output=True, text=True, env=env, timeout=timeout, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[0]} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _setup_seconds(deadline: float) -> list[float]:
    """Fresh interpreter to the first result of a tiny model, several times."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        _child(["probe"], deadline)
        times.append(time.perf_counter() - t0)
    return times


def _metrics(values: dict, declared: list[dict]) -> dict:
    """The declared metrics, in BENCHMARK.json order, with their units."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def _end_to_end(run: dict, setup: list[float]) -> dict:
    return {
        "wall_s": run["wall_s"],
        "ok_frac": run["outcomes"].get("ok", 0) / sum(run["outcomes"].values()),
        "peak_rss_mb": run["peak_rss_mb"],
        "setup_s": statistics.median(setup),
    }


def _print_breakdown(args, run: dict, setup: list[float] | None) -> None:
    outcomes = run["outcomes"]
    attempted = sum(outcomes.values())
    print(f"workload {args.workload} seed {args.seed}: {len(run['pass_seconds'])} untraced "
          f"passes, {attempted} model runs")
    print("  pass wall s: " + " ".join(f"{s:.4f}" for s in run["pass_seconds"]))
    models = run["model_seconds"]
    print(f"  per-model s over {len(models)} models: p50 {statistics.median(models):.5f}, "
          f"p90 {statistics.quantiles(models, n=10, method='inclusive')[8]:.5f}")
    if setup is not None:
        print("  setup s: " + " ".join(f"{s:.4f}" for s in setup))
    print(f"  fail_frac {1 - outcomes.get('ok', 0) / attempted:.4f}; outcomes by class:")
    for status, n in sorted(outcomes.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"    {n:6d}  {n / attempted:7.2%}  {status}")
    if "traced_pass_seconds" in run:
        print("  traced pass wall s: " + " ".join(f"{s:.4f}" for s in run["traced_pass_seconds"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "ruinwalk" / "__init__.py").is_file():
        print(f"no ruinwalk sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        setup = None if args.trace else _setup_seconds(deadline)
        run = _child(["run", "--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    _print_breakdown(args, run, setup)
    outcomes = Counter(run["outcomes"]) + Counter(run.get("traced_outcomes", {}))
    attempted = sum(outcomes.values())
    correct = not any(status.startswith("reference:") for status in outcomes)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        metrics = _metrics(run["layers"], spec["per_layer"])
    else:
        metrics = _metrics(_end_to_end(run, setup), spec["end_to_end"])
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": attempted - outcomes.get("ok", 0),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
