"""Child process of the benchmark: runs one workload, or one set-up probe.

    python3 bench/worker.py run --workload W --seed N --seconds S --trace 0|1 --out DIR
    python3 bench/worker.py probe --out DIR

Prints one JSON object as its last line. `run.py` starts a fresh one per
workload run, so peak RSS belongs to that workload alone.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from harness import OK, run_pass  # noqa: E402
from tracing import LAYERS, SPAN_METRIC, Tracer  # noqa: E402
from workloads import GEOMETRIC_P, Job, matrix_jobs  # noqa: E402

# set-up probe: a tiny model through the whole operation, verification included
PROBE = Job(
    "probe_bern_k1",
    {
        "kappa": 1,
        "dist": {"kind": "finite", "pmf": [0.7, 0.3]},
        "u_max": 10,
        "t_max": 10,
        "mc": {"paths": 1024, "horizon": 100, "seed": 0},
    },
    verify=True,
)
# warm-up before timing: also runs the premium-rate-2 oracle's lazy import
WARMUP = [PROBE, Job("warmup_geom_k2", {**PROBE.config, "kappa": 2,
                                        "dist": {"kind": "geometric", "p": GEOMETRIC_P}},
                     verify=True)]

TIME_METRICS = sorted(set(SPAN_METRIC.values()))
COUNT_METRICS = [
    "pipeline.checks_failed", "charpoly.calls", "charpoly.degree_sum", "survival.dp_mac",
    "verification.path_steps", "reporting.bytes_written",
] + [f"{layer}.errors" for layer in LAYERS]
DERIVED_METRICS = ["verification.path_steps_per_s", "trace.overhead_s"]


def _passes(workload: str, seed: int, budget: float, outdir: Path, traced: bool) -> list:
    """Closed loop of whole passes while the next one fits in the budget."""
    jobs = matrix_jobs(workload, seed)
    passes = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        began = time.perf_counter()
        if traced:
            tracer = Tracer()
            with tracer.installed():
                outcomes = run_pass(jobs, outdir, tracer)
        else:
            tracer = None
            outcomes = run_pass(jobs, outdir)
        passes.append((outcomes, tracer))
        now = time.perf_counter()
        longest = max(longest, now - began)
        if now - start + longest > budget:
            return passes


def _wall(outcomes) -> float:
    return sum(o.seconds for o in outcomes)


def _fastest(passes) -> dict[str, float]:
    """Each model's time: the fastest of its repeats in the run.

    Identical passes on a shared 2-CPU host vary by up to 1.7x from contention
    the process cannot see, and that noise only ever adds time.
    """
    fastest: dict[str, float] = {}
    for outcomes, _ in passes:
        for o in outcomes:
            fastest[o.model_id] = min(o.seconds, fastest.get(o.model_id, o.seconds))
    return fastest


def _pass_seconds(passes) -> float:
    """One pass of the workload, every model at its fastest repeat."""
    return sum(_fastest(passes).values())


def _untraced_summary(passes) -> dict:
    return {
        "wall_s": _pass_seconds(passes),
        "pass_seconds": [_wall(p) for p, _ in passes],
        "model_seconds": list(_fastest(passes).values()),
        "outcomes": dict(Counter(o.status for p, _ in passes for o in p)),
    }


def _traced_summary(passes, untraced) -> dict:
    times = Counter()
    for _, tracer in passes:
        times.update(tracer.self_times())
    layer = {name: times[name] / len(passes) for name in TIME_METRICS}
    # every pass runs the same models, so counts come from the first one
    first_outcomes, first = passes[0]
    counts = Counter(first.counts) + first.errors
    counts["pipeline.checks_failed"] = sum(o.failed_checks for o in first_outcomes)
    layer.update({name: counts[name] for name in COUNT_METRICS})
    first_times = first.self_times()
    sim_s = first_times["verification.mc_s"] + first_times["verification.stationarity_s"]
    layer["verification.path_steps_per_s"] = counts["verification.path_steps"] / sim_s if sim_s else 0.0
    layer["trace.overhead_s"] = _pass_seconds(passes) - untraced["wall_s"]
    return {
        "traced_pass_seconds": [_wall(p) for p, _ in passes],
        "traced_outcomes": dict(Counter(o.status for p, _ in passes for o in p)),
        "layers": layer,
    }


def _write_spans(path: Path, passes) -> None:
    with path.open("w") as fh:
        for index, (_, tracer) in enumerate(passes):
            for s in tracer.spans:
                fh.write(json.dumps({"pass": index, **vars(s)}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("run", "probe"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    with tempfile.TemporaryDirectory(dir=out) as tmp:
        outdir = Path(tmp)
        warm = run_pass([PROBE] if args.mode == "probe" else WARMUP, outdir)
        if any(o.status != OK for o in warm):
            print(f"set-up model failed: {[o.status for o in warm]}", file=sys.stderr)
            return 1
        if args.mode == "probe":
            print(json.dumps({"status": OK}))
            return 0

        budget = args.seconds / (2 if args.trace else 1)
        result = _untraced_summary(_passes(args.workload, args.seed, budget, outdir, False))
        if args.trace:
            traced = _passes(args.workload, args.seed, budget, outdir, True)
            result.update(_traced_summary(traced, result))
            _write_spans(out / f"spans-{args.workload}-seed{args.seed}.jsonl", traced)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
