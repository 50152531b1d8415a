"""One benchmark pass: the user operation on every model of a workload.

The operation is what `ruinwalk --config ... --out ...` does:
config_from_dict -> run_model -> write_outputs(fmt="both"). Every model's
outcome is classified and counted; no failure aborts a pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from ruinwalk.config import config_from_dict
from ruinwalk.errors import RuinwalkError
from ruinwalk.pipeline import run_model
from ruinwalk.reporting import write_outputs

from reference import reference_misses
from workloads import Job

OK = "ok"


@dataclass(frozen=True)
class Outcome:
    model_id: str
    seconds: float  # the user operation only; the reference gate is not timed
    status: str  # OK, or the failure class
    failed_checks: int = 0


def classify(job: Job, config, report, error: Exception | None, outdir: Path) -> tuple[str, int]:
    """Failure class of one run, and how many of the program's own checks failed.

    Classes: raised:<error> for the package's own errors, crashed:<error> for
    any other exception, check:<names> for a report with failed checks (the
    CLI's exit 1), reference:<names> for an accepted result that misses the
    benchmark's reference gate.
    """
    if error is not None:
        kind = "raised" if isinstance(error, RuinwalkError) else "crashed"
        return f"{kind}:{type(error).__name__}", 0
    failed = [c.name for c in report.checks if not c.passed]
    if failed:
        return "check:" + "+".join(failed), len(failed)
    misses = reference_misses(job.model_id, config, report, outdir)
    if misses:
        return "reference:" + "+".join(misses), 0
    return OK, 0


def run_pass(jobs: list[Job], outdir: Path, tracer=None) -> list[Outcome]:
    run, write = run_model, write_outputs
    if tracer is not None:
        run, write = tracer.wrap(run_model, "run_model"), tracer.wrap(write_outputs, "write_outputs")
    outcomes = []
    for job in jobs:
        if tracer is not None:
            tracer.start_model(job.model_id)
        config = report = error = None
        t0 = time.perf_counter()
        try:
            config = config_from_dict(job.config)
            report = run(config, verify=job.verify)
            write(report, outdir, fmt="both")
        except Exception as exc:  # counted as a failure class, never aborts the pass
            error = exc
        seconds = time.perf_counter() - t0
        status, failed_checks = classify(job, config, report, error, outdir)
        outcomes.append(Outcome(job.model_id, seconds, status, failed_checks))
    return outcomes
