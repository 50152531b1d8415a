"""Tests of the benchmark harness itself: gate, workloads, accounting and tracing.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
from pathlib import Path

import harness
import pytest
import ruinwalk.pipeline
import worker
from harness import OK, classify, run_pass
from reference import reference_misses
from ruinwalk.config import config_from_dict
from ruinwalk.errors import ConvergenceFailure
from ruinwalk.pipeline import run_model
from ruinwalk.reporting import write_outputs
from tracing import Tracer
from workloads import Job, matrix_jobs


def _small(name: str, **sizes) -> Job:
    job = next(j for j in matrix_jobs("verify_mc", 0) if j.model_id == name)
    return Job(name, {**job.config, **sizes}, verify=False)


def _solved(job: Job, outdir):
    config = config_from_dict(job.config)
    report = run_model(config, verify=job.verify)
    write_outputs(report, outdir, fmt="both")
    return config, report


class TestReferenceGate:
    def test_unperturbed_result_passes(self, tmp_path):
        job = _small("geom_k2", u_max=40, t_max=5)
        config, report = _solved(job, tmp_path)
        assert reference_misses(job.model_id, config, report, tmp_path) == []
        assert classify(job, config, report, None, tmp_path) == (OK, 0)

    def test_perturbed_exact_value_is_caught(self, tmp_path):
        job = _small("geom_k2", u_max=40, t_max=5)
        config, report = _solved(job, tmp_path)
        report.survival.phi[1] += 1e-9
        write_outputs(report, tmp_path, fmt="both")
        assert reference_misses(job.model_id, config, report, tmp_path) == ["geom_k2_exact"]
        status, _ = classify(job, config, report, None, tmp_path)
        assert status == "reference:geom_k2_exact"

    def test_non_monotone_table_is_caught(self, tmp_path):
        job = _small("geom_k3", u_max=40, t_max=5)
        config, report = _solved(job, tmp_path)
        phi = report.survival.phi
        phi[[5, 6]] = phi[[6, 5]]
        assert "phi_non_decreasing" in reference_misses(job.model_id, config, report, tmp_path)

    def test_perturbed_finite_time_grid_is_caught(self, tmp_path):
        job = _small("unif40_k25", u_max=40, t_max=5)
        config, report = _solved(job, tmp_path)
        report.finite_time.phi[1, 0] += 1e-9
        assert reference_misses(job.model_id, config, report, tmp_path) == ["finite_time_oracle"]

    def test_csv_that_disagrees_with_the_table_is_caught(self, tmp_path):
        job = _small("geom_k3", u_max=40, t_max=5)
        config, report = _solved(job, tmp_path)
        report.survival.phi[3] *= 1.0 - 1e-9
        assert reference_misses(job.model_id, config, report, tmp_path) == ["survival_csv"]


class TestWorkloads:
    def test_matrix_order_follows_the_seed(self):
        names = [j.model_id for j in matrix_jobs("table_deep", 3)]
        assert names == [j.model_id for j in matrix_jobs("table_deep", 3)]
        assert sorted(names) == sorted(j.model_id for j in matrix_jobs("table_deep", 4))

    def test_monte_carlo_seeds_follow_the_seed(self):
        def seeds(seed):
            return sorted(j.config["mc"]["seed"] for j in matrix_jobs("verify_mc", seed))

        assert seeds(5) == seeds(5) and seeds(5) != seeds(6)
        assert all(j.verify for j in matrix_jobs("verify_mc", 5))


class TestFailureAccounting:
    def test_failures_are_classified_not_raised(self, tmp_path, monkeypatch):
        bad_config = Job("bad", {"kappa": 0, "dist": {"kind": "geometric", "p": 0.5}})
        good = _small("bern_k1", u_max=20, t_max=5)
        assert [o.status for o in run_pass([bad_config, good], tmp_path)] == [
            "raised:ConfigError", OK
        ]

        def broken(config, *, verify=False):
            raise IndexError("index 3 is out of bounds")

        monkeypatch.setattr(harness, "run_model", broken)
        [outcome] = run_pass([good], tmp_path)
        assert outcome.status == "crashed:IndexError"


class TestTracing:
    def test_capped_dp_nests_under_horizon_bias_bound(self, tmp_path):
        job = next(j for j in matrix_jobs("verify_mc", 0) if j.model_id == "geom_k2")
        config = {**job.config, "mc": {"paths": 256, "horizon": 200, "seed": 1}}
        tracer = Tracer()
        with tracer.installed():
            [outcome] = run_pass([Job(job.model_id, config, verify=True)], tmp_path, tracer)
        assert outcome.status == OK
        by_id = {s.id: s for s in tracer.spans}
        nested = [
            s for s in tracer.spans
            if s.name == "finite_time_grid" and s.parent is not None
            and by_id[s.parent].name == "horizon_bias_bound"
        ]
        assert len(nested) == 1
        roots = [s for s in tracer.spans if s.parent is None]
        assert [s.name for s in roots] == ["run_model", "write_outputs"]
        assert tracer.counts["verification.path_steps"] == 2 * 256 * 200
        times = tracer.self_times()
        assert all(v >= 0.0 for v in times.values())
        assert sum(times.values()) == pytest.approx(
            sum(s.end - s.start for s in roots), rel=1e-9
        )

    def test_patches_are_removed_afterwards(self):
        original = ruinwalk.pipeline.finite_time_grid
        with Tracer().installed():
            assert ruinwalk.pipeline.finite_time_grid is not original
        assert ruinwalk.pipeline.finite_time_grid is original

    def test_errors_count_once_in_the_innermost_layer(self, tmp_path, monkeypatch):
        def diverged(char, **kwargs):
            raise ConvergenceFailure("no convergence")

        monkeypatch.setattr(ruinwalk.pipeline, "find_unit_disk_roots", diverged)
        tracer = Tracer()
        with tracer.installed():
            [outcome] = run_pass([_small("geom_k3", u_max=20, t_max=5)], tmp_path, tracer)
        assert outcome.status == "raised:ConvergenceFailure"
        assert dict(tracer.errors) == {"charpoly.errors": 1}


def test_traced_run_reports_exactly_the_declared_per_layer_metrics():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    reported = set(worker.TIME_METRICS) | set(worker.COUNT_METRICS) | set(worker.DERIVED_METRICS)
    assert reported == {m["name"] for m in spec["per_layer"]}
