"""Benchmark workloads: which models one pass runs, generated from the seed.

A workload is a list of `Job`s: the fixed model matrix `MATRIX` at the sizes
of that workload. The seed picks the order of the models and, on
`verify_mc`, their Monte Carlo seeds; the program only ever sees the
generated configs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GEOMETRIC_P = 101.0 / 300.0

# (claim law as a config dict, premium rate kappa)
MATRIX = {
    "bern_k1": ({"kind": "finite", "pmf": [0.7, 0.3]}, 1),
    "geom_k2": ({"kind": "geometric", "p": GEOMETRIC_P}, 2),
    "geom_k3": ({"kind": "geometric", "p": GEOMETRIC_P}, 3),
    "double_k3": ({"kind": "finite", "pmf": [0.128, 0.576, 0.264, 0.032]}, 3),
    "shifted_k2": ({"kind": "finite", "pmf": [0.0, 0.6, 0.4]}, 2),
    "unif40_k25": ({"kind": "finite", "pmf": [1.0 / 41.0] * 41}, 25),
    "geom_k50": ({"kind": "geometric", "p": 0.03}, 50),
}

WORKLOADS = ("table_deep", "verify_mc")

MC_PATHS = 16_384  # one Philox chunk
MC_HORIZON = 2000


@dataclass(frozen=True)
class Job:
    """One user operation: the config file contents and the --verify flag."""

    model_id: str
    config: dict
    verify: bool = False


def _matrix_job(name: str, **sizes) -> Job:
    dist, kappa = MATRIX[name]
    return Job(name, {"kappa": kappa, "dist": dist, **sizes})


def _matrix_order(seed: int) -> list[str]:
    names = list(MATRIX)
    order = np.random.default_rng([seed, 0]).permutation(len(names))
    return [names[i] for i in order]


def matrix_jobs(workload: str, seed: int) -> list[Job]:
    """The jobs of one pass; every pass of a run repeats them."""
    jobs = []
    for index, name in enumerate(_matrix_order(seed)):
        if workload == "table_deep":
            jobs.append(_matrix_job(name, u_max=2000, t_max=20))
        elif workload == "verify_mc":
            mc = {"paths": MC_PATHS, "horizon": MC_HORIZON, "seed": seed * 100 + index}
            job = _matrix_job(name, u_max=60, t_max=20, mc=mc)
            jobs.append(Job(job.model_id, job.config, verify=True))
        else:
            raise ValueError(f"unknown workload {workload!r}")
    return jobs
