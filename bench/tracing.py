"""Span tracer for the traced benchmark run.

The tracer wraps, at run time, the layer functions that `ruinwalk.pipeline`
imports, so `run_model` itself is the traced program and no copy of its logic
lives here. `finite_time_grid` is also wrapped where `ruinwalk.verification`
imports it (the capped DP inside `horizon_bias_bound`), and the pole tail is
wrapped where `ruinwalk.survival` builds and evaluates it, so its cost shows
under the table and series spans. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

import ruinwalk.pipeline as pipeline_mod
import ruinwalk.survival as survival_mod
import ruinwalk.verification as verification_mod

# span name -> per-layer time metric that its self time adds to
SPAN_METRIC = {
    "run_model": "pipeline.self_s",
    "find_unit_disk_roots": "charpoly.roots_s",
    "build_boundary_system": "supremum.solve_s",
    "solve_boundary_system": "supremum.solve_s",
    "sup_pmf_closed_form": "supremum.closed_form_s",
    "determinant_identity_error": "supremum.closed_form_s",
    "ultimate_survival_table": "survival.table_s",
    "survival_gf_coefficients": "survival.series_s",
    "closed_form_initial_values": "survival.closed_form_s",
    "survival_gf": "survival.gf_s",
    "survival_gf_closed": "survival.gf_s",
    "tail_expansion": "survival.tail_s",
    "TailExpansion.phi": "survival.tail_s",
    "TailExpansion.sup_mass": "survival.tail_s",
    "finite_time_grid": "survival.finite_time_s",
    "extend_sup_pmf_stable": "survival.extend_s",
    "mc_survival": "verification.mc_s",
    "mc_stationarity_distance": "verification.stationarity_s",
    "horizon_bias_bound": "verification.bias_s",
    "stationarity_identity_residual": "verification.identity_s",
    "recurrent_sequence_limits": "verification.sequences_s",
    "write_outputs": "reporting.write_s",
}

LAYERS = ("pipeline", "charpoly", "supremum", "survival", "verification", "reporting")

# (owner, attribute, span name) for every call site the tracer wraps
_PIPELINE_IMPORTS = [
    name for name in SPAN_METRIC if "." not in name and name not in ("run_model", "write_outputs")
]
PATCHES = (
    [(pipeline_mod, name, name) for name in _PIPELINE_IMPORTS]
    + [
        (verification_mod, "finite_time_grid", "finite_time_grid"),
        (survival_mod, "tail_expansion", "tail_expansion"),
        (survival_mod.TailExpansion, "phi", "TailExpansion.phi"),
        (survival_mod.TailExpansion, "sup_mass", "TailExpansion.sup_mass"),
    ]
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    model: str
    error: str | None = None


def _count_roots(counts: Counter, args, kwargs, result) -> None:
    counts["charpoly.calls"] += 1
    counts["charpoly.degree_sum"] += args[0].degree


def _count_dp(counts: Counter, args, kwargs, result) -> None:
    # multiply-adds of the full-cone DP, computed from its array sizes:
    # each of t_max steps convolves (state length + 1) cells with the pmf
    dist, kappa, u_max, t_max = args
    cap = kwargs.get("state_cap")
    length = u_max + kappa * t_max if cap is None else max(u_max + kappa, int(cap))
    support = dist.truncate(dist.trunc_eps)[0].size
    counts["survival.dp_mac"] += t_max * (length + 1) * support


def _count_mc(counts: Counter, args, kwargs, result) -> None:
    counts["verification.path_steps"] += result.paths * result.effective_horizon


def _count_stationarity(counts: Counter, args, kwargs, result) -> None:
    # the sample is simulated like mc_survival's: one step when no claim
    # exceeds the premium, the full horizon otherwise
    dist, kappa = args[0], args[1]
    maxs = dist.max_support()
    steps = 1 if maxs is not None and maxs <= kappa else result.horizon
    counts["verification.path_steps"] += result.paths * steps


def _count_written(counts: Counter, args, kwargs, result) -> None:
    counts["reporting.bytes_written"] += sum(p.stat().st_size for p in result)


COUNTERS = {
    "find_unit_disk_roots": _count_roots,
    "finite_time_grid": _count_dp,
    "mc_survival": _count_mc,
    "mc_stationarity_distance": _count_stationarity,
    "write_outputs": _count_written,
}


class Tracer:
    """Records one span per wrapped call and counts at the same boundary."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.model = ""
        self._stack: list[int] = []
        self._seen_errors: set[int] = set()

    def wrap(self, fn, name: str):
        counter = COUNTERS.get(name)
        layer = SPAN_METRIC[name].split(".")[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(self.spans), name, 0.0, 0.0,
                        self._stack[-1] if self._stack else None, self.model)
            self.spans.append(span)
            self._stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.end = time.perf_counter()
                span.error = type(exc).__name__
                # count an error once, in the innermost span it escaped from
                if id(exc) not in self._seen_errors:
                    self._seen_errors.add(id(exc))
                    self.errors[f"{layer}.errors"] += 1
                raise
            finally:
                self._stack.pop()
            span.end = time.perf_counter()
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    def start_model(self, model_id: str) -> None:
        self.model = model_id
        self._seen_errors.clear()

    @contextmanager
    def installed(self):
        """Swap the wrapped call sites in for the duration of the block."""
        saved = []
        try:
            for owner, attr, name in PATCHES:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> Counter:
        """Per-layer self time: span durations minus their child spans."""
        child = Counter()
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out = Counter()
        for s in self.spans:
            out[SPAN_METRIC[s.name]] += (s.end - s.start) - child[s.id]
        return out
