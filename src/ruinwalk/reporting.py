"""Report rendering: human-readable text and machine-readable CSV tables."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .pipeline import RunReport

MACHINE_DIGITS = 12
HUMAN_DIGITS = 6
_M = f"%.{MACHINE_DIGITS}g"
FORMATS = ("csv", "report", "both")


def _h(x: float) -> str:
    return f"{float(x):.{HUMAN_DIGITS}g}"


def render_report(report: RunReport, *, include_timings: bool = True) -> str:
    lines: list[str] = []
    add = lines.append
    add("ruinwalk run report")
    add("=" * 40)
    add(f"config: {json.dumps(report.config, sort_keys=True)}")
    add(f"status: {report.status}")
    add(f"mean claim: {_h(report.mean_claim)}   premium rate: {report.kappa}")
    add(
        f"effective premium rate: {report.kappa_eff} (support shift {report.reduction_shift}); "
        f"lattice span: {report.lattice}"
    )
    add("")
    add("unit-disk roots of the characteristic equation")
    if report.roots:
        for r in report.roots:
            tag = " (boundary)" if r["on_boundary"] else ""
            add(
                f"  {_h(r['re'])} {'+' if r['im'] >= 0 else '-'} {_h(abs(r['im']))}i  "
                f"multiplicity {r['multiplicity']}{tag}"
            )
    else:
        add("  none required")
    add("")
    add("supremum pmf (boundary probabilities)")
    for i, v in enumerate(report.sup_mass):
        add(f"  P(M={i}) = {_h(v)}")
    add(f"  solve residual {_h(report.sup_residual)}, imaginary leak {_h(report.sup_imag_leak)}")
    add("")
    add(f"ultimate survival (method: {report.survival.method})")
    upto = min(report.survival.phi.size, 11)
    for u in range(upto):
        add(f"  phi({u}) = {_h(report.survival.phi[u])}")
    if report.survival.phi.size > upto:
        add(f"  ... through u = {report.survival.phi.size - 1} (see survival.csv)")
    add("")
    if report.mc is not None:
        add("monte carlo verification")
        for i, u in enumerate(report.mc.u):
            low, high = report.mc_band[i]
            add(
                f"  u={int(u)}: estimate {_h(report.mc.phi_hat[i])} "
                f"(std err {_h(report.mc.std_err[i])}, band [{_h(low)}, {_h(high)}], "
                f"horizon bias <= {_h(report.mc_bias[i])})"
            )
        add("")
    if report.stationarity is not None:
        s = report.stationarity
        add(
            f"stationarity push: TV = {_h(s.tv)} vs noise scale {_h(s.sampling_noise)} "
            f"({s.paths} paths, horizon {s.horizon})"
        )
        add("")
    if report.sequence_limits is not None:
        l = report.sequence_limits
        add(
            f"recurrent-sequence limits: phi(0) ~ {_h(l.phi0)}, phi(1) ~ {_h(l.phi1)} "
            f"(truncated at N={l.truncated_at}, error <= {_h(l.error_bound)})"
        )
        add("")
    add("checks")
    for c in report.checks:
        mark = "PASS" if c.passed else "FAIL"
        add(f"  [{mark}] {c.name}: {_h(c.value)} <= {_h(c.bound)}")
    if report.warnings:
        add("")
        add("notes")
        for w in report.warnings:
            add(f"  - {w}")
    if include_timings and report.timings:
        add("")
        add("timings (s)")
        for k, v in report.timings.items():
            add(f"  {k}: {v:.3f}")
    add("")
    return "\n".join(lines)


def _value_cells(values, end: str) -> list[str]:
    """`_M % x + end` for each float x of `values`, each distinct value formatted once.

    Distinct means distinct bits, so -0.0 and 0.0 keep their own strings; the
    distinct values go through one `%` call, with NUL (never produced by `%g`)
    between them.
    """
    bits = np.asarray(values, dtype=np.float64).view(np.uint64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    text = (f"{_M}{end}\0" * distinct.size) % tuple(distinct.view(np.float64).tolist())
    cells = np.array(text.split("\0")[:-1], dtype=object)
    return cells[inverse].tolist()


def _key_cells(values, end: str) -> list[str]:
    """`f"{x}" + end` for each x of `values`: the integer, bool and name columns."""
    return [f"{x}{end}" for x in values]


def _join(*columns: list[str]) -> str:
    """The rows of `columns`, whose cells already end in "," or "\r\n", as one string."""
    cells = [None] * (len(columns[0]) * len(columns))
    for i, column in enumerate(columns):
        cells[i :: len(columns)] = column
    return "".join(cells)


def write_outputs(
    report: RunReport,
    outdir: str | Path,
    *,
    fmt: str = "both",
    include_timings: bool = True,
) -> list[Path]:
    """Write report.txt and/or the CSV tables; returns the paths written."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown output format {fmt!r}; expected one of {FORMATS}")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    if fmt in ("report", "both"):
        path = outdir / "report.txt"
        path.write_text(render_report(report, include_timings=include_timings))
        written.append(path)
    if fmt in ("csv", "both"):
        # the csv module's default dialect: CRLF line ends, no field quoted
        phi = report.survival.phi
        path = outdir / "survival.csv"
        text = _join(_key_cells(range(phi.size), ","), _value_cells(phi, "\r\n"))
        path.write_text("u,phi\r\n" + text, newline="")
        written.append(path)

        # one T block at a time keeps the transient strings small
        path = outdir / "finite_time.csv"
        grid = report.finite_time.phi
        u_cells = _key_cells(range(grid.shape[1]), ",")
        with path.open("w", newline="") as fh:
            fh.write("u,t,phi\r\n")
            for t in range(1, grid.shape[0] + 1):
                t_cells = [f"{t},"] * len(u_cells)
                fh.write(_join(u_cells, t_cells, _value_cells(grid[t - 1], "\r\n")))
        written.append(path)

        roots = report.roots
        path = outdir / "roots.csv"
        text = _join(
            _value_cells([r["re"] for r in roots], ","),
            _value_cells([r["im"] for r in roots], ","),
            _key_cells([r["multiplicity"] for r in roots], ","),
            _key_cells([r["on_boundary"] for r in roots], "\r\n"),
        )
        path.write_text("re,im,multiplicity,on_boundary\r\n" + text, newline="")
        written.append(path)

        checks = report.checks
        path = outdir / "verification.csv"
        text = _join(
            _key_cells([c.name for c in checks], ","),
            _value_cells([c.value for c in checks], ","),
            _value_cells([c.bound for c in checks], ","),
            _key_cells([c.passed for c in checks], "\r\n"),
        )
        path.write_text("check,value,bound,passed\r\n" + text, newline="")
        written.append(path)
    return written
