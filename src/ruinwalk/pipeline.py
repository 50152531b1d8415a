"""Fixed computation pipeline: validate -> reduce -> roots -> masses -> tables -> checks.

Every numeric artifact in the run report carries a cross-check residual, so a
report is never just one route's output.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .charpoly import CharPolynomial, build_characteristic, find_unit_disk_roots, reduce_support
from .config import ModelConfig
from .distributions import TRUNC_EPS, NetProfitStatus, check_net_profit, lattice_span
from .errors import NetProfitViolation
from .supremum import (
    TOL_REAL,
    SupremumPmf,
    build_boundary_system,
    determinant_identity_error,
    solve_boundary_system,
    sup_pmf_closed_form,
)
from .survival import (
    FiniteTimeGrid,
    SurvivalTable,
    closed_form_initial_values,
    extend_sup_pmf_stable,
    finite_time_grid,
    survival_gf,
    survival_gf_closed,
    survival_gf_coefficients,
    tail_expansion,
    ultimate_survival_table,
)
from .verification import (
    IDENTITY_POINTS,
    StationarityReport,
    concordance_bands,
    horizon_bias_bound,
    mc_stationarity_distance,
    mc_survival,
    recurrent_sequence_limits,
    stationarity_identity_residual,
)

IDENTITY_TAIL_TARGET = 1e-10


def _gf_comparison_points() -> np.ndarray:
    """50 points uniform in |s| < 0.9, where the kappa <= 2 closed form is compared."""
    rng = np.random.default_rng(1234)
    r = 0.9 * np.sqrt(rng.random(50))
    theta = 2 * np.pi * rng.random(50)
    return r * np.exp(1j * theta)


_GF_COMPARISON_POINTS = _gf_comparison_points()


@dataclass
class Check:
    name: str
    value: float
    bound: float
    passed: bool

    @classmethod
    def leq(cls, name: str, value: float, bound: float) -> "Check":
        return cls(name=name, value=float(value), bound=float(bound), passed=bool(value <= bound))


@dataclass
class RunReport:
    config: dict
    status: str
    mean_claim: float
    kappa: int
    kappa_eff: int
    reduction_shift: int
    lattice: int
    roots: list
    sup_mass: np.ndarray
    sup_residual: float
    sup_imag_leak: float
    survival: SurvivalTable
    finite_time: FiniteTimeGrid
    checks: list[Check] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    mc: object | None = None
    mc_bias: np.ndarray | None = None
    stationarity: StationarityReport | None = None
    sequence_limits: object | None = None
    timings: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _trivial_report(config: ModelConfig, npr) -> RunReport:
    kappa = config.kappa
    mass = np.zeros(kappa)
    mass[0] = 1.0
    phi = np.ones(config.u_max + 1)
    phi[0] = 0.0
    table = SurvivalTable(phi=phi, method="trivial")
    grid = finite_time_grid(config.dist, kappa, config.u_max, config.t_max)
    report = RunReport(
        config=_echo_config(config),
        status="trivial_survival",
        mean_claim=npr.mean,
        kappa=kappa,
        kappa_eff=kappa,
        reduction_shift=0,
        lattice=lattice_span(config.dist, kappa),
        roots=[],
        sup_mass=mass,
        sup_residual=0.0,
        sup_imag_leak=0.0,
        survival=table,
        finite_time=grid,
        warnings=[
            "claim equals the premium with certainty: phi(0)=0 and phi(u)=1 for u>=1 "
            "follow from the constant surplus path; this corner is an interpretation, "
            "not a solved system"
        ],
    )
    return report


def _echo_config(config: ModelConfig) -> dict:
    return {
        "kappa": config.kappa,
        "dist": config.dist.to_dict(),
        "u_max": config.u_max,
        "t_max": config.t_max,
        "mc": {"paths": config.mc_paths, "horizon": config.mc_horizon, "seed": config.seed},
    }


def run_model(config: ModelConfig, *, verify: bool = False) -> RunReport:
    """Execute the full pipeline for one model.

    Raises NetProfitViolation when the mean claim reaches the premium rate;
    the trivial P(X=kappa)=1 corner is reported, not raised.
    """
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    npr = check_net_profit(config.dist, config.kappa)
    if npr.status is NetProfitStatus.VIOLATED:
        raise NetProfitViolation(npr.mean, npr.kappa)
    if npr.status is NetProfitStatus.TRIVIAL_SURVIVAL:
        report = _trivial_report(config, npr)
        report.timings["total"] = time.perf_counter() - t0
        return report

    dist0, kappa0 = config.dist, config.kappa
    dist, kappa, shift = reduce_support(dist0, kappa0)
    warnings: list[str] = []
    if shift:
        warnings.append(
            f"support floor {shift} shifted away: solving the equivalent model with "
            f"premium rate {kappa} (survival values are unchanged)"
        )

    t = time.perf_counter()
    char = build_characteristic(dist, kappa)
    roots = find_unit_disk_roots(char)
    timings["roots"] = time.perf_counter() - t

    if any(r.on_boundary for r in roots.roots):
        warnings.append(
            f"characteristic root(s) on the unit circle (support lattice span "
            f"{lattice_span(dist, kappa)}); closed-disk machinery engaged"
        )

    t = time.perf_counter()
    system = build_boundary_system(dist, kappa, roots)
    sup = solve_boundary_system(system)
    timings["solve"] = time.perf_counter() - t

    checks: list[Check] = []
    checks.append(Check.leq("sup_mass_min", float(-(sup.mass.min())), TOL_REAL))
    checks.append(Check.leq("sup_mass_total", float(sup.mass.sum() - 1.0), 1e-10))

    closed = sup_pmf_closed_form(dist, char, roots)
    checks.append(
        Check.leq("closed_form_agreement", float(np.max(np.abs(closed.mass - sup.mass))), 1e-9)
    )
    if roots.all_simple:
        checks.append(
            Check.leq(
                "determinant_identity_rel_err",
                determinant_identity_error(system, roots, dist.pmf(0)),
                1e-8,
            )
        )

    # every route is read on phi(0..length), so that the recurrence below has
    # a whole stencil and phi(0..kappa) is checked at every u_max; the report
    # holds phi(0..u_max)
    length = max(config.u_max, kappa)
    t = time.perf_counter()
    table = ultimate_survival_table(sup, char, length)
    timings["table"] = time.perf_counter() - t

    phi = table.phi
    coeffs = survival_gf_coefficients(closed, char, length)
    diff = np.max(np.abs(coeffs[:-1] - phi[1:]))
    checks.append(Check.leq("table_vs_root_product", float(diff), 1e-9))

    tail = tail_expansion(sup, char, roots)
    if tail is not None:
        diff = np.max(np.abs(tail.phi(np.arange(length)) - phi[1:]))
        checks.append(Check.leq("table_vs_pole_expansion", float(diff), 1e-9))

    init = closed_form_initial_values(closed)
    diff = float(np.max(np.abs(init - phi[: kappa + 1])))
    checks.append(Check.leq("closed_form_initial_values", diff, 1e-9))

    # the recurrence phi(u) = sum_{i>=1} x_{u+kappa-i} phi(i) must be a fixed
    # point of the finished table wherever its whole stencil is in the table
    n = length - kappa + 1
    x, _tail = dist.truncate(TRUNC_EPS)
    conv = np.convolve(x, phi[1:])
    rec_res = float(np.max(np.abs(phi[:n] - conv[kappa - 1 : kappa - 1 + n])))
    checks.append(Check.leq("recurrence_fixed_point", rec_res, 1e-10))

    if kappa <= 2:
        gaps = [
            survival_gf(sup, dist, kappa, s) - survival_gf_closed(dist, kappa, s, roots=roots)
            for s in _GF_COMPARISON_POINTS
        ]
        worst = np.max(np.abs(gaps))
        checks.append(Check.leq("gf_closed_agreement", worst, 1e-10))

    t = time.perf_counter()
    grid = finite_time_grid(dist0, kappa0, config.u_max, config.t_max)
    timings["finite_time"] = time.perf_counter() - t

    report = RunReport(
        config=_echo_config(config),
        status="ok",
        mean_claim=npr.mean,
        kappa=kappa0,
        kappa_eff=kappa,
        reduction_shift=shift,
        lattice=lattice_span(dist, kappa),
        roots=roots.to_records(),
        sup_mass=sup.mass,
        sup_residual=sup.residual,
        sup_imag_leak=sup.imag_leak,
        survival=SurvivalTable(phi=phi[: config.u_max + 1], method=table.method),
        finite_time=grid,
        checks=checks,
        warnings=warnings,
        timings=timings,
    )

    if verify:
        # phi(0..length) from the unit-disk roots alone
        phi_roots = np.concatenate((init[:1], coeffs[:-1]))
        _run_verification(report, config, dist, kappa, sup, char, phi, phi_roots)
    report.timings["total"] = time.perf_counter() - t0
    return report


def _run_verification(
    report: RunReport,
    config: ModelConfig,
    dist,
    kappa: int,
    sup: SupremumPmf,
    char: CharPolynomial,
    phi: np.ndarray,
    phi_roots: np.ndarray,
) -> None:
    """Oracle passes: identity residual, Monte Carlo, stationarity, sequences."""
    t = time.perf_counter()
    extended = extend_sup_pmf_stable(sup, char, tail_target=IDENTITY_TAIL_TARGET)
    residual = stationarity_identity_residual(extended, dist, kappa, IDENTITY_POINTS)
    report.checks.append(
        Check.leq("gf_identity_residual", residual, 1e-8 + IDENTITY_TAIL_TARGET)
    )
    report.timings["identity"] = time.perf_counter() - t

    t = time.perf_counter()
    u_list = [u for u in (0, 1, 2, 5, 10) if u <= config.u_max]
    est = mc_survival(dist, kappa, u_list, config.mc_paths, config.mc_horizon, config.seed)
    # P(M >= extended.size) is below IDENTITY_TAIL_TARGET, so states from
    # there on survive for good up to that error. The bias is taken against
    # the root-product table: against `phi` itself, a table too low by delta
    # would raise its own allowance by delta.
    bias = horizon_bias_bound(
        dist,
        kappa,
        est.u,
        est.effective_horizon,
        phi_exact=phi_roots,
        state_cap=max(extended.size, phi.size),
    )
    # a correct simulation's surviving fraction is binomial around
    # phi(u, T) = phi_roots + bias (up to roundoff): it lies in the band of
    # concordance_bands but for a chance of MC_FALSE_ALARM per run. The band
    # is moved onto the target phi + bias, so a table off by delta moves it
    # by delta.
    horizon_phi = phi_roots[est.u] + bias
    low, high = concordance_bands(est.paths, horizon_phi)
    offset = phi[est.u] + bias - horizon_phi
    worst = np.max(np.maximum(low + offset - est.phi_hat, est.phi_hat - (high + offset)))
    report.mc = est
    report.mc_bias = bias
    # the 1e-12 bound covers the roundoff of the excess itself
    report.checks.append(Check.leq("mc_concordance_excess", worst, 1e-12))
    report.timings["mc"] = time.perf_counter() - t

    t = time.perf_counter()
    stat = mc_stationarity_distance(dist, kappa, est.suprema, horizon=config.mc_horizon)
    report.stationarity = stat
    report.checks.append(
        Check.leq("stationarity_tv", stat.tv, 3.0 * max(stat.sampling_noise, 1e-9))
    )
    report.timings["stationarity"] = time.perf_counter() - t

    if kappa == 2:
        t = time.perf_counter()
        lim = recurrent_sequence_limits(dist)
        report.sequence_limits = lim
        err = np.max(np.abs(np.array([lim.phi0, lim.phi1]) - phi[:2]))
        report.checks.append(Check.leq("sequence_limits_agreement", err, 1e-6))
        report.timings["sequences"] = time.perf_counter() - t

