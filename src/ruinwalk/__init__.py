"""Survival probabilities of the integer surplus process u + kappa*n - sum X_i.

The package locates the unit-disk roots of s^kappa = G_X(s), solves the
resulting linear system for the law of the walk supremum, and expands the
survival-probability generating function, with simulation and recurrence
oracles validating every output.
"""

from .charpoly import (
    CharPolynomial,
    DiskRoot,
    RootSet,
    build_characteristic,
    companion_roots,
    find_unit_disk_roots,
    reduce_support,
)
from .config import ModelConfig, config_from_dict, load_config
from .distributions import (
    ClaimDistribution,
    FinitePmf,
    Geometric,
    NetProfitResult,
    NetProfitStatus,
    check_net_profit,
    distribution_from_dict,
    lattice_span,
)
from .errors import (
    AmbiguousCluster,
    ConfigError,
    ConvergenceFailure,
    DomainError,
    ImagLeak,
    MultipleRootsUnsupported,
    NearPole,
    NetProfitViolation,
    NonConvergence,
    RecurrenceBlowup,
    ReductionError,
    RootCountMismatch,
    RuinwalkError,
    SingularSystem,
    UnsupportedKappa,
)
from .pipeline import RunReport, run_model
from .supremum import (
    BoundarySystem,
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
    enumerate_finite_time,
    extend_sup_pmf_stable,
    finite_time_grid,
    survival_gf,
    survival_gf_closed,
    survival_gf_coefficients,
    tail_expansion,
    ultimate_survival_table,
)
from .verification import (
    McEstimate,
    SequenceLimits,
    StationarityReport,
    horizon_bias_bound,
    mc_stationarity_distance,
    mc_survival,
    mc_walk_suprema,
    recurrent_sequence_limits,
    stationarity_identity_residual,
)

__version__ = "0.1.0"
