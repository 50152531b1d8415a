"""Exception types raised across the package."""

from __future__ import annotations


class RuinwalkError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(RuinwalkError):
    """Malformed model configuration or config file."""


class DomainError(RuinwalkError):
    """Function evaluated outside its domain of convergence."""


class NetProfitViolation(RuinwalkError):
    """Mean claim is at least the premium rate; survival is impossible."""

    def __init__(self, mean: float, kappa: int):
        self.mean = mean
        self.kappa = kappa
        super().__init__(
            f"net profit condition violated: mean claim {mean:.6g} >= premium rate {kappa}"
        )


class ReductionError(RuinwalkError):
    """Minimal claim size reaches the premium rate; support shift impossible."""


class RootCountMismatch(RuinwalkError):
    """Root search did not find exactly kappa-1 conjugate-closed unit-disk roots."""

    def __init__(self, found: int, expected: int, roots=None):
        self.found = found
        self.expected = expected
        self.roots = list(roots) if roots is not None else []
        super().__init__(
            f"found total multiplicity {found} in the unit disk, expected {expected}"
        )


class ConvergenceFailure(RuinwalkError):
    """The companion eigenvalues did not converge, or a root failed its residual test."""


class AmbiguousCluster(RuinwalkError):
    """Root clustering changes within a factor of 10 of the cluster tolerance."""

    def __init__(self, msg: str, tight, loose):
        self.tight = tight
        self.loose = loose
        super().__init__(msg)


class SingularSystem(RuinwalkError):
    """Boundary system is numerically singular; upstream roots are suspect."""


class ImagLeak(RuinwalkError):
    """Imaginary parts of a nominally real solution exceed tolerance."""

    def __init__(self, leak: float, tol: float):
        self.leak = leak
        self.tol = tol
        super().__init__(f"imaginary residue {leak:.3e} exceeds tolerance {tol:.3e}")


class RecurrenceBlowup(RuinwalkError):
    """Survival table left [0, 1], or the supremum pmf is inconsistent or too long."""


class NearPole(RuinwalkError):
    """Generating function evaluated too close to a zero of its denominator."""


class MultipleRootsUnsupported(RuinwalkError):
    """Closed form requires all unit-disk roots to be simple."""


class UnsupportedKappa(RuinwalkError):
    """Special-case formula only exists for small premium rates."""


class NonConvergence(RuinwalkError):
    """Recurrent-sequence ratios failed to stabilise within the iteration budget."""
