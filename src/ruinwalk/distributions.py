"""Integer-valued claim distributions and their analytic transforms.

Claims are non-negative integer random variables. Two families are supported:
an explicit finite pmf, and the geometric law P(X=k) = p(1-p)^k on k >= 0,
which keeps closed forms for its pgf, cdf and mean so that no truncation error
enters the headline computations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError, DomainError, NetProfitViolation

PMF_SUM_TOL = 1e-12

# Relative slack applied on the log scale when solving (1-p)^(m+1) <= eps for
# the geometric truncation cut; absorbs float log noise when the ratio of logs
# lands exactly on an integer.
_LOG_SLACK = 1e-9


class ClaimDistribution:
    """Common interface of integer claim laws. Immutable after construction."""

    trunc_eps: float

    def pmf(self, k: int) -> float:
        raise NotImplementedError

    def cdf(self, u: int) -> float:
        raise NotImplementedError

    def pgf(self, s: complex) -> complex:
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError

    def min_support(self) -> int:
        raise NotImplementedError

    def max_support(self) -> int | None:
        """Largest support point, or None for unbounded support."""
        raise NotImplementedError

    def truncate(self, eps: float) -> tuple[np.ndarray, float]:
        """Finite pmf (p_0..p_m) covering mass >= 1-eps, plus the exact tail."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw integer claims; used by the Monte Carlo oracle."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class FinitePmf(ClaimDistribution):
    probabilities: tuple[float, ...]
    trunc_eps: float = 1e-14

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ConfigError("finite pmf must be a non-empty 1-D sequence")
        if np.any(p < 0):
            raise ConfigError("finite pmf entries must be non-negative")
        if abs(p.sum() - 1.0) > PMF_SUM_TOL:
            raise ConfigError(f"finite pmf must sum to 1 within {PMF_SUM_TOL}, got {p.sum()!r}")
        object.__setattr__(self, "probabilities", tuple(float(v) for v in p))
        object.__setattr__(self, "_p", p)
        object.__setattr__(self, "_cdf", np.cumsum(p))
        object.__setattr__(self, "_mean", float(np.arange(p.size) @ p))
        object.__setattr__(self, "_guide", None)

    @property
    def kind(self) -> str:
        return "finite"

    def pmf(self, k: int) -> float:
        if k < 0 or k >= self._p.size:
            return 0.0
        return float(self._p[k])

    def cdf(self, u: int) -> float:
        if u < 0:
            return 0.0
        if u >= self._cdf.size:
            return 1.0
        return float(self._cdf[u])

    def pgf(self, s: complex) -> complex:
        return complex(np.polynomial.polynomial.polyval(s, self._p))

    def mean(self) -> float:
        return self._mean

    def min_support(self) -> int:
        return int(np.flatnonzero(self._p > 0.0)[0])

    def max_support(self) -> int | None:
        return int(np.flatnonzero(self._p > 0.0)[-1])

    def truncate(self, eps: float) -> tuple[np.ndarray, float]:
        if eps <= 0:
            raise ConfigError("truncation tolerance must be positive")
        return self._p.copy(), 0.0

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        """searchsorted(cdf, u, side="right") for uniform u, read from a guide table.

        Indexed search (Chen & Asau, AIIE Trans. 6, 1974): u lies in bucket
        j = floor(u K) of K equal buckets, and K is a power of two, so u K and
        j / K are exact. Within a bucket the answer is `below[j]`, the count of
        cdf points <= j / K, plus the count of points strictly inside the
        bucket that are <= u. When those inside points share one value the
        count is one comparison; draws in buckets holding several distinct
        values are searched directly.
        """
        if self._guide is None:
            object.__setattr__(self, "_guide", _guide_table(self._cdf))
        k, below, split, step, multi = self._guide
        u = rng.random(size)
        j = (u * k).astype(np.intp)
        out = below[j]
        out += (u >= split[j]) * step[j]
        if multi is not None:
            hit = multi[j]
            out[hit] = np.searchsorted(self._cdf, u[hit], side="right")
        return out

    def to_dict(self) -> dict:
        return {"kind": "finite", "pmf": list(self.probabilities)}


def _guide_table(cdf: np.ndarray):
    """Buckets of the guide-table sampler: (K, below, split, step, multi).

    K is a power of two >= max(256, 4 * support), so most buckets hold at
    most one cdf value. `split[j]` is that value for a bucket whose interior
    points are all equal (inf otherwise) and `step[j]` their count; `multi`
    flags the buckets with several distinct interior values, or is None.
    """
    k = 256
    while k < 4 * cdf.size:
        k *= 2
    edges = np.arange(k + 1) / k
    below = np.searchsorted(cdf, edges[:-1], side="right")
    upto = np.searchsorted(cdf, edges[1:], side="left")
    inside = upto > below
    first = cdf[np.minimum(below, cdf.size - 1)]
    last = cdf[np.maximum(upto - 1, 0)]
    single = inside & (first == last)
    multi = inside & ~single
    split = np.where(single, first, np.inf)
    step = np.where(single, upto - below, 0).astype(np.int64)
    return k, below.astype(np.int64), split, step, multi if multi.any() else None


@dataclass(frozen=True)
class Geometric(ClaimDistribution):
    """P(X=k) = p(1-p)^k for k = 0, 1, 2, ...; pgf p/(1-(1-p)s)."""

    p: float
    trunc_eps: float = 1e-14

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ConfigError(f"geometric parameter must lie in (0, 1), got {self.p!r}")

    @property
    def kind(self) -> str:
        return "geometric"

    @property
    def q(self) -> float:
        return 1.0 - self.p

    def pmf(self, k: int) -> float:
        if k < 0:
            return 0.0
        return self.p * self.q**k

    def cdf(self, u: int) -> float:
        if u < 0:
            return 0.0
        return 1.0 - self.q ** (u + 1)

    def pgf(self, s: complex) -> complex:
        if abs(s) * self.q >= 1.0:
            raise DomainError(
                f"geometric pgf diverges for |s| >= {1.0 / self.q:.6g}, got |s| = {abs(s):.6g}"
            )
        return self.p / (1.0 - self.q * s)

    def mean(self) -> float:
        return self.q / self.p

    def min_support(self) -> int:
        return 0

    def max_support(self) -> int | None:
        return None

    def truncate(self, eps: float) -> tuple[np.ndarray, float]:
        if eps <= 0:
            raise ConfigError("truncation tolerance must be positive")
        # smallest m with q^(m+1) <= eps, solved on the log scale
        ratio = math.log(eps) / math.log(self.q)
        m = max(0, math.ceil(ratio - 1.0 - _LOG_SLACK * abs(ratio)))
        pmf = self.p * self.q ** np.arange(m + 1, dtype=float)
        tail = self.q ** (m + 1)
        return pmf, tail

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        # floor(E / ln(1/q)) with E standard exponential is exactly this law:
        # P(floor(E/c) = k) = e^(-ck) (1 - e^(-c)) = q^k p; faster than the
        # library geometric for bulk draws
        scale = 1.0 / math.log(1.0 / self.q)
        return (rng.standard_exponential(size) * scale).astype(np.int64)

    def to_dict(self) -> dict:
        return {"kind": "geometric", "p": self.p}


class NetProfitStatus(Enum):
    OK = "ok"
    TRIVIAL_SURVIVAL = "trivial_survival"
    VIOLATED = "violated"


@dataclass(frozen=True)
class NetProfitResult:
    status: NetProfitStatus
    mean: float
    kappa: int

    def require_ok(self) -> None:
        """Raise unless the strict net profit condition holds."""
        if self.status is not NetProfitStatus.OK:
            raise NetProfitViolation(self.mean, self.kappa)


def check_net_profit(dist: ClaimDistribution, kappa: int) -> NetProfitResult:
    """Classify the model: strict net profit, the P(X=kappa)=1 corner, or violation."""
    if kappa < 1:
        raise ConfigError(f"premium rate must be a positive integer, got {kappa!r}")
    mean = dist.mean()
    if dist.pmf(kappa) == 1.0:
        return NetProfitResult(NetProfitStatus.TRIVIAL_SURVIVAL, mean, kappa)
    if mean < kappa:
        return NetProfitResult(NetProfitStatus.OK, mean, kappa)
    return NetProfitResult(NetProfitStatus.VIOLATED, mean, kappa)


def lattice_span(dist: ClaimDistribution, kappa: int) -> int:
    """gcd of kappa and the positive support points of X.

    Governs boundary roots of unity of s^kappa = G_X(s); the zero support
    point contributes nothing (gcd identity).
    """
    span = kappa
    maxs = dist.max_support()
    if maxs is None:
        # unbounded support always contains consecutive integers >= 1
        return math.gcd(span, 1)
    for k in range(1, maxs + 1):
        if dist.pmf(k) > 0.0:
            span = math.gcd(span, k)
            if span == 1:
                break
    return span


def config_number(name: str, value) -> float:
    """A real number from a config file; bools, strings and null are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


def distribution_from_dict(spec: dict) -> ClaimDistribution:
    """Build a claim law from the config-file dictionary form."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"distribution spec must be a dict with a 'kind' key, got {spec!r}")
    kind = spec["kind"]
    if kind == "finite":
        if not isinstance(spec.get("pmf"), list):
            raise ConfigError("finite distribution spec needs a 'pmf' list")
        return FinitePmf(tuple(config_number("pmf entry", v) for v in spec["pmf"]))
    if kind == "geometric":
        if "p" not in spec:
            raise ConfigError("geometric distribution spec needs a success probability 'p'")
        return Geometric(config_number("p", spec["p"]))
    raise ConfigError(f"unknown distribution kind {kind!r}")
