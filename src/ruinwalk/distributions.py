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
# mass an unbounded law may drop where a finite pmf is needed (the
# finite-time DP, the recurrence check, the stationarity push)
TRUNC_EPS = 1e-14

# Relative slack applied on the log scale when solving (1-p)^(m+1) <= eps for
# the geometric truncation cut; absorbs float log noise when the ratio of logs
# lands exactly on an integer.
_LOG_SLACK = 1e-9


class ClaimDistribution:
    """Common interface of integer claim laws. Immutable after construction."""

    # the benchmark tracer (bench/tracing.py) reads this name
    trunc_eps = TRUNC_EPS

    def pmf(self, k: int) -> float:
        raise NotImplementedError

    def cdf(self, u: int) -> float:
        raise NotImplementedError

    def pgf(self, s: complex) -> complex:
        raise NotImplementedError

    def pgf_ratio(self) -> tuple[np.ndarray, np.ndarray]:
        """Polynomials (A, g), lowest degree first, with G_X = A / g and g(0) = 1."""
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

    def draw(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        """Fill the float64 array `out` with the raw draws that `claims` maps.

        The stream consumed is the one `sample(rng, out.shape)` consumes.
        """
        raise NotImplementedError

    def claims(self, raw: np.ndarray) -> np.ndarray:
        """Integer claims from raw draws; a pure map that leaves `raw` as it is."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        """Draw integer claims, `claims` of a sized draw.

        The Monte Carlo kernel calls `draw` and `claims` instead.
        """
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class FinitePmf(ClaimDistribution):
    probabilities: tuple[float, ...]

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ConfigError("finite pmf must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(p) & (p >= 0)):
            raise ConfigError("finite pmf entries must be finite and non-negative")
        if abs(p.sum() - 1.0) > PMF_SUM_TOL:
            raise ConfigError(f"finite pmf must sum to 1 within {PMF_SUM_TOL}, got {p.sum()!r}")
        object.__setattr__(self, "probabilities", tuple(float(v) for v in p))
        object.__setattr__(self, "_p", p)
        object.__setattr__(self, "_cdf", np.cumsum(p))
        object.__setattr__(self, "_mean", float(np.arange(p.size) @ p))
        # built here, not on first use: chunk threads map draws concurrently
        cdf = self._cdf.copy()
        cdf[self.max_support() :] = np.inf
        object.__setattr__(self, "_guide", (cdf, *_guide_table(cdf)))

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

    def pgf_ratio(self) -> tuple[np.ndarray, np.ndarray]:
        return self._p.copy(), np.ones(1)

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

    def draw(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        return rng.random(out=out)

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        return self.claims(rng.random(size))

    def claims(self, raw: np.ndarray) -> np.ndarray:
        """searchsorted(cdf, u, side="right") for uniform u, read from a guide table.

        Indexed search (Chen & Asau, AIIE Trans. 6, 1974): u lies in bucket
        j = floor(u K) of K equal buckets, and K is a power of two, so u K and
        j / K are exact. Within a bucket the answer is `below[j]`, the count of
        cdf points <= j / K, plus the count of points strictly inside the
        bucket that are <= u. When those inside points share one value the
        count is one comparison, and both answers sit side by side in `pair`
        (`below[j]` at 2j, `below[j] + step[j]` at 2j + 1), so the claim is one
        gather; draws in buckets holding several distinct values are searched
        directly.

        The cdf searched is +inf from the last point with mass on, so a pmf
        summing to less than 1 maps u >= cdf[-1] to that point, not past the
        support; where cdf[-1] >= 1 no uniform reaches those entries.
        """
        cdf, k, pair, split, multi = self._guide
        j = np.multiply(raw, k, out=np.empty(raw.shape, dtype=np.intp), casting="unsafe")
        hit = None if multi is None else multi[j]
        above = raw >= split[j]
        j += j
        j += above
        out = pair[j]
        if hit is not None:
            out[hit] = np.searchsorted(cdf, raw[hit], side="right")
        return out

    def to_dict(self) -> dict:
        return {"kind": "finite", "pmf": list(self.probabilities)}


def _guide_table(cdf: np.ndarray):
    """Buckets of the guide-table sampler: (K, pair, split, multi).

    K is a power of two >= max(256, 4 * support), so most buckets hold at
    most one cdf value. `split[j]` is that value for a bucket whose interior
    points are all equal (inf otherwise); `pair[2j]` is `below[j]`, the count
    of cdf points <= j / K, and `pair[2j + 1]` adds the count of interior
    points. `multi` flags the buckets with several distinct interior values,
    or is None.
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
    pair = np.empty(2 * k, dtype=np.int64)
    pair[0::2] = below
    pair[1::2] = np.where(single, upto, below)
    return k, pair, split, multi if multi.any() else None


@dataclass(frozen=True)
class Geometric(ClaimDistribution):
    """P(X=k) = p(1-p)^k for k = 0, 1, 2, ...; pgf p/(1-(1-p)s)."""

    p: float

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ConfigError(f"geometric parameter must lie in (0, 1), got {self.p!r}")

    @property
    def q(self) -> float:
        return 1.0 - self.p

    def pmf(self, k: int) -> float:
        if k < 0:
            return 0.0
        return float(self._masses(k + 1)[k])

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

    def pgf_ratio(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array([self.p]), np.array([1.0, -self.q])

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
        return self._masses(m + 1), self.q ** (m + 1)

    def _masses(self, n: int) -> np.ndarray:
        # the one computation of p q^k behind pmf and truncate: numpy's power
        # and Python's float power differ in the last bit
        return self.p * self.q ** np.arange(n, dtype=float)

    def draw(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        return rng.standard_exponential(out=out)

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        return self.claims(rng.standard_exponential(size))

    def claims(self, raw: np.ndarray) -> np.ndarray:
        # floor(E / ln(1/q)) with E standard exponential is exactly this law:
        # P(floor(E/c) = k) = e^(-ck) (1 - e^(-c)) = q^k p; faster than the
        # library geometric for bulk draws
        scale = 1.0 / math.log(1.0 / self.q)
        return np.multiply(raw, scale, out=np.empty(raw.shape, dtype=np.int64), casting="unsafe")

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
