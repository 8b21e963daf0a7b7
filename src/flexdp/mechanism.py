"""Differentially private release of counting-query results.

The released value is ``true_result + Laplace(2*S/epsilon)`` where S smooths
the elastic sensitivity over distances::

    S = max over k >= 0 of exp(-beta*k) * sensitivity_at(k),
    beta = epsilon / (2 * ln(2/delta))

which yields (epsilon, delta)-differential privacy. The scan stops at
``k_max = ceil(j/beta)`` for a query with j joins (0 for a join-free query)
without missing the maximum:

* the sensitivity bound is a max of polynomials in k with non-negative
  coefficients, each of degree at most j. A column's max frequency in a
  relation with i joins has degree at most i + 1 (a private mf + k has
  degree 1, a public one 0, and each join it passes multiplies in the other
  side's key), and the stability of a join of sides with a and b joins,
  j = a + b + 1 in all, has degree at most (a + 1) + b = j. The self-join
  sum, the max and the grouped doubling do not raise the degree;
* for such a polynomial P and k >= 1, P(k+1)/P(k) <= ((k+1)/k)**j
  <= exp(j/k), and the same ratio bounds their max;
* so once k >= j/beta, exp(-beta*(k+1)) * sensitivity_at(k+1) is at most
  exp(-beta*k) * sensitivity_at(k): the damped profile is non-increasing
  from ceil(j/beta) on, and its first maximum lies in 0..ceil(j/beta).

The scan compares values in the natural-log domain: sensitivities of deeply
joined queries overflow doubles long before they stop mattering.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    BudgetExhausted,
    InvalidParams,
    InvalidScale,
    ProtectedBinLabels,
    UnsupportedQuery,
)
from .metrics import MetricsStore
from .relalg import Count, CountGrouped, RelExpr, root_count
from .sensitivity import join_count, sensitivity_log_profile

_SCAN_CHUNK = 1 << 16


@dataclass(frozen=True)
class PrivacyParams:
    """Privacy parameters for one release; ``beta`` is derived at construction."""

    epsilon: float
    delta: float
    beta: float


def make_params(
    epsilon: float, delta: Optional[float] = None, n: Optional[int] = None
) -> PrivacyParams:
    """Validate parameters and derive the smoothing rate beta.

    When ``delta`` is omitted it defaults to ``n ** (-epsilon * ln n)``, a
    common choice that vanishes super-polynomially in the database size; the
    row count ``n`` must then be supplied and be at least 2.

    Raises:
        InvalidParams: epsilon not positive and finite, delta outside (0, 1),
            or n < 2 when delta is defaulted.
    """
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise InvalidParams(
            "epsilon must be positive and finite, got %r" % (epsilon,)
        )
    if delta is None:
        if n is None:
            raise InvalidParams("delta omitted: database size n is required")
        if n < 2:
            raise InvalidParams("delta default requires n >= 2, got %r" % (n,))
        delta = math.exp(-epsilon * math.log(n) ** 2)
    if not 0 < delta < 1:
        raise InvalidParams("delta must be in (0, 1), got %r" % (delta,))
    beta = epsilon / (2.0 * math.log(2.0 / delta))
    return PrivacyParams(epsilon=float(epsilon), delta=float(delta), beta=beta)


@dataclass(frozen=True)
class SmoothBound:
    """Result of the smoothing scan.

    S is the smoothed sensitivity, attained at distance k_star; the scan
    covered k = 0..k_max (values_scanned points). log_S is ln S as the scan
    computed it: finite where S overflows to inf, and -inf where S is 0.
    """

    S: float
    k_star: int
    k_max: int
    values_scanned: int
    log_S: float


def smooth_scan(
    log_profile: Callable[[np.ndarray], np.ndarray], beta: float, k_max: int
) -> SmoothBound:
    """Maximize exp(-beta*k) * f(k) over integer k in [0, k_max].

    Args:
        log_profile: maps an array of distances k to ln f(k); may return
            -inf where f is 0.
        beta: smoothing rate, positive.
        k_max: last distance to scan; the scan always includes k = 0.

    Returns:
        SmoothBound with ties broken toward the smallest k.
    """
    if not beta > 0:
        raise InvalidParams("beta must be positive, got %r" % (beta,))
    if k_max < 0:
        raise InvalidParams("k_max must be non-negative, got %r" % (k_max,))
    best_log = -math.inf
    best_k = 0
    for start in range(0, k_max + 1, _SCAN_CHUNK):
        ks = np.arange(start, min(start + _SCAN_CHUNK, k_max + 1), dtype=float)
        values = log_profile(ks) - beta * ks
        i = int(np.argmax(values))
        if values[i] > best_log:
            best_log = float(values[i])
            best_k = start + i
    if best_log == -math.inf:
        s = 0.0
    else:
        try:
            s = math.exp(best_log)
        except OverflowError:
            s = math.inf
    return SmoothBound(S=s, k_star=best_k, k_max=k_max, values_scanned=k_max + 1, log_S=best_log)


def scan_limit(q: RelExpr, p: PrivacyParams) -> int:
    """The largest distance the smoothing scan must consider for ``q``.

    ceil(j/beta) for j joins, 0 for none: the sensitivity bound has degree
    at most j in k, so its damped profile cannot rise past j/beta (see the
    module docstring).
    """
    joins = join_count(q)
    if joins == 0:
        return 0
    return int(math.ceil(joins / p.beta))


def smooth_bound(q: RelExpr, m: MetricsStore, p: PrivacyParams) -> SmoothBound:
    """Smoothed sensitivity of a counting query under metrics ``m``."""
    return smooth_scan(
        lambda ks: sensitivity_log_profile(q, ks, m), p.beta, scan_limit(q, p)
    )


def laplace_inverse_cdf(u: float, scale: float) -> float:
    """Map a uniform draw u in (0, 1) to a Laplace(0, scale) deviate.

    u = 0.5 maps to exactly 0; u = 0.75 maps to scale * ln 2.
    """
    if not scale > 0:
        raise InvalidScale("scale must be positive, got %r" % (scale,))
    if not 0 < u < 1:
        raise ValueError("u must be strictly inside (0, 1), got %r" % (u,))
    t = 2.0 * u - 1.0
    sign = (t > 0) - (t < 0)
    return -scale * sign * math.log1p(-abs(t))


def laplace_sample(scale: float, rng: np.random.Generator) -> float:
    """Draw one Laplace(0, scale) sample from ``rng`` via the inverse CDF."""
    if not scale > 0:
        raise InvalidScale("scale must be positive, got %r" % (scale,))
    u = rng.random()
    while u == 0.0:  # open interval; the generator can return exactly 0
        u = rng.random()
    return laplace_inverse_cdf(u, scale)


@dataclass(frozen=True)
class ReleaseResult:
    """A noisy release plus the metadata needed to audit and replay it.

    Exactly one of ``value`` (plain count) and ``bins`` (grouped count, one
    (label, noisy value) pair per domain label in order) is set. ``seed``
    replays the noise and so recovers the true result: never publish it.
    """

    value: Optional[float]
    bins: Optional[Tuple]
    S: float
    k_star: int
    noise_scale: float
    seed: int


def _release(
    true_values: Sequence,
    labels: Optional[Sequence],
    q: RelExpr,
    m: MetricsStore,
    p: PrivacyParams,
    seed: Optional[int],
) -> ReleaseResult:
    """Add Laplace(2*S/epsilon) noise to each value in order.

    The noisy values become ``bins`` paired with ``labels``, or ``value``
    when there are no labels. A non-finite value or a seed that is not a
    non-negative integer is refused before anything is computed or drawn,
    and a non-finite S before anything is drawn.
    """
    values = [float(v) for v in true_values]
    if not all(math.isfinite(v) for v in values):
        raise InvalidParams("the true result is not finite; refusing to release")
    if seed is not None and not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise InvalidParams("seed must be a non-negative integer")
    bound = smooth_bound(q, m, p)
    scale = 2.0 * bound.S / p.epsilon
    if not (math.isfinite(bound.S) and math.isfinite(scale)):
        raise UnsupportedQuery(
            "smoothed sensitivity %r gives a non-finite noise scale; refusing "
            "to release" % (bound.S,)
        )
    seed = int(np.random.SeedSequence().entropy if seed is None else seed)
    rng = np.random.default_rng(seed)
    noisy = [v + (laplace_sample(scale, rng) if scale > 0 else 0.0) for v in values]
    return ReleaseResult(
        value=noisy[0] if labels is None else None,
        bins=None if labels is None else tuple(zip(labels, noisy)),
        S=bound.S,
        k_star=bound.k_star,
        noise_scale=scale,
        seed=seed,
    )


def release_count(
    true_count: float,
    q: RelExpr,
    m: MetricsStore,
    p: PrivacyParams,
    seed: Optional[int] = None,
) -> ReleaseResult:
    """Release a noisy plain count.

    Args:
        true_count: the query's true result on the protected data.
        q: the analyzed query (root must be a plain count).
        m: metrics for the protected database.
        p: privacy parameters.
        seed: RNG seed; drawn fresh when omitted.

    Returns:
        ReleaseResult carrying the noisy value; noise has scale 2*S/epsilon.

    Raises:
        UnsupportedQuery: the root is a grouped count, or S is not finite.
        InvalidParams: the true count is not finite, or the seed is not a
            non-negative integer.
    """
    if not isinstance(root_count(q), Count):
        raise UnsupportedQuery(
            "query is a grouped count; use release_histogram for histograms"
        )
    return _release([true_count], None, q, m, p, seed)


def release_histogram(
    true_bins: Mapping,
    bin_domain: Optional[Sequence],
    q: RelExpr,
    m: MetricsStore,
    p: PrivacyParams,
    seed: Optional[int] = None,
) -> ReleaseResult:
    """Release a noisy histogram with a fixed, data-independent bin set.

    The output has one row per label of ``bin_domain``, in order: absent
    labels are released as noisy zeros, and labels outside the domain are
    dropped. Dropping is a selection by a public label set, so 2*S/epsilon
    still bounds the L1 change. Emitting the observed labels would leak which
    groups exist, so a missing domain is refused.

    Raises:
        UnsupportedQuery: the root is a plain count, or S is not finite.
        ProtectedBinLabels: no bin domain supplied.
        InvalidParams: the domain repeats a label, a released bin's true
            count is not finite, or the seed is not a non-negative integer.
    """
    root = root_count(q)
    if not isinstance(root, CountGrouped):
        raise UnsupportedQuery(
            "query is a plain count; use release_count for scalar results"
        )
    if bin_domain is None:
        raise ProtectedBinLabels(
            "grouped release needs an explicit bin domain for %s; emitting "
            "observed labels would reveal protected values"
            % ", ".join(str(a) for a in root.group_attrs)
        )
    domain = list(bin_domain)
    if len(set(domain)) != len(domain):
        raise InvalidParams("bin domain contains duplicate labels")
    return _release([true_bins.get(l, 0) for l in domain], domain, q, m, p, seed)


@dataclass
class BudgetLedger:
    """Cumulative privacy spend with hard caps.

    Charges add up; one that would push either total past its cap raises
    BudgetExhausted and leaves the ledger unchanged. Not thread-safe; callers
    that share a ledger across processes must serialize access themselves.
    """

    max_epsilon: float
    max_delta: float
    spent_epsilon: float = 0.0
    spent_delta: float = 0.0

    def __post_init__(self):
        if not (self.max_epsilon > 0 and math.isfinite(self.max_epsilon)):
            raise InvalidParams("max_epsilon must be positive and finite")
        if not 0 < self.max_delta < 1:
            raise InvalidParams("max_delta must be in (0, 1)")

    def remaining(self) -> Tuple[float, float]:
        return (
            self.max_epsilon - self.spent_epsilon,
            self.max_delta - self.spent_delta,
        )

    def charge(self, p: PrivacyParams) -> "BudgetLedger":
        new_epsilon = self.spent_epsilon + p.epsilon
        new_delta = self.spent_delta + p.delta
        if new_epsilon > self.max_epsilon or new_delta > self.max_delta:
            raise BudgetExhausted(
                "refusing release: budget would reach epsilon=%g delta=%g "
                "(caps %g, %g)"
                % (new_epsilon, new_delta, self.max_epsilon, self.max_delta)
            )
        self.spent_epsilon = new_epsilon
        self.spent_delta = new_delta
        return self
