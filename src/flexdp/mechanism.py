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

Within 0..k_max the scan evaluates the profile only where that first
maximum can still be. The sensitivity bound is non-decreasing in k (it
combines counts n + k and constants by +, * and max), so with
L(k) = ln sensitivity_at(k), every distance k of a run a < k < b between
two evaluated distances has

    L(k) - beta*k <= L(b) - beta*(a+1).

A first round evaluates _SCAN_GRID evenly spaced distances, 0 and k_max
among them. Each later round drops every run whose bound, plus a round-off
slack, is at most the best value so far, and spreads about _SCAN_GRID new
distances over the other runs, at least one in each, until no run is left.
Every value in a dropped run, as computed, lies strictly below the best,
so the scan returns the S, k* and log_S that evaluating every distance
returns, ties to the smallest k included. A scan of at most
2 * _SCAN_GRID distances is evaluated whole, in one round.

The slack bounds the float error of the computed profile M(k) against
L(k). With u = 2**-53:

* every finite log in the plan is at least 0 (the counts are integers, at
  least 1 where not 0), and a value whose error can reach the result is at
  most L(k): it enters through a sum of such logs, a logaddexp, or a max;
* each operation that rounds, an addition, ln or logaddexp, errs by at
  most 8u * max(1, |its value|), four ulps, if ln, exp and log1p are
  within two ulps (numpy's and libm's ln measured within half an ulp);
* a sum passes on the sum of its operands' errors, logaddexp and max the
  larger, and the operands of a sum (a product of counts) come from
  disjoint parts of the plan, so no error counts twice. There are at most
  N = j(j + 13)/2 + 2 rounding operations for j joins (seven per join, one
  more per inner join that a key passes, two for a grouped count), and

      |M(k) - L(k)| <= 8Nu * max(1, L(k)).

With C = max(1, L(b)) >= max(1, L(k)), M(k) <= M(b) + 16NuC. The
products beta*k, the subtractions and the test's own sum round by less than
16u * (1 + max(M(b), 0) + beta*b) in all. So when

    M(b) - beta*(a+1) + 16(N+1)u * (1 + max(M(b), 0) + beta*b) <= best,

every computed value of the run lies strictly below the best, and the scan
drops the run. A run where M(b) is -inf is -inf throughout and cannot
hold the first maximum either: distance 0 is evaluated first.

The scan compares values in the natural-log domain: sensitivities of deeply
joined queries overflow doubles long before they stop mattering. One plan is
evaluated in one of two log systems (see ``sensitivity``), picked for
``smooth_bound`` by ``_scan_in_python``: a short scan in a process that has
not imported numpy runs in pure Python, because numpy's import costs far
more than the scan, until the process's pure scans add up to about one
numpy import; every other scan runs in numpy, in chunks. The two profiles
can differ by one ulp of ln. They gave the same S, k* and log_S on every
benchmark and test query, but a seeded release replays bit for bit only
on the same scan path.

The noise comes from ``PCG64``, numpy's ``default_rng(seed)`` (its
SeedSequence hashing and the PCG64 generator, O'Neill 2014) written in pure
Python, so that a seeded release draws the same value with or without numpy.
"""

from __future__ import annotations

import math
import numbers
import secrets
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping, Optional, Sequence, Tuple

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

if TYPE_CHECKING:
    import numpy as np

_SCAN_CHUNK = 1 << 16
# The first round of a pruned scan: this many evenly spaced distances.
_SCAN_GRID = 1024
# Every integer distance up to here is exact in float64.
_MAX_DISTANCE = 1 << 53
# The largest scan, in distances times (joins + 1), done in pure Python. The
# pure scan took 0.9-1.4 us per unit on 534 benchmark queries (2-core Xeon),
# so this caps it near 20-30 ms, against about 160 ms to import numpy.
_PYTHON_SCAN_WORK = 20_000
# The pure scans one process may do in all: about one numpy import's worth,
# after which numpy is imported and every later scan is vectorised.
_PYTHON_SCAN_TOTAL = 150_000
_python_scan_done = 0


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
    covered k = 0..k_max and evaluated the profile at values_scanned of
    those distances (all of them, unless it pruned). log_S is ln S as the
    scan computed it: finite where S overflows to inf, and -inf where S is 0.
    """

    S: float
    k_star: int
    k_max: int
    values_scanned: int
    log_S: float


def _scan_in_python(work: int) -> bool:
    """Whether a scan of ``work`` units (distances times profile steps) runs in pure Python.

    Only while this process has not imported numpy: once it has, the
    vectorised scan is the faster one from about 50 distances up. Within
    _PYTHON_SCAN_WORK one pure scan costs a small part of numpy's import,
    and once the process's pure scans reach _PYTHON_SCAN_TOTAL, about one
    import's worth, the next scan imports numpy and so ends the pure ones.
    """
    global _python_scan_done
    if (
        "numpy" in sys.modules
        or work > _PYTHON_SCAN_WORK
        or _python_scan_done >= _PYTHON_SCAN_TOTAL
    ):
        return False
    _python_scan_done += work
    return True


def smooth_scan(
    log_profile: Callable[[np.ndarray], np.ndarray], beta: float, k_max: int
) -> SmoothBound:
    """Maximize exp(-beta*k) * f(k) over integer k in [0, k_max].

    Every distance is evaluated, whatever the shape of f, so
    ``values_scanned`` is k_max + 1.

    Args:
        log_profile: maps a numpy array of float distances k to ln f(k);
            may return -inf where f is 0.
        beta: smoothing rate, positive.
        k_max: last distance to scan, at most 2**53; the scan always
            includes k = 0.

    Returns:
        SmoothBound with ties broken toward the smallest k.
    """
    return _scan(log_profile, beta, k_max, in_python=False)


def _scan(log_profile, beta: float, k_max: int, in_python: bool, slack=None) -> SmoothBound:
    """``smooth_scan`` in either number system, pruned when given a ``slack``.

    ``log_profile`` gets lists of float distances when ``in_python``, numpy
    arrays otherwise, at most _SCAN_CHUNK at a time. With ``slack`` the
    caller vouches that f is non-decreasing and that ``slack`` is the
    round-off allowance of its log profile (module docstring). A scan of at
    most 2 * _SCAN_GRID distances is still evaluated whole, in one round:
    the grid would leave at most one distance between neighbours.
    """
    if not beta > 0:
        raise InvalidParams("beta must be positive, got %r" % (beta,))
    if k_max < 0:
        raise InvalidParams("k_max must be non-negative, got %r" % (k_max,))
    if k_max > _MAX_DISTANCE:
        raise InvalidParams(
            "k_max must be at most 2**53, past which float distances are not "
            "exact (it grows as epsilon shrinks), got %r" % (k_max,)
        )
    runs = _ListRuns() if in_python else _ArrayRuns()
    if slack is None or k_max < 2 * _SCAN_GRID:
        ks, slack = range(k_max + 1), None
    else:
        ks = runs.grid(k_max)
    best_log, best_k, scanned = -math.inf, 0, 0
    while len(ks):
        logs = []
        for chunk in runs.chunks(ks):
            part = log_profile(chunk)
            value, i = runs.first_max(part, chunk, beta)
            # rounds do not run in distance order: an equal value wins only below
            if value > best_log or value == best_log and chunk[i] < best_k:
                best_log, best_k = value, int(chunk[i])
            if slack is not None:
                logs.append(part)
        scanned += len(ks)
        ks = () if slack is None else runs.refine(ks, logs, best_log, beta, slack)
    if best_log == -math.inf:
        s = 0.0
    else:
        try:
            s = math.exp(best_log)
        except OverflowError:
            s = math.inf
    return SmoothBound(
        S=s, k_star=best_k, k_max=k_max, values_scanned=scanned, log_S=best_log
    )


class _ArrayRuns:
    """The pruned scan's distances and runs, in numpy arrays.

    A round's distances are a ``range`` (every distance) or integers. A run
    is the open interval between two evaluated distances lo < hi, on which
    a non-decreasing f is at most f(hi). ``refine`` splits the live runs at
    the round just evaluated, drops those that cannot hold the first
    maximum, and spreads the next round over the rest: about _SCAN_GRID
    distances, in proportion to each run's length, at least one per run.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        self.lo = self.hi = self.hi_log = self.counts = None

    def chunks(self, ks):
        np = self.np
        for start in range(0, len(ks), _SCAN_CHUNK):
            chunk = ks[start:start + _SCAN_CHUNK]
            if isinstance(chunk, range):
                yield np.arange(chunk.start, chunk.stop, dtype=float)
            else:
                yield chunk.astype(float)

    @staticmethod
    def first_max(logs, ks, beta: float):
        values = logs - beta * ks
        i = int(values.argmax())
        return float(values[i]), i

    def grid(self, k_max: int):
        np = self.np
        return np.arange(_SCAN_GRID, dtype=np.int64) * k_max // (_SCAN_GRID - 1)

    def refine(self, ks, logs: list, best: float, beta: float, slack: float):
        np = self.np
        logs = np.concatenate(logs)
        if self.lo is None:  # the grid: a run between each two neighbours
            lo, hi, hi_log = ks[:-1], ks[1:], logs[1:]
        else:  # each run splits at the distances it was given
            ends = np.cumsum(self.counts)
            lo = np.insert(ks, ends - self.counts, self.lo)
            hi = np.insert(ks, ends, self.hi)
            hi_log = np.insert(logs, ends, self.hi_log)
        bound = hi_log - beta * (lo + 1) + slack * (1 + np.maximum(hi_log, 0) + beta * hi)
        keep = (hi - lo > 1) & (bound > best)
        self.lo, self.hi, self.hi_log = lo[keep], hi[keep], hi_log[keep]
        n = self.hi - self.lo - 1
        self.counts = counts = np.clip(n * _SCAN_GRID // max(int(n.sum()), 1), 1, n)
        run = np.repeat(np.arange(len(counts)), counts)
        i = np.arange(1, len(run) + 1) - np.repeat(np.cumsum(counts) - counts, counts)
        return self.lo[run] + i * (n[run] + 1) // (counts[run] + 1)


class _ListRuns:
    """``_ArrayRuns`` over lists of (lo, hi, ln f(hi)) runs, in pure Python."""

    def __init__(self):
        self.runs = self.counts = None

    @staticmethod
    def chunks(ks):
        for start in range(0, len(ks), _SCAN_CHUNK):
            yield [float(k) for k in ks[start:start + _SCAN_CHUNK]]

    @staticmethod
    def first_max(logs: list, ks: list, beta: float):
        values = [v - beta * k for v, k in zip(logs, ks)]
        best = max(values)
        return best, values.index(best)

    @staticmethod
    def grid(k_max: int) -> list:
        return [i * k_max // (_SCAN_GRID - 1) for i in range(_SCAN_GRID)]

    def refine(self, ks: list, logs: list, best: float, beta: float, slack: float) -> list:
        logs = [v for part in logs for v in part]
        if self.runs is None:
            runs = zip(ks, ks[1:], logs[1:])
        else:
            runs, start = [], 0
            for (lo, hi, hi_log), count in zip(self.runs, self.counts):
                inner, inner_logs = ks[start:start + count], logs[start:start + count]
                runs += zip([lo] + inner, inner + [hi], inner_logs + [hi_log])
                start += count
        self.runs = [
            (lo, hi, hi_log)
            for lo, hi, hi_log in runs
            if hi - lo > 1
            and hi_log - beta * (lo + 1) + slack * (1 + max(hi_log, 0.0) + beta * hi) > best
        ]
        total = max(sum(hi - lo - 1 for lo, hi, _ in self.runs), 1)
        self.counts = [
            min(max((hi - lo - 1) * _SCAN_GRID // total, 1), hi - lo - 1)
            for lo, hi, _ in self.runs
        ]
        return [
            lo + i * (hi - lo) // (count + 1)
            for (lo, hi, _), count in zip(self.runs, self.counts)
            for i in range(1, count + 1)
        ]


def scan_limit(q: RelExpr, p: PrivacyParams) -> int:
    """The largest distance the smoothing scan must consider for ``q``.

    ceil(j/beta) for j joins, 0 for none: the sensitivity bound has degree
    at most j in k, so its damped profile cannot rise past j/beta (see the
    module docstring).
    """
    return _scan_limit(join_count(q), p.beta)


def _scan_limit(joins: int, beta: float) -> int:
    return 0 if joins == 0 else int(math.ceil(joins / beta))


def _slack(joins: int) -> float:
    """The pruning slack for a plan of ``joins`` joins: 16 (N + 1) u (module docstring)."""
    return 16 * (joins * (joins + 13) // 2 + 3) * 2.0**-53


def smooth_bound(q: RelExpr, m: MetricsStore, p: PrivacyParams) -> SmoothBound:
    """Smoothed sensitivity of a counting query under metrics ``m``.

    The sensitivity bound is non-decreasing in k, so the scan evaluates it
    only where the maximum can still be (module docstring).
    """
    joins = join_count(q)  # walks the whole tree: counted once
    k_max = _scan_limit(joins, p.beta)
    in_python = _scan_in_python((k_max + 1) * (joins + 1))
    return _scan(
        lambda ks: sensitivity_log_profile(q, ks, m, in_python=in_python),
        p.beta,
        k_max,
        in_python,
        slack=_slack(joins),
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


def laplace_sample(scale: float, rng) -> float:
    """Draw one Laplace(0, scale) sample via the inverse CDF.

    ``rng`` is any object whose ``random()`` returns a uniform float in
    [0, 1): a ``PCG64`` or a numpy Generator.
    """
    if not scale > 0:
        raise InvalidScale("scale must be positive, got %r" % (scale,))
    u = rng.random()
    while u == 0.0:  # open interval; the generator can return exactly 0
        u = rng.random()
    return laplace_inverse_cdf(u, scale)


_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
# numpy's SeedSequence hash and mix constants, and the PCG 128-bit multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_POOL = 4  # SeedSequence pool size, in 32-bit words


def _hash_constants(init: int, mult: int, n: int) -> list:
    """init * mult**i mod 2**32 for i = 0..n: the hash constant before each use and after the last."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK32)
    return out


# A seed of up to 128 bits takes 16 entropy hashes; PCG64 draws 8 state words.
_HASH_A = _hash_constants(_INIT_A, _MULT_A, _POOL * _POOL)
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 8)


def _seed_pool(seed: int) -> list:
    """numpy's ``SeedSequence(seed).pool``: four 32-bit words mixed from the seed's words.

    Each hash xors a value with the next constant of ``hash_a`` and
    multiplies it by the one after; ``hash_a[i]`` serves hash i. The hashes
    are inlined: this runs once per release.
    """
    words = [seed & _MASK32]  # little-endian 32-bit words; 0 is one word
    seed >>= 32
    while seed:
        words.append(seed & _MASK32)
        seed >>= 32
    calls = _POOL * _POOL + _POOL * max(0, len(words) - _POOL)
    hash_a = _HASH_A if calls < len(_HASH_A) else _hash_constants(_INIT_A, _MULT_A, calls)
    pool = words[:_POOL] + [0] * (_POOL - len(words))
    for i in range(_POOL):
        value = (pool[i] ^ hash_a[i]) * hash_a[i + 1] & _MASK32
        pool[i] = value ^ value >> 16
    # mix every pool word into every other, then each further seed word into
    # every pool word: mix(x, h) = (MIX_L*x - MIX_R*h), xor-shifted
    sources = [(src, None) for src in range(_POOL)] + [(None, word) for word in words[_POOL:]]
    i = _POOL
    for src, word in sources:
        for dst in range(_POOL):
            if dst == src:
                continue
            h = ((pool[src] if word is None else word) ^ hash_a[i]) * hash_a[i + 1] & _MASK32
            h ^= h >> 16
            value = (_MIX_L * pool[dst] - _MIX_R * h) & _MASK32
            pool[dst] = value ^ value >> 16
            i += 1
    return pool


class PCG64:
    """``numpy.random.default_rng(seed)`` in pure Python, draw for draw.

    The seed (any non-negative int) is hashed by numpy's SeedSequence into
    four 64-bit words: the first two are the 128-bit state seed, the last two
    the stream. Each draw steps the PCG64 state and outputs XSL-RR 128/64,
    of which ``random()`` keeps the top 53 bits, as numpy's
    ``Generator.random()`` does.
    """

    __slots__ = ("state", "inc")

    def __init__(self, seed: int):
        pool = _seed_pool(seed)
        words = []
        for i in range(8):
            value = (pool[i % _POOL] ^ _HASH_B[i]) * _HASH_B[i + 1] & _MASK32
            words.append(value ^ value >> 16)
        # SeedSequence.generate_state(4, uint64) pairs the words little-endian
        seeds = [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]
        self.inc = ((seeds[2] << 64 | seeds[3]) << 1 | 1) & _MASK128
        # pcg_setseq_128_srandom_r: one step from state 0 (which gives inc),
        # add the state seed, step again
        self.state = ((self.inc + (seeds[0] << 64 | seeds[1])) * _PCG_MULT + self.inc) & _MASK128

    def random(self) -> float:
        """A uniform float in [0, 1): the top 53 bits of the next 64-bit output."""
        self.state = state = (self.state * _PCG_MULT + self.inc) & _MASK128
        out = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        out = (out >> rot | out << (64 - rot)) & _MASK64
        return (out >> 11) * (1.0 / 9007199254740992.0)


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
    seed = secrets.randbits(128) if seed is None else int(seed)
    rng = PCG64(seed)
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
