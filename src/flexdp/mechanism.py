"""Differentially private release of counting-query results.

The released value is ``true_result + Laplace(2*S/epsilon)`` where S smooths
the elastic sensitivity over distances::

    S = max over k >= 0 of exp(-beta*k) * sensitivity_at(k),
    beta = epsilon / (2 * ln(2/delta))

which yields (epsilon, delta)-differential privacy. S is found in closed
form, without scanning distances:

* the bound is a max of polynomials in k with non-negative integer
  coefficients (``sensitivity_polynomials``), so the two maxima commute:
  S = max over P of max over k of exp(-beta*k) * P(k), and each P is
  maximised alone. For d the largest degree in the set, P(k+1)/P(k) <=
  (1 + 1/k)**d <= exp(beta) once k >= d/beta, so the damped P does not
  rise from k_max = ceil(d/beta) on (0 for a constant or zero set);
* with beta = num/den exactly (``float.as_integer_ratio``), ln P(x) - beta*x
  rises on the reals where g = den*P' - num*P > 0. g has integer
  coefficients, so its sign at an integer is exact, and a negative leading
  one; by Descartes' rule of signs it has at most as many positive roots
  as sign changes. With at most one, a binary search on the sign of g over
  0..k_max brackets the top in some [a, a+1] in O(log k_max) evaluations.
  With more, g is monotone between the roots of g', bracketed first, and a
  binary search finds its crossing in each run;
* the integer maximum is 0, or a or a + 1 for a bracket a. Which of the
  two is decided exactly, P(a+1)/P(a) against Taylor bounds on exp(beta)
  in integers; they are never equal, as exp(beta) is irrational;
* the candidates are compared as the brute-force reference compares
  distances, on math.log(sensitivity_at(k)) - beta*k in floats; a tie goes
  to the smaller k.

S and log_S are the log-domain bound at k* alone,
``sensitivity_log_profile(q, [k*], m)``, damped; log_S stays finite where S
overflows. One path computes them, so a seeded release replays bit for bit.

The noise comes from ``PCG64``, numpy's ``default_rng(seed)`` (its
SeedSequence hashing and the PCG64 generator, O'Neill 2014) written in pure
Python, so that a seeded release draws the same value with or without numpy.
The package has no runtime dependency: a dense numpy scan of every distance
is kept only in the tests, as the reference for the closed form.
"""

from __future__ import annotations

import math
import numbers
import os
from typing import Mapping, Optional, Sequence, Tuple

from .errors import (
    BudgetExhausted,
    InvalidParams,
    InvalidScale,
    ProtectedBinLabels,
    UnsupportedQuery,
)
from .metrics import MetricsStore
from .records import Frozen, Record
from .relalg import Count, CountGrouped, RelExpr, root_count
from .sensitivity import (
    _brackets,
    _value,
    sensitivity_log_profile,
    sensitivity_polynomials,
)

# Every integer distance up to here is exact in float64.
_MAX_DISTANCE = 1 << 53
# The largest |ln(1 - |t|)| the 53-bit sampler can produce: |t| <= 1 - 2**-52.
_MAX_TAIL = 52 * math.log(2)


class PrivacyParams(Frozen):
    """Privacy parameters for one release, checked at construction; ``beta`` is derived from them.

    Raises:
        InvalidParams: epsilon not positive and finite, delta outside (0, 1),
            or epsilon so small that beta underflows to 0.
    """

    _fields = ("epsilon", "delta", "beta")

    def __init__(self, epsilon: float, delta: float):
        if not (epsilon > 0 and math.isfinite(epsilon)):
            raise InvalidParams("epsilon must be positive and finite, got %r" % (epsilon,))
        if not 0 < delta < 1:
            raise InvalidParams("delta must be in (0, 1), got %r" % (delta,))
        beta = epsilon / (2.0 * math.log(2.0 / delta))
        if not beta > 0:
            raise InvalidParams("epsilon %r is too small: beta underflows to 0" % (epsilon,))
        d = self.__dict__
        d["epsilon"], d["delta"], d["beta"] = float(epsilon), float(delta), beta


def make_params(
    epsilon: float, delta: Optional[float] = None, n: Optional[int] = None
) -> PrivacyParams:
    """Privacy parameters, with delta defaulted when omitted.

    When ``delta`` is omitted it defaults to ``n ** (-epsilon * ln n)``, a
    common choice that vanishes super-polynomially in the database size; the
    row count ``n`` must then be supplied and be at least 2.

    Raises:
        InvalidParams: as ``PrivacyParams``, or n missing or below 2 when
            delta is defaulted.
    """
    if delta is None:
        if n is None:
            raise InvalidParams("delta omitted: database size n is required")
        if n < 2:
            raise InvalidParams("delta default requires n >= 2, got %r" % (n,))
        delta = math.exp(-epsilon * math.log(n) ** 2)
    return PrivacyParams(epsilon, delta)


class SmoothBound(Frozen):
    """Result of smoothing: S, attained at distance k_star in 0..k_max.

    k_max is ceil(d/beta), for d the largest degree of the query's
    polynomial set: the damped bound does not rise past it. values_scanned
    counts the distances at which a polynomial was evaluated to find it.
    log_S is ln S as computed: finite where S overflows to inf, and -inf
    where S is 0.
    """

    _fields = ("S", "k_star", "k_max", "values_scanned", "log_S")

    def __init__(self, S: float, k_star: int, k_max: int, values_scanned: int, log_S: float):
        d = self.__dict__
        d["S"], d["k_star"], d["k_max"], d["values_scanned"], d["log_S"] = (
            S, k_star, k_max, values_scanned, log_S
        )


def _rises(lo: int, hi: int, num: int, den: int) -> bool:
    """Whether hi * exp(-num/den) > lo, for integers 0 <= lo <= hi, decided exactly.

    With s_n the Taylor sum of exp(b), b = num/den, to its term t_n:
    s_n < exp(b) < s_n + t_n * b / (n + 1 - b) once n + 1 > b. Both bounds
    close in on exp(b), which no ratio hi/lo equals, so the loop ends.
    s_n and t_n are kept as total/scale and term/scale.
    """
    total = term = scale = 1
    n = 0
    while hi * scale > lo * total:
        rest = (n + 1) * den - num
        if rest > 0 and hi * scale * rest >= lo * (total * rest + term * num):
            return True
        n += 1
        scale *= den * n
        total = total * den * n + term * num
        term *= num
    return False


def _peak(polys, beta: float, k_max: int) -> Tuple[int, int]:
    """k* for the max of ``polys`` damped by exp(-beta*k) on 0..k_max (module docstring).

    Returns k* and the number of distances at which a polynomial was
    evaluated to find it.
    """
    num, den = beta.as_integer_ratio()
    seen = set()

    def at(poly, k):
        seen.add(k)
        return _value(poly, k)

    candidates = {0}
    for poly in filter(None, polys):
        slope = [den * i * c for i, c in enumerate(poly)][1:] + [0]
        g = [d - num * c for d, c in zip(slope, poly)]
        for a in _brackets(g, k_max, at):
            rises = a < k_max and _rises(at(poly, a), at(poly, a + 1), num, den)
            candidates.add(a + 1 if rises else a)

    def score(k):
        top = max(at(poly, k) for poly in polys)
        return math.log(top) - beta * k if top else -math.inf

    # max keeps the first of equal scores: a tie goes to the smaller k
    return max(sorted(candidates), key=score), len(seen)


def smooth_bound(q: RelExpr, m: MetricsStore, p: PrivacyParams) -> SmoothBound:
    """Smoothed sensitivity of a counting query under metrics ``m``, in closed form (module docstring).

    Smoothing stops at k_max = ceil(d/beta), for d the largest degree of
    ``sensitivity_polynomials(q, m)``.

    Raises:
        InvalidParams: k_max passes 2**53 (epsilon is too small).
    """
    polys = sensitivity_polynomials(q, m)
    horizon = max(max(map(len, polys)) - 1, 0) / p.beta  # () is the zero polynomial
    if horizon > _MAX_DISTANCE:
        raise InvalidParams(
            "k_max = ceil(d/beta), for d the bound's degree in k, must be at "
            "most 2**53, past which float distances are not exact (it grows "
            "as epsilon shrinks), got d/beta = %r" % (horizon,)
        )
    k_max = math.ceil(horizon)
    k_star, scanned = _peak(polys, p.beta, k_max)
    log_s = sensitivity_log_profile(q, [float(k_star)], m)[0] - p.beta * k_star
    try:
        s = math.exp(log_s)
    except OverflowError:
        s = math.inf
    return SmoothBound(S=s, k_star=k_star, k_max=k_max, values_scanned=scanned, log_S=log_s)


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


def _seed_state(seed: int) -> list:
    """numpy's ``SeedSequence(seed).generate_state(4, uint64)``.

    A transcription of its ``mix_entropy`` and ``generate_state``: the
    seed's little-endian 32-bit words (0 is one word) are hashed into a
    four-word pool, and the pool is hashed out into eight words, paired
    little-endian. Each hash xors a value with the running hash constant,
    steps the constant and multiplies by it.
    """
    entropy = [seed & _MASK32]
    seed >>= 32
    while seed:
        entropy.append(seed & _MASK32)
        seed >>= 32
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = (_MIX_L * x - _MIX_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL, len(entropy)):
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(entropy[src]))

    hash_const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % _POOL] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> 16)
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


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
        seeds = _seed_state(seed)
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


class ReleaseResult(Frozen):
    """A noisy release plus the metadata needed to audit and replay it.

    Exactly one of ``value`` (plain count) and ``bins`` (grouped count, one
    (label, noisy value) pair per domain label in order) is set. ``seed``
    replays the noise and so recovers the true result: never publish it.
    """

    _fields = ("value", "bins", "S", "k_star", "noise_scale", "seed")

    def __init__(
        self,
        value: Optional[float],
        bins: Optional[Tuple],
        S: float,
        k_star: int,
        noise_scale: float,
        seed: int,
    ):
        d = self.__dict__
        d["value"], d["bins"], d["S"], d["k_star"] = value, bins, S, k_star
        d["noise_scale"], d["seed"] = noise_scale, seed


def noise_scale(S: float, p: PrivacyParams) -> float:
    """The Laplace scale a release of smoothed sensitivity ``S`` adds: 2*S/epsilon."""
    return 2.0 * S / p.epsilon


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
    non-negative integer (a bool, which would replay seed 0 or 1, is not)
    is refused before anything is computed or drawn.
    So is, before anything is drawn, a scale whose largest draw, scale *
    52 ln 2, could carry some value past the float range (a non-finite S
    among them): no released value is ever infinite.
    """
    values = [float(v) for v in true_values]
    if not all(math.isfinite(v) for v in values):
        raise InvalidParams("the true result is not finite; refusing to release")
    if seed is not None and (
        isinstance(seed, bool) or not (isinstance(seed, numbers.Integral) and seed >= 0)
    ):
        raise InvalidParams("seed must be a non-negative integer")
    bound = smooth_bound(q, m, p)
    scale = noise_scale(bound.S, p)
    # inf or NaN when S or the scale is: no draw can then stay finite either
    largest = max(map(abs, values), default=0.0) + scale * _MAX_TAIL
    if not math.isfinite(math.nextafter(largest, math.inf)):
        raise UnsupportedQuery(
            "smoothed sensitivity %r (noise scale %r) could make a released "
            "value non-finite; refusing to release" % (bound.S, scale)
        )
    seed = int.from_bytes(os.urandom(16), "little") if seed is None else int(seed)
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
        UnsupportedQuery: the root is a grouped count, S is not finite, or
            the noise could carry the value past the float range.
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
        UnsupportedQuery: the root is a plain count, S is not finite, or
            the noise could carry a value past the float range.
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


class BudgetLedger(Record):
    """Cumulative privacy spend with hard caps.

    Charges add up; one that would push either total past its cap raises
    BudgetExhausted and leaves the ledger unchanged. Spent totals start
    non-negative and finite (InvalidParams otherwise), so no total grants
    budget. Not thread-safe; callers that share a ledger across processes
    must serialize access themselves.
    """

    _fields = ("max_epsilon", "max_delta", "spent_epsilon", "spent_delta")

    def __init__(
        self,
        max_epsilon: float,
        max_delta: float,
        spent_epsilon: float = 0.0,
        spent_delta: float = 0.0,
    ):
        if not (max_epsilon > 0 and math.isfinite(max_epsilon)):
            raise InvalidParams("max_epsilon must be positive and finite")
        if not 0 < max_delta < 1:
            raise InvalidParams("max_delta must be in (0, 1)")
        if not all(0 <= v < math.inf for v in (spent_epsilon, spent_delta)):
            raise InvalidParams("spent totals must be non-negative and finite")
        self.max_epsilon, self.max_delta = max_epsilon, max_delta
        self.spent_epsilon, self.spent_delta = spent_epsilon, spent_delta

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
