"""Smoothing, noise, releases, and the privacy budget."""

import decimal
import math

import numpy as np
import pytest

from flexdp import (
    BudgetExhausted,
    BudgetLedger,
    InvalidParams,
    InvalidScale,
    MetricsStore,
    PrivacyParams,
    ProtectedBinLabels,
    UnsupportedQuery,
    join_count,
    laplace_inverse_cdf,
    laplace_sample,
    make_params,
    parse_query,
    release_count,
    release_histogram,
    sensitivity_log_profile,
    sensitivity_polynomials,
    smooth_bound,
)

from flexdp import mechanism
from flexdp.mechanism import PCG64, _peak

from _support import (
    TRIANGLE_SQL,
    brute_smooth,
    chain_catalog,
    chain_metrics,
    chain_sql,
    dense_scan,
    triangle_catalog,
    triangle_metrics,
)

METRICS = triangle_metrics()
CATALOG = triangle_catalog()


def triangle_query():
    return parse_query(TRIANGLE_SQL, CATALOG)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


def test_make_params_beta():
    p = make_params(0.7, 1e-7)
    assert p.beta == pytest.approx(0.7 / (2 * math.log(2 / 1e-7)))


def test_make_params_delta_default():
    n = 1000
    p = make_params(0.5, n=n)
    assert p.delta == pytest.approx(math.exp(-0.5 * math.log(n) ** 2))
    # equivalently n ** (-epsilon * ln n)
    assert p.delta == pytest.approx(n ** (-0.5 * math.log(n)))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(epsilon=0.0, delta=1e-6),
        dict(epsilon=-1.0, delta=1e-6),
        dict(epsilon=1.0, delta=0.0),
        dict(epsilon=1.0, delta=1.0),
        dict(epsilon=1.0, delta=None, n=None),
        dict(epsilon=1.0, delta=None, n=1),
    ],
)
def test_make_params_rejects(kwargs):
    with pytest.raises(InvalidParams):
        make_params(**kwargs)


@pytest.mark.parametrize(
    "epsilon, delta",
    [(math.nan, 1e-6), (-50.0, 1e-6), (math.inf, 1e-6), (1.0, math.nan), (1.0, 1.5), (5e-324, 1e-300)],
)
def test_privacy_params_cannot_hold_invalid_parameters(epsilon, delta):
    # a hand-built PrivacyParams is checked as make_params's is, so a NaN or
    # negative epsilon never reaches a ledger; the last pair's beta
    # underflows to 0
    ledger = BudgetLedger(max_epsilon=1.0, max_delta=1e-5)
    with pytest.raises(InvalidParams):
        ledger.charge(PrivacyParams(epsilon, delta))
    assert (ledger.spent_epsilon, ledger.spent_delta) == (0.0, 0.0)
    with pytest.raises(BudgetExhausted):
        ledger.charge(PrivacyParams(100.0, 1e-6))


def test_privacy_params_derive_beta():
    # beta is derived, never given, so it cannot disagree with epsilon and
    # delta, and smooth_bound sees only a positive, finite one
    p = PrivacyParams(0.7, 1e-7)
    assert p == make_params(0.7, 1e-7)
    assert p.beta == 0.7 / (2.0 * math.log(2.0 / 1e-7))
    with pytest.raises(TypeError):
        PrivacyParams(1.0, 1e-6, 0.0)
    # epsilon and delta are stored as floats; the derived beta is shown with them
    assert repr(make_params(1, 1e-6)) == (
        "PrivacyParams(epsilon=1.0, delta=1e-06, beta=0.03446218175457895)"
    )


# ---------------------------------------------------------------------------
# the dense reference scan
# ---------------------------------------------------------------------------


def test_scan_constant_profile_peaks_at_zero():
    bound = dense_scan(lambda ks: np.zeros_like(ks), beta=0.1, k_max=50)
    assert (bound.S, bound.k_star) == (1.0, 0)
    assert bound.values_scanned == 51


def test_scan_ties_break_toward_smaller_k():
    beta = 0.25

    def log_profile(ks):
        # exactly cancels the decay at k = 2 and k = 5; negligible elsewhere
        return np.where(np.isin(ks, (2.0, 5.0)), beta * ks, -100.0)

    bound = dense_scan(log_profile, beta=beta, k_max=10)
    assert bound.k_star == 2
    assert bound.S == pytest.approx(1.0)


def test_scan_tie_across_chunk_boundary():
    # the scan walks 65536-wide chunks; a later equal value must not win
    beta = 1e-4

    def log_profile(ks):
        return np.where(np.isin(ks, (3.0, 70000.0)), beta * ks, -400.0)

    bound = dense_scan(log_profile, beta=beta, k_max=80000)
    assert bound.k_star == 3


def test_scan_all_zero_profile():
    bound = dense_scan(lambda ks: np.full_like(ks, -np.inf), beta=0.5, k_max=9)
    assert bound.S == 0.0 and bound.k_star == 0


def test_k_max_is_ceil_of_the_largest_degree_over_beta():
    p = make_params(0.7, 1e-7)
    assert smooth_bound(parse_query("SELECT COUNT(*) FROM edges", CATALOG), METRICS, p).k_max == 0
    q = triangle_query()
    assert [len(poly) - 1 for poly in sensitivity_polynomials(q, METRICS)] == [2]
    assert smooth_bound(q, METRICS, p).k_max == math.ceil(2 / p.beta)


def test_smooth_bound_matches_naive_maximization():
    from flexdp import elastic_sensitivity

    q = triangle_query()
    p = make_params(0.7, 1e-7)
    bound = smooth_bound(q, METRICS, p)
    j = join_count(q)
    upto = 5 * math.ceil(j * j / p.beta)
    best, best_k = brute_smooth(
        lambda k: elastic_sensitivity(q, k, METRICS), p.beta, upto
    )
    assert bound.k_star == best_k
    assert bound.S == pytest.approx(best, rel=1e-12)


def _dense_profile(polys):
    """ln of the largest of ``polys`` at numpy float distances, for dense_scan."""

    def log_profile(ks):
        with np.errstate(divide="ignore"):
            return np.log(np.max([np.polyval([float(c) for c in p[::-1]], ks) for p in polys], axis=0))

    return log_profile


def test_deep_chain_scan_matches_the_square_horizon():
    # 40 joins at epsilon 0.1, every table private, so degree 40: the
    # ceil(40/beta) horizon holds the maximum that a dense scan of the exact
    # polynomials 40 times longer, to ceil(j*j/beta), finds
    q = parse_query(chain_sql(40), chain_catalog(41))
    m = chain_metrics(41)
    p = make_params(0.1, 1e-6)
    bound = smooth_bound(q, m, p)
    wide = dense_scan(_dense_profile(sensitivity_polynomials(q, m)), p.beta, math.ceil(1600 / p.beta))
    assert bound.k_max == math.ceil(40 / p.beta)
    assert bound.k_star == wide.k_star
    assert bound.log_S == pytest.approx(wide.log_S, rel=1e-13)


@pytest.mark.parametrize("n_joins, degree", [(1, 0), (2, 1), (3, 2)])
def test_a_public_join_side_lowers_the_horizon_below_the_join_count(n_joins, degree):
    # with t1 public its key mf is a constant, so the chain's bound has
    # degree j - 1: smoothing stops at ceil(d/beta), short of ceil(j/beta),
    # and a dense scan out to ceil(j/beta) finds the same S and k*
    q = parse_query(chain_sql(n_joins), chain_catalog(n_joins + 1))
    chain = chain_metrics(n_joins + 1)
    m = MetricsStore(chain.mf, public_tables=frozenset({"t1"}), row_counts=chain.row_counts)
    p = make_params(0.5, 1e-6)
    bound = smooth_bound(q, m, p)
    horizon = math.ceil(n_joins / p.beta)
    assert bound.k_max == math.ceil(degree / p.beta) < horizon
    dense = dense_scan(_dense_profile(sensitivity_polynomials(q, m)), p.beta, horizon)
    assert bound.k_star == dense.k_star
    assert bound.S == pytest.approx(dense.S, rel=1e-13)
    if degree == 0:
        # a constant bound needs no horizon: analysed, not refused, at any epsilon
        tiny = smooth_bound(q, m, make_params(1e-17, 1e-7))
        assert (tiny.k_max, tiny.k_star, tiny.S) == (0, 0, bound.S)


def test_pruned_scan_matches_the_exhaustive_scan_at_tiny_epsilon():
    # at epsilon 1e-5 the triangle's horizon is 6.7 M distances; the closed
    # form evaluates a few dozen of them and returns what a dense scan of
    # every one returns
    q, p = triangle_query(), make_params(1e-5, 1e-7)
    bound = smooth_bound(q, METRICS, p)
    whole = dense_scan(_dense_profile(sensitivity_polynomials(q, METRICS)), p.beta, bound.k_max)
    assert (bound.k_star, bound.log_S) == (whole.k_star, pytest.approx(whole.log_S, rel=1e-15))
    assert whole.values_scanned == bound.k_max + 1 == math.ceil(2 / p.beta) + 1
    assert bound.values_scanned < 100


def _exhaustive_peak(polys, beta, k_max):
    """The first k in 0..k_max that maximises math.log(max P(k)) - beta*k, by evaluating every k."""
    tops = [max(sum(c * k**i for i, c in enumerate(p)) for p in polys) for k in range(k_max + 1)]
    scores = [math.log(top) - beta * k if top else -math.inf for k, top in enumerate(tops)]
    return scores.index(max(scores))


def test_two_humped_polynomials_take_the_fallback_and_match_exhaustive_search():
    # ln(a + c*k**10) - beta*k falls from k = 0, then rises to a second hump
    # near 10/beta: g = den*P' - num*P has coefficient signs -, +, -, two
    # changes, so the roots of g are bracketed through its derivatives
    found = set()
    for a in (10**6, 10**9, 10**12, 10**15, 10**18):
        for c in (1, 7, 1000):
            for beta in (0.1, 0.2, 0.35, 0.5, 0.8):
                poly = (a,) + (0,) * 9 + (c,)
                k_max = math.ceil(10 / beta)
                k_star = _peak((poly,), beta, k_max)[0]
                assert k_star == _exhaustive_peak((poly,), beta, k_max), (a, c, beta)
                found.add(k_star == 0)
    assert found == {True, False}  # both humps win somewhere


def test_closed_form_matches_exhaustive_search_on_random_polynomial_sets():
    rng = np.random.default_rng(20261021)
    for _ in range(300):
        polys = tuple(
            tuple(int(c) for c in rng.integers(0, 50, int(rng.integers(1, 6))))
            for _ in range(int(rng.integers(1, 4)))
        )
        beta = float(rng.choice([0.05, 0.2, 0.7, 2.0]))
        k_max = math.ceil(5 / beta)
        assert _peak(polys, beta, k_max)[0] == _exhaustive_peak(polys, beta, k_max), (polys, beta)


def test_a_float_tie_goes_to_the_smaller_k():
    # beta = fl(ln 2): at k = 0, 1 and 2, math.log(max(1, 2k)) - beta*k is
    # exactly 0.0. Exactly, 2k * exp(-beta*k) is largest at k = 2, as
    # fl(ln 2) < ln 2; the candidates 0 and 2 tie in floats, and 0 wins
    beta = math.log(2.0)
    assert [math.log(max(1, 2 * k)) - beta * k for k in (0, 1, 2)] == [0.0, 0.0, 0.0]
    assert _peak(((0, 2),), beta, 5)[0] == 2
    assert _peak(((1,), (0, 2)), beta, 5)[0] == 0


@pytest.mark.parametrize("epsilon", [1e-9, 1e-12])
def test_tiny_epsilon_gives_the_exact_maximiser(epsilon):
    # the damped profile is flat far below float resolution here; k* must
    # still beat both integer neighbours, checked in 60-digit decimals
    q, p = triangle_query(), make_params(epsilon, 1e-7)
    bound = smooth_bound(q, METRICS, p)
    (poly,) = sensitivity_polynomials(q, METRICS)
    assert poly == (12871, 393, 3)
    ctx = decimal.Context(prec=60)
    damp = ctx.exp(decimal.Decimal(p.beta))

    def at(k):
        return decimal.Decimal(sum(c * k**i for i, c in enumerate(poly)))

    k = bound.k_star
    assert 0 < k < bound.k_max
    assert ctx.divide(at(k + 1), at(k)) < damp < ctx.divide(at(k), at(k - 1))
    assert bound.values_scanned < 100


def test_smooth_bound_refuses_a_horizon_past_float_precision():
    with pytest.raises(InvalidParams, match="2\\*\\*53"):
        smooth_bound(triangle_query(), METRICS, make_params(1e-15, 1e-7))
    # at epsilon 1e-320, j/beta overflows to inf: refused all the same
    with pytest.raises(InvalidParams, match="2\\*\\*53"):
        smooth_bound(triangle_query(), METRICS, make_params(1e-320, 1e-7))


def test_log_profile_takes_arrays():
    # the log profile takes any sequence of float distances, a numpy array
    # too, and returns a list
    q = triangle_query()
    logs = sensitivity_log_profile(q, np.array([0.0, 1.0]), METRICS)
    assert logs == sensitivity_log_profile(q, [0.0, 1.0], METRICS)
    assert isinstance(logs, list) and len(logs) == 2


# ---------------------------------------------------------------------------
# Laplace sampling
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "seed",
    [0, 7, 42, 2**63 + 12345, 2**100 + 3, 2**128 - 1, 2**128, 2**300 + 5, 2**1000 + 17],
)
def test_pcg64_matches_numpy_default_rng(seed):
    reference = np.random.default_rng(seed)
    clone = PCG64(seed)
    assert [clone.random() for _ in range(1000)] == [reference.random() for _ in range(1000)]


def test_inverse_cdf_landmarks():
    b = 3.0
    assert laplace_inverse_cdf(0.5, b) == 0.0
    assert laplace_inverse_cdf(0.75, b) == pytest.approx(b * math.log(2))
    assert laplace_inverse_cdf(0.25, b) == pytest.approx(-b * math.log(2))
    # symmetry around the median
    for u in (0.6, 0.9, 0.999):
        assert laplace_inverse_cdf(u, b) == pytest.approx(
            -laplace_inverse_cdf(1 - u, b)
        )


def test_inverse_cdf_domain_checks():
    with pytest.raises(InvalidScale):
        laplace_inverse_cdf(0.5, 0.0)
    with pytest.raises(InvalidScale):
        laplace_inverse_cdf(0.5, -1.0)
    for u in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            laplace_inverse_cdf(u, 1.0)
    for scale in (0.0, -1.0):
        with pytest.raises(InvalidScale):
            laplace_sample(scale, PCG64(1))


def test_sample_redraws_an_exact_zero():
    # u = 0 is outside the open interval the inverse CDF takes: draw again
    class Draws:
        def __init__(self, *values):
            self.values = list(values)

        def random(self):
            return self.values.pop(0)

    rng = Draws(0.0, 0.0, 0.75)
    assert laplace_sample(3.0, rng) == laplace_inverse_cdf(0.75, 3.0)
    assert rng.values == []


def test_sample_is_seed_deterministic():
    a = [laplace_sample(2.0, np.random.default_rng(9)) for _ in range(3)]
    b = [laplace_sample(2.0, np.random.default_rng(9)) for _ in range(3)]
    assert a[0] == b[0]
    rng = np.random.default_rng(9)
    seq = [laplace_sample(2.0, rng) for _ in range(3)]
    assert len(set(seq)) == 3


# ---------------------------------------------------------------------------
# releases
# ---------------------------------------------------------------------------


def test_release_count_fields_and_determinism():
    q = triangle_query()
    p = make_params(0.7, 1e-7)
    r1 = release_count(100.0, q, METRICS, p, seed=7)
    r2 = release_count(100.0, q, METRICS, p, seed=7)
    assert r1.value == r2.value
    assert r1.seed == 7
    assert r1.noise_scale == pytest.approx(2 * r1.S / 0.7)
    assert r1.bins is None
    r3 = release_count(100.0, q, METRICS, p, seed=8)
    assert r3.value != r1.value


def test_release_count_draws_seed_when_omitted():
    q = parse_query("SELECT COUNT(*) FROM edges", CATALOG)
    p = make_params(1.0, 1e-6)
    r = release_count(5.0, q, METRICS, p)
    assert isinstance(r.seed, int) and 0 <= r.seed < 2**128
    replay = release_count(5.0, q, METRICS, p, seed=r.seed)
    assert replay.value == r.value


def test_release_count_zero_scale_for_public_data():
    m = MetricsStore(
        mf=METRICS.mf, public_tables=frozenset({"edges"}), row_counts=METRICS.row_counts
    )
    q = parse_query("SELECT COUNT(*) FROM edges", CATALOG)
    r = release_count(42.0, q, m, make_params(1.0, 1e-6), seed=1)
    assert r.value == 42.0 and r.noise_scale == 0.0


def test_release_count_refuses_grouped_query():
    q = parse_query("SELECT source, COUNT(*) FROM edges GROUP BY source", CATALOG)
    with pytest.raises(UnsupportedQuery, match="histogram"):
        release_count(1.0, q, METRICS, make_params(1.0, 1e-6))


def test_release_histogram_covers_whole_domain():
    q = parse_query("SELECT source, COUNT(*) FROM edges GROUP BY source", CATALOG)
    p = make_params(1.0, 1e-6)
    r = release_histogram({"a": 4, "c": 1}, ["a", "b", "c"], q, METRICS, p, seed=3)
    labels = [label for label, _ in r.bins]
    assert labels == ["a", "b", "c"]  # absent bin still released
    assert r.value is None
    replay = release_histogram({"a": 4, "c": 1}, ["a", "b", "c"], q, METRICS, p, seed=3)
    assert replay.bins == r.bins


def test_release_histogram_requires_domain():
    q = parse_query("SELECT source, COUNT(*) FROM edges GROUP BY source", CATALOG)
    with pytest.raises(ProtectedBinLabels, match="source"):
        release_histogram({"a": 1}, None, q, METRICS, make_params(1.0, 1e-6))


def test_release_histogram_rejects_stray_labels():
    q = parse_query("SELECT source, COUNT(*) FROM edges GROUP BY source", CATALOG)
    p = make_params(1.0, 1e-6)
    # a label outside the public domain is dropped, not reported
    r = release_histogram({"zzz": 1}, ["a", "b"], q, METRICS, p, seed=4)
    assert [label for label, _ in r.bins] == ["a", "b"]
    assert r.bins == release_histogram({}, ["a", "b"], q, METRICS, p, seed=4).bins
    with pytest.raises(InvalidParams, match="duplicate"):
        release_histogram(
            {"a": 1}, ["a", "a"], q, METRICS, make_params(1.0, 1e-6)
        )


def test_release_refuses_non_finite_bound():
    # 60 joins at mf = 1e6 overflow S; the release must not emit +-inf
    m = chain_metrics(61, mf=10**6, rows=10**7)
    q = parse_query(chain_sql(60), chain_catalog(61))
    p = make_params(1.0, 1e-9)
    assert smooth_bound(q, m, p).S == math.inf
    with pytest.raises(UnsupportedQuery, match="non-finite"):
        release_count(5.0, q, m, p, seed=1)


def _chain_54(grouped, mf):
    sql = chain_sql(54)
    if grouped:
        sql = sql.replace("COUNT(*)", "r0.a, COUNT(*)") + " GROUP BY r0.a"
    return parse_query(sql, chain_catalog(55)), chain_metrics(55, mf=mf, rows=10**7)


@pytest.mark.parametrize("grouped,mf", [(False, 500000), (True, 495000)], ids=["plain", "grouped"])
def test_release_refuses_a_finite_scale_whose_draw_can_overflow(grouped, mf):
    # S and the scale are finite, but a draw near the sampler's largest
    # |ln(1 - |t|)| = 52 ln 2 is not: seeds 3, 4 and 10 would release +-inf
    q, m = _chain_54(grouped, mf)
    p = make_params(1.0, 1e-9)
    bound = smooth_bound(q, m, p)
    scale = 2.0 * bound.S / p.epsilon
    assert bound.k_star == 0 and math.isfinite(scale)
    overflowing = [s for s in range(20) if math.isinf(0.0 + laplace_sample(scale, PCG64(s)))]
    assert overflowing == [3, 4, 10]
    for seed in (None, 0, 10):
        with pytest.raises(UnsupportedQuery, match="value non-finite"):
            if grouped:
                release_histogram({}, ["x", "y"], q, m, p, seed=seed)
            else:
                release_count(0.0, q, m, p, seed=seed)


def test_largest_draw_is_scale_times_52_ln_2():
    class Lowest:
        def random(self):
            return 2.0**-53  # the smallest non-zero 53-bit uniform

    assert laplace_sample(1.0, Lowest()) == -mechanism._MAX_TAIL
    # far from the line, a true value near the top of the float range still releases
    q, m = _chain_54(False, 10)
    p = make_params(1.0, 1e-9)
    assert math.isfinite(release_count(1e300, q, m, p, seed=10).value)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_release_refuses_non_finite_true_result(value, monkeypatch):
    def no_bound(*args):
        raise AssertionError("the bound was computed for a refused release")

    monkeypatch.setattr("flexdp.mechanism.smooth_bound", no_bound)
    q = parse_query("SELECT COUNT(*) FROM edges", CATALOG)
    p = make_params(1.0, 1e-6)
    with pytest.raises(InvalidParams, match="not finite") as refused:
        release_count(value, q, METRICS, p, seed=1)
    assert str(value) not in str(refused.value)
    grouped = parse_query("SELECT source, COUNT(*) FROM edges GROUP BY source", CATALOG)
    with pytest.raises(InvalidParams, match="not finite") as refused:
        release_histogram({"a": 1, "b": value}, ["a", "b"], grouped, METRICS, p, seed=1)
    assert "'b'" not in str(refused.value) and str(value) not in str(refused.value)


@pytest.mark.parametrize("seed", [-1, 1.5, "7", True, False])
def test_release_refuses_seed_that_is_not_a_non_negative_int(seed):
    q = parse_query("SELECT COUNT(*) FROM edges", CATALOG)
    with pytest.raises(InvalidParams, match="seed"):
        release_count(5.0, q, METRICS, make_params(1.0, 1e-6), seed=seed)
    assert release_count(5.0, q, METRICS, make_params(1.0, 1e-6), seed=0).seed == 0


def test_release_histogram_refuses_plain_count():
    q = parse_query("SELECT COUNT(*) FROM edges", CATALOG)
    with pytest.raises(UnsupportedQuery, match="release_count"):
        release_histogram({}, ["a"], q, METRICS, make_params(1.0, 1e-6))


# ---------------------------------------------------------------------------
# budget
# ---------------------------------------------------------------------------


def test_budget_accumulates_and_allows_exact_cap():
    ledger = BudgetLedger(max_epsilon=1.0, max_delta=1e-5)
    ledger.charge(make_params(0.5, 5e-6))
    ledger.charge(make_params(0.5, 5e-6))  # reaches both caps exactly
    assert (ledger.spent_epsilon, ledger.spent_delta) == (1.0, 1e-5)
    # a ledger changes as it is charged: equal while its totals are, never hashable
    assert ledger == BudgetLedger(1.0, 1e-5, 1.0, 1e-5)
    with pytest.raises(TypeError):
        hash(BudgetLedger(1.0, 0.5))


def test_budget_refuses_and_preserves_state():
    ledger = BudgetLedger(max_epsilon=1.0, max_delta=1e-5)
    ledger.charge(make_params(0.9, 1e-6))
    with pytest.raises(BudgetExhausted, match="refusing release"):
        ledger.charge(make_params(0.2, 1e-6))
    assert ledger.spent_epsilon == pytest.approx(0.9)
    with pytest.raises(BudgetExhausted):
        # epsilon fits, delta does not
        ledger.charge(make_params(0.05, 1e-5))
    assert ledger.spent_delta == pytest.approx(1e-6)


def test_budget_validates_caps():
    with pytest.raises(InvalidParams):
        BudgetLedger(max_epsilon=0.0, max_delta=1e-5)
    with pytest.raises(InvalidParams):
        BudgetLedger(max_epsilon=1.0, max_delta=0.0)


@pytest.mark.parametrize(
    "spent",
    [(-5.0, 0.0), (0.0, math.nan), (math.inf, 0.0), (0.0, -1e-9), (-5.0, math.nan)],
    ids=["negative-epsilon", "nan-delta", "infinite-epsilon", "negative-delta", "both"],
)
def test_budget_refuses_spent_totals_that_grant_budget(spent):
    # a negative or NaN total would let later charges pass their caps
    with pytest.raises(InvalidParams, match="spent totals"):
        BudgetLedger(1.0, 1e-5, spent_epsilon=spent[0], spent_delta=spent[1])


def test_infinite_epsilon_is_refused():
    # beta would be inf, the scan's inf * 0 at k = 0 NaN, and S 0: no noise
    with pytest.raises(InvalidParams):
        make_params(math.inf, 1e-6)
    with pytest.raises(InvalidParams):
        make_params(math.inf, n=1000)
    with pytest.raises(InvalidParams):
        BudgetLedger(max_epsilon=math.inf, max_delta=1e-5)
