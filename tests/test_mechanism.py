"""Smoothing, noise, releases, and the privacy budget."""

import math

import numpy as np
import pytest

from flexdp import (
    BudgetExhausted,
    BudgetLedger,
    InvalidParams,
    InvalidScale,
    MetricsStore,
    ProtectedBinLabels,
    UnsupportedQuery,
    join_count,
    laplace_inverse_cdf,
    laplace_sample,
    make_params,
    parse_query,
    release_count,
    release_histogram,
    scan_limit,
    sensitivity_log_profile,
    smooth_bound,
    smooth_scan,
)

from _support import (
    TRIANGLE_SQL,
    brute_smooth,
    chain_catalog,
    chain_metrics,
    chain_sql,
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


# ---------------------------------------------------------------------------
# smoothing scan
# ---------------------------------------------------------------------------


def test_scan_constant_profile_peaks_at_zero():
    bound = smooth_scan(lambda ks: np.zeros_like(ks), beta=0.1, k_max=50)
    assert (bound.S, bound.k_star) == (1.0, 0)
    assert bound.values_scanned == 51


def test_scan_ties_break_toward_smaller_k():
    beta = 0.25

    def log_profile(ks):
        # exactly cancels the decay at k = 2 and k = 5; negligible elsewhere
        return np.where(np.isin(ks, (2.0, 5.0)), beta * ks, -100.0)

    bound = smooth_scan(log_profile, beta=beta, k_max=10)
    assert bound.k_star == 2
    assert bound.S == pytest.approx(1.0)


def test_scan_tie_across_chunk_boundary():
    # the scan walks 65536-wide chunks; a later equal value must not win
    beta = 1e-4

    def log_profile(ks):
        return np.where(np.isin(ks, (3.0, 70000.0)), beta * ks, -400.0)

    bound = smooth_scan(log_profile, beta=beta, k_max=80000)
    assert bound.k_star == 3


def test_scan_all_zero_profile():
    bound = smooth_scan(lambda ks: np.full_like(ks, -np.inf), beta=0.5, k_max=9)
    assert bound.S == 0.0 and bound.k_star == 0


def test_scan_rejects_bad_arguments():
    with pytest.raises(InvalidParams):
        smooth_scan(lambda ks: ks, beta=0.0, k_max=5)
    with pytest.raises(InvalidParams):
        smooth_scan(lambda ks: ks, beta=0.1, k_max=-1)


def test_scan_limit():
    p = make_params(0.7, 1e-7)
    assert scan_limit(parse_query("SELECT COUNT(*) FROM edges", CATALOG), p) == 0
    q = triangle_query()
    assert scan_limit(q, p) == math.ceil(2 / p.beta)


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


def test_deep_chain_scan_matches_the_square_horizon():
    # 40 joins at epsilon 0.1: the ceil(j/beta) scan returns exactly what a
    # scan 40 times longer, to ceil(j*j/beta), returns
    q = parse_query(chain_sql(40), chain_catalog(41))
    m = chain_metrics(41)
    p = make_params(0.1, 1e-6)
    bound = smooth_bound(q, m, p)
    wide = smooth_scan(
        lambda ks: sensitivity_log_profile(q, ks, m), p.beta, math.ceil(1600 / p.beta)
    )
    assert bound.k_max == scan_limit(q, p) == math.ceil(40 / p.beta)
    assert (bound.S, bound.k_star, bound.log_S) == (wide.S, wide.k_star, wide.log_S)


# ---------------------------------------------------------------------------
# Laplace sampling
# ---------------------------------------------------------------------------


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
    assert isinstance(r.seed, int)
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


@pytest.mark.parametrize("seed", [-1, 1.5, "7"])
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
    assert ledger.remaining() == (0.0, 0.0)


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


def test_infinite_epsilon_is_refused():
    # beta would be inf, the scan's inf * 0 at k = 0 NaN, and S 0: no noise
    with pytest.raises(InvalidParams):
        make_params(math.inf, 1e-6)
    with pytest.raises(InvalidParams):
        make_params(math.inf, n=1000)
    with pytest.raises(InvalidParams):
        BudgetLedger(max_epsilon=math.inf, max_delta=1e-5)
