"""Smoothing, noise, releases, and the privacy budget."""

import math
import os
import subprocess
import sys

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

from flexdp.mechanism import PCG64, _scan, _slack

from _support import (
    TRIANGLE_SQL,
    brute_smooth,
    chain_catalog,
    chain_metrics,
    chain_sql,
    random_micro_db,
    random_query_sql,
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


def test_python_and_numpy_scans_agree(monkeypatch):
    # the pure-Python log system repeats numpy's float64 operations, so both
    # scans find the same maximum at the same distance, after evaluating the
    # same distances (the 8-join chain at 0.1 is pruned, in several rounds)
    rng = np.random.default_rng(20261020)
    cases = [
        (triangle_query(), METRICS),
        (parse_query(chain_sql(6), chain_catalog(7)), chain_metrics(7)),
        (parse_query(chain_sql(8), chain_catalog(9)), chain_metrics(9)),
    ]
    while len(cases) < 83:
        db = random_micro_db(rng, max_tables=3, max_rows=4, max_values=3)
        public = [name for name in sorted(db.tables) if rng.random() < 0.25]
        q = parse_query(random_query_sql(rng, db, max_joins=3), db.catalog())
        cases.append((q, db.exact_metrics(public)))
    profiles = {True: [], False: []}  # the distance sequences each scan evaluated
    in_python = None

    def recorded(q, ks, m, **options):
        profiles[in_python].append(type(ks))
        return sensitivity_log_profile(q, ks, m, **options)

    monkeypatch.setattr("flexdp.mechanism.sensitivity_log_profile", recorded)
    for q, m in cases:
        for epsilon in (0.1, 0.5, 1.0):
            p = make_params(epsilon, 1e-6)
            bounds = []
            for in_python in (True, False):
                monkeypatch.setattr("flexdp.mechanism._scan_in_python", lambda work: in_python)
                bounds.append(smooth_bound(q, m, p))
            assert bounds[0] == bounds[1], (q, epsilon)
    assert set(profiles[True]) == {list} and set(profiles[False]) == {np.ndarray}
    assert len(profiles[True]) > len(cases) * 3  # some scans took more than one round


def test_pruned_scan_matches_the_exhaustive_scan_at_tiny_epsilon():
    # at epsilon 1e-5 the triangle's horizon is 6.7 M distances; the pruned
    # scan evaluates under 1 % of them and returns what evaluating all does
    q, p = triangle_query(), make_params(1e-5, 1e-7)
    bound = smooth_bound(q, METRICS, p)
    whole = smooth_scan(lambda ks: sensitivity_log_profile(q, ks, METRICS), p.beta, bound.k_max)
    assert (bound.S, bound.k_star, bound.log_S) == (whole.S, whole.k_star, whole.log_S)
    assert whole.values_scanned == bound.k_max + 1 == scan_limit(q, p) + 1
    assert bound.values_scanned < 0.01 * (bound.k_max + 1)


@pytest.mark.parametrize("in_python", [True, False])
def test_pruned_scan_breaks_a_plateau_tie_toward_the_smaller_k(in_python):
    # a non-decreasing profile, beta * s on [s, next step): its damped value
    # is exactly 0 at 50001 and at 70000 and below 0 elsewhere. The first
    # round's grid is every 100th distance, so it finds the tie at 70000
    # first; 50001 sits in a run whose right end is on the same plateau, and
    # only a bound by that end with a slack keeps the run
    beta, k_max = 1e-4, 102300

    def log_profile(ks):
        logs = [beta * 70000.0 if k >= 70000 else beta * 50001.0 if k >= 50001 else -1.0
                for k in ks]
        return logs if isinstance(ks, list) else np.array(logs)

    bound = _scan(log_profile, beta, k_max, in_python, slack=_slack(2))
    assert (bound.S, bound.k_star, bound.log_S) == (1.0, 50001, 0.0)
    assert bound.values_scanned < 2000
    assert smooth_scan(log_profile, beta, k_max).k_star == 50001


def test_pruned_scan_matches_the_exhaustive_scan_on_random_plateaus():
    rng = np.random.default_rng(20261018)
    for _ in range(40):
        beta = float(rng.choice([1e-3, 1e-4]))
        k_max = int(rng.integers(2048, 40000))
        steps = sorted(set(int(s) for s in rng.integers(0, k_max + 1, rng.integers(1, 12))))
        # each step reaches the maximum or falls short of it by a little
        levels = [beta * s - float(rng.choice([0.0, 0.0, 1e-9, 1e-3])) for s in steps]
        table = np.full(k_max + 1, -1.0)
        for s, level in zip(steps, levels):
            table[s:] = max(level, table[s - 1] if s else -1.0)
        floats = table.tolist()
        whole = smooth_scan(lambda ks: table[ks.astype(int)], beta, k_max)
        for in_python in (True, False):
            pruned = _scan(
                (lambda ks: [floats[int(k)] for k in ks]) if in_python
                else (lambda ks: table[ks.astype(int)]),
                beta, k_max, in_python, slack=_slack(2),
            )
            assert (pruned.S, pruned.k_star, pruned.log_S) == (whole.S, whole.k_star, whole.log_S)
            assert pruned.values_scanned < whole.values_scanned


def test_scan_rejects_distances_past_float_precision():
    with pytest.raises(InvalidParams):
        smooth_scan(lambda ks: ks, beta=0.1, k_max=2**53 + 1)


def test_public_scan_and_profile_take_arrays(monkeypatch):
    # only smooth_bound's own profile runs on lists: a caller's array code
    # keeps working whatever the scan choice
    monkeypatch.setattr("flexdp.mechanism._scan_in_python", lambda work: True)
    bound = smooth_scan(lambda ks: -0.5 * ks, beta=0.1, k_max=20)
    assert (bound.S, bound.k_star, bound.values_scanned) == (1.0, 0, 21)
    q = triangle_query()
    assert isinstance(sensitivity_log_profile(q, [0.0, 1.0], METRICS), np.ndarray)
    pure = sensitivity_log_profile(q, [0.0, 1.0], METRICS, in_python=True)
    assert isinstance(pure, list) and len(pure) == 2


# The child runs the same scan four times in a process without numpy and
# prints each result and whether numpy was imported by then.
_SCAN_CHILD = """\
import sys
from flexdp import make_params, mechanism, parse_query, smooth_bound
from _support import TRIANGLE_SQL, triangle_catalog, triangle_metrics
mechanism._PYTHON_SCAN_TOTAL = int(sys.argv[1])
q, m = parse_query(TRIANGLE_SQL, triangle_catalog()), triangle_metrics()
for _ in range(4):
    b = smooth_bound(q, m, make_params(0.5, 1e-6))
    print(repr((b.S, b.k_star, b.log_S)), "numpy" in sys.modules)
"""


def test_pure_scans_stop_after_the_process_total():
    # a triangle scan at epsilon 0.5 is 118 distances of 3 steps: two pure
    # scans pass a total of 700 units, so the third imports numpy
    q, p = triangle_query(), make_params(0.5, 1e-6)
    assert (scan_limit(q, p) + 1) * (join_count(q) + 1) == 354
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, here]))
    done = subprocess.run(
        [sys.executable, "-c", _SCAN_CHILD, "700"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    b = smooth_bound(q, METRICS, p)
    expected = repr((b.S, b.k_star, b.log_S))
    assert done.stdout.splitlines() == [
        expected + " False", expected + " False", expected + " True", expected + " True"
    ]


# ---------------------------------------------------------------------------
# Laplace sampling
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "seed", [0, 7, 42, 2**63 + 12345, 2**100 + 3, 2**128 - 1, 2**300 + 5]
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
