"""Stability and max-frequency rules, frozen against hand derivations."""

import gc
import math
import sys
import weakref

import numpy as np
import pytest

from flexdp import (
    Aliased,
    AttrRef,
    Catalog,
    Comparison,
    Count,
    CountGrouped,
    Join,
    MetricsStore,
    MicroDatabase,
    MissingMetric,
    Select,
    Table,
    UnresolvedAttribute,
    UnsupportedQuery,
    attribute_index,
    catalog_from_metrics,
    elastic_sensitivity,
    eval_query,
    join_count,
    local_sensitivity_at,
    make_params,
    mf_at_distance,
    parse_query,
    release_count,
    sensitivity_log_profile,
    sensitivity_polynomials,
    smooth_bound,
)
from flexdp import mechanism, sensitivity
from flexdp.relalg import counted_relation
from flexdp.sensitivity import key_columns

from _support import (
    TRIANGLE_SQL,
    chain_catalog,
    chain_metrics,
    chain_sql,
    random_micro_db,
    random_query_sql,
    star_metrics,
    star_sql,
    triangle_catalog,
    triangle_metrics,
)

EDGES = Table("edges", "edges", ("source", "dest"))
METRICS = triangle_metrics()  # mf(source) = mf(dest) = 65


def triangle_query():
    return parse_query(TRIANGLE_SQL, triangle_catalog())


def test_base_table_stability():
    assert elastic_sensitivity(Count(EDGES), 0, METRICS) == 1
    assert elastic_sensitivity(Count(EDGES), 7, METRICS) == 1


def test_public_table_stability_is_zero():
    public = triangle_metrics()
    public = MetricsStore(
        mf=public.mf, public_tables=frozenset({"edges"}), row_counts=public.row_counts
    )
    assert elastic_sensitivity(Count(EDGES), 0, public) == 0


def test_filters_and_projections_pass_through():
    q = parse_query(
        "SELECT COUNT(*) FROM edges WHERE source = 1", triangle_catalog()
    )
    assert elastic_sensitivity(q, 3, METRICS) == 1


def test_mf_inflates_with_distance():
    # one replaced tuple can add one occurrence of the heaviest value
    for k in (0, 1, 10):
        assert mf_at_distance(AttrRef("edges", "dest"), EDGES, k, METRICS) == 65 + k


def test_mf_public_table_does_not_inflate():
    m = MetricsStore(
        mf=METRICS.mf, public_tables=frozenset({"edges"}), row_counts=METRICS.row_counts
    )
    assert mf_at_distance(AttrRef("edges", "dest"), EDGES, 9, m) == 65


def test_mf_through_join_multiplies_by_matching_key():
    # joining edges e1 to e2 on e1.dest = e2.source: each of the up-to
    # (65+k) rows holding e2's heaviest dest value matches up to (65+k)
    # rows of e1, so the joined frequency bound is the product
    q = parse_query(
        "SELECT COUNT(*) FROM edges e1 JOIN edges e2 ON e1.dest = e2.source",
        triangle_catalog(),
    )
    j = q.input
    for k in (0, 1, 5):
        got = mf_at_distance(AttrRef("e2", "dest"), j, k, METRICS)
        assert got == (65 + k) * (65 + k)


def test_mf_of_aggregate_output_is_refused():
    c = Count(EDGES, label="n")
    with pytest.raises(UnsupportedQuery, match="max-frequency bound"):
        mf_at_distance(AttrRef(None, "n"), c, 0, METRICS)


def test_self_join_stability_first_triangle_join():
    # both inputs are the edges table, so a replaced edge can appear on
    # either side or pair with itself:
    #   mf_k(e1.dest)*S(e2) + mf_k(e2.source)*S(e1) + S(e1)*S(e2)
    # = (65+k) + (65+k) + 1 = 131 + 2k
    q = parse_query(
        "SELECT COUNT(*) FROM edges e1 JOIN edges e2 ON e1.dest = e2.source",
        triangle_catalog(),
    )
    for k in range(0, 20):
        assert elastic_sensitivity(q, k, METRICS) == 131 + 2 * k


def test_full_triangle_stability():
    # outer join: (e1 join e2) with e3, again a self join.
    #   mf_k(e2.dest, e1 join e2) = (65+k)^2   (product through the join)
    #   mf_k(e3.source, e3)       = 65+k
    #   S(e1 join e2) = 131+2k, S(e3) = 1
    # total = (65+k)^2 + (65+k)(131+2k) + (131+2k) = 3k^2 + 393k + 12871
    q = triangle_query()
    for k in (0, 1, 2, 10, 100):
        expected = 3 * k * k + 393 * k + 12871
        assert elastic_sensitivity(q, k, METRICS) == expected
    assert elastic_sensitivity(q, 0, METRICS) == 12871


def test_non_self_join_takes_max():
    catalog_cols = {"users": ("id", "dept"), "orders": ("uid", "item")}
    m = MetricsStore(
        mf={
            ("users", "id"): 3,
            ("users", "dept"): 50,
            ("orders", "uid"): 7,
            ("orders", "item"): 9,
        },
        public_tables=frozenset(),
        row_counts={"users": 100, "orders": 100},
    )
    from flexdp import Catalog

    q = parse_query(
        "SELECT COUNT(*) FROM users u JOIN orders o ON u.id = o.uid",
        Catalog(columns=catalog_cols),
    )
    # max(mf_k(u.id)*S(o), mf_k(o.uid)*S(u)) = max(3+k, 7+k) = 7+k
    for k in (0, 1, 4):
        assert elastic_sensitivity(q, k, m) == 7 + k


def test_private_join_public_reduces_to_public_mf():
    from flexdp import Catalog

    m = MetricsStore(
        mf={
            ("edges", "source"): 65,
            ("edges", "dest"): 65,
            ("zips", "zip"): 4,
            ("zips", "city"): 9,
        },
        public_tables=frozenset({"zips"}),
        row_counts={"edges": 1000, "zips": 50},
    )
    catalog = Catalog(
        columns={"edges": ("source", "dest"), "zips": ("zip", "city")},
    )
    q = parse_query(
        "SELECT COUNT(*) FROM edges e JOIN zips z ON e.dest = z.zip", catalog
    )
    # S(zips) = 0 kills one branch; the other is mf(z.zip) * S(edges) with
    # no +k inflation on the public side
    for k in (0, 1, 50):
        assert elastic_sensitivity(q, k, m) == 4


def test_all_public_query_has_zero_sensitivity():
    m = MetricsStore(
        mf=METRICS.mf,
        public_tables=frozenset({"edges"}),
        row_counts=METRICS.row_counts,
    )
    q = triangle_query()
    assert elastic_sensitivity(q, 5, m) == 0


def test_grouped_count_doubles():
    q_plain = parse_query(
        "SELECT COUNT(*) FROM edges e1 JOIN edges e2 ON e1.dest = e2.source",
        triangle_catalog(),
    )
    q_grouped = parse_query(
        "SELECT e1.source, COUNT(*) FROM edges e1 "
        "JOIN edges e2 ON e1.dest = e2.source GROUP BY e1.source",
        triangle_catalog(),
    )
    for k in (0, 3):
        assert elastic_sensitivity(q_grouped, k, METRICS) == 2 * elastic_sensitivity(
            q_plain, k, METRICS
        )


def test_count_of_a_counted_with_subquery():
    # the inner count is one row whatever the data, so the outer count is
    # constant: stability 1 through the count step, 2 once grouped
    inner = (
        "WITH c AS (SELECT COUNT(*) AS n FROM edges e1 "
        "JOIN edges e2 ON e1.dest = e2.source) "
    )
    plain = parse_query(inner + "SELECT COUNT(*) FROM c", triangle_catalog())
    grouped = parse_query(inner + "SELECT n, COUNT(*) FROM c GROUP BY n", triangle_catalog())
    for k in (0, 1, 5, 40):
        assert elastic_sensitivity(plain, k, METRICS) == 1
        assert elastic_sensitivity(grouped, k, METRICS) == 2
    assert key_columns(plain) == [] and key_columns(grouped) == []
    db = MicroDatabase(
        tables={"edges": [(1, 2), (2, 3), (3, 1), (1, 3)]},
        columns={"edges": ("source", "dest")},
    )
    for k in (0, 1):
        assert local_sensitivity_at(plain, db, k) <= 1
        assert local_sensitivity_at(grouped, db, k) <= 2


def test_join_on_aggregate_key_rejected_at_analysis():
    # the parser refuses this shape too; build the tree directly to check
    # the analysis defends itself as well
    counted = Aliased(Count(EDGES, label="n"), "a")
    bad = Join(counted, EDGES, AttrRef("a", "n"), AttrRef("edges", "source"))
    with pytest.raises(UnsupportedQuery, match="a.n"):
        elastic_sensitivity(Count(bad), 0, METRICS)


def test_a_nested_count_resolves_its_input_for_analysis_and_evaluation():
    # the compiler reads the resolution kept on the tree, so the analysis
    # checks a reference under a nested count as the evaluator does
    e = Table("edges", "e", ("source", "dest"))
    nope = Select((Comparison(AttrRef("e", "nope"), "<", 3),), e)
    bad = Count(Aliased(Count(nope), "c"))
    db = MicroDatabase(tables={"edges": [(1, 2)]}, columns={"edges": ("source", "dest")})
    with pytest.raises(UnresolvedAttribute, match="^no attribute e.nope in scope$"):
        elastic_sensitivity(bad, 0, METRICS)
    with pytest.raises(UnresolvedAttribute, match="^no attribute e.nope in scope$"):
        eval_query(bad, db)
    # a valid one: the count's input steps and their up-links go, and the
    # nested count is one stability-1 step, grouped above it as any input
    pairs = Join(e, EDGES, AttrRef("e", "dest"), AttrRef("edges", "source"))
    counted = Aliased(Count(pairs, label="n"), "c")
    plan, columns, up = sensitivity._compiled(counted)
    assert [step.op for step in plan] == ["count"] and columns == [None] and up == {}
    grouped = CountGrouped((AttrRef("c", "n"),), counted)
    assert [(step.op, step.inputs) for step in sensitivity._compiled(grouped)[0]] == [
        ("count", ()), ("grouped", (0,))]
    assert elastic_sensitivity(Count(counted), 3, METRICS) == 1
    assert elastic_sensitivity(grouped, 3, METRICS) == 2
    # so is a join key under it that the parser refuses: it has no bound
    on_count = Join(Aliased(Count(EDGES, label="n"), "a"), e, AttrRef("a", "n"), AttrRef("e", "source"))
    with pytest.raises(UnsupportedQuery, match="join key a.n has no max-frequency bound"):
        elastic_sensitivity(Count(Aliased(Count(on_count), "c")), 0, METRICS)


def test_distance_must_be_non_negative_int():
    q = triangle_query()
    with pytest.raises(ValueError):
        elastic_sensitivity(q, -1, METRICS)
    with pytest.raises(ValueError):
        elastic_sensitivity(q, 1.5, METRICS)


def test_join_count():
    assert join_count(triangle_query()) == 2
    assert join_count(parse_query("SELECT COUNT(*) FROM edges", triangle_catalog())) == 0


def test_sensitivity_grows_at_most_like_k_to_the_joins():
    # the smoothing horizon ceil(d/beta) rests on this: the bound is a max of
    # polynomials in k with non-negative integer coefficients, of largest
    # degree d (at most j for j joins), so S(k+1)/S(k) <= ((k+1)/k)**d;
    # checked in exact integers, on the bound and on each polynomial, with
    # public tables drawn in to lower some degrees
    rng = np.random.default_rng(20261018)
    cases = [
        (triangle_query(), METRICS),
        (parse_query(chain_sql(6), chain_catalog(7)), chain_metrics(7)),
    ]
    while len(cases) < 302:
        db = random_micro_db(rng, max_tables=3, max_rows=4, max_values=3)
        public = [name for name in sorted(db.tables) if rng.random() < 0.25]
        q = parse_query(random_query_sql(rng, db, max_joins=3), db.catalog())
        cases.append((q, db.exact_metrics(public)))
    for q, m in cases:
        j = join_count(q)
        at = [elastic_sensitivity(q, k, m) for k in range(202)]
        polys = sensitivity_polynomials(q, m)
        values = [[sum(c * k**i for i, c in enumerate(p)) for k in range(202)] for p in polys]
        assert [max(column) for column in zip(*values)] == at, q
        d = max(max(map(len, polys)) - 1, 0)
        assert d <= j, q
        for p, value in zip(polys, values):
            assert all(isinstance(c, int) and c >= 0 for c in p), (q, p)
            for k in range(1, 201):
                assert value[k + 1] * k**d <= value[k] * (k + 1) ** d, (q, p, k)
        for k in range(1, 201):
            assert at[k + 1] * k**d <= at[k] * (k + 1) ** d, (q, k)


def test_polynomial_sets_stay_small_on_self_joins_with_public_tables():
    # a self join sums its sides' sets pair by pair, so sets multiply; those
    # past 8 polynomials are cut to their upper envelope, exactly. The worst
    # generator shapes, self-join chains of up to 6 joins with public tables
    # drawn in, stay within 8 and still equal the bound at every k checked
    rng = np.random.default_rng(3)
    sizes = []
    for _ in range(400):
        db = random_micro_db(rng, max_tables=3, max_rows=6, max_values=5)
        public = [name for name in sorted(db.tables) if rng.random() < 0.3]
        q = parse_query(random_query_sql(rng, db, max_joins=6), db.catalog())
        m = db.exact_metrics(public)
        try:
            polys = sensitivity_polynomials(q, m)
        except UnsupportedQuery:
            continue
        sizes.append(len(polys))
        for k in list(range(40)) + [10**e for e in range(2, 17)]:
            assert max(sum(c * k**i for i, c in enumerate(p)) for p in polys) == (
                elastic_sensitivity(q, k, m)
            ), (q, k)
    assert max(sizes) <= 8 and max(sizes) > 1


STAR_CATALOG = Catalog(
    columns={"fact": ("a", "b"), "d1": ("id", "x"), "d2": ("id", "y"), "edges": ("source", "dest")},
)
STAR_METRICS = MetricsStore(
    mf={
        ("fact", "a"): 5,
        ("fact", "b"): 7,
        ("d1", "id"): 2,
        ("d1", "x"): 4,
        ("d2", "id"): 3,
        ("d2", "y"): 6,
        ("edges", "source"): 65,
        ("edges", "dest"): 65,
    },
    public_tables=frozenset({"d2"}),
    row_counts={"fact": 1000, "d1": 100, "d2": 50, "edges": 1000},
)


def test_log_profile_matches_exact_recursion():
    # every kind of plan step and key path: self joins, a star whose second
    # key is multiplied through the first join and meets a public dimension,
    # a CTE reached through Aliased and a reordering Project, a grouped
    # count, and a self-join path whose keys cross several joins
    cases = [
        (triangle_query(), METRICS),
        (
            "SELECT COUNT(*) FROM fact f JOIN d1 ON f.a = d1.id "
            "JOIN d2 ON f.b = d2.id",
            STAR_METRICS,
        ),
        (
            "WITH s AS (SELECT d1.x, f.b FROM fact f JOIN d1 ON f.a = d1.id) "
            "SELECT COUNT(*) FROM s JOIN d2 ON s.b = d2.id",
            STAR_METRICS,
        ),
        (
            "SELECT e1.source, COUNT(*) FROM edges e1 "
            "JOIN edges e2 ON e1.dest = e2.source GROUP BY e1.source",
            STAR_METRICS,
        ),
        (
            "SELECT COUNT(*) FROM edges e1 JOIN edges e2 ON e1.dest = e2.source "
            "JOIN edges e3 ON e2.dest = e3.source JOIN edges e4 ON e3.dest = e4.source",
            STAR_METRICS,
        ),
    ]
    ks = np.arange(0, 300, dtype=float)
    for q, m in cases:
        if isinstance(q, str):
            q = parse_query(q, STAR_CATALOG)
        logs = sensitivity_log_profile(q, ks, m)
        exact = np.array([float(elastic_sensitivity(q, int(k), m)) for k in ks])
        np.testing.assert_allclose(np.exp(logs), exact, rtol=1e-12)


def test_star_key_multiplied_through_inner_join():
    # f.b reaches the outer join through fact JOIN d1, where each fact row
    # matches up to mf_k(d1.id) = 2+k rows: mf_k(f.b) = (7+k)(2+k). The
    # public d2 has stability 0 and its key mf 3 does not grow with k.
    q = parse_query(
        "SELECT COUNT(*) FROM fact f JOIN d1 ON f.a = d1.id JOIN d2 ON f.b = d2.id",
        STAR_CATALOG,
    )
    join = q.input
    for k in (0, 1, 7):
        assert mf_at_distance(AttrRef("f", "b"), join.left, k, STAR_METRICS) == (7 + k) * (2 + k)
        # S(fact JOIN d1) = max(5+k, 2+k); outer: max(mf(f.b)*0, 3*S(left))
        assert elastic_sensitivity(q, k, STAR_METRICS) == 3 * (5 + k)


def test_plan_of_a_bushy_tree_reads_key_factors_through_up_links():
    # a self-join subquery joined on the right under Aliased and a
    # reordering Project, and a star key f.b that passes two inner joins
    q = parse_query(
        "WITH s AS (SELECT e2.dest, e1.source FROM edges e1 JOIN edges e2 ON e1.dest = e2.source) "
        "SELECT COUNT(*) FROM fact f JOIN d1 ON f.a = d1.id JOIN d2 ON d1.x = d2.id "
        "JOIN s ON f.b = s.source",
        STAR_CATALOG,
    )
    Step = sensitivity._Step
    plan, columns, up = sensitivity._compiled(q.input)
    assert plan == [
        Step("table", table="fact"),
        Step("table", table="d1"),
        Step("join", (0, 1), keys=(("fact", "a", ()), ("d1", "id", ()))),
        Step("table", table="d2"),
        Step("join", (2, 3), keys=(("d1", "x", ((2, 0),)), ("d2", "id", ()))),
        Step("table", table="edges"),
        Step("table", table="edges"),
        Step("join", (5, 6), self_join=True, keys=(("edges", "dest", ()), ("edges", "source", ()))),
        Step("join", (4, 7), keys=(("fact", "b", ((2, 1), (4, 1))), ("edges", "source", ((7, 1),)))),
    ]
    # each input's top step links to the join above it and the other side
    assert up == {0: (2, 1), 1: (2, 0), 2: (4, 1), 3: (4, 0), 5: (7, 1), 6: (7, 0), 4: (8, 1), 7: (8, 0)}
    assert columns[6] == ("edges", 6)  # s.dest, after f, d1 and d2: its table and table step
    for k in (0, 1, 4):
        # e2.dest: its own mf, times e1.dest's at the self join, times f.b's
        # at the root join, which is (7+k) times d1.id's (2+k) and d2.id's 3
        assert mf_at_distance(AttrRef("s", "dest"), q.input, k, STAR_METRICS) == (
            (65 + k) ** 2 * (7 + k) * (2 + k) * 3
        )
        assert mf_at_distance(AttrRef("d1", "x"), q.input, k, STAR_METRICS) == (
            (4 + k) * (5 + k) * 3 * (65 + k) ** 2
        )


def _own_first(key, key_mfs, numbers, m):
    # the key's own mf, then each factor's key mf, innermost first
    table, column, factors = key
    mf = m.mf_of(table, column)
    value = numbers.const(mf) if m.is_public(table) else numbers.grow(mf)
    for step, side in factors:
        value = numbers.mul(value, key_mfs[step][side])
    return value


def _star_case(rng, n):
    # star_sql(n) under random mfs, some dimensions public
    m = star_metrics(n)
    public = frozenset(table for table, _ in m.mf if table != "f" and rng.random() < 0.2)
    mf = {column: int(rng.integers(0, 30)) for column in m.mf}
    m = MetricsStore(mf=mf, public_tables=public, row_counts=m.row_counts)
    return parse_query(star_sql(n), catalog_from_metrics(m)), m


def test_keys_on_one_join_path_share_their_product_without_changing_a_number():
    # the exact systems multiply a key's own mf by the stored product of its
    # factors, and every key mf equals the own-first fold's; _Log keeps that
    # fold, since regrouping its float sums would change their last bits
    rng = np.random.default_rng(2106)
    cases = [_star_case(rng, n) for n in range(1, 41)]
    while len(cases) < 340:
        db = random_micro_db(rng, max_tables=3, max_rows=4, max_values=3)
        public = [name for name in sorted(db.tables) if rng.random() < 0.25]
        q = parse_query(random_query_sql(rng, db, max_joins=6), db.catalog())
        cases.append((q, db.exact_metrics(public)))
    shared = 0
    for q, m in cases:
        plan = sensitivity._compiled(counted_relation(q))[0]
        for numbers in (sensitivity._Exact(0), sensitivity._Exact(1), sensitivity._Exact(7),
                        sensitivity._Poly, sensitivity._Log(7.0)):
            key_mfs = sensitivity._evaluate(plan, numbers, m)[1]
            # step by step, so each key's factors are already checked
            assert [list(mfs) for mfs in key_mfs] == [
                [_own_first(key, key_mfs, numbers, m) for key in step.keys] for step in plan
            ], q
        shared += any(len(key[2]) > 1 for step in plan for key in step.keys)
    assert shared > 100  # keys of two or more factors, in stars and generated trees


def test_a_stars_product_count_grows_quadratically_not_cubically(monkeypatch):
    # each fact-table key extends the one before it by one product, so 80
    # dimensions take about twice the products of 40; an own-first fold per
    # key takes about four times as many (860 and 3320)
    calls = []
    times = sensitivity._times
    monkeypatch.setattr(sensitivity, "_times", lambda p, q: calls.append(1) or times(p, q))
    counts = []
    for n in (40, 80):
        m = star_metrics(n)
        q = parse_query(star_sql(n), catalog_from_metrics(m))
        calls.clear()
        sensitivity_polynomials(q, m)
        counts.append(len(calls))
    assert counts[1] <= 2.1 * counts[0], counts


def _schoolbook(p, q):
    out = [0] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def test_single_polynomial_arithmetic_matches_the_set_path():
    # the zero polynomial, one, constants (the scaling path of _times), n + k
    # (the shifted add of _times, on either side) and random polynomials
    # with large coefficients
    rng = np.random.default_rng(13)
    grows = [(0, 1), (1, 1), (65, 1), (10**40, 1)]
    polys = [(), (1,), (0,), (2,), (65,), (7, 1), (10**40, 3, 0)] + grows
    for _ in range(40):
        degree, digits = int(rng.integers(0, 7)), int(rng.integers(1, 30))
        polys.append(tuple(int(rng.integers(0, 10)) ** digits for _ in range(degree + 1)))
    times, plus, undominated = sensitivity._times, sensitivity._plus, sensitivity._undominated
    for p in polys:
        for q in polys:
            assert times(p, q) == _schoolbook(p, q)
            assert sensitivity._Poly.mul((p,), (q,)) == undominated([_schoolbook(p, q)])
            assert sensitivity._Poly.add((p,), (q,)) == undominated([plus(p, q)])
            assert sensitivity._Poly.max((p,), (q,)) == undominated([p, q])
    for n_plus_k in grows:
        assert times(n_plus_k, ()) == times((), n_plus_k) == ()
        assert times(n_plus_k, (0,)) == times((0,), n_plus_k) == (0, 0)
    # a value of several polynomials still goes through the set
    a, b = ((1, 2), (3,)), ((2,), (0, 1))
    assert sensitivity._Poly.mul(a, b) == undominated(_schoolbook(p, q) for p in a for q in b)
    assert sensitivity._Poly.add(a, b) == undominated(plus(p, q) for p in a for q in b)


def test_a_chain_deeper_than_the_recursion_limit_is_analysed():
    # compile keeps an explicit stack, so the depth takes no frames; the
    # interpreter's limit is left as it is
    n = sys.getrecursionlimit() + 1
    q = parse_query(chain_sql(n), chain_catalog(n + 1))
    m = chain_metrics(n + 1)  # mf 10: each join multiplies the bound by 10
    assert elastic_sensitivity(q, 0, m) == 10**n
    bound = smooth_bound(q, m, make_params(1.0, 1e-9))
    assert bound.S == math.inf and n * math.log(10) <= bound.log_S < math.inf


def _nodes(r):
    yield r
    for child in ("input", "left", "right"):
        if hasattr(r, child):
            yield from _nodes(getattr(r, child))


def test_analysis_keeps_no_reference_to_the_query():
    # aliases no other test uses: a cache keyed by equal trees would hold
    # an earlier test's tree instead of this one
    sql = TRIANGLE_SQL
    for old, new in (("e1", "w1"), ("e2", "w2"), ("e3", "w3")):
        sql = sql.replace(old, new)
    q = parse_query(sql, triangle_catalog())
    assert elastic_sensitivity(q, 0, METRICS) == 12871
    release_count(10, q, METRICS, make_params(1.0, 1e-9), seed=1)
    refs = [weakref.ref(node) for node in _nodes(q)]
    assert len(refs) == 8  # count, two selections, two joins, three tables
    del q
    gc.collect()
    assert [r for r in refs if r() is not None] == []


def test_reference_counting_alone_frees_an_analysed_tree():
    # gc.collect() above also frees a tree the analysis made cyclic (say, by
    # keeping a node's resolution, which lists the node itself); with the
    # collector off, only reference counting can free it. Evaluating the
    # tree and indexing its attributes keep resolutions on its nodes too.
    sql = TRIANGLE_SQL
    for old, new in (("e1", "v1"), ("e2", "v2"), ("e3", "v3")):
        sql = sql.replace(old, new)
    p = make_params(1.0, 1e-9)
    db = MicroDatabase({"edges": [(1, 2), (2, 3), (3, 1)]}, {"edges": ("source", "dest")})
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        q = parse_query(sql, triangle_catalog())
        assert elastic_sensitivity(q, 0, METRICS) == 12871
        smooth_bound(q, METRICS, p)
        release_count(10, q, METRICS, p, seed=1)
        assert eval_query(q, db) == 1
        dest = AttrRef("v3", "dest")
        assert attribute_index(dest, q.input.input) == 5
        assert mf_at_distance(dest, q.input.input, 0, METRICS) == 65**3
        refs = [weakref.ref(node) for node in _nodes(q)]
        assert len(refs) == 8
        del q
        assert [r for r in refs if r() is not None] == []
    finally:
        if was_enabled:
            gc.enable()


def test_each_tree_is_compiled_once(monkeypatch):
    # exact k = 0, the polynomials and log value of smoothing, and a later
    # exact k share the plan kept on the counted relation
    q = parse_query(chain_sql(8), chain_catalog(9))
    m = chain_metrics(9)
    compiled, rounds = [], []
    compile_walk, profile = sensitivity._compile, mechanism.sensitivity_log_profile

    def counted_compile(r, *args):
        compiled.append(r)
        return compile_walk(r, *args)

    def counted_profile(*args, **options):
        rounds.append(args[1])
        return profile(*args, **options)

    monkeypatch.setattr(sensitivity, "_compile", counted_compile)
    monkeypatch.setattr(mechanism, "sensitivity_log_profile", counted_profile)
    elastic_sensitivity(q, 0, m)
    bound = smooth_bound(q, m, make_params(0.1, 1e-6))
    elastic_sensitivity(q, 5, m)
    assert rounds == [[float(bound.k_star)]]  # the log value is taken at k* alone
    assert len(compiled) == 1 and compiled[0] is q.input


def test_metrics_are_bound_per_call_not_cached():
    # one tree under store A, then B, then A again answers as a freshly
    # parsed tree does under each: the plan kept on it holds no metric
    sql, catalog = chain_sql(8), chain_catalog(9)
    a = chain_metrics(9)
    b = MetricsStore(
        mf={**a.mf, ("t3", "b"): 40},
        public_tables=frozenset({"t5"}),
        row_counts=a.row_counts,
    )
    q = parse_query(sql, catalog)
    p = make_params(0.1, 1e-6)
    ks = [float(k) for k in range(0, 3000, 7)]
    exacts = []
    for m in (a, b, a):
        fresh = parse_query(sql, catalog)
        exact = [elastic_sensitivity(q, k, m) for k in range(21)]
        assert exact == [elastic_sensitivity(fresh, k, m) for k in range(21)]
        exacts.append(exact)
        for k in (0, 3, 20):
            assert mf_at_distance(AttrRef("r3", "b"), q.input.left, k, m) == mf_at_distance(
                AttrRef("r3", "b"), fresh.input.left, k, m
            )
        np.testing.assert_array_equal(
            sensitivity_log_profile(q, np.array(ks), m),
            sensitivity_log_profile(fresh, np.array(ks), m),
        )
        assert sensitivity_polynomials(q, m) == sensitivity_polynomials(fresh, m)
        assert smooth_bound(q, m, p) == smooth_bound(fresh, m, p)
    assert exacts[0] == exacts[2] != exacts[1]

    # errors come from each call, not only the first
    missing = MetricsStore(
        mf={key: mf for key, mf in a.mf.items() if key != ("t3", "b")},
        row_counts=a.row_counts,
    )
    for call in (
        lambda: elastic_sensitivity(q, 0, missing),
        lambda: elastic_sensitivity(q, 0, missing),
        lambda: sensitivity_log_profile(q, np.array(ks), missing),
        lambda: smooth_bound(q, missing, p),
    ):
        with pytest.raises(MissingMetric, match="t3.b"):
            call()
    assert elastic_sensitivity(q, 0, a) == exacts[0][0]
    counted = Aliased(Count(EDGES, label="n"), "a")
    bad = Count(Join(counted, EDGES, AttrRef("a", "n"), AttrRef("edges", "source")))
    for call in (
        lambda: elastic_sensitivity(bad, 0, METRICS),
        lambda: elastic_sensitivity(bad, 0, METRICS),
        lambda: sensitivity_log_profile(bad, np.array(ks), METRICS),
        lambda: smooth_bound(bad, METRICS, p),
    ):
        with pytest.raises(UnsupportedQuery, match="a.n"):
            call()


def test_log_profile_grouped_and_public():
    catalog = triangle_catalog()
    grouped = parse_query(
        "SELECT source, COUNT(*) FROM edges GROUP BY source", catalog
    )
    ks = np.array([0.0, 2.0])
    np.testing.assert_allclose(
        np.exp(sensitivity_log_profile(grouped, ks, METRICS)), [2.0, 2.0]
    )
    public = MetricsStore(
        mf=METRICS.mf, public_tables=frozenset({"edges"}), row_counts=METRICS.row_counts
    )
    q = triangle_query()
    assert np.all(np.isneginf(sensitivity_log_profile(q, ks, public)))
