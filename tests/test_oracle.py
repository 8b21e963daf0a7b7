"""Brute-force evaluator and local-sensitivity enumeration.

The evaluator is cross-checked against a second, deliberately naive
implementation in _support (nested loops, no hashing) over a seeded random
corpus, so an error would have to be made twice, in two different ways, to
slip through.
"""

import csv
import sys

import numpy as np
import pytest

from flexdp import (
    AttrRef,
    Catalog,
    EvaluationError,
    Join,
    MicroDatabase,
    Select,
    Table,
    TooLargeToEnumerate,
    column_max_frequency,
    eval_query,
    eval_rows,
    parse_query,
    root_count,
)
from flexdp import oracle
from flexdp.bruteforce import ENUMERATION_GUARD, ball_size, local_sensitivity_at, max_frequency_at, neighbors_at
from flexdp.oracle import coerce_value
from flexdp.relalg import postorder

from _support import chain_catalog, chain_sql, naive_eval, random_micro_db, random_query_sql


def db_from(rows, columns=("source", "dest"), name="edges", domains=None):
    return MicroDatabase(
        tables={name: [tuple(r) for r in rows]},
        columns={name: columns},
        domains={name: domains} if domains else {},
    )


CYCLE = db_from([(1, 2), (2, 3), (3, 1)])

TRIANGLE = (
    "SELECT COUNT(*) FROM edges e1 "
    "JOIN edges e2 ON e1.dest = e2.source AND e1.source < e2.source "
    "JOIN edges e3 ON e2.dest = e3.source AND e3.dest = e1.source "
    "AND e2.source < e3.source"
)


def q(sql, db):
    return parse_query(sql, db.catalog())


def test_csv_loading(tmp_path):
    (tmp_path / "edges.csv").write_text("source,dest\n1,2\n2,x\n")
    db = MicroDatabase.from_csv_dir(str(tmp_path))
    assert db.tables["edges"] == [(1, 2), (2, "x")]
    assert db.columns["edges"] == ("source", "dest")
    assert db.domains == {}  # no domain is given, and none is built at load
    # a column's observed domain: its distinct values, sorted by repr
    assert oracle.column_domain(db.tables["edges"], 0) == (1, 2)
    assert oracle.column_domain(db.tables["edges"], 1) == ("x", 2)


@pytest.mark.parametrize(
    "files,fragment",
    [
        ({}, "no .csv tables found"),
        ({"edges.csv": ""}, "edges.csv is empty"),
        # names are stripped, so blanks are empty names too
        ({"edges.csv": " , \n1,2\n"}, "empty column name"),
        # csv.Error past the field limit, which is process-global and left as it is
        ({"edges.csv": "a,b\n1," + "x" * 140_000 + "\n"}, r"^edges.csv: field larger than field limit \(131072\)$"),
        # the refusal names the file and the fault, never the row
        ({"edges.csv": 'a,b\n1,"x\ny"\n3,4,5\n'}, "^edges.csv: a row's width differs from its header's 2 columns$"),
    ],
    ids=["no-tables", "empty-file", "blank-names", "oversized-cell", "ragged-row"],
)
def test_csv_loading_refuses_a_missing_or_malformed_header(tmp_path, files, fragment):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    with pytest.raises(EvaluationError, match=fragment):
        MicroDatabase.from_csv_dir(str(tmp_path))


_LONG = "9" * 5000  # more digits than Python converts to an int (4300 by default)


@pytest.mark.parametrize(
    "text",
    [
        "a,b\n1,x\n2,3\n y , 4 \n",
        "a,b,c,d,e,f\n-3,007,\u00b2,-,,5\n-10,1,2,3,4, 6\n",
        "a,b\n1,2\n\n3,4\n\n",
        'a,b\n1,"x\ny"\n2,3\n',
        "a\n1\n2\n",
        "a,b\n",
        "a,b\n x ,1\nq\u00b2,\n\u00b2,-\n",
    ],
    ids=["mixed-column", "signs-zeros-and-blanks", "blank-lines", "multi-line-cell", "one-column", "header-only",
         "text-column"],
)
def test_csv_loading_reads_each_cell_as_coerce_value(tmp_path, text):
    (tmp_path / "t.csv").write_text(text)
    with open(tmp_path / "t.csv", newline="") as f:
        rows = list(csv.reader(f))[1:]
    expected = [tuple(coerce_value(cell.strip()) for cell in row) for row in rows if row]
    assert MicroDatabase.from_csv_dir(str(tmp_path)).tables["t"] == expected


def test_csv_loading_names_no_line_of_a_cell_past_the_digit_limit(tmp_path):
    # the refusal is the same whichever row holds the cell, a quoted cell
    # spanning two lines before it or not
    rows = ["1,2", '3,"x\ny"', "4,5", "6,7"]
    for at in range(len(rows) + 1):
        lines = rows[:at] + ["%s,5" % _LONG] + rows[at:]
        (tmp_path / "t.csv").write_text("a,b\n" + "\n".join(lines) + "\n")
        with pytest.raises(EvaluationError, match="^t.csv: a cell holds an integer past the digit limit$"):
            MicroDatabase.from_csv_dir(str(tmp_path))


def test_csv_loading_converts_every_column_of_the_tables_asked_for(tmp_path, monkeypatch):
    (tmp_path / "t.csv").write_text("a,b,c\n1, x ,7\n2,3,-4\n")
    (tmp_path / "u.csv").write_text("d\n5\n")
    (tmp_path / "other.csv").write_bytes(b"not,loaded\n\xff\n")  # ragged and not UTF-8
    opened = []

    def tracked(file, *args, **kwargs):
        opened.append(file.rsplit("/", 1)[-1])
        return open(file, *args, **kwargs)

    monkeypatch.setattr(oracle, "open", tracked, raising=False)
    db = MicroDatabase.from_csv_dir(str(tmp_path), schema={"t": ("a", "b", "c"), "u": ("d",)})
    assert db.tables == {"t": [(1, "x", 7), (2, 3, -4)], "u": [(5,)]}
    assert db.columns == {"t": ("a", "b", "c"), "u": ("d",)}
    # a file not asked for is never opened, and each loaded file is read once
    assert sorted(opened) == ["t.csv", "u.csv"]
    # a cell past the digit limit is refused in any column of a loaded
    # table, also one the schema drops, so the refusal is the same whichever
    # of its columns a query reads
    (tmp_path / "t.csv").write_text("a,b,c\n1, x ,7\n2,3,%s\n" % _LONG)
    for schema in ({"t": ("a", "b", "c")}, {"u": ("d",), "t": ("b",)}, {"t": ("c", "a")}):
        with pytest.raises(EvaluationError, match="^t.csv: a cell holds an integer past the digit limit$"):
            MicroDatabase.from_csv_dir(str(tmp_path), schema=schema)
    assert MicroDatabase.from_csv_dir(str(tmp_path), schema={"u": ("d",)}).tables == {"u": [(5,)]}
    # the width of every row of a loaded table is checked
    (tmp_path / "u.csv").write_text("d\n5,6\n")
    with pytest.raises(EvaluationError, match="^u.csv: a row's width differs from its header's 1 columns$"):
        MicroDatabase.from_csv_dir(str(tmp_path), schema={"u": ("d",)})
    with pytest.raises(EvaluationError, match="no table 'v'"):
        MicroDatabase.from_csv_dir(str(tmp_path), schema={"v": ("d",)})
    # a header lacking a schema column is refused before any row is read,
    # so a bad row after it is never reached
    with pytest.raises(EvaluationError, match="^table 'u' has no column 'e' of the query's schema$"):
        MicroDatabase.from_csv_dir(str(tmp_path), schema={"u": ("d", "e")})


def test_a_byte_that_is_not_utf8_is_refused_first_wherever_it_stands(tmp_path):
    # the file is decoded whole before its header is checked, so a header
    # lacking a schema column gives the same refusal whether the byte is in
    # the reader's first 8 KiB or past it
    good = [b"%d,%d" % (i, i % 3) for i in range(2000)]
    for at in (0, 1, 1500, len(good)):
        (tmp_path / "t.csv").write_bytes(b"\n".join([b"a,b", *good[:at], b"1,\xff", *good[at:]]) + b"\n")
        for schema in (None, {"t": ("a", "b")}, {"t": ("a", "c")}):
            with pytest.raises(EvaluationError, match="^t.csv: not UTF-8 text$"):
                MicroDatabase.from_csv_dir(str(tmp_path), schema=schema)


def test_loading_only_the_query_tables_evaluates_the_same(tmp_path):
    # each table gets a column the query's schema lacks, and the directory a
    # table no query names: loaded with only the query's tables, each
    # converted whole and stored in the schema's columns, a query evaluates
    # as on a full load
    rng = np.random.default_rng(20261020)
    for trial in range(120):
        db = random_micro_db(rng, max_tables=3, max_rows=6)
        data = tmp_path / str(trial)
        data.mkdir()
        for name, rows in db.tables.items():
            with open(data / (name + ".csv"), "w", newline="") as f:
                writer = csv.writer(f)
                writer.writerow(db.columns[name] + ("z",))
                extra = rng.choice(["x", " 7 ", "-1", ""], size=len(rows))
                writer.writerows(row + (str(z),) for row, z in zip(rows, extra))
        (data / "unnamed.csv").write_text("y\n1\n")
        whole = MicroDatabase.from_csv_dir(str(data))
        sql = (_keyed_join_sql if trial % 2 else random_query_sql)(rng, db)
        query = parse_query(sql, db.catalog())  # a schema without z
        schema = {node.name: node.columns for node in postorder(query) if isinstance(node, Table)}
        partial = MicroDatabase.from_csv_dir(str(data), schema=schema)
        assert partial.columns == schema
        assert partial.tables == {name: db.tables[name] for name in schema}
        got, expected = eval_query(query, partial), eval_query(parse_query(sql, whole.catalog()), whole)
        if isinstance(expected, dict):
            got, expected = list(got.items()), list(expected.items())
        assert got == expected, sql


def test_a_csv_header_in_another_order_evaluates_the_same(tmp_path):
    # a hand-built catalog may list a table's columns in another order than
    # its file's header, which may also hold columns the catalog lacks: each
    # table is stored in the catalog's order at load, and the others are dropped
    sql = (
        "SELECT COUNT(*) FROM users u JOIN orders o ON u.id = o.uid "
        "WHERE o.item != 'pen' AND u.dept = 'a'"
    )
    catalog = Catalog({"users": ("dept", "id", "zip"), "orders": ("item", "uid")})
    tables = {
        "users": [dict(id=1, dept="a", zip="x"), dict(id=2, dept="b", zip="y"), dict(id=3, dept="a", zip="z")],
        "orders": [dict(uid=1, item="pen", n=5), dict(uid=1, item="ink", n=6), dict(uid=3, item="cap", n=7)],
    }
    results = []
    for headers in (("dept,id,zip", "item,uid"), ("zip,dept,id", "uid,item"), ("id,dept,zip", "n,uid,item")):
        data = tmp_path / headers[0].replace(",", "_")
        data.mkdir()
        for (name, rows), header in zip(tables.items(), headers):
            lines = [",".join(str(row[c]) for c in header.split(",")) for row in rows]
            (data / (name + ".csv")).write_text("\n".join([header] + lines) + "\n")
        db = MicroDatabase.from_csv_dir(str(data), schema=catalog.columns)
        assert db.columns == catalog.columns
        query = parse_query(sql, catalog)
        results.append((eval_query(query, db), eval_rows(query.input, db)))
    assert results[0] == results[1] == results[2]
    assert results[0] == (2, [("a", 1, "x", "ink", 1), ("a", 3, "z", "cap", 3)])
    # a database is mutable, so it compares by value but is never hashable
    with pytest.raises(TypeError):
        hash(db)


def test_domains_are_built_per_enumeration_from_the_original_rows(tmp_path):
    (tmp_path / "edges.csv").write_text("source,dest\n1,2\n2,3\n")
    db = MicroDatabase.from_csv_dir(str(tmp_path))
    assert db.domains == {}
    # the observed domains {1, 2} x {2, 3}: 4 rows, 3 alternatives at each of 2 positions
    assert ball_size(db, 1) == len(list(neighbors_at(db, 1))) == 1 + 2 * 3
    # a neighbour at distance 2 draws from the original rows' domains, never its own
    rows = {row for d in neighbors_at(db, 2) for row in d.tables["edges"]}
    assert rows == {(1, 2), (1, 3), (2, 2), (2, 3)}
    assert db.tables == {"edges": [(1, 2), (2, 3)]}  # the original is untouched
    given = db_from([(1, 2)], domains=((0, 1, 2), (2,)))
    assert given.domains == {"edges": ((0, 1, 2), (2,))}
    assert [d.tables["edges"] for d in neighbors_at(given, 1)] == [[(1, 2)], [(0, 2)], [(2, 2)]]


def test_a_given_domain_must_match_its_tables_columns():
    for domain in [((1, 2),), ((1,), (2,), (3,))]:
        with pytest.raises(EvaluationError, match="domain width %d does not match columns of 'edges'" % len(domain)):
            db_from([(1, 2)], domains=domain)
    with pytest.raises(EvaluationError, match="domain width 1 does not match columns of 'nodes'"):
        MicroDatabase(tables={}, columns={}, domains={"nodes": ((1,),)})


def test_a_table_without_column_names_is_refused_when_built():
    # it used to build, and the brute force then failed on the missing name with a bare KeyError
    with pytest.raises(EvaluationError, match="^table 't' has no column names$"):
        MicroDatabase(tables={"t": [(1,)]}, columns={})
    with pytest.raises(EvaluationError, match="^table 't' has no column names$"):
        MicroDatabase(tables={"s": [], "t": []}, columns={"s": ("a",)})


def test_a_table_with_column_names_but_no_row_list_is_refused_when_built():
    # built, it would make eval_query and exact_metrics fail with a bare KeyError
    with pytest.raises(EvaluationError, match="^table 't' has no row list$"):
        MicroDatabase(tables={}, columns={"t": ("a",)})
    with pytest.raises(EvaluationError, match="^table 't' has no row list$"):
        MicroDatabase(tables={"s": []}, columns={"s": ("a",), "t": ("a",)})
    assert MicroDatabase(tables={"t": []}, columns={"t": ("a",)}).tables == {"t": []}  # an empty table is one


def test_plain_and_filtered_counts():
    query = q("SELECT COUNT(*) FROM edges", CYCLE)
    assert eval_query(query, CYCLE) == 3
    query = q("SELECT COUNT(*) FROM edges WHERE source < 3", CYCLE)
    assert eval_query(query, CYCLE) == 2


def test_directed_cycle_has_one_triangle():
    assert eval_query(q(TRIANGLE, CYCLE), CYCLE) == 1


def test_join_with_residual():
    query = q(
        "SELECT COUNT(*) FROM edges e1 JOIN edges e2 "
        "ON e1.dest = e2.source AND e1.source != e2.dest",
        CYCLE,
    )
    # pairs of consecutive edges that do not close a 2-cycle; the cycle has
    # three consecutive pairs, all of which end away from their start
    assert eval_query(query, CYCLE) == 3


def test_grouped_results():
    db = db_from([(1, 2), (1, 3), (2, 3)])
    single = q("SELECT source, COUNT(*) FROM edges GROUP BY source", db)
    assert eval_query(single, db) == {1: 2, 2: 1}
    double = q(
        "SELECT source, dest, COUNT(*) FROM edges GROUP BY source, dest", db
    )
    assert eval_query(double, db) == {(1, 2): 1, (1, 3): 1, (2, 3): 1}


def test_projection_in_a_with_subquery():
    db = db_from([(1, 2), (2, 3), (3, 1), (1, 3)])
    query = q("WITH p AS (SELECT source FROM edges) SELECT COUNT(*) FROM p", db)
    assert eval_query(query, db) == 4
    assert eval_rows(root_count(query).input, db) == [(1,), (2,), (3,), (1,)]


def test_chain_deeper_than_the_recursion_limit_evaluates():
    n = sys.getrecursionlimit() + 100
    tables = ["t%d" % i for i in range(n + 1)]
    db = MicroDatabase({t: [(1, 1)] for t in tables}, {t: ("a", "b") for t in tables})
    assert eval_query(parse_query(chain_sql(n), chain_catalog(n + 1)), db) == 1


def test_eval_rows_and_max_frequency():
    rows = eval_rows(Table("edges", "edges", CYCLE.columns["edges"]), CYCLE)
    assert rows == [(1, 2), (2, 3), (3, 1)]
    assert column_max_frequency([(1,), (1,), (2,)], 0) == 2
    assert column_max_frequency([], 0) == 0
    with pytest.raises(TypeError, match="not a relational expression"):
        eval_rows("edges", CYCLE)


def test_a_table_whose_columns_differ_from_the_query_is_an_evaluation_error(tmp_path):
    query = q("SELECT COUNT(*) FROM edges WHERE dest < 2", CYCLE)
    schema = {"edges": CYCLE.columns["edges"]}
    (tmp_path / "edges.csv").write_text("source,weight\n1,2\n")
    with pytest.raises(EvaluationError, match="^table 'edges' has no column 'dest' of the query's schema$"):
        MicroDatabase.from_csv_dir(str(tmp_path), schema=schema)
    # a column the schema lacks is dropped at load, wherever it stands
    (tmp_path / "edges.csv").write_text("weight,dest,source\n7,1,2\n")
    db = MicroDatabase.from_csv_dir(str(tmp_path), schema=schema)
    assert (db.tables, db.columns) == ({"edges": [(2, 1)]}, schema)
    assert eval_query(query, db) == 1
    # the evaluator reads a table only in the query's columns
    for columns in (("source", "weight"), ("dest", "source"), ("source", "dest", "weight")):
        with pytest.raises(EvaluationError, match="^table 'edges' is not stored in the query's columns$"):
            eval_query(query, db_from([(1, 2, 3)[: len(columns)]], columns=columns))
    with pytest.raises(EvaluationError, match="^table 'edges' is not stored in the query's columns$"):
        eval_query(query, db_from([], name="nodes"))


def test_max_frequency_at_grows_by_one_per_replacement():
    # CYCLE's dest column holds 2, 3, 1 once each; every replacement can add
    # one more copy of one value, until all three rows share it
    edges = Table("edges", "edges", CYCLE.columns["edges"])
    dest = AttrRef(None, "dest")
    assert [max_frequency_at(dest, edges, CYCLE, k) for k in (0, 1, 2, 3)] == [1, 2, 3, 3]


def test_mixed_type_comparison_orders_numbers_before_text():
    # SQLite's order: every number sorts before every text value
    db = db_from([(1, "x"), (2, 3), (3, "a")])
    for where, count in (("dest < 5", 1), ("dest > 5", 2), ("dest >= 'b'", 1), ("dest < 'b'", 2),
                         ("source < dest", 3), ("dest <= source", 0)):
        assert eval_query(q("SELECT COUNT(*) FROM edges WHERE " + where, db), db) == count, where


def test_a_value_neither_int_nor_text_is_an_evaluation_error():
    # no CSV file yields one; the error names the comparison, not the value
    db = db_from([(1, None)])
    with pytest.raises(EvaluationError, match=r"^cannot compare the values of dest < 5$"):
        eval_query(q("SELECT COUNT(*) FROM edges WHERE dest < 5", db), db)


def test_mixed_type_equality_is_plain_false():
    db = db_from([(1, "x")])
    assert eval_query(q("SELECT COUNT(*) FROM edges WHERE dest = 5", db), db) == 0
    assert eval_query(q("SELECT COUNT(*) FROM edges WHERE dest != 5", db), db) == 1


def test_a_text_literal_gives_every_neighbour_the_same_kind_of_outcome():
    # ints sort before text, so against the generator's int columns 'q'
    # acts as an int above every value: x and each neighbour at distance 1
    # evaluate, to what the int literal gives, whichever rows reach it
    rng = np.random.default_rng(1306)
    for _ in range(60):
        db = random_micro_db(rng, max_tables=2, max_rows=3, max_values=3)
        sql = random_query_sql(rng, db, max_joins=2, allow_grouped=False)
        table = sql.split()[3]  # r0's, in "SELECT COUNT(*) FROM <table> r0 ..."
        column = "r0.%s" % rng.choice(db.columns[table])
        test = "%s %s %%s" % (column, rng.choice(["<", ">=", "=", "!="]))
        sql += (" AND " if " WHERE " in sql else " WHERE ") + test
        text, number = q(sql % "'q'", db), q(sql % 10**6, db)
        for y in neighbors_at(db, 1):
            assert eval_query(text, y) == eval_query(number, y), sql


def test_exact_metrics():
    db = db_from([(1, 2), (1, 3), (2, 3)])
    m = db.exact_metrics()
    assert m.mf[("edges", "source")] == 2
    assert m.mf[("edges", "dest")] == 2
    assert m.row_counts == {"edges": 3}


def test_evaluator_agrees_with_naive_route():
    rng = np.random.default_rng(20260814)
    for _ in range(150):
        db = random_micro_db(rng)
        sql = random_query_sql(rng, db)
        query = parse_query(sql, db.catalog())
        assert eval_query(query, db) == naive_eval(query, db), sql


def _keyed_join_sql(rng, db) -> str:
    """A 1-3 join query whose ON and WHERE clauses mix cross-side ``=`` with ``<`` and ``!=``."""
    refs = [str(rng.choice(sorted(db.tables))) for _ in range(int(rng.integers(2, 5)))]

    def col(i):
        return "r%d.%s" % (i, rng.choice(db.columns[refs[i]]))

    def comparison(i):  # relation i against an earlier one or itself, or against a literal
        op = str(rng.choice(["=", "=", "<", "!="]))
        if rng.random() < 0.8:
            return "%s %s %s" % (col(int(rng.integers(0, i + 1))), op, col(i))
        return "%s %s %d" % (col(i), op, rng.integers(0, 3))

    parts = ["%s r0" % refs[0]]
    for i in range(1, len(refs)):
        conds = [comparison(i) for _ in range(int(rng.integers(0, 3)))]
        conds.insert(int(rng.integers(0, len(conds) + 1)), "%s = %s" % (col(int(rng.integers(0, i))), col(i)))
        parts.append("JOIN %s r%d ON %s" % (refs[i], i, " AND ".join(conds)))
    sql = " FROM " + " ".join(parts)
    where = [comparison(int(rng.integers(1, len(refs)))) for _ in range(int(rng.integers(0, 3)))]
    if where:
        sql += " WHERE " + " AND ".join(where)
    if rng.random() < 0.4:
        group = ", ".join(sorted({col(int(rng.integers(0, len(refs)))) for _ in range(2)}))
        return "SELECT %s, COUNT(*)%s GROUP BY %s" % (group, sql, group)
    return "SELECT COUNT(*)" + sql


def test_a_one_side_comparison_filters_that_side_before_the_join(monkeypatch):
    db = MicroDatabase(
        {"users": [(1, "a"), (2, "b"), (3, "a")],
         "orders": [(1, "pen", 5), (1, "ink", 0), (3, "cap", 4), (2, "ink", 9)]},
        {"users": ("id", "dept"), "orders": ("uid", "item", "qty")},
    )
    sql = (
        "SELECT COUNT(*) FROM users u JOIN orders o ON u.id = o.uid AND o.item != 'pen' "
        "WHERE u.dept = 'a' AND o.qty > o.uid AND u.dept != o.item"
    )
    filtered, real = [], oracle._filter

    def spy(rows, tests):
        tests = list(tests)
        filtered.append((len(rows), [str(c) for c, _ in tests]))
        return real(rows, tests)

    monkeypatch.setattr(oracle, "_filter", spy)
    assert eval_query(q(sql, db), db) == 1
    # users, then orders, each filtered before the join; one pair is built
    assert filtered == [
        (3, ["u.dept = 'a'"]), (4, ["o.item != 'pen'", "o.qty > o.uid"]), (1, ["u.dept != o.item"]),
    ]


def test_a_where_merged_into_the_on_selection_agrees_with_the_naive_route():
    db = db_from([(1, 2), (2, 3), (3, 1), (1, 3), (3, 4), (4, 1), (2, 1), (4, 2)])
    query = q(TRIANGLE + " WHERE e1.source < 2 AND e3.dest != e2.dest AND e3.source > 1", db)
    # the WHERE conjuncts follow the last ON clause's in one selection
    assert isinstance(query.input, Select) and isinstance(query.input.input, Join)
    assert len(query.input.predicate) == 5
    assert eval_query(query, db) == naive_eval(query, db) == 2


def test_keyed_joins_agree_with_naive_route_in_order():
    # every cross-side = of a selection on a join joins the hash key; the
    # rows, and so a grouped count's groups, keep the naive route's order
    rng = np.random.default_rng(20261019)
    for _ in range(300):
        db = random_micro_db(rng, max_tables=3, max_rows=6)
        sql = _keyed_join_sql(rng, db)
        query = parse_query(sql, db.catalog())
        got, expected = eval_query(query, db), naive_eval(query, db)
        if isinstance(expected, dict):
            got, expected = list(got.items()), list(expected.items())
        assert got == expected, sql


# ---------------------------------------------------------------------------
# neighbor enumeration
# ---------------------------------------------------------------------------


def test_ball_size_closed_form_single_position():
    # one row, d alternative rows: ball(1) = 1 + d
    db = db_from([(1, 2)], domains=((1, 2), (1, 2)))
    assert ball_size(db, 0) == 1
    assert ball_size(db, 1) == 4  # 2*2 rows, one current


def test_ball_size_matches_enumeration():
    db = db_from([(0, 1), (1, 1)], domains=((0, 1), (0, 1, 2)))
    for k in range(0, 3):
        listed = list(neighbors_at(db, k))
        assert len(listed) == ball_size(db, k)
        assert len({tuple(d.tables["edges"]) for d in listed}) == len(listed)  # no duplicates


def test_neighbors_respect_distance():
    db = db_from([(0, 1), (1, 1)], domains=((0, 1), (0, 1)))
    original = db.tables["edges"]
    for d in neighbors_at(db, 1):
        changed = sum(1 for a, b in zip(d.tables["edges"], original) if a != b)
        assert changed <= 1
    with pytest.raises(ValueError, match="non-negative"):
        next(neighbors_at(db, -1))


def test_neighbors_never_resize_tables():
    db = db_from([(0, 1), (1, 1)])
    for d in neighbors_at(db, 2):
        assert len(d.tables["edges"]) == 2


def test_enumeration_guard():
    rows = [(i, i) for i in range(8)]
    domain = tuple(range(20))
    db = db_from(rows, domains=(domain, domain))
    with pytest.raises(TooLargeToEnumerate):
        list(neighbors_at(db, 3))
    # the refusal goes by ball size, before anything is enumerated: 8 rows
    # with 399 alternatives each make 3193 databases at distance 1, past 10**6 at 3
    assert ball_size(db, 1) == 1 + 8 * (20 * 20 - 1)
    assert ball_size(db, 3) > ENUMERATION_GUARD


# ---------------------------------------------------------------------------
# local sensitivity
# ---------------------------------------------------------------------------


def test_plain_count_has_zero_local_sensitivity():
    # replacements never change the number of rows
    db = db_from([(1, 2), (2, 3)])
    query = q("SELECT COUNT(*) FROM edges", db)
    for k in (0, 1, 2):
        assert local_sensitivity_at(query, db, k) == 0.0


def test_filtered_count_moves_by_one():
    db = db_from([(1, 2), (2, 3)], domains=((1, 2), (1, 2, 3)))
    query = q("SELECT COUNT(*) FROM edges WHERE source = 1", db)
    assert local_sensitivity_at(query, db, 0) == 1.0


def test_grouped_count_moves_by_two_in_l1():
    db = db_from([(1, 2), (2, 3)], domains=((1, 2), (2, 3)))
    query = q("SELECT source, COUNT(*) FROM edges GROUP BY source", db)
    # moving one row between groups decrements one bin and increments another
    assert local_sensitivity_at(query, db, 0) == 2.0


def test_self_join_local_sensitivity_grows_with_distance():
    db = CYCLE
    query = q("SELECT COUNT(*) FROM edges e1 JOIN edges e2 ON e1.dest = e2.source", db)
    values = [local_sensitivity_at(query, db, k) for k in (0, 1, 2)]
    assert values == sorted(values)
    assert values[0] >= 1.0


def test_local_sensitivity_guard():
    rows = [(i, i) for i in range(8)]
    domain = tuple(range(20))
    db = db_from(rows, domains=(domain, domain))
    query = q("SELECT COUNT(*) FROM edges", db)
    with pytest.raises(TooLargeToEnumerate):
        local_sensitivity_at(query, db, 2)
