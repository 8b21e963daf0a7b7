"""SQL surface: accepted shapes, tree decomposition, rejection contract."""

import csv
import hashlib
import itertools
import pathlib
import random
import sys
import time

import pytest

from flexdp import relalg
from flexdp import (
    Aliased,
    AttrRef,
    Catalog,
    Comparison,
    Count,
    CountGrouped,
    Join,
    MicroDatabase,
    ParseError,
    Project,
    Select,
    Table,
    UnknownColumn,
    UnknownTable,
    UnsupportedQuery,
    catalog_from_metrics,
    elastic_sensitivity,
    eval_query,
    join_nodes,
    load_metrics,
    parse_query,
)
from flexdp.relalg import counted_relation, resolve

from _support import TRIANGLE_SQL, chain_catalog, chain_metrics, chain_sql, random_query_sql, triangle_catalog

CATALOG = Catalog(
    columns={
        "users": ("id", "dept"),
        "orders": ("uid", "item"),
        "edges": ("source", "dest"),
    }
)


def parse(sql, catalog=CATALOG):
    return parse_query(sql, catalog)


def test_plain_count():
    q = parse("SELECT COUNT(*) FROM users")
    assert isinstance(q, Count)
    assert q.input == Table("users", "users", ("id", "dept"))


def test_count_column_counts_rows():
    # no NULLs in this model, so COUNT(col) and COUNT(*) agree
    a = parse("SELECT COUNT(id) FROM users")
    b = parse("SELECT COUNT(*) FROM users")
    assert a.input == b.input


def test_count_label():
    q = parse("SELECT COUNT(*) AS n FROM users")
    assert q.label == "n"


def test_where_becomes_selection():
    q = parse("SELECT COUNT(*) FROM users WHERE dept = 'sales' AND id >= 4")
    sel = q.input
    assert isinstance(sel, Select)
    assert sel.predicate == (
        Comparison(AttrRef(None, "dept"), "=", "sales"),
        Comparison(AttrRef(None, "id"), ">=", 4),
    )


def test_flipped_literal_normalized():
    q = parse("SELECT COUNT(*) FROM users WHERE 4 <= id")
    assert q.input.predicate == (Comparison(AttrRef(None, "id"), ">=", 4),)


def test_join_key_and_residual_split():
    q = parse(
        "SELECT COUNT(*) FROM users u JOIN orders o "
        "ON u.id = o.uid AND u.dept != o.item"
    )
    sel = q.input
    assert isinstance(sel, Select)
    # every conjunct but the key is a selection on the joined rows
    assert sel.predicate == (
        Comparison(AttrRef("u", "dept"), "!=", AttrRef("o", "item")),
    )
    j = sel.input
    assert isinstance(j, Join)
    # first equijoin conjunct with one side per input becomes the key
    assert (j.key_left, j.key_right) == (AttrRef("u", "id"), AttrRef("o", "uid"))
    # a parse tree's repr is its identity check: every field, by name, in order
    assert repr(q) == (
        "Count(input=Select(predicate=(Comparison(left=AttrRef(qualifier='u', name='dept'), op='!=', "
        "right=AttrRef(qualifier='o', name='item')),), "
        "input=Join(left=Table(name='users', alias='u', columns=('id', 'dept')), "
        "right=Table(name='orders', alias='o', columns=('uid', 'item')), "
        "key_left=AttrRef(qualifier='u', name='id'), key_right=AttrRef(qualifier='o', name='uid'))), "
        "label='count')"
    )


def test_extra_on_conjuncts_parse_like_a_where_clause():
    on = parse("SELECT COUNT(*) FROM users u JOIN orders o ON u.id = o.uid AND u.dept < o.item")
    where = parse("SELECT COUNT(*) FROM users u JOIN orders o ON u.id = o.uid WHERE u.dept < o.item")
    assert on == where


def test_where_on_a_join_merges_into_its_on_selection():
    # one Select above the last join, its ON conjuncts first
    q = parse(
        "SELECT COUNT(*) FROM users u JOIN orders o ON u.id = o.uid AND u.dept != o.item "
        "WHERE o.item = 'pen' AND u.id > 3"
    )
    sel = q.input
    assert isinstance(sel, Select) and isinstance(sel.input, Join)
    assert sel.predicate == (
        Comparison(AttrRef("u", "dept"), "!=", AttrRef("o", "item")),
        Comparison(AttrRef("o", "item"), "=", "pen"),
        Comparison(AttrRef("u", "id"), ">", 3),
    )
    assert q == parse(
        "SELECT COUNT(*) FROM users u JOIN orders o "
        "ON u.id = o.uid AND u.dept != o.item AND o.item = 'pen' AND u.id > 3"
    )
    # a WHERE on a table, or on a join with no other ON conjunct, is a Select of its own
    on_table = parse("SELECT COUNT(*) FROM users WHERE id > 3").input
    on_join = parse("SELECT COUNT(*) FROM users u JOIN orders o ON u.id = o.uid WHERE u.id > 3").input
    assert on_table.input == Table("users", "users", ("id", "dept"))
    assert isinstance(on_join.input, Join)


def test_triangle_decomposition():
    q = parse(TRIANGLE_SQL, triangle_catalog())
    outer_sel = q.input
    assert isinstance(outer_sel, Select)
    assert outer_sel.predicate == (
        Comparison(AttrRef("e3", "dest"), "=", AttrRef("e1", "source")),
        Comparison(AttrRef("e2", "source"), "<", AttrRef("e3", "source")),
    )
    outer = outer_sel.input
    assert isinstance(outer, Join)
    assert (outer.key_left, outer.key_right) == (
        AttrRef("e2", "dest"),
        AttrRef("e3", "source"),
    )
    inner_sel = outer.left
    assert isinstance(inner_sel, Select)
    assert inner_sel.predicate == (
        Comparison(AttrRef("e1", "source"), "<", AttrRef("e2", "source")),
    )
    inner = inner_sel.input
    assert isinstance(inner, Join)
    assert (inner.key_left, inner.key_right) == (
        AttrRef("e1", "dest"),
        AttrRef("e2", "source"),
    )


def test_cross_side_equality_found_in_either_order():
    q = parse("SELECT COUNT(*) FROM users u JOIN orders o ON o.uid = u.id")
    j = q.input
    # the key is stored left-side-first regardless of how it was written
    assert (j.key_left, j.key_right) == (AttrRef("u", "id"), AttrRef("o", "uid"))


def test_same_side_equality_is_residual_not_key():
    q = parse(
        "SELECT COUNT(*) FROM edges e1 JOIN edges e2 "
        "ON e1.source = e1.dest AND e1.dest = e2.source"
    )
    sel = q.input
    assert isinstance(sel, Select)
    assert sel.predicate == (
        Comparison(AttrRef("e1", "source"), "=", AttrRef("e1", "dest")),
    )
    j = sel.input
    assert isinstance(j, Join)
    assert (j.key_left, j.key_right) == (AttrRef("e1", "dest"), AttrRef("e2", "source"))


def test_grouped_count():
    q = parse("SELECT dept, COUNT(*) FROM users GROUP BY dept")
    assert isinstance(q, CountGrouped)
    assert q.group_attrs == (AttrRef(None, "dept"),)


def test_grouped_two_keys():
    q = parse(
        "SELECT u.dept, o.item, COUNT(*) AS n FROM users u "
        "JOIN orders o ON u.id = o.uid GROUP BY u.dept, o.item"
    )
    assert q.group_attrs == (AttrRef("u", "dept"), AttrRef("o", "item"))
    assert q.label == "n"


def test_with_subquery_filter():
    q = parse(
        "WITH sales AS (SELECT id, dept FROM users WHERE dept = 'sales') "
        "SELECT COUNT(*) FROM sales s JOIN orders o ON s.id = o.uid"
    )
    j = q.input
    left = j.left
    assert isinstance(left, Aliased) and left.alias == "s"
    assert isinstance(left.input, Project)


def test_projection_of_count_subquery():
    q = parse(
        "WITH totals AS (SELECT COUNT(*) AS n FROM users) SELECT n FROM totals"
    )
    assert isinstance(q, Project)
    assert isinstance(q.input, Aliased)
    assert isinstance(q.input.input, Count)


def test_case_insensitive_keywords():
    q = parse("select count(*) from users where dept = 'x'")
    assert isinstance(q, Count)


def test_inner_join_as_aliases_and_angle_bracket_inequality():
    # INNER JOIN is JOIN, AS before an alias is optional, and <> is !=
    spelled = parse(
        "SELECT COUNT(*) FROM users AS u INNER JOIN orders AS o ON u.id = o.uid "
        "WHERE u.dept <> 'x'"
    )
    assert spelled == parse(
        "SELECT COUNT(*) FROM users u JOIN orders o ON u.id = o.uid WHERE u.dept != 'x'"
    )
    assert spelled.input.predicate[0].op == "!="


def test_comments_and_whitespace():
    q = parse(
        "SELECT COUNT(*) -- how many\nFROM users -- base table\nWHERE id = 1"
    )
    assert isinstance(q, Count)


REJECTIONS = [
    ("SELECT * FROM users", ParseError, "SELECT [*]"),
    ("SELECT COUNT(DISTINCT id) FROM users", ParseError, "DISTINCT"),
    ("SELECT COUNT(*) FROM nope", UnknownTable, "nope"),
    ("SELECT COUNT(*) FROM users WHERE age = 3", UnknownColumn, "age"),
    (
        "SELECT COUNT(*) FROM edges e1 JOIN edges e2 ON source = e2.dest",
        UnknownColumn,
        "ambiguous",
    ),
    (
        "SELECT COUNT(*) FROM users WHERE dept = 'a' OR dept = 'b'",
        ParseError,
        "OR is not supported",
    ),
    (
        "SELECT COUNT(*) FROM users u JOIN orders o ON u.id = o.uid OR u.id = 3",
        UnsupportedQuery,
        "disjunction",
    ),
    (
        "SELECT COUNT(*) FROM users u LEFT JOIN orders o ON u.id = o.uid",
        UnsupportedQuery,
        "outer joins",
    ),
    (
        "SELECT COUNT(*) FROM users u CROSS JOIN orders o",
        UnsupportedQuery,
        "cross joins",
    ),
    ("SELECT COUNT(*) FROM users, orders", ParseError, "comma joins"),
    (
        "SELECT COUNT(*) FROM users u JOIN orders o ON u.id > o.uid",
        UnsupportedQuery,
        "no equijoin term",
    ),
    ("SELECT id FROM users", UnsupportedQuery, "count"),
    ("SELECT dept, COUNT(*) FROM users", ParseError, "requires GROUP BY"),
    (
        "SELECT dept, COUNT(*) FROM users GROUP BY id",
        ParseError,
        "not in the GROUP BY list",
    ),
    ("SELECT dept FROM users GROUP BY dept", ParseError, "without a COUNT"),
    (
        "SELECT COUNT(*) FROM users u JOIN orders u ON u.id = u.uid",
        ParseError,
        "duplicate table alias",
    ),
    (
        # the third input repeats the first's alias across the second join
        "SELECT COUNT(*) FROM users u JOIN orders o ON u.id = o.uid "
        "JOIN users u ON o.uid = u.id",
        ParseError,
        "duplicate table alias 'u'",
    ),
    (
        # two references to one subquery under its own name
        "WITH a AS (SELECT id FROM users) SELECT COUNT(*) FROM a JOIN a ON a.id = a.id",
        ParseError,
        "duplicate table alias 'a'",
    ),
    (
        # a subquery's name taken by a table's alias
        "WITH a AS (SELECT id FROM users) SELECT COUNT(*) FROM a JOIN orders a ON a.id = a.uid",
        ParseError,
        "duplicate table alias 'a'",
    ),
    (
        "WITH a AS (SELECT id FROM users) WITH a AS (SELECT id FROM users) "
        "SELECT COUNT(*) FROM a",
        ParseError,
        "expected SELECT",
    ),
    ("SELECT COUNT(*) FROM users WHERE 1 = 2", ParseError, "two literals"),
    ("SELECT COUNT(*) FROM users extra garbage", ParseError, "trailing"),
    ("SELECT COUNT(*), COUNT(*) FROM users", ParseError, "at most one COUNT"),
    ("", ParseError, "empty"),
    # an unknown select-list column under GROUP BY is an unknown column too
    ("SELECT nosuch, COUNT(*) FROM users GROUP BY dept", UnknownColumn, "nosuch"),
    ("SELECT COUNT(*) FROM users WHERE id = @", ParseError, "unexpected character '@'"),
    # a number is ASCII digits, as many as Python converts
    ("SELECT COUNT(*) FROM users WHERE id = \u0663", ParseError, "unexpected character"),
    ("SELECT COUNT(*) FROM users WHERE id < " + "9" * 5000, ParseError, "integer literal"),
    ("SELECT COUNT(* FROM users", ParseError, "expected '[)]', found 'FROM'"),
    ("SELECT COUNT(*) FROM WHERE", ParseError, "expected table name, found 'WHERE'"),
    ("SELECT COUNT(*) FROM users WHERE id dept", ParseError, "expected comparison operator"),
]


@pytest.mark.parametrize("sql,exc,fragment", REJECTIONS, ids=range(len(REJECTIONS)))
def test_rejections(sql, exc, fragment):
    with pytest.raises(exc, match=fragment):
        parse(sql)


def test_derived_join_key_named_in_error():
    sql = (
        "WITH totals AS (SELECT COUNT(*) AS n FROM users) "
        "SELECT COUNT(*) FROM totals t JOIN orders o ON t.n = o.uid"
    )
    with pytest.raises(UnsupportedQuery) as exc:
        parse(sql)
    assert "t.n" in str(exc.value)
    assert "aggregation" in str(exc.value)


def test_grouped_key_is_rejected_as_join_key():
    sql = (
        "WITH by_dept AS (SELECT dept, COUNT(*) AS n FROM users GROUP BY dept) "
        "SELECT COUNT(*) FROM by_dept b JOIN users u ON b.dept = u.dept"
    )
    with pytest.raises(UnsupportedQuery, match="aggregation"):
        parse(sql)


def test_duplicate_with_name_rejected():
    sql = (
        "WITH a AS (SELECT id FROM users), a AS (SELECT dept FROM users) "
        "SELECT COUNT(*) FROM a"
    )
    with pytest.raises(ParseError, match="duplicate subquery name"):
        parse(sql)


def test_on_clause_sees_only_the_inputs_joined_so_far():
    # ``uid`` is unique when the first ON is parsed; a later input that
    # brings a second ``uid`` does not make that condition ambiguous
    catalog = Catalog(columns={**CATALOG.columns, "returns": ("uid", "item")})
    joins = "users u JOIN orders o ON u.id = uid JOIN returns r ON o.item = r.item"
    q = parse("SELECT COUNT(*) FROM " + joins, catalog)
    assert q.input.left.key_right == AttrRef(None, "uid")
    # after the FROM clause, every input is in scope
    for sql in (
        "SELECT COUNT(*) FROM %s WHERE uid = 3",
        "SELECT uid, COUNT(*) FROM %s GROUP BY uid",
        "SELECT COUNT(uid) FROM %s",
    ):
        with pytest.raises(UnknownColumn, match="ambiguous attribute uid"):
            parse(sql % joins, catalog)


def test_chain_parse_and_compile_index_names_once():
    # the parser grows one name index along the chain, and the compiler and
    # the evaluator read the one resolution kept on the counted relation, the
    # outermost join, so no inner join keeps a resolution of its own inputs
    q = parse_query(chain_sql(300), chain_catalog(301))
    assert elastic_sensitivity(q, 0, chain_metrics(301)) == 10**300
    tables = ["t%d" % i for i in range(301)]
    db = MicroDatabase({t: [(1, 1)] for t in tables}, {t: ("a", "b") for t in tables})
    assert eval_query(q, db) == 1
    joins = list(join_nodes(q))  # post-order: the outermost join is last
    assert len(joins) == 300
    assert not [j for j in joins[:-1] if "_resolved" in vars(j)]


PEOPLE = Catalog(columns={"people": ("age", "city")})

# text that ends mid-statement, an unterminated string, a doubled
# semicolon, a character no token starts with (after a space, between
# two tokens, after a comment, or an unterminated string before a final
# newline), and a literal past the digit limit, whose text is the same on
# every interpreter: each is refused with exactly this class and message
TRUNCATED = [
    ("SELECT", "expected column name, found ''"),
    ("SELECT COUNT(", "expected column name, found ''"),
    ("SELECT city, COUNT(*) FROM people GROUP BY", "expected column name, found ''"),
    ("SELECT COUNT(*) FROM people WHERE age < 3 AND", "expected column name, found ''"),
    ("SELECT COUNT(*) FROM", "expected table name, found ''"),
    ("SELECT COUNT(*) FROM people WHERE city = 'a", "unexpected character \"'\""),
    ("SELECT COUNT(*) FROM people;;", "trailing input after query: ';'"),
    ("SELECT COUNT(*) FROM people WHERE age < @", "unexpected character '@'"),
    ("SELECT COUNT(*)@FROM people", "unexpected character '@'"),
    ("SELECT COUNT(*) FROM people -- it's @ here\n# WHERE age < 3", "unexpected character '#'"),
    ("SELECT COUNT(*) FROM people WHERE city = 'a\n", "unexpected character \"'\""),
    ("SELECT COUNT(*) FROM people WHERE city = 'a' -- done\n'", "unexpected character \"'\""),
    ("SELECT COUNT(*) FROM people WHERE age < " + "7" * 6000,
     "integer literal has 6000 digits, more than Python converts"),
    ("SELECT COUNT(*) FROM people WHERE age > -" + "7" * 6000,
     "integer literal has 6000 digits, more than Python converts"),
]


@pytest.mark.parametrize("sql,message", TRUNCATED, ids=range(len(TRUNCATED)))
def test_truncated_and_malformed_text_messages(sql, message):
    with pytest.raises(ParseError) as info:
        parse(sql, PEOPLE)
    assert type(info.value) is ParseError
    assert str(info.value) == message


def test_keyword_case_whitespace_and_a_final_comment_parse_to_equal_trees():
    sql = (
        "SELECT p.city, COUNT(*) AS n FROM people p JOIN people q ON p.city = q.city "
        "WHERE p.age < 3 AND q.city <> 'x' GROUP BY p.city"
    )
    lowercase = (
        "select p.city, count(*) as n from people p join people q on p.city = q.city "
        "where p.age < 3 and q.city <> 'x' group by p.city"
    )
    expected = parse(sql, PEOPLE)
    commented = sql.replace(" WHERE", " -- it's 'open\nWHERE")  # a quote in a comment is text
    for text in (lowercase, sql.replace(" ", "\r\n\t"), sql + " -- no newline after this", commented):
        got = parse(text, PEOPLE)
        assert got == expected and repr(got) == repr(expected), text


def test_trailing_white_space_is_read_in_linear_time():
    # a scanner that retries a run of white space from each of its positions
    # takes seconds on 10 000 trailing spaces; one pass takes well under a millisecond
    sql = "SELECT COUNT(*) FROM people WHERE age < 3"
    start = time.perf_counter()
    q = parse(sql + " " * 10000, PEOPLE)
    assert time.perf_counter() - start < 1.0
    assert q == parse(sql, PEOPLE)


def test_a_comment_mark_in_a_string_is_text():
    q = parse("SELECT COUNT(*) FROM people WHERE city = 'a--b' AND city != \"--\"", PEOPLE)
    assert q.input.predicate == (
        Comparison(AttrRef(None, "city"), "=", "a--b"),
        Comparison(AttrRef(None, "city"), "!=", "--"),
    )


# ---------------------------------------------------------------------------
# The parser records the resolution of the root and the FROM relation of each
# SELECT it reads, in relalg.resolve's format
# ---------------------------------------------------------------------------

RECORDED_SQL = [
    # a subquery used twice, each use an alias of the one node
    "WITH e AS (SELECT source, dest FROM edges WHERE source < 3) "
    "SELECT COUNT(*) FROM e a JOIN edges x ON a.dest = x.source JOIN e b ON x.dest = b.source",
    # a grouped subquery read through a projection
    "WITH g AS (SELECT dept, COUNT(*) AS n FROM users GROUP BY dept) SELECT g.n FROM g",
    # ON conjuncts other than the key, merged with the WHERE's into one selection
    "SELECT COUNT(*) FROM users u JOIN orders o ON u.id = o.uid AND u.dept != o.item "
    "WHERE o.item = 'x' AND 3 < u.id",
    "SELECT COUNT(item) FROM users u JOIN orders o ON u.id = o.uid",
    # a key written right input first
    "SELECT COUNT(*) FROM users u JOIN orders o ON o.uid = u.id WHERE o.item = 'x'",
    # a self join with ON conjuncts other than the key, on two joins
    "SELECT COUNT(*) FROM edges a JOIN edges b ON a.dest = b.source AND a.source < b.dest "
    "JOIN edges c ON c.source = b.dest AND c.dest = a.source",
    "SELECT a.dest, COUNT(*) FROM edges a JOIN edges b ON a.dest = b.source AND a.source != 2 "
    "GROUP BY a.dest",
]

# sha256 of the trees' reprs, one a line: recording the resolution changes no tree
PINNED_TREES = "a6baa88944e402d2473eed5190d4933b96a530a74614ed02a4598754a1b0a35e"


class _StdlibRandom:
    """The calls ``random_query_sql`` makes on a numpy generator, on ``random.Random``, whose stream is fixed."""

    def __init__(self, seed: int):
        self._random = random.Random(seed)

    def integers(self, low: int, high: int) -> int:
        return self._random.randrange(low, high)

    def choice(self, seq):
        return self._random.choice(seq)

    def random(self) -> float:
        return self._random.random()


def _recorded_queries():
    """(sql, catalog): every corpus query, 2400 generated ones (3 tables, up to 3 joins) and RECORDED_SQL."""
    for directory in sorted((pathlib.Path(__file__).resolve().parent.parent / "corpus").iterdir()):
        columns = {}
        for path in sorted(directory.glob("*.csv")):
            with open(path, newline="") as f:
                columns[path.stem] = tuple(next(csv.reader(f)))
        for path in sorted(directory.glob("*.sql")):
            yield path.read_text(), Catalog(columns=columns)
    tables = {"t%d" % i: ("a%d" % i, "b%d" % i) for i in range(3)}
    db, catalog = MicroDatabase({t: [] for t in tables}, tables), Catalog(columns=tables)
    rng = _StdlibRandom(31)
    for _ in range(2400):
        yield random_query_sql(rng, db, max_joins=3), catalog
    for sql in RECORDED_SQL:
        yield sql, CATALOG


PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _workload_queries(directory):
    """(sql, catalog): the first 3000 operations of each in-process benchmark stream, at seed 1.

    ``perfbench/workloads.py`` is imported as it is, and only read: no
    bytecode is written beside it. Each stream's catalog is its metrics
    file's, written to ``directory`` and loaded back.
    """
    bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = bytecode
    for stream, entries, metrics in ((workloads.mix_stream, workloads.mix_catalogue, workloads.mix_metrics),
                                     (workloads.deep_stream, workloads.deep_catalogue, workloads.deep_metrics)):
        path = directory / (stream.__name__ + ".metrics")
        path.write_text(metrics().text())
        catalog = catalog_from_metrics(load_metrics(str(path)))
        for op in itertools.islice(stream(1, entries()), 3000):
            yield op.sql, catalog


def test_the_recorded_resolution_is_the_one_resolve_computes(tmp_path):
    for sql, catalog in itertools.chain(_recorded_queries(), _workload_queries(tmp_path)):
        q = parse_query(sql, catalog)
        for node in (q, counted_relation(q)):
            positions, names = vars(node)["_resolved"]
            want_positions, want_names = resolve(node)
            assert positions == want_positions, sql
            assert names.entries == want_names.entries and names._positions == want_names._positions, sql
            # no node renames a column: an entry with a table is that table's column of its name
            for _, name, table in names.entries:
                assert table is None or name in catalog.columns[table], sql


def test_the_recorded_queries_parse_to_the_pinned_trees():
    digest = hashlib.sha256()
    for sql, catalog in _recorded_queries():
        q = parse_query(sql, catalog)
        # a repr shows every field, so a tree built from it is equal
        assert eval(repr(q), dict(vars(relalg))) == q
        digest.update(repr(q).encode() + b"\n")
    assert digest.hexdigest() == PINNED_TREES
