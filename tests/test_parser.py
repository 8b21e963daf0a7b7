"""SQL surface: accepted shapes, tree decomposition, rejection contract."""

import pytest

from flexdp import (
    Aliased,
    AttrRef,
    Catalog,
    Comparison,
    Count,
    CountGrouped,
    Join,
    ParseError,
    Project,
    Select,
    Table,
    UnknownColumn,
    UnknownTable,
    UnsupportedQuery,
    parse_query,
)

from _support import TRIANGLE_SQL, triangle_catalog

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
    j = q.input
    assert isinstance(j, Join)
    # first equijoin conjunct with one side per input becomes the key
    assert (j.key_left, j.key_right) == (AttrRef("u", "id"), AttrRef("o", "uid"))
    assert j.residual == (
        Comparison(AttrRef("u", "dept"), "!=", AttrRef("o", "item")),
    )


def test_triangle_decomposition():
    q = parse(TRIANGLE_SQL, triangle_catalog())
    outer = q.input
    assert (outer.key_left, outer.key_right) == (
        AttrRef("e2", "dest"),
        AttrRef("e3", "source"),
    )
    assert outer.residual == (
        Comparison(AttrRef("e3", "dest"), "=", AttrRef("e1", "source")),
        Comparison(AttrRef("e2", "source"), "<", AttrRef("e3", "source")),
    )
    inner = outer.left
    assert (inner.key_left, inner.key_right) == (
        AttrRef("e1", "dest"),
        AttrRef("e2", "source"),
    )
    assert inner.residual == (
        Comparison(AttrRef("e1", "source"), "<", AttrRef("e2", "source")),
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
    j = q.input
    assert (j.key_left, j.key_right) == (AttrRef("e1", "dest"), AttrRef("e2", "source"))
    assert j.residual == (
        Comparison(AttrRef("e1", "source"), "=", AttrRef("e1", "dest")),
    )


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
