"""Shared helpers for the test suite.

Three things live here:

* an in-memory SQLite copy of a ``MicroDatabase``, and the answer SQLite
  gives to the same SQL text, the independent engine that cross-checks the
  package's evaluator and its metric collection statements,
* seeded random generators for micro-databases and accepted queries, used
  by the property-style suites, and
* brute-force smoothing references for ``smooth_bound``'s closed form.
"""

import contextlib
import math
import re
import sqlite3

import numpy as np

from flexdp import (
    Catalog,
    MetricsStore,
    MicroDatabase,
    SmoothBound,
    metrics_collection_sql,
)


@contextlib.contextmanager
def sqlite_copy(db: MicroDatabase):
    """An in-memory SQLite connection holding ``db``'s tables, closed on exit.

    Columns are untyped, so an int is stored as an INTEGER and a string as
    TEXT, and each table's rows are inserted in stored order: a row's
    ``rowid`` is its position, from 1.
    """
    conn = sqlite3.connect(":memory:")
    try:
        for table, cols in db.columns.items():
            conn.execute("CREATE TABLE %s (%s)" % (table, ", ".join(cols)))
            conn.executemany("INSERT INTO %s VALUES (%s)" % (table, ", ".join("?" * len(cols))), db.tables[table])
        yield conn
    finally:
        conn.close()


def sqlite_metrics(db: MicroDatabase) -> dict:
    """Every ``metrics_collection_sql`` statement run on SQLite: (table, column) -> max frequency."""
    mf = {}
    with sqlite_copy(db) as conn:
        for table, cols in db.columns.items():
            for col in cols:
                rows = conn.execute(metrics_collection_sql(table, col)).fetchall()
                mf[(table, col)] = rows[0][0] if rows else 0  # no row: empty table
    return mf


_FROM_ALIAS = re.compile(r"\b(?:FROM|JOIN) \w+ (\w+)")  # "FROM table alias" and "JOIN table alias"


def sqlite_eval(sql: str, db: MicroDatabase):
    """SQLite's answer to the counting query ``sql`` on ``db``, shaped as ``eval_query``'s.

    An int for a plain count. For a grouped count, a dict from the group
    label (a scalar for one grouping column, else a tuple) to its count,
    with the groups in ``eval_query``'s order: by each group's first row in
    left-major order, that is by the FROM items' ``rowid``s in FROM order.
    A grouped query names an alias for each FROM item, and so its rowids.
    """
    grouped = " GROUP BY " in sql
    if grouped:
        rowids = [alias + ".rowid" for alias in _FROM_ALIAS.findall(sql)]
        sql = "%s ORDER BY MIN(printf('%s', %s))" % (sql, " ".join(["%010d"] * len(rowids)), ", ".join(rowids))
    with sqlite_copy(db) as conn:
        rows = conn.execute(sql).fetchall()
    if not grouped:
        return rows[0][0]
    return {row[0] if len(row) == 2 else row[:-1]: row[-1] for row in rows}


# ---------------------------------------------------------------------------
# Random instances
# ---------------------------------------------------------------------------


def random_micro_db(rng, max_tables=2, max_rows=4, max_values=3) -> MicroDatabase:
    """A small random database. Every column is int-valued so any pair of
    columns can legally appear in a comparison."""
    n_tables = rng.integers(1, max_tables + 1)
    tables, columns, domains = {}, {}, {}
    for t in range(n_tables):
        name = "t%d" % t
        cols = ("a%d" % t, "b%d" % t)
        n_vals = int(rng.integers(2, max_values + 1))
        domain = tuple(range(n_vals))
        n_rows = int(rng.integers(1, max_rows + 1))
        rows = [
            tuple(int(rng.integers(0, n_vals)) for _ in cols) for _ in range(n_rows)
        ]
        tables[name], columns[name], domains[name] = rows, cols, (domain, domain)
    return MicroDatabase(tables=tables, columns=columns, domains=domains)


def random_query_sql(rng, db: MicroDatabase, max_joins=2, allow_grouped=True) -> str:
    """SQL text for a random accepted counting query over ``db``.

    Joins pick tables with replacement, so self joins occur naturally.
    Every attribute reference is alias-qualified, which keeps repeated
    tables unambiguous.
    """
    names = sorted(db.tables)
    n_joins = int(rng.integers(0, max_joins + 1))
    refs = [str(rng.choice(names)) for _ in range(n_joins + 1)]
    aliases = ["r%d" % i for i in range(len(refs))]

    def col_of(i):
        return "%s.%s" % (aliases[i], rng.choice(db.columns[refs[i]]))

    from_parts = ["%s %s" % (refs[0], aliases[0])]
    for i in range(1, len(refs)):
        j = int(rng.integers(0, i))  # join against any earlier relation
        cond = "%s = %s" % (col_of(j), col_of(i))
        if rng.random() < 0.3:
            op = str(rng.choice(["<", "<=", "!=", ">="]))
            cond += " AND %s %s %s" % (col_of(j), op, col_of(i))
        from_parts.append("JOIN %s %s ON %s" % (refs[i], aliases[i], cond))

    where = ""
    if rng.random() < 0.4:
        i = int(rng.integers(0, len(refs)))
        literal = int(rng.integers(0, 3))
        op = str(rng.choice(["=", "!=", "<", ">="]))
        where = " WHERE %s %s %d" % (col_of(i), op, literal)

    select = "COUNT(*)"
    group = ""
    if allow_grouped and rng.random() < 0.3:
        i = int(rng.integers(0, len(refs)))
        col = col_of(i)
        select = "%s, COUNT(*)" % col
        group = " GROUP BY %s" % col
    return "SELECT %s FROM %s%s%s" % (select, " ".join(from_parts), where, group)


# ---------------------------------------------------------------------------
# The running example: counting directed triangles in an edge table
# ---------------------------------------------------------------------------

TRIANGLE_SQL = (
    "SELECT COUNT(*) FROM edges e1 "
    "JOIN edges e2 ON e1.dest = e2.source AND e1.source < e2.source "
    "JOIN edges e3 ON e2.dest = e3.source AND e3.dest = e1.source "
    "AND e2.source < e3.source"
)


def triangle_catalog() -> Catalog:
    return Catalog(columns={"edges": ("source", "dest")})


def triangle_metrics(mf_source=65, mf_dest=65, rows=1000000) -> MetricsStore:
    return MetricsStore(
        mf={("edges", "source"): mf_source, ("edges", "dest"): mf_dest},
        public_tables=frozenset(),
        row_counts={"edges": rows},
    )


def chain_catalog(n_tables: int) -> Catalog:
    return Catalog(
        columns={"t%d" % i: ("a", "b") for i in range(n_tables)},
    )


def chain_metrics(n_tables: int, mf=10, rows=100000) -> MetricsStore:
    mf_map = {}
    for i in range(n_tables):
        mf_map[("t%d" % i, "a")] = mf
        mf_map[("t%d" % i, "b")] = mf
    return MetricsStore(
        mf=mf_map,
        public_tables=frozenset(),
        row_counts={"t%d" % i: rows for i in range(n_tables)},
    )


def chain_sql(n_joins: int) -> str:
    """A left-deep chain of ``n_joins`` equijoins over distinct tables."""
    parts = ["t0 r0"]
    for i in range(1, n_joins + 1):
        parts.append("JOIN t%d r%d ON r%d.b = r%d.a" % (i, i, i - 1, i))
    return "SELECT COUNT(*) FROM " + " ".join(parts)


def star_sql(n_dims: int) -> str:
    """A star: fact table f joined to ``n_dims`` dimension tables, d<i> on f.k<i> = d<i>.id."""
    parts = ["f"] + ["JOIN d%d ON f.k%d = d%d.id" % (i, i, i) for i in range(1, n_dims + 1)]
    return "SELECT COUNT(*) FROM " + " ".join(parts)


def star_metrics(n_dims: int, mf=10, rows=100000) -> MetricsStore:
    """Metrics for ``star_sql(n_dims)``: every key column has max frequency ``mf``."""
    mf_map = {("f", "k%d" % i): mf for i in range(1, n_dims + 1)}
    mf_map.update({("d%d" % i, "id"): mf for i in range(1, n_dims + 1)})
    return MetricsStore(
        mf=mf_map,
        public_tables=frozenset(),
        row_counts={table: rows for table, _ in mf_map},
    )


def brute_smooth(profile_at, beta: float, upto: int):
    """Naive maximization of exp(-beta*k) * profile_at(k) over k in [0, upto].

    ``profile_at`` returns a plain number (exact int stability is fine;
    the product is formed in floats). Returns (S, k_star), smallest
    maximizing k first.
    """
    best, best_k = -math.inf, 0
    for k in range(upto + 1):
        v = math.exp(-beta * k) * float(profile_at(k))
        if v > best:
            best, best_k = v, k
    return best, best_k


_SCAN_CHUNK = 1 << 16  # distances per step of dense_scan


def dense_scan(log_profile, beta: float, k_max: int) -> SmoothBound:
    """Maximize exp(-beta*k) * f(k) over every integer k in [0, k_max].

    The dense, exhaustive reference for ``smooth_bound``, for any profile:
    ``log_profile`` maps a numpy array of float distances to ln f there (an
    array or a list, -inf where f is 0), and ``values_scanned`` is
    k_max + 1. Ties go to the smallest k, across chunks too.
    """
    best_log, best_k = -math.inf, 0
    for start in range(0, k_max + 1, _SCAN_CHUNK):
        ks = np.arange(start, min(start + _SCAN_CHUNK, k_max + 1), dtype=float)
        values = np.asarray(log_profile(ks), dtype=float) - beta * ks
        i = int(values.argmax())
        if values[i] > best_log:  # a later chunk's equal value does not win
            best_log, best_k = float(values[i]), start + i
    try:
        s = math.exp(best_log)
    except OverflowError:
        s = math.inf
    return SmoothBound(S=s, k_star=best_k, k_max=k_max, values_scanned=k_max + 1, log_S=best_log)
