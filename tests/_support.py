"""Shared helpers for the test suite.

Three things live here:

* a naive relational evaluator (cartesian products and linear scans, no
  hashing) used as an independent second route when cross-checking the
  package's evaluator,
* seeded random generators for micro-databases and accepted queries, used
  by the property-style suites, and
* brute-force smoothing references for ``smooth_bound``'s closed form.
"""

import math

import numpy as np

from flexdp import (
    Aliased,
    AttrRef,
    Catalog,
    Comparison,
    Count,
    Join,
    MetricsStore,
    MicroDatabase,
    Project,
    Select,
    SmoothBound,
    Table,
    attribute_index,
    root_count,
)

# Deliberately separate from the package's operator table.
_NAIVE_OPS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _holds(c: Comparison, row: tuple, node) -> bool:
    left = row[attribute_index(c.left, node)]
    right = c.right
    if isinstance(right, AttrRef):
        right = row[attribute_index(right, node)]
    return _NAIVE_OPS[c.op](left, right)


def naive_rows(r, db: MicroDatabase):
    """Rows of ``r`` on ``db`` by brute force, aligned with scope_of(r)."""
    if isinstance(r, Table):
        stored = db.columns[r.name]
        picks = [stored.index(c) for c in r.columns]
        return [tuple(row[i] for i in picks) for row in db.tables[r.name]]
    if isinstance(r, Join):
        left = naive_rows(r.left, db)
        right = naive_rows(r.right, db)
        li = attribute_index(r.key_left, r.left)
        ri = attribute_index(r.key_right, r.right)
        return [a + b for a in left for b in right if a[li] == b[ri]]
    if isinstance(r, Select):
        rows = naive_rows(r.input, db)
        return [row for row in rows if all(_holds(c, row, r.input) for c in r.predicate)]
    if isinstance(r, Project):
        rows = naive_rows(r.input, db)
        picks = [attribute_index(a, r.input) for a in r.attrs]
        return [tuple(row[i] for i in picks) for row in rows]
    if isinstance(r, Aliased):
        return naive_rows(r.input, db)
    raise TypeError("naive_rows cannot evaluate %r" % (r,))


def naive_eval(q, db: MicroDatabase):
    """Evaluate a counting query: int for Count, dict for CountGrouped."""
    root = root_count(q)
    if isinstance(root, Count):
        return len(naive_rows(root.input, db))
    rows = naive_rows(root.input, db)
    picks = [attribute_index(a, root.input) for a in root.group_attrs]
    counts = {}
    for row in rows:
        label = tuple(row[i] for i in picks)
        if len(picks) == 1:
            label = label[0]
        counts[label] = counts.get(label, 0) + 1
    return counts


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
