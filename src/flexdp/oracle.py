"""Brute-force ground truth on tiny databases.

The sensitivity analysis promises an upper bound on local sensitivity at
every distance k. This module checks that promise the slow way: evaluate the
query on a small concrete database, enumerate every database reachable by
replacing up to k tuples, and measure how much one further replacement can
move the result. Nothing here is private or fast; it exists so the bound can
be cross-examined and is wired into the ``flexdp check`` command.

Databases follow the bounded model: a fixed number of rows per table, and
neighbors differ by replacing rows (never adding or removing them). Each
table column carries a finite value domain that replacement values are drawn
from.
"""

from __future__ import annotations

import csv
import itertools
import operator
import os
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Union

from .errors import EvaluationError, TooLargeToEnumerate
from .metrics import MetricsStore
from .relalg import (
    Aliased,
    AttrRef,
    Catalog,
    Count,
    CountGrouped,
    Join,
    Project,
    RelExpr,
    Select,
    Table,
    attribute_index,
    root_count,
)

_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

Value = Union[int, str]


def coerce_value(text: str) -> Value:
    """Read a CSV cell or a bin label: an optionally signed integer, else the text."""
    body = text[1:] if text.startswith("-") else text
    if body.isdigit():
        return int(text)
    return text


@dataclass
class MicroDatabase:
    """A tiny multi-table database with explicit per-column value domains.

    Rows are position-indexed: neighbor enumeration replaces the row at a
    position, so row order is meaningful for bookkeeping even though query
    semantics are bag semantics.
    """

    tables: Dict[str, List[tuple]]
    columns: Dict[str, tuple]
    domains: Dict[str, tuple] = field(default_factory=dict)

    def __post_init__(self):
        for name, cols in self.columns.items():
            rows = self.tables.get(name, [])
            for row in rows:
                if len(row) != len(cols):
                    raise EvaluationError(
                        "row width %d does not match columns of %r" % (len(row), name)
                    )
            if name not in self.domains:
                # default to the values observed in each column
                observed = tuple(
                    tuple(sorted({row[i] for row in rows}, key=repr))
                    for i in range(len(cols))
                )
                self.domains[name] = observed

    @classmethod
    def from_csv_dir(cls, path: str) -> "MicroDatabase":
        """Load every ``*.csv`` in a directory; file name becomes table name."""
        tables: Dict[str, List[tuple]] = {}
        columns: Dict[str, tuple] = {}
        names = sorted(n for n in os.listdir(path) if n.endswith(".csv"))
        if not names:
            raise EvaluationError("no .csv tables found in %r" % path)
        for filename in names:
            name = filename[: -len(".csv")]
            with open(os.path.join(path, filename), newline="", encoding="utf-8") as f:
                reader = csv.reader(f)
                try:
                    header = next(reader)
                except StopIteration:
                    raise EvaluationError("%s is empty (no header row)" % filename) from None
                columns[name] = tuple(h.strip() for h in header)
                tables[name] = [
                    tuple(coerce_value(cell.strip()) for cell in row)
                    for row in reader
                    if row
                ]
        return cls(tables=tables, columns=columns)

    def catalog(self) -> Catalog:
        return Catalog(columns=dict(self.columns))

    def table_node(self, name: str, alias: Optional[str] = None) -> Table:
        return Table(name, alias or name, self.columns[name])

    def exact_metrics(self, public=()) -> MetricsStore:
        """Ground-truth metrics: true max frequency of every column."""
        mf = {}
        for name, cols in self.columns.items():
            for i, col in enumerate(cols):
                mf[(name, col)] = column_max_frequency(self.tables[name], i)
        return MetricsStore(
            mf=mf,
            public_tables=frozenset(public),
            row_counts={name: len(rows) for name, rows in self.tables.items()},
        )

    def key(self) -> tuple:
        return tuple(sorted((name, tuple(rows)) for name, rows in self.tables.items()))

    def replace(self, updates: Dict[Tuple[str, int], tuple]) -> "MicroDatabase":
        """Copy with the rows at the given (table, index) positions replaced."""
        tables = {name: list(rows) for name, rows in self.tables.items()}
        for (name, index), row in updates.items():
            tables[name][index] = row
        return MicroDatabase(tables=tables, columns=self.columns, domains=self.domains)

    def row_domain(self, name: str) -> List[tuple]:
        return list(itertools.product(*self.domains[name]))

    def positions(self) -> List[Tuple[str, int]]:
        return [
            (name, i)
            for name in sorted(self.tables)
            for i in range(len(self.tables[name]))
        ]


def eval_rows(r: RelExpr, db: MicroDatabase) -> List[tuple]:
    """Evaluate a relational transformation to its concrete rows."""
    if isinstance(r, Table):
        stored = tuple(db.columns.get(r.name, ()))
        if stored == r.columns:
            return list(db.tables[r.name])
        if set(stored) != set(r.columns):
            raise EvaluationError(
                "table %r columns do not match the query's schema" % r.name
            )
        # same columns, different declared order: permute to the query's order
        order = [stored.index(col) for col in r.columns]
        return [tuple(row[i] for i in order) for row in db.tables[r.name]]
    if isinstance(r, Join):
        left_rows = eval_rows(r.left, db)
        right_rows = eval_rows(r.right, db)
        li = attribute_index(r.key_left, r.left)
        ri = attribute_index(r.key_right, r.right)
        buckets: Dict[Value, List[tuple]] = {}
        for row in right_rows:
            buckets.setdefault(row[ri], []).append(row)
        joined = [
            lrow + rrow for lrow in left_rows for rrow in buckets.get(lrow[li], ())
        ]
        if r.residual:
            joined = _filter(joined, r.residual, r)
        return joined
    if isinstance(r, Select):
        return _filter(eval_rows(r.input, db), r.predicate, r)
    if isinstance(r, Project):
        indices = [attribute_index(attr, r.input) for attr in r.attrs]
        return [tuple(row[i] for i in indices) for row in eval_rows(r.input, db)]
    if isinstance(r, Aliased):
        return eval_rows(r.input, db)
    if isinstance(r, Count):
        return [(len(eval_rows(r.input, db)),)]
    if isinstance(r, CountGrouped):
        groups = _group_counts(r, db)
        return [key + (count,) for key, count in sorted(groups.items(), key=repr)]
    raise TypeError("not a relational expression: %r" % (r,))


def _filter(rows: List[tuple], predicate, node: RelExpr) -> List[tuple]:
    compiled = []
    for comparison in predicate:
        li = attribute_index(comparison.left, node)
        if isinstance(comparison.right, AttrRef):
            ri = attribute_index(comparison.right, node)
            compiled.append((li, _OPS[comparison.op], ("col", ri)))
        else:
            compiled.append((li, _OPS[comparison.op], ("lit", comparison.right)))
    out = []
    for row in rows:
        ok = True
        for li, op, (kind, operand) in compiled:
            right = row[operand] if kind == "col" else operand
            try:
                if not op(row[li], right):
                    ok = False
                    break
            except TypeError:
                raise EvaluationError(
                    "cannot compare %r with %r" % (row[li], right)
                ) from None
        if ok:
            out.append(row)
    return out


def _group_counts(r: CountGrouped, db: MicroDatabase) -> Dict[tuple, int]:
    rows = eval_rows(r.input, db)
    indices = [attribute_index(attr, r.input) for attr in r.group_attrs]
    counts: Dict[tuple, int] = {}
    for row in rows:
        key = tuple(row[i] for i in indices)
        counts[key] = counts.get(key, 0) + 1
    return counts


def column_max_frequency(rows: List[tuple], index: int) -> int:
    """Multiplicity of the most frequent value at ``index``; 0 for no rows."""
    counts: Dict[Value, int] = {}
    for row in rows:
        counts[row[index]] = counts.get(row[index], 0) + 1
    return max(counts.values()) if counts else 0


def eval_query(q: RelExpr, db: MicroDatabase):
    """Evaluate a counting query on a concrete database.

    Returns:
        An int for a plain count; for a grouped count, a dict mapping the
        group label (a scalar for one grouping column, else a tuple) to its
        count. Groups with no rows are absent.
    """
    root = root_count(q)
    if isinstance(root, Count):
        return len(eval_rows(root.input, db))
    counts = _group_counts(root, db)
    if len(root.group_attrs) == 1:
        return {key[0]: count for key, count in counts.items()}
    return dict(counts)


def _alternative_counts(db: MicroDatabase) -> List[int]:
    counts = []
    for name, _ in db.positions():
        counts.append(len(db.row_domain(name)) - 1)
    return counts


def ball_size(db: MicroDatabase, k: int) -> int:
    """Exactly count the databases within replacement distance k of ``db``.

    Computes the truncated product of (1 + a_p * x) over positions p, where
    a_p is the number of alternative rows at p; the coefficient of x^i is the
    number of databases at distance exactly i.
    """
    coeffs = [1]
    for alternatives in _alternative_counts(db):
        nxt = [0] * min(len(coeffs) + 1, k + 1)
        for i, c in enumerate(coeffs):
            if i < len(nxt):
                nxt[i] += c
            if i + 1 < len(nxt):
                nxt[i + 1] += c * alternatives
        coeffs = nxt
    return sum(coeffs)


def neighbors_at(
    db: MicroDatabase, k: int, guard: int = 10**6
) -> Iterator[MicroDatabase]:
    """Yield every distinct database within replacement distance k.

    Includes ``db`` itself (distance 0). Each yielded database differs from
    ``db`` in exactly the chosen positions, so no database appears twice.

    Raises:
        TooLargeToEnumerate: the ball holds more than ``guard`` databases.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    total = ball_size(db, k)
    if total > guard:
        raise TooLargeToEnumerate(
            "distance-%d ball holds %d databases (guard %d)" % (k, total, guard)
        )
    positions = db.positions()
    domains = {name: db.row_domain(name) for name in db.tables}
    yield db
    for size in range(1, k + 1):
        for combo in itertools.combinations(positions, size):
            pools = []
            for name, index in combo:
                current = db.tables[name][index]
                pools.append([row for row in domains[name] if row != current])
            for replacement in itertools.product(*pools):
                yield db.replace(dict(zip(combo, replacement)))


def max_frequency_at(attr: AttrRef, r: RelExpr, db: MicroDatabase, k: int) -> int:
    """Exact max frequency of ``attr`` in ``r`` at distance k, by enumeration.

    Maximizes, over every database within distance k of ``db``, the
    multiplicity of the most frequent value of ``attr`` in ``r``'s rows: the
    quantity ``sensitivity.mf_at_distance`` bounds from the metrics alone.

    Raises:
        TooLargeToEnumerate: the distance-k ball is too large to enumerate.
    """
    index = attribute_index(attr, r)
    return max(column_max_frequency(eval_rows(r, y), index) for y in neighbors_at(db, k))


def _distance(a, b) -> float:
    if isinstance(a, dict) or isinstance(b, dict):
        labels = set(a) | set(b)
        return float(sum(abs(a.get(l, 0) - b.get(l, 0)) for l in labels))
    return float(abs(a - b))


def local_sensitivity_at(
    q: RelExpr, db: MicroDatabase, k: int, guard: int = 10**6
) -> float:
    """Exact local sensitivity of ``q`` at distance k, by enumeration.

    Maximizes, over every database y within distance k of ``db``, the change
    in the query result caused by one further replacement in y. Histogram
    results are compared in L1 over the union of their bins.

    Raises:
        TooLargeToEnumerate: the required enumeration exceeds ``guard``.
    """
    # every database evaluated lies within distance k+1 of the original
    if ball_size(db, k + 1) > guard:
        raise TooLargeToEnumerate(
            "distance-%d ball holds %d databases (guard %d)"
            % (k + 1, ball_size(db, k + 1), guard)
        )
    cache: Dict[tuple, object] = {}

    def evaluate(d: MicroDatabase):
        key = d.key()
        try:
            return cache[key]
        except KeyError:
            cache[key] = eval_query(q, d)
            return cache[key]

    domains = {name: db.row_domain(name) for name in db.tables}
    worst = 0.0
    for y in neighbors_at(db, k, guard):
        base = evaluate(y)
        for name, index in y.positions():
            current = y.tables[name][index]
            for row in domains[name]:
                if row == current:
                    continue
                moved = evaluate(y.replace({(name, index): row}))
                delta = _distance(base, moved)
                if delta > worst:
                    worst = delta
    return worst
