"""Exact local sensitivity and max frequency on tiny databases, by enumeration.

``flexdp check`` and the tests check the analysis' bounds against these:
they list every database reachable from a ``MicroDatabase`` by replacing
up to k tuples, and evaluate the query on each with ``oracle``'s
evaluator. A release never runs them, so ``flexdp.cli`` imports this
module only in ``check``.

Databases follow the bounded model: a fixed number of rows per table, and
neighbors differ by replacing rows (never adding or removing them). A
replacement row is drawn from its table's row domain, the product of its
columns' value domains: the database's given ones, else each column's
observed values (``oracle.column_domain``). Each call builds every row
domain once, from the database it is given, and each neighbor from it.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List

from .errors import TooLargeToEnumerate
from .oracle import MicroDatabase, column_domain, column_max_frequency, eval_query, eval_rows
from .relalg import AttrRef, RelExpr, attribute_index

ENUMERATION_GUARD = 10**6  # the most databases an enumeration visits


def _row_domains(db: MicroDatabase) -> Dict[str, List[tuple]]:
    """Every table's row domain, its rows in ``itertools.product`` order."""
    domains = {}
    for name, rows in db.tables.items():
        if name in db.domains:
            columns = db.domains[name]
        else:
            columns = [column_domain(rows, i) for i in range(len(db.columns[name]))]
        domains[name] = list(itertools.product(*columns))
    return domains


def _positions(db: MicroDatabase) -> list:
    """Every (table, row index), tables in name order."""
    return [(name, i) for name in sorted(db.tables) for i in range(len(db.tables[name]))]


def _replaced(db: MicroDatabase, updates: dict) -> MicroDatabase:
    """``db`` with the row at each (table, index) of ``updates`` replaced; other tables are shared."""
    tables = dict(db.tables)
    for (name, index), row in updates.items():
        if tables[name] is db.tables[name]:
            tables[name] = list(tables[name])
        tables[name][index] = row
    neighbour = MicroDatabase.__new__(MicroDatabase)  # unchecked: a row domain's rows have db's widths
    neighbour.tables, neighbour.columns, neighbour.domains = tables, db.columns, db.domains
    return neighbour


def _ball_size(db: MicroDatabase, domains: Dict[str, List[tuple]], k: int) -> int:
    coeffs = [1]
    for name, _ in _positions(db):
        alternatives = len(domains[name]) - 1
        nxt = [0] * min(len(coeffs) + 1, k + 1)
        for i, c in enumerate(coeffs):
            if i < len(nxt):
                nxt[i] += c
            if i + 1 < len(nxt):
                nxt[i + 1] += c * alternatives
        coeffs = nxt
    return sum(coeffs)


def ball_size(db: MicroDatabase, k: int) -> int:
    """Exactly count the databases within replacement distance k of ``db``.

    Computes the truncated product of (1 + a_p * x) over positions p, where
    a_p is the number of alternative rows at p; the coefficient of x^i is the
    number of databases at distance exactly i.
    """
    return _ball_size(db, _row_domains(db), k)


def _within(db: MicroDatabase, domains: dict, k: int, guarded: int) -> Iterator[MicroDatabase]:
    """The databases within distance k of ``db``, once the ball at distance ``guarded`` passes the guard."""
    if k < 0:
        raise ValueError("k must be non-negative")
    total = _ball_size(db, domains, guarded)
    if total > ENUMERATION_GUARD:
        raise TooLargeToEnumerate("distance-%d ball holds %d databases" % (guarded, total))
    yield db
    positions = _positions(db)
    for size in range(1, k + 1):
        for combo in itertools.combinations(positions, size):
            pools = []
            for name, index in combo:
                current = db.tables[name][index]
                pools.append([row for row in domains[name] if row != current])
            for replacement in itertools.product(*pools):
                yield _replaced(db, dict(zip(combo, replacement)))


def neighbors_at(db: MicroDatabase, k: int) -> Iterator[MicroDatabase]:
    """Yield every distinct database within replacement distance k.

    Includes ``db`` itself (distance 0). Each yielded database differs from
    ``db`` in exactly the chosen positions, so no database appears twice.

    Raises:
        TooLargeToEnumerate: the ball holds more than ``ENUMERATION_GUARD`` databases.
    """
    yield from _within(db, _row_domains(db), k, k)


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


def local_sensitivity_at(q: RelExpr, db: MicroDatabase, k: int) -> float:
    """Exact local sensitivity of ``q`` at distance k, by enumeration.

    Maximizes, over every database y within distance k of ``db``, the change
    in the query result caused by one further replacement in y. Histogram
    results are compared in L1 over the union of their bins.

    Raises:
        TooLargeToEnumerate: the required enumeration exceeds ``ENUMERATION_GUARD``.
    """
    cache: Dict[tuple, object] = {}

    def evaluate(d: MicroDatabase):
        # every database here is built from db's tables, so they come in one order
        key = tuple(map(tuple, d.tables.values()))
        if key not in cache:
            cache[key] = eval_query(q, d)
        return cache[key]

    domains, positions = _row_domains(db), _positions(db)
    worst = 0.0
    # every database evaluated lies within distance k+1 of the original
    for y in _within(db, domains, k, k + 1):
        base = evaluate(y)
        for name, index in positions:
            current = y.tables[name][index]
            for row in domains[name]:
                if row != current:
                    worst = max(worst, _distance(base, evaluate(_replaced(y, {(name, index): row}))))
    return worst
