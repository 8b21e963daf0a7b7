"""Exact local sensitivity and max frequency on tiny databases, by enumeration.

``flexdp check`` and the tests check the analysis' bounds against these:
they list every database reachable from a ``MicroDatabase`` by replacing
up to k tuples, each replacement drawn from its table's row domain, and
evaluate the query on each with ``oracle``'s evaluator. A release never
runs them, so ``flexdp.cli`` imports this module only in ``check``.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator

from .errors import TooLargeToEnumerate
from .oracle import MicroDatabase, column_max_frequency, eval_query, eval_rows
from .relalg import AttrRef, RelExpr, attribute_index


def ball_size(db: MicroDatabase, k: int) -> int:
    """Exactly count the databases within replacement distance k of ``db``.

    Computes the truncated product of (1 + a_p * x) over positions p, where
    a_p is the number of alternative rows at p; the coefficient of x^i is the
    number of databases at distance exactly i.
    """
    coeffs = [1]
    for name, _ in db.positions():
        alternatives = len(db.row_domain(name)) - 1
        nxt = [0] * min(len(coeffs) + 1, k + 1)
        for i, c in enumerate(coeffs):
            if i < len(nxt):
                nxt[i] += c
            if i + 1 < len(nxt):
                nxt[i + 1] += c * alternatives
        coeffs = nxt
    return sum(coeffs)


ENUMERATION_GUARD = 10**6  # the most databases an enumeration visits


def neighbors_at(db: MicroDatabase, k: int) -> Iterator[MicroDatabase]:
    """Yield every distinct database within replacement distance k.

    Includes ``db`` itself (distance 0). Each yielded database differs from
    ``db`` in exactly the chosen positions, so no database appears twice.

    Raises:
        TooLargeToEnumerate: the ball holds more than ``ENUMERATION_GUARD`` databases.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    total = ball_size(db, k)
    if total > ENUMERATION_GUARD:
        raise TooLargeToEnumerate("distance-%d ball holds %d databases" % (k, total))
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


def local_sensitivity_at(q: RelExpr, db: MicroDatabase, k: int) -> float:
    """Exact local sensitivity of ``q`` at distance k, by enumeration.

    Maximizes, over every database y within distance k of ``db``, the change
    in the query result caused by one further replacement in y. Histogram
    results are compared in L1 over the union of their bins.

    Raises:
        TooLargeToEnumerate: the required enumeration exceeds ``ENUMERATION_GUARD``.
    """
    # every database evaluated lies within distance k+1 of the original
    total = ball_size(db, k + 1)
    if total > ENUMERATION_GUARD:
        raise TooLargeToEnumerate("distance-%d ball holds %d databases" % (k + 1, total))
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
    for y in neighbors_at(db, k):
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
