"""Query shapes: the benchmark's own description of a counting query.

A shape is a left-deep join of base-table occurrences, which is the tree the
package's parser builds from ``FROM t0 JOIN t1 ON ... JOIN t2 ON ...``. From
a shape the benchmark

* writes SQL text with caller-chosen aliases and literals (the only thing
  the package sees of a query),
* computes the exact integer elastic sensitivity at any distance k with its
  own recursion, independent of the package, and maximises the smoothed
  bound by brute force (the reference the expected results are checked
  against), and
* evaluates the query on generated rows, for the true result of a release.

Join t (t >= 1) attaches occurrence t to the tree of occurrences 0..t-1 on
``occ[left_occ].left_col = occ[t].right_col``; the key comparison is written
first so the parser picks it as the equijoin key, and every residual
conjunct follows it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

import numpy as np

_OPS = {"<": operator.lt, ">": operator.gt, "=": operator.eq}


@dataclass(frozen=True)
class Join:
    left_occ: int
    left_col: str
    right_col: str
    # conjuncts (occ_a, col_a, op, occ_b, col_b) kept as a residual filter
    residual: Tuple[Tuple[int, str, str, int, str], ...] = ()


@dataclass(frozen=True)
class Shape:
    family: str
    tables: Tuple[str, ...]  # table name of each occurrence
    joins: Tuple[Join, ...]  # joins[t - 1] attaches occurrence t
    filters: Tuple[Tuple[int, str, str], ...] = ()  # WHERE (occ, col, op) literal
    group: Optional[Tuple[int, str]] = None  # GROUP BY (occ, col)

    @property
    def n_joins(self) -> int:
        return len(self.joins)


@dataclass(frozen=True)
class Metrics:
    """Max frequency of every column, and the public tables."""

    mf: Dict[Tuple[str, str], int]
    public: FrozenSet[str]
    rows: Dict[str, int]

    def text(self) -> str:
        """The metrics file format the package's ``load_metrics`` reads."""
        lines = ["[tables]"]
        lines += ["%s = %d" % (t, n) for t, n in sorted(self.rows.items())]
        lines += ["", "[public]"] + sorted(self.public) + ["", "[mf]"]
        lines += ["%s.%s = %d" % (t, c, v) for (t, c), v in sorted(self.mf.items())]
        return "\n".join(lines) + "\n"


def to_sql(shape: Shape, aliases: Sequence[str], literals: Sequence) -> str:
    """SQL text for ``shape``; integer ``literals`` fill the WHERE filters in order."""

    def col(occ, name):
        return "%s.%s" % (aliases[occ], name)

    parts = ["%s %s" % (shape.tables[0], aliases[0])]
    for t, j in enumerate(shape.joins, start=1):
        conds = ["%s = %s" % (col(j.left_occ, j.left_col), col(t, j.right_col))]
        conds += ["%s %s %s" % (col(a, ca), op, col(b, cb)) for a, ca, op, b, cb in j.residual]
        parts.append("JOIN %s %s ON %s" % (shape.tables[t], aliases[t], " AND ".join(conds)))
    head = "COUNT(*)"
    if shape.group is not None:
        head = "%s, COUNT(*)" % col(*shape.group)
    sql = "SELECT %s FROM %s" % (head, " ".join(parts))
    if shape.filters:
        sql += " WHERE " + " AND ".join(
            "%s %s %d" % (col(occ, c), op, lit)
            for (occ, c, op), lit in zip(shape.filters, literals)
        )
    if shape.group is not None:
        sql += " GROUP BY %s" % col(*shape.group)
    return sql


# ---------------------------------------------------------------------------
# Reference analysis, exact integers.
# ---------------------------------------------------------------------------


def sensitivity_at(shape: Shape, m: Metrics, k):
    """Exact elastic sensitivity of ``shape`` at distance k.

    ``k`` is a Python int, or a numpy object array of Python ints to get the
    whole profile in one pass. Selections pass stability through, a join of
    unrelated inputs takes the larger one-sided effect, a self join adds both
    sides and their product, and a grouped count doubles the bound.
    """

    def base_mf(occ, column):
        table = shape.tables[occ]
        value = m.mf[(table, column)]
        return value if table in m.public else value + k

    # mf of (occ, col) in the current left tree is base * own[occ] * P // prefix[occ],
    # where P is the product of every later join's right-key mf.
    own = [1]
    prefix = [1]
    product = 1
    stability = 0 if shape.tables[0] in m.public else 1
    seen = {shape.tables[0]}
    for t, j in enumerate(shape.joins, start=1):
        mf_left = base_mf(j.left_occ, j.left_col) * own[j.left_occ] * (product // prefix[j.left_occ])
        mf_right = base_mf(t, j.right_col)
        s_right = 0 if shape.tables[t] in m.public else 1
        if shape.tables[t] in seen:
            stability = mf_left * s_right + mf_right * stability + stability * s_right
        else:
            stability = _maximum(mf_left * s_right, mf_right * stability)
        seen.add(shape.tables[t])
        product = product * mf_right
        own.append(mf_left)
        prefix.append(product)
    if shape.group is not None:
        stability = 2 * stability
    return stability


def _maximum(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.maximum(a, b)
    return max(a, b)


def beta_of(epsilon: float, delta: float) -> float:
    return epsilon / (2.0 * math.log(2.0 / delta))


def horizon(shape: Shape, beta: float) -> int:
    """ceil(j*j/beta): the distance the package's scan stops at, 0 without joins."""
    j = shape.n_joins
    return 0 if j == 0 else int(math.ceil(j * j / beta))


def brute_smooth(shape: Shape, m: Metrics, beta: float, chunk: int = 1 << 14):
    """Maximise exp(-beta*k) * sensitivity_at(k) over every k in [0, horizon].

    Sensitivities are exact integers; the comparison is made on their natural
    logs, so values far beyond double range compare correctly. Returns
    (S, k_star) with ties broken toward the smallest k, and S = 0 when the
    bound is 0 everywhere (all-public queries).
    """
    upto = horizon(shape, beta)
    best, best_k = -math.inf, 0
    for start in range(0, upto + 1, chunk):
        ks = np.array(range(start, min(start + chunk, upto + 1)), dtype=object)
        values = sensitivity_at(shape, m, ks)
        if not isinstance(values, np.ndarray):
            values = [values] * len(ks)
        for k, v in zip(range(start, start + len(ks)), values):
            if v > 0:
                score = math.log(v) - beta * k
                if score > best:
                    best, best_k = score, k
    return (0.0 if best == -math.inf else math.exp(best)), best_k


# ---------------------------------------------------------------------------
# Evaluation on generated rows, for true results.
# ---------------------------------------------------------------------------


def evaluate(shape: Shape, tables: Dict[str, list], columns: Dict[str, tuple], literals):
    """Count the rows of ``shape`` on ``tables``; a dict label -> count when grouped.

    Joined rows are tuples holding one base row per occurrence.
    """

    def getter(occ, column):
        index = columns[shape.tables[occ]].index(column)
        return lambda joined: joined[occ][index]

    rows = [(r,) for r in tables[shape.tables[0]]]
    for t, j in enumerate(shape.joins, start=1):
        key_left = getter(j.left_occ, j.left_col)
        right_index = columns[shape.tables[t]].index(j.right_col)
        buckets: Dict[object, list] = {}
        for r in tables[shape.tables[t]]:
            buckets.setdefault(r[right_index], []).append(r)
        rows = [left + (r,) for left in rows for r in buckets.get(key_left(left), ())]
        for a, ca, op, b, cb in j.residual:
            ga, gb, fn = getter(a, ca), getter(b, cb), _OPS[op]
            rows = [r for r in rows if fn(ga(r), gb(r))]
    for (occ, column, op), lit in zip(shape.filters, literals):
        g, fn = getter(occ, column), _OPS[op]
        rows = [r for r in rows if fn(g(r), lit)]
    if shape.group is None:
        return len(rows)
    g = getter(*shape.group)
    counts: Dict[object, int] = {}
    for r in rows:
        counts[g(r)] = counts.get(g(r), 0) + 1
    return counts


# ---------------------------------------------------------------------------
# Released values, reproduced from the seed.
# ---------------------------------------------------------------------------


def laplace_noise(scale: float, rng: np.random.Generator) -> float:
    """One Laplace(0, scale) draw by the inverse CDF of one uniform in (0, 1)."""
    u = rng.random()
    while u == 0.0:
        u = rng.random()
    t = 2.0 * u - 1.0
    return -scale * math.copysign(1.0, t) * math.log1p(-abs(t)) if t else 0.0


def released_values(true_result, S: float, epsilon: float, seed: int, domain=None):
    """The values a release with smoothed bound S and RNG seed must produce.

    A plain count gives one value; a grouped count one value per domain
    label, drawn in domain order, with absent labels counting as 0.
    """
    scale = 2.0 * S / epsilon
    rng = np.random.default_rng(seed)
    draw = (lambda: laplace_noise(scale, rng)) if scale > 0 else (lambda: 0.0)
    if domain is None:
        return [float(true_result) + draw()]
    return [float(true_result.get(label, 0)) + draw() for label in domain]


def close(a: float, b: float, scale: float = 0.0, rel: float = 1e-9) -> bool:
    """|a - b| within ``rel`` of the larger magnitude (or of ``scale``)."""
    return abs(a - b) <= rel * max(abs(a), abs(b), scale)
