"""Elastic stability and sensitivity of counting queries.

Local sensitivity at distance k asks: over all databases at most k tuple
replacements away from the actual one, how much can one further replacement
change the query result? Computing that exactly requires the data. The
recursion here bounds it from above using only per-column max-frequency
metrics, one number per column, by tracking how a single changed tuple can
propagate through joins:

* a base table has stability 1: one replaced tuple changes one row;
* joining two unrelated relations multiplies a changed tuple by the number
  of rows it can match, bounded by the other side's join-key max frequency
  at distance k;
* a self join additionally lets a change on each side interact with the
  other, so the two one-sided effects and their product all add;
* selections and projections pass stability through unchanged;
* a grouped count doubles stability, because a changed input row can leave
  one output group and enter another.

Max frequency at distance k inflates each private table's recorded max
frequency by k, since k replacements can pile k more copies onto the most
common value. Public tables are exempt: their contents are fixed, so their
stability is 0 and their max frequencies do not grow with k. Each join a
column passes multiplies its max frequency by the other side's key's.

Each relation is compiled once into a flat post-order plan, kept on its
node: a step per base table, join and count. The plan holds no metric
values. A table step names its table, and a join step holds its self-join
flag and, per key, the base column's (table, column) and the inner joins
whose key mf multiplies it; a key that passes through an aggregation is
rejected while compiling. The compile walk reads the node's resolution,
where each join key is already a position in its input (``relalg``), and
reads those inner joins off up-links from each join input to the join
above it, so its time grows with the plan's size, at any depth.

One loop, ``_evaluate``, reads each table's public flag and each key's mf
from the metrics it is given and applies the rules to the plan in one of
three number systems:

* ``_Exact``: exact integers at a single k;
* ``_Poly``: exact polynomials in k with non-negative integer coefficients.
  A value is a set of them whose largest is the bound at every k, so that
  the mechanism can smooth in closed form. Most values hold one
  polynomial, and product, sum and max of two of those skip the set;
* ``_Log``: a float64 natural log at one distance, in pure Python, for
  values past double range. Products become sums, sums ``logaddexp`` and
  max stays max, a few ulps of error per step.

The loop reads each step once and binds the system's product, sum and
unit (``const(1)``) once per evaluation. A join side whose stability is
that unit object, a private base table or a nested plain count, passes
the other side's key mf on unmultiplied: x * 1 is x in every system, the
logs included, as no log value is -0.0.

So exact k=0, the polynomials, the smoothed value and ``check``'s loop
share one compile, and one tree can be evaluated against any metrics.

A key's mf is its own times the product of its factors' key mfs. In the
exact systems, keys on one join path share that product: each factor
tuple's product is kept for one evaluation, and a key extends the longest
one stored. On a j-dimension star each fact-table key then adds one
product to the key before it, so the bound costs O(j^2) coefficient work,
not O(j^3). Exact products regroup without changing a number. ``_Log``
keeps its own-first fold, because its products are float sums, which
regrouping would change in the last bits.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

from .errors import UnsupportedQuery
from .metrics import MetricsStore
from .relalg import (
    AttrRef,
    Count,
    CountGrouped,
    Join,
    Project,
    RelExpr,
    Table,
    _check_node,
    attribute_index,
    counted_relation,
    join_nodes,
    postorder,
)


def _check_distance(k):
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise ValueError("distance k must be a non-negative integer, got %r" % (k,))


class _Step(NamedTuple):
    """One plan step; ``inputs`` are indices of earlier steps.

    ``op`` is "table" (the base table ``table``), "count" (a plain count,
    stability 1), "grouped" or "join". A join has ``self_join``, true when
    its two inputs read a common base table, and left and right ``keys``,
    each (table, column, factors): the base column, then (join step, side)
    pairs, innermost first, whose key mf multiplies its mf; a column
    multiplies by the key of the side (0 left, 1 right) it is not on.
    ``_compile`` reads the pairs off the up-links of the steps above the
    column's table step.
    """

    op: str
    inputs: tuple = ()
    table: str = ""
    self_join: bool = False
    keys: tuple = ()


def _factors(step: int, up: dict) -> tuple:
    """The (join step, side) pairs above ``step``, innermost first, from its up-links."""
    factors = []
    while step in up:
        factors.append(up[step])
        step = up[step][0]
    return tuple(factors)


def _key(attr: AttrRef, column, up: dict):
    """The key ``attr``, whose output column is ``column``, as (table, column, factors).

    No node renames a column, so the key's base column is ``attr``'s name.

    Raises:
        UnsupportedQuery: the key passes through an aggregation.
    """
    if column is None:
        raise UnsupportedQuery(
            "join key %s has no max-frequency bound (aggregation input)" % attr
        )
    table, step = column
    return table, attr.name, _factors(step, up)


def _compile(r: RelExpr):
    """Walk ``r`` once and return its post-order plan, output columns and up-links.

    The columns hold, per scope position of ``r``, (table, table step) for
    a position that traces to a base-table column, and None for one that
    passes through an aggregation; the column is the position's name. ``up``
    maps the top step of each join input to its up-link, (join step, side):
    the join above it and the side whose key multiplies it. A key's factors
    are the up-links followed from its table step (``_factors``). A join
    records its up-links after it reads its keys, so that walk stops at the
    top of the join's input and no factor tuple is ever copied.

    It walks ``postorder(r)`` beside ``r``'s kept positions. A nested plain
    count (stability 1) drops its input's steps and up-links but keeps its
    table set. A join is a self join when its inputs' table sets meet.

    The last step of the plan is ``r``'s. A tree of any depth compiles. It
    reads no metrics, so ``_compiled`` keeps the result on ``r``.

    Raises:
        UnresolvedAttribute: a reference under ``r`` does not resolve.
        UnsupportedQuery: a join key has no max-frequency bound.
    """
    plan, up = [], {}
    done = []  # per walked input: (its output columns, tables, top step)
    for node, positions in zip(postorder(r), r._resolved[0]):
        if isinstance(node, Table):
            columns = [(node.name, len(plan))] * len(node.columns)
            done.append((columns, {node.name}, len(plan)))
            plan.append(_Step("table", (), node.name))
        elif isinstance(node, Count):
            tables, first = done.pop()[1:]
            while plan[first].inputs:  # down to the leftmost step under the input's top
                first = plan[first].inputs[0]
            del plan[first:]
            up = {step: link for step, link in up.items() if step < first}
            done.append(([None], tables, first))
            plan.append(_Step("count"))
        elif isinstance(node, Join):
            right_columns, right_tables, right = done.pop()
            left_columns, left_tables, left = done.pop()
            keys = (
                _key(node.key_left, left_columns[positions[0]], up),
                _key(node.key_right, right_columns[positions[1]], up),
            )
            step = len(plan)
            up[left], up[right] = (step, 1), (step, 0)
            self_join = not left_tables.isdisjoint(right_tables)
            plan.append(_Step("join", (left, right), "", self_join, keys))  # positional: cheaper than keywords
            # each input's columns and set are its own
            left_columns += right_columns
            left_tables |= right_tables
            done.append((left_columns, left_tables, step))
        elif isinstance(node, Project):
            columns, tables, top = done.pop()
            done.append(([columns[i] for i in positions], tables, top))
        elif isinstance(node, CountGrouped):
            tables, top = done.pop()[1:]
            done.append(([None] * (len(positions) + 1), tables, len(plan)))
            plan.append(_Step("grouped", (top,)))
        # Select and Aliased pass their input's columns, tables and top step through
    return plan, done.pop()[0], up


def _compiled(r: RelExpr):
    """``r``'s plan, output columns and up-links, compiled on first use and kept in ``r.__dict__``."""
    _check_node(r)
    kept = r.__dict__
    if "_plan" not in kept:
        kept["_plan"] = _compile(r)
    return kept["_plan"]


# The number systems. ``const(n)`` is n at every distance and
# ``grow(n)`` is n + k, the max frequency of a private column.


class _Exact:
    """Exact integers at one distance k."""

    mul, add, max = operator.mul, operator.add, max

    def __init__(self, k: int):
        self.k = k

    def const(self, n):
        return n

    def grow(self, n):
        return n + self.k


_LN2 = math.log(2.0)


def _logaddexp(x: float, y: float) -> float:
    """ln(e**x + e**y) as numpy's npy_logaddexp computes it, branch for branch."""
    if x == y:  # also equal infinities
        return x + _LN2
    d = x - y
    return x + math.log1p(math.exp(-d)) if d > 0 else y + math.log1p(math.exp(d))


class _Log:
    """Float64 natural logs at one float distance k, ln 0 being -inf; sums are numpy's logaddexp."""

    mul, add, max = operator.add, staticmethod(_logaddexp), max

    def __init__(self, k: float):
        self.k = k

    def const(self, n):
        return math.log(float(n)) if n > 0 else -math.inf

    def grow(self, n):
        return math.log(float(n) + self.k) if n + self.k > 0 else -math.inf


def _times(p: tuple, q: tuple) -> tuple:
    if len(q) == 1 or len(q) == 2 and q[1] == 1:
        p, q = q, p
    if len(p) == 1:  # a constant scales the other's coefficients; 1 keeps them
        return q if p[0] == 1 else tuple([p[0] * c for c in q])
    if len(p) == 2 and p[1] == 1 and q:  # n + k, a private mf: n times q, plus q one degree up
        n = p[0]
        return (n * q[0], *[n * a + b for a, b in zip(q[1:], q)], q[-1])
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out) if p and q else ()


def _plus(p: tuple, q: tuple) -> tuple:
    if len(p) < len(q):
        p, q = q, p
    return tuple(map(operator.add, p, q)) + p[len(q):]


# A larger set is cut to its upper envelope: exact either way, but cheaper.
_KEEP_WHOLE = 8


def _undominated(polys) -> tuple:
    """The distinct polynomials of ``polys`` that no other one bounds coefficient by coefficient."""
    polys = set(polys)
    if len(polys) == 1:
        return tuple(polys)
    kept = tuple(sorted(
        p for p in polys
        if not any(q is not p and len(q) >= len(p) and all(map(operator.ge, q, p)) for q in polys)
    ))
    return kept if len(kept) <= _KEEP_WHOLE else _envelope(kept)


def _envelope(polys: tuple) -> tuple:
    """The polynomials of ``polys`` that are the largest at some integer k >= 0.

    A sweep from k = 0: the largest at k stays so up to the first integer
    where another passes it, and so on until none does.
    """
    kept, k = set(), 0
    while True:
        values = [_value(p, k) for p in polys]
        top = polys[values.index(max(values))]
        kept.add(top)
        passes = [m for p in polys if (m := _first_above(_plus(p, tuple(-c for c in top)), k))]
        if not passes:
            return tuple(sorted(kept))
        k = min(passes)


def _first_above(d: tuple, k: int):
    """The smallest integer m > k with d(m) > 0 for integer coefficients ``d``, or None."""
    nonzero = [c for c in d if c]
    if not nonzero:
        return None
    # past this bound on the roots (Cauchy's), d has its leading coefficient's sign
    hi = max(k + 1, 2 + max(map(abs, d)) // abs(nonzero[-1]))
    # d keeps one sign on the integers from k + 1, and from a + 2 after a root
    # in (a, a+1], up to the next root; at a + 1 it may be 0 or that sign
    runs = sorted({k + 1} | {m for a in _brackets(d, hi, _value) if a >= k for m in (a + 1, a + 2)})
    return next((m for m in runs if _value(d, m) > 0), None)


def _value(poly, k: int) -> int:
    value = 0
    for c in reversed(poly):
        value = value * k + c
    return value


def _last(holds, lo: int, hi: int) -> int:
    """The largest k in lo..hi where ``holds``, which holds at lo and then up to some k only."""
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if holds(mid) else (lo, mid - 1)
    return lo


def _brackets(h, k_max: int, at) -> set:
    """Integers a in 0..k_max such that every root of h in (0, k_max] lies in some [a, a+1].

    ``at(h, k)`` evaluates h at k. With at most one sign change in h's
    coefficients there is at most one positive root, before which h has its
    lowest non-zero coefficient's sign. Otherwise h is monotone between the
    roots of h', bracketed first, and crosses 0 at most once in each run.
    """
    signs = [c > 0 for c in h if c]
    changes = sum(a != b for a, b in zip(signs, signs[1:]))
    if changes == 0:
        return set()
    if changes == 1:
        sign = 1 if signs[0] else -1
        return {_last(lambda k: k == 0 or at(h, k) * sign > 0, 0, k_max)}
    turns = _brackets([i * c for i, c in enumerate(h)][1:], k_max, at)
    cuts = sorted({0, k_max} | {min(a + 1, k_max) for a in turns} | turns)
    found = set(turns)
    for u, v in zip(cuts, cuts[1:]):
        start = at(h, u)
        if start == 0 or at(h, v) * start <= 0:
            found.add(_last(lambda k: k == u or at(h, k) * start > 0, u, v - 1))
    return found


class _Poly:
    """Exact polynomials in k: a value is a tuple of coefficient tuples, lowest degree first.

    Its number at distance k is its largest polynomial there; () is 0. The
    coefficients are non-negative integers, so max(A)*max(B) and
    max(A) + max(B) are maxima over the pairs.
    """

    const = staticmethod(lambda n: ((n,) if n else (),))
    grow = staticmethod(lambda n: ((n, 1),))
    # one polynomial each, the usual case, needs no set
    @staticmethod
    def max(a, b):
        if len(a) == len(b) == 1:  # the one that dominates, as _undominated decides it
            p, q = a[0], b[0]
            if len(q) >= len(p) and all(map(operator.ge, q, p)):
                return b
            if len(p) >= len(q) and all(map(operator.ge, p, q)):
                return a
        return _undominated(a + b)

    @staticmethod
    def mul(a, b):
        if len(a) == len(b) == 1:
            return (_times(a[0], b[0]),)
        return _undominated(_times(p, q) for p in a for q in b)

    @staticmethod
    def add(a, b):
        if len(a) == len(b) == 1:
            return (_plus(a[0], b[0]),)
        return _undominated(_plus(p, q) for p in a for q in b)


def _key_mf(key: tuple, key_mfs: list, numbers, m: MetricsStore, products=None):
    """The mf of ``key``: its base column's, times the key mf of each of its factors.

    With ``products``, which the exact systems pass, a key of two or more
    factors multiplies its own value by their product, which it shares
    with the keys on its join path (``_path_product``). ``_Log`` passes
    none and folds its own value first: regrouping its float sums would
    change their last bits.
    """
    table, column, factors = key
    mf = m.mf_of(table, column)
    value = numbers.const(mf) if m.is_public(table) else numbers.grow(mf)
    if products is not None and len(factors) > 1:
        return numbers.mul(value, _path_product(factors, key_mfs, numbers, products))
    for step, side in factors:
        value = numbers.mul(value, key_mfs[step][side])
    return value


def _path_product(factors: tuple, key_mfs: list, numbers, products: dict):
    """The product of the key mfs that ``factors`` name, stored in ``products``.

    It extends the longest prefix of ``factors`` already stored by the
    factors past it. On a star, each fact-table key's factors extend the
    previous key's by one join, so each key costs one product, not j.
    """
    n = len(factors)
    while n > 1 and (product := products.get(factors[:n])) is None:
        n -= 1
    if n == 1:
        step, side = factors[0]
        product = key_mfs[step][side]
    for step, side in factors[n:]:
        product = numbers.mul(product, key_mfs[step][side])
    products[factors] = product
    return product


def _evaluate(plan: list, numbers, m: MetricsStore):
    """Apply the stability rules to every step of ``plan`` in order, under ``m``.

    Returns the per-step stabilities and, for join steps, the (left, right)
    key max frequencies.

    Raises:
        MissingMetric: ``m`` has no mf for a join key.
    """
    stability, key_mfs = [], []
    products = None if isinstance(numbers, _Log) else {}  # see _key_mf
    mul, add, one = numbers.mul, numbers.add, numbers.const(1)
    for op, inputs, table, self_join, keys in plan:
        mfs = ()
        if op == "table":
            s = numbers.const(0) if m.is_public(table) else one
        elif op == "count":
            s = one
        elif op == "join":
            s_left, s_right = stability[inputs[0]], stability[inputs[1]]
            mfs = (_key_mf(keys[0], key_mfs, numbers, m, products),
                   _key_mf(keys[1], key_mfs, numbers, m, products))
            # times the unit stability is the key mf itself (module docstring)
            via_right = mfs[0] if s_right is one else mul(mfs[0], s_right)
            via_left = mfs[1] if s_left is one else mul(mfs[1], s_left)
            if self_join:
                s = add(add(via_right, via_left), mul(s_left, s_right))
            else:
                s = numbers.max(via_right, via_left)
        else:  # a grouped count: a changed row can leave a group and enter one
            s = mul(numbers.const(2), stability[inputs[0]])
        stability.append(s)
        key_mfs.append(mfs)
    return stability, key_mfs


def _sensitivity(q: RelExpr, m: MetricsStore, numbers):
    return _evaluate(_compiled(counted_relation(q))[0], numbers, m)[0][-1]


def key_columns(q: RelExpr) -> list:
    """The base column, as (table, column), of every join key the query's bound reads.

    One per key of each join of the compiled plan, in plan order. Joins
    under a nested plain count are not read (its stability is 1).

    Raises:
        UnsupportedQuery: the root is not a count, or a join key lacks a
            max-frequency bound.
    """
    return [key[:2] for step in _compiled(counted_relation(q))[0] for key in step.keys]


def mf_at_distance(attr: AttrRef, r: RelExpr, k: int, m: MetricsStore) -> int:
    """Upper-bound the max frequency of ``attr`` in ``r`` at distance k.

    Args:
        attr: an attribute visible in ``r``.
        r: the relation (any node of a query tree).
        k: how many tuple replacements away from the actual database.
        m: recorded metrics.

    Raises:
        UnsupportedQuery: the attribute passes through an aggregation and so
            has no metric-derived bound, or a join in ``r`` has such a key.
    """
    _check_distance(k)
    plan, columns, up = _compiled(r)
    key = _key(attr, columns[attribute_index(attr, r)], up)
    numbers = _Exact(k)
    return _key_mf(key, _evaluate(plan, numbers, m)[1], numbers, m)


def elastic_sensitivity(q: RelExpr, k: int, m: MetricsStore) -> int:
    """Sensitivity bound of a counting query at distance k.

    For a plain count the result can move by at most the stability of the
    counted relation. For a grouped count (histogram output, L1 distance)
    the bound doubles: a changed row can decrement one bin and increment
    another.

    Raises:
        UnsupportedQuery: the root is not a count, or a join key lacks a
            max-frequency bound.
    """
    _check_distance(k)
    return _sensitivity(q, m, _Exact(k))


def sensitivity_log_profile(q: RelExpr, ks, m: MetricsStore) -> list:
    """ln of the query's sensitivity bound at every float distance in ``ks``, as a list.

    It matches ln(elastic_sensitivity) up to float round-off, and is -inf
    where the bound is 0 (all-public queries).
    """
    return [_sensitivity(q, m, _Log(k)) for k in ks]


def sensitivity_polynomials(q: RelExpr, m: MetricsStore) -> tuple:
    """The query's sensitivity bound as exact polynomials in the distance k.

    Returns coefficient tuples, lowest degree first, whose largest value at
    each integer k >= 0 is elastic_sensitivity(q, k, m); none is bounded by
    another coefficient by coefficient, and of more than 8 only those
    largest at some k are kept. Every coefficient is a non-negative integer,
    so for d the largest degree each grows by at most (1 + 1/k)**d a step:
    ``smooth_bound`` reads its horizon, ceil(d/beta), off d. The zero
    polynomial is ().
    """
    return _sensitivity(q, m, _Poly)


def join_count(q: RelExpr) -> int:
    """Number of join nodes anywhere in the query."""
    return sum(1 for _ in join_nodes(q))
