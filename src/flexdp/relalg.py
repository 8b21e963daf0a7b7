"""Relational algebra core for counting queries.

The sensitivity analysis operates on a small relational algebra rather than
on SQL text: base tables, equijoins (with optional residual filters),
projection, selection, and counting (plain or grouped). A query is a tree of
the node types defined here; the SQL front end in ``flexdp.parser`` produces
these trees.

Example::

    t = Table("edges", "e1", ("source", "dest"))
    q = Count(t)
    ancestors(q)            # frozenset({'edges'})

Attribute references are kept as written in the query (optional qualifier
plus column name). ``scope_of`` computes the attributes visible at each node
together with their provenance. A reference resolves through a name index,
``_Names``, that maps a bare name and a (qualifier, name) pair to a scope
position in O(1) and grows by one scope at a time. The parser grows one
index with each JOIN of a FROM clause, and the sensitivity compiler one with
each join it walks, so neither rebuilds an input's names at each join.
``attribute_index`` resolves a reference in one node's scope, through an
index kept on the node, or in the concatenated scopes of several relations;
the entry at that position carries the base-table column the reference
names, or ``None`` when the value passes through an aggregation.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

from .errors import UnresolvedAttribute, UnsupportedQuery


@dataclass(frozen=True)
class AttrRef:
    """An attribute reference as written in a query, e.g. ``e1.dest`` or ``city``."""

    qualifier: Optional[str]
    name: str

    @classmethod
    def parse(cls, text: str) -> "AttrRef":
        if "." in text:
            qualifier, name = text.split(".", 1)
            return cls(qualifier, name)
        return cls(None, text)

    def __str__(self) -> str:
        if self.qualifier:
            return "%s.%s" % (self.qualifier, self.name)
        return self.name


@dataclass(frozen=True)
class BaseColumn:
    """Provenance of an attribute that traces to a base-table column."""

    table: str
    column: str

    def __str__(self) -> str:
        return "%s.%s" % (self.table, self.column)


@dataclass(frozen=True)
class Comparison:
    """A single comparison ``left op right``; ``right`` may be a literal."""

    left: AttrRef
    op: str  # one of = != < <= > >=
    right: Union[AttrRef, int, str]

    def __str__(self) -> str:
        right = self.right if isinstance(self.right, AttrRef) else repr(self.right)
        return "%s %s %s" % (self.left, self.op, right)


class _Node:
    """Common base of the relational node classes.

    A node's scope, name index, ancestor set and sensitivity plan are each
    computed at most once and kept on the node, so they are freed with the
    tree. They are not dataclass fields: node equality and hashing ignore
    them.
    """

    @functools.cached_property
    def _scope(self) -> tuple:
        return _compute_scope(self)

    @functools.cached_property
    def _names(self) -> "_Names":
        return _Names(self._scope)

    @functools.cached_property
    def _ancestors(self) -> frozenset:
        return _compute_ancestors(self)

    @functools.cached_property
    def _plan(self) -> tuple:
        from .sensitivity import _compile  # deferred: sensitivity imports this module

        return _compile(self)


def _check_node(r):
    if not isinstance(r, _Node):
        raise TypeError("not a relational expression: %r" % (r,))


@dataclass(frozen=True)
class Table(_Node):
    """A base-table reference.

    ``name`` is the stored table (used for self-join detection); ``alias`` is
    the qualifier attribute references use, which defaults to the name. The
    column tuple is copied out of the catalog so trees are self-contained.
    """

    name: str
    alias: str
    columns: tuple

    def __str__(self) -> str:
        if self.alias != self.name:
            return "%s AS %s" % (self.name, self.alias)
        return self.name


@dataclass(frozen=True)
class Join(_Node):
    """An equijoin on ``key_left = key_right`` with an optional residual filter.

    The residual holds every conjunct of the original join condition other
    than the chosen equijoin term; it is applied to the joined rows and, like
    an ordinary selection, never increases stability.
    """

    left: "RelExpr"
    right: "RelExpr"
    key_left: AttrRef
    key_right: AttrRef
    residual: tuple = ()


@dataclass(frozen=True)
class Project(_Node):
    """Projection onto a subset of the input's attributes (no renaming)."""

    attrs: tuple
    input: "RelExpr"


@dataclass(frozen=True)
class Select(_Node):
    """Selection by a conjunction of comparisons."""

    predicate: tuple
    input: "RelExpr"


@dataclass(frozen=True)
class Aliased(_Node):
    """A named subquery reference: the input's attributes requalified under one alias.

    Structurally this is a projection that renames qualifiers, so every
    analysis treats it as a pass-through.
    """

    input: "RelExpr"
    alias: str


@dataclass(frozen=True)
class Count(_Node):
    """A plain count of the input's rows. Output is one attribute, ``label``."""

    input: "RelExpr"
    label: str = "count"


@dataclass(frozen=True)
class CountGrouped(_Node):
    """A grouped count: one output row per distinct grouping-key value."""

    group_attrs: tuple
    input: "RelExpr"
    label: str = "count"


RelExpr = Union[Table, Join, Project, Select, Aliased, Count, CountGrouped]


@dataclass(frozen=True)
class Catalog:
    """Schema information the parser validates queries against.

    Fields:
        columns: mapping from table name to its tuple of column names.
    """

    columns: dict

    def __post_init__(self):
        for table, cols in self.columns.items():
            if not cols:
                raise ValueError("table %r has no columns" % table)
            if len(set(cols)) != len(cols):
                raise ValueError("table %r repeats a column name" % table)


class ScopeEntry(NamedTuple):
    """One attribute visible at a node: qualifier, name, and provenance."""

    qualifier: Optional[str]
    name: str
    provenance: Optional[BaseColumn]


def scope_of(r: RelExpr) -> tuple:
    """Return the attributes visible at ``r`` in evaluation (column) order.

    The order matches the tuple layout the evaluator produces for the node:
    a join exposes its left input's attributes followed by the right's, a
    projection the selected subset, and so on. Aggregations expose their
    grouping keys (with no provenance) and the count attribute.
    """
    _check_node(r)
    return r._scope


def _compute_scope(r: RelExpr) -> tuple:
    if isinstance(r, Table):
        return tuple(
            ScopeEntry(r.alias, col, BaseColumn(r.name, col)) for col in r.columns
        )
    if isinstance(r, Join):
        # the scopes under r's joins, left to right; no inner join's scope is
        # built, so a chain of any depth costs O(its width)
        parts, stack = [], [r]
        while stack:
            r = stack.pop()
            if isinstance(r, Join):
                stack += (r.right, r.left)
            else:
                parts.append(scope_of(r))
        return tuple(itertools.chain.from_iterable(parts))
    if isinstance(r, Project):
        inner = scope_of(r.input)
        return tuple(inner[attribute_index(attr, r.input)] for attr in r.attrs)
    if isinstance(r, Select):
        return scope_of(r.input)
    if isinstance(r, Aliased):
        return tuple(
            ScopeEntry(r.alias, entry.name, entry.provenance)
            for entry in scope_of(r.input)
        )
    if isinstance(r, Count):
        return (ScopeEntry(None, r.label, None),)
    if isinstance(r, CountGrouped):
        inner = scope_of(r.input)
        keys = tuple(
            ScopeEntry(e.qualifier, e.name, None)
            for e in (inner[attribute_index(attr, r.input)] for attr in r.group_attrs)
        )
        return keys + (ScopeEntry(None, r.label, None),)


_AMBIGUOUS = -1  # the position of a name that more than one entry has


class _Names:
    """A name index over a scope that grows one scope at a time.

    ``entries`` is the scope so far. The index maps each bare name and each
    (qualifier, name) pair to the position of the one entry that has it,
    or to _AMBIGUOUS. ``add`` appends a scope in O(its entries) and
    ``index`` resolves a reference in O(1).
    """

    __slots__ = ("entries", "_positions")

    def __init__(self, entries=()):
        self.entries = []
        self._positions = {}
        self.add(entries)

    def add(self, entries):
        """Append the scope ``entries`` (a sequence of ScopeEntry)."""
        positions = self._positions
        for i, entry in enumerate(entries, len(self.entries)):
            for key in (entry.name, (entry.qualifier, entry.name)):
                positions[key] = _AMBIGUOUS if key in positions else i
        self.entries += entries

    def index(self, attr: AttrRef) -> int:
        """Position of the unique entry ``attr`` names, or raise UnresolvedAttribute."""
        name, qualifier = attr.name, attr.qualifier
        found = self._positions.get(name if qualifier is None else (qualifier, name))
        if found is None:
            raise UnresolvedAttribute("no attribute %s in scope" % attr)
        if found == _AMBIGUOUS:
            raise UnresolvedAttribute("ambiguous attribute %s" % attr)
        return found


def attribute_index(attr: AttrRef, *relations: RelExpr) -> int:
    """Return the position of ``attr`` in the concatenated scopes of ``relations``.

    With one relation this is the column ``attr`` names in its output tuples,
    resolved through the name index kept on the node. With a join's two
    inputs a bare name must be unique across both sides, and a position at
    or past ``len(scope_of(left))`` is on the right. The entry at that
    position of the concatenated scope carries the provenance.

    Raises:
        UnresolvedAttribute: no attribute, or more than one, matches ``attr``.
    """
    if len(relations) == 1:
        _check_node(relations[0])
        return relations[0]._names.index(attr)
    names = _Names()
    for r in relations:
        names.add(scope_of(r))
    return names.index(attr)


def ancestors(r: RelExpr) -> frozenset:
    """The set of base tables ``r`` reads from.

    Two join operands that share an ancestor constitute a self join, which
    the stability analysis must treat more conservatively than a join of
    unrelated relations.
    """
    _check_node(r)
    return r._ancestors


def _compute_ancestors(r: RelExpr) -> frozenset:
    # a walk with an explicit stack: no inner node's set is built, so a
    # tree of any depth costs O(its nodes)
    tables, stack = set(), [r]
    while stack:
        r = stack.pop()
        if isinstance(r, Table):
            tables.add(r.name)
        elif isinstance(r, Join):
            stack += (r.left, r.right)
        else:  # every other node has one input
            stack.append(r.input)
    return frozenset(tables)


def is_self_join(j: Join) -> bool:
    """True when the join's operands share at least one base table."""
    return bool(ancestors(j.left) & ancestors(j.right))


def join_nodes(r: RelExpr):
    """Every Join node in ``r``, as an iterator in post-order.

    A join comes after the joins of its left input, then those of its right
    input. The walk keeps an explicit stack, so it costs O(nodes) however
    deep the tree: it collects the joins root, right, left and returns them
    reversed.
    """
    joins, stack = [], [r]
    while stack:
        r = stack.pop()
        if isinstance(r, Join):
            joins.append(r)
            stack += (r.left, r.right)
        elif not isinstance(r, Table):  # every other node has one input
            stack.append(r.input)
    return reversed(joins)


def unwrap_root(q: RelExpr) -> RelExpr:
    """Strip projection and alias wrappers from the query root.

    A counting query may surface as a bare projection of a subquery's count
    attribute; the count node underneath is then the effective root.
    """
    while isinstance(q, (Project, Aliased)):
        q = q.input
    return q


def root_count(q: RelExpr) -> RelExpr:
    """Return the root Count/CountGrouped node, or raise UnsupportedQuery."""
    root = unwrap_root(q)
    if not isinstance(root, (Count, CountGrouped)):
        raise UnsupportedQuery(
            "outermost operation is not a count; only counting queries are supported"
        )
    return root
