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
together with their provenance. ``attribute_index`` resolves a reference to
its position in one scope, or in the concatenated scopes of a join's inputs;
the entry at that position carries the base-table column the reference
names, or ``None`` when the value passes through an aggregation.
"""

from __future__ import annotations

import functools
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

    A node's scope and ancestor set are each computed at most once and kept
    on the node, so they are freed with the tree. They are not dataclass
    fields: node equality and hashing ignore them.
    """

    @functools.cached_property
    def _scope(self) -> tuple:
        return _compute_scope(self)

    @functools.cached_property
    def _ancestors(self) -> frozenset:
        return _compute_ancestors(self)


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
        return scope_of(r.left) + scope_of(r.right)
    if isinstance(r, Project):
        inner = scope_of(r.input)
        return tuple(inner[_lookup(attr, inner)] for attr in r.attrs)
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
            for e in (inner[_lookup(attr, inner)] for attr in r.group_attrs)
        )
        return keys + (ScopeEntry(None, r.label, None),)


def _lookup(attr: AttrRef, scope: tuple) -> int:
    """Position of the unique scope entry ``attr`` names, or raise UnresolvedAttribute."""
    name, qualifier = attr.name, attr.qualifier
    found = None
    for i, entry in enumerate(scope):
        if entry.name == name and (qualifier is None or entry.qualifier == qualifier):
            if found is not None:
                raise UnresolvedAttribute("ambiguous attribute %s" % attr)
            found = i
    if found is None:
        raise UnresolvedAttribute("no attribute %s in scope" % attr)
    return found


def attribute_index(attr: AttrRef, *relations: RelExpr) -> int:
    """Return the position of ``attr`` in the concatenated scopes of ``relations``.

    With one relation this is the column ``attr`` names in its output tuples.
    With a join's two inputs a bare name must be unique across both sides,
    and a position at or past ``len(scope_of(left))`` is on the right. The
    entry at that position of the concatenated scope carries the provenance.

    Raises:
        UnresolvedAttribute: no attribute, or more than one, matches ``attr``.
    """
    scope: tuple = ()
    for r in relations:
        scope += scope_of(r)
    return _lookup(attr, scope)


def ancestors(r: RelExpr) -> frozenset:
    """The set of base tables ``r`` reads from.

    Two join operands that share an ancestor constitute a self join, which
    the stability analysis must treat more conservatively than a join of
    unrelated relations.
    """
    _check_node(r)
    return r._ancestors


def _compute_ancestors(r: RelExpr) -> frozenset:
    if isinstance(r, Table):
        return frozenset((r.name,))
    if isinstance(r, Join):
        return ancestors(r.left) | ancestors(r.right)
    return ancestors(r.input)


def is_self_join(j: Join) -> bool:
    """True when the join's operands share at least one base table."""
    return bool(ancestors(j.left) & ancestors(j.right))


def join_nodes(r: RelExpr):
    """Yield every Join node in ``r``, depth first."""
    if isinstance(r, Join):
        yield from join_nodes(r.left)
        yield from join_nodes(r.right)
        yield r
    elif isinstance(r, (Project, Select, Aliased, Count, CountGrouped)):
        yield from join_nodes(r.input)


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
