"""Relational algebra core for counting queries.

The sensitivity analysis operates on a small relational algebra rather than
on SQL text: base tables, equijoins, projection, selection, and counting
(plain or grouped). A query is a tree of the node types defined here; the
SQL front end in ``flexdp.parser`` produces these trees.

Example::

    t = Table("edges", "e1", ("source", "dest"))
    q = Count(t)
    scope_of(q)             # (ScopeEntry(qualifier=None, name='count', table=None),)

Attribute references are kept as written in the query (optional qualifier
plus column name). ``resolve`` walks a tree once and turns every reference
under it into a position in a scope, through a name index, ``_Names``, that
answers in O(1) and grows by one scope at a time, so no input's names are
indexed twice. A node's resolution is kept on it: ``scope_of`` and
``attribute_index`` read it, and so do the evaluator (``flexdp.oracle``)
and the sensitivity compiler. The parser grows one index with each JOIN of
a FROM clause and records, in ``resolve``'s format, the resolution of the
trees it builds; the scope a node with one input passes up is written
once, in ``_above``, for both. No node renames a column, so the scope entry
at a position names the base table of its column, or ``None`` when the
value passes through an aggregation.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Optional, Union

from .errors import UnresolvedAttribute, UnsupportedQuery
from .records import Frozen


class AttrRef(Frozen):
    """An attribute reference as written in a query, e.g. ``e1.dest`` or ``city``."""

    _fields = ("qualifier", "name")

    def __init__(self, qualifier: Optional[str], name: str):
        d = self.__dict__
        d["qualifier"], d["name"] = qualifier, name

    def __str__(self) -> str:
        if self.qualifier:
            return "%s.%s" % (self.qualifier, self.name)
        return self.name


class Comparison(Frozen):
    """A single comparison ``left op right``; ``right`` may be a literal.

    ``op`` is one of = != < <= > >=.
    """

    _fields = ("left", "op", "right")

    def __init__(self, left: AttrRef, op: str, right: Union[AttrRef, int, str]):
        d = self.__dict__
        d["left"], d["op"], d["right"] = left, op, right

    def __str__(self) -> str:
        right = self.right if isinstance(self.right, AttrRef) else repr(self.right)
        return "%s %s %s" % (self.left, self.op, right)


class _Node(Frozen):
    """Common base of the relational node classes.

    A node's resolution (``resolve``) and sensitivity plan are each
    computed at most once and kept in the node's ``__dict__``: the parser
    stores the resolution of the nodes it builds as it reads them, and
    ``sensitivity._compiled`` stores the plan. Neither is among the node's
    ``_fields``: node equality and hashing ignore them. Neither holds a
    node, so reference counting alone frees an analysed or evaluated tree.
    """

    @functools.cached_property
    def _resolved(self) -> tuple:
        return resolve(self)


def _check_node(r):
    if not isinstance(r, _Node):
        raise TypeError("not a relational expression: %r" % (r,))


class Table(_Node):
    """A base-table reference.

    ``name`` is the stored table (used for self-join detection); ``alias`` is
    the qualifier attribute references use, which defaults to the name. The
    column tuple is copied out of the catalog so trees are self-contained.
    The table's scope entries are built with it and kept as ``_entries``,
    which is not a field.
    """

    _fields = ("name", "alias", "columns")

    def __init__(self, name: str, alias: str, columns: tuple):
        d = self.__dict__
        d["name"], d["alias"], d["columns"] = name, alias, columns
        d["_entries"] = tuple([ScopeEntry(alias, col, name) for col in columns])


class Join(_Node):
    """An equijoin on ``key_left = key_right``."""

    _fields = ("left", "right", "key_left", "key_right")

    def __init__(self, left: RelExpr, right: RelExpr, key_left: AttrRef, key_right: AttrRef):
        d = self.__dict__
        d["left"], d["right"], d["key_left"], d["key_right"] = left, right, key_left, key_right


class Project(_Node):
    """Projection onto a subset of the input's attributes (no renaming)."""

    _fields = ("attrs", "input")

    def __init__(self, attrs: tuple, input: RelExpr):
        d = self.__dict__
        d["attrs"], d["input"] = attrs, input


class Select(_Node):
    """Selection by a conjunction of comparisons."""

    _fields = ("predicate", "input")

    def __init__(self, predicate: tuple, input: RelExpr):
        d = self.__dict__
        d["predicate"], d["input"] = predicate, input


class Aliased(_Node):
    """A named subquery reference: the input's attributes requalified under one alias.

    Structurally this is a projection that renames qualifiers, so every
    analysis treats it as a pass-through.
    """

    _fields = ("input", "alias")

    def __init__(self, input: RelExpr, alias: str):
        d = self.__dict__
        d["input"], d["alias"] = input, alias


class Count(_Node):
    """A plain count of the input's rows. Output is one attribute, ``label``."""

    _fields = ("input", "label")

    def __init__(self, input: RelExpr, label: str = "count"):
        d = self.__dict__
        d["input"], d["label"] = input, label


class CountGrouped(_Node):
    """A grouped count: one output row per distinct grouping-key value."""

    _fields = ("group_attrs", "input", "label")

    def __init__(self, group_attrs: tuple, input: RelExpr, label: str = "count"):
        d = self.__dict__
        d["group_attrs"], d["input"], d["label"] = group_attrs, input, label


RelExpr = Union[Table, Join, Project, Select, Aliased, Count, CountGrouped]


class Catalog(Frozen):
    """Schema information the parser validates queries against.

    Fields:
        columns: mapping from table name to its tuple of column names.
    """

    _fields = ("columns",)

    def __init__(self, columns: dict):
        for table, cols in columns.items():
            if not cols:
                raise ValueError("table %r has no columns" % table)
            if len(set(cols)) != len(cols):
                raise ValueError("table %r repeats a column name" % table)
        self.__dict__["columns"] = columns


class ScopeEntry(NamedTuple):
    """One attribute visible at a node: qualifier, name, and its column's base table (None past an aggregation)."""

    qualifier: Optional[str]
    name: str
    table: Optional[str]


def scope_of(r: RelExpr) -> tuple:
    """Return the attributes visible at ``r`` in evaluation (column) order.

    The order matches the tuple layout the evaluator produces for the node:
    a join exposes its left input's attributes followed by the right's, a
    projection the selected subset, and so on. Aggregations expose their
    grouping keys (with no base table) and the count attribute. Building
    it resolves every reference under ``r`` (UnresolvedAttribute).
    """
    _check_node(r)
    return tuple(r._resolved[1].entries)


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
        for i, (qualifier, name, _) in enumerate(entries, len(self.entries)):
            positions[name] = _AMBIGUOUS if name in positions else i
            key = qualifier, name
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


def postorder(r: RelExpr) -> list:
    """The nodes of ``r`` in post-order: a join after its left input's nodes, then its right's.

    The walk keeps an explicit stack, so it costs O(nodes) at any depth.
    """
    nodes, stack = [], [r]
    while stack:
        r = stack.pop()
        nodes.append(r)
        if isinstance(r, Join):
            stack += (r.left, r.right)
        elif not isinstance(r, Table):  # every other node has one input
            _check_node(r)
            stack.append(r.input)
    return nodes[::-1]


def resolve(r: RelExpr):
    """Resolve every reference under ``r`` to a position, in one walk.

    Returns the positions of each node of ``postorder(r)``, in that order,
    and the name index of ``r``'s scope. A join's positions are its keys'
    in its left and right input, a selection's its predicate's
    (``_comparison_positions``), a projection's or grouped count's its
    attributes' in its input, and any other node's ``()``. A join grows its
    left input's index by the right's, so a chain's names are indexed once.
    The scope a node with one input passes up follows ``_above``, which the
    parser also follows as it records the resolution of the trees it builds.

    Raises:
        UnresolvedAttribute: a reference names no attribute, or more than one.
    """
    resolved, done = [], []  # done: the name index of each finished input
    for node in postorder(r):
        positions = ()
        if isinstance(node, Table):
            names = _Names(node._entries)
        elif isinstance(node, Join):
            right, names = done.pop(), done.pop()
            positions = (names.index(node.key_left), right.index(node.key_right))
            names.add(right.entries)
        else:
            names = done.pop()
            if isinstance(node, Select):
                positions = tuple([_comparison_positions(names, c) for c in node.predicate])
            elif isinstance(node, Project):
                positions = tuple(map(names.index, node.attrs))
            elif isinstance(node, CountGrouped):
                positions = tuple(map(names.index, node.group_attrs))
            names = _above(node, names, positions)
        resolved.append(positions)
        done.append(names)
    return resolved, done.pop()


def _comparison_positions(names: _Names, c: Comparison) -> tuple:
    """A comparison's positions in ``names``: its left side's, then its right side's or ``None`` for a literal."""
    return names.index(c.left), names.index(c.right) if isinstance(c.right, AttrRef) else None


def _above(node: RelExpr, names: _Names, positions: tuple) -> _Names:
    """The name index of ``node``, a node with one input, whose index is ``names``.

    A selection passes its input's index up. An alias requalifies its
    input's scope, a projection keeps what its ``positions`` name, and a
    grouped count keeps its keys, which lose their base table, and adds the
    count, which is a plain count's one attribute.
    """
    if isinstance(node, Select):
        return names
    if isinstance(node, Aliased):
        return _Names([e._replace(qualifier=node.alias) for e in names.entries])
    if isinstance(node, Count):
        return _Names((ScopeEntry(None, node.label, None),))
    used = [names.entries[i] for i in positions]
    if isinstance(node, Project):
        return _Names(used)
    return _Names([e._replace(table=None) for e in used] + [ScopeEntry(None, node.label, None)])


def attribute_index(attr: AttrRef, r: RelExpr) -> int:
    """Return the position of ``attr`` in ``r``'s scope, the column it names in ``r``'s rows.

    The entry at that position of ``scope_of(r)`` names its base table.

    Raises:
        UnresolvedAttribute: no attribute, or more than one, matches ``attr``.
    """
    _check_node(r)
    return r._resolved[1].index(attr)


def join_nodes(r: RelExpr):
    """Every Join node in ``r``, as an iterator in post-order.

    A join comes after the joins of its left input, then those of its right
    input, however deep the tree (``postorder``).
    """
    return (n for n in postorder(r) if isinstance(n, Join))


def root_count(q: RelExpr) -> RelExpr:
    """Return the root Count/CountGrouped node, or raise UnsupportedQuery.

    A counting query may surface as a bare projection of a subquery's count
    attribute; projection and alias wrappers are stripped to reach it.
    """
    while isinstance(q, (Project, Aliased)):
        q = q.input
    if not isinstance(q, (Count, CountGrouped)):
        raise UnsupportedQuery(
            "outermost operation is not a count; only counting queries are supported"
        )
    return q


def counted_relation(q: RelExpr) -> RelExpr:
    """The relation whose stability bounds ``q``'s sensitivity: a grouped count, or a plain count's input."""
    root = root_count(q)
    return root if isinstance(root, CountGrouped) else root.input
