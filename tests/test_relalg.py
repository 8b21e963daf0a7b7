"""Algebra nodes, scopes, and name resolution."""

import pytest

from flexdp import (
    Aliased,
    AttrRef,
    BaseColumn,
    Catalog,
    Count,
    CountGrouped,
    Join,
    Project,
    Select,
    Table,
    UnresolvedAttribute,
    UnsupportedQuery,
    ancestors,
    attribute_index,
    is_self_join,
    join_nodes,
    root_count,
    scope_of,
    unwrap_root,
)

EDGES = Table("edges", "e1", ("source", "dest"))
EDGES2 = Table("edges", "e2", ("source", "dest"))
USERS = Table("users", "u", ("id", "dept"))


def _join(left, right, kl, kr):
    return Join(left, right, AttrRef.parse(kl), AttrRef.parse(kr))


def test_attr_ref_parse():
    assert AttrRef.parse("e1.dest") == AttrRef("e1", "dest")
    assert AttrRef.parse("dest") == AttrRef(None, "dest")
    assert str(AttrRef("e1", "dest")) == "e1.dest"
    assert str(AttrRef(None, "dest")) == "dest"


def test_catalog_rejects_bad_columns():
    with pytest.raises(ValueError):
        Catalog(columns={"t": ()})
    with pytest.raises(ValueError):
        Catalog(columns={"t": ("a", "a")})


def test_table_scope_carries_alias_and_provenance():
    scope = scope_of(EDGES)
    assert [(e.qualifier, e.name) for e in scope] == [("e1", "source"), ("e1", "dest")]
    assert scope[0].provenance == BaseColumn("edges", "source")


def test_join_scope_concatenates():
    j = _join(EDGES, EDGES2, "e1.dest", "e2.source")
    names = [(e.qualifier, e.name) for e in scope_of(j)]
    assert names == [
        ("e1", "source"),
        ("e1", "dest"),
        ("e2", "source"),
        ("e2", "dest"),
    ]


def test_project_narrows_scope():
    p = Project((AttrRef("e1", "dest"),), EDGES)
    scope = scope_of(p)
    assert len(scope) == 1
    assert scope[0].provenance == BaseColumn("edges", "dest")


def test_aliased_requalifies():
    a = Aliased(USERS, "v")
    scope = scope_of(a)
    assert [(e.qualifier, e.name) for e in scope] == [("v", "id"), ("v", "dept")]
    # provenance still points at the base column
    assert scope[0].provenance == BaseColumn("users", "id")


def test_count_scope_is_single_derived_column():
    c = Count(USERS, label="n")
    scope = scope_of(c)
    assert [(e.qualifier, e.name) for e in scope] == [(None, "n")]
    assert scope[0].provenance is None


def test_grouped_scope_keeps_keys_and_derives_count():
    g = CountGrouped((AttrRef("u", "dept"),), USERS)
    scope = scope_of(g)
    assert [(e.qualifier, e.name) for e in scope] == [("u", "dept"), (None, "count")]
    # columns coming out of an aggregation carry no frequency metric, so
    # even the grouping key has no provenance (it cannot be a join key)
    assert scope[0].provenance is None
    assert scope[1].provenance is None


def test_resolution_qualified_and_bare():
    j = _join(EDGES, USERS, "e1.dest", "u.id")
    assert attribute_index(AttrRef("u", "id"), j) == 2
    # bare name that is unique across the scope resolves
    assert attribute_index(AttrRef(None, "dept"), j) == 3
    assert scope_of(j)[3].provenance == BaseColumn("users", "dept")
    assert attribute_index(AttrRef("e1", "source"), j) == 0
    with pytest.raises(UnresolvedAttribute):
        attribute_index(AttrRef("e9", "source"), j)
    # across a join's two inputs, a right-side name sits past the left scope
    split = len(scope_of(EDGES))
    assert attribute_index(AttrRef(None, "dept"), EDGES, USERS) == split + 1
    assert attribute_index(AttrRef("u", "id"), EDGES, USERS) >= split
    assert attribute_index(AttrRef(None, "dest"), EDGES, USERS) == 1


def test_resolution_failures():
    j = _join(EDGES, EDGES2, "e1.dest", "e2.source")
    with pytest.raises(UnresolvedAttribute, match="ambiguous"):
        attribute_index(AttrRef(None, "source"), j)
    with pytest.raises(UnresolvedAttribute):
        attribute_index(AttrRef("e1", "weight"), j)
    with pytest.raises(UnresolvedAttribute):
        attribute_index(AttrRef("zz", "source"), j)
    # a bare name found on both inputs is ambiguous, though each side has it once
    assert attribute_index(AttrRef(None, "source"), EDGES) == 0
    with pytest.raises(UnresolvedAttribute, match="ambiguous"):
        attribute_index(AttrRef(None, "source"), EDGES, EDGES2)
    with pytest.raises(UnresolvedAttribute, match="no attribute"):
        attribute_index(AttrRef("zz", "source"), EDGES, EDGES2)


def test_ancestors_and_self_join():
    plain = _join(EDGES, USERS, "e1.dest", "u.id")
    assert ancestors(plain) == frozenset({"edges", "users"})
    assert not is_self_join(plain)

    selfy = _join(EDGES, EDGES2, "e1.dest", "e2.source")
    assert is_self_join(selfy)

    # aliasing a subtree does not hide shared ancestry
    wrapped = _join(Aliased(EDGES, "w"), EDGES2, "w.dest", "e2.source")
    assert is_self_join(wrapped)


def test_join_nodes_walks_whole_tree():
    inner = _join(EDGES, EDGES2, "e1.dest", "e2.source")
    outer = Join(
        inner,
        Table("edges", "e3", ("source", "dest")),
        AttrRef("e2", "dest"),
        AttrRef("e3", "source"),
    )
    q = Count(Select((), outer))
    assert len(list(join_nodes(q))) == 2


def test_unwrap_and_root_count():
    c = Count(USERS, label="n")
    q = Project((AttrRef(None, "n"),), Aliased(c, "sub"))
    assert unwrap_root(q) is c
    assert root_count(q) is c
    with pytest.raises(UnsupportedQuery, match="count"):
        root_count(Project((AttrRef("u", "id"),), USERS))


def test_scope_entries_align_with_row_width():
    # every relational node's scope length equals its row arity
    g = CountGrouped((AttrRef("u", "dept"),), USERS)
    for node, width in [(USERS, 2), (Count(USERS), 1), (g, 2)]:
        assert len(scope_of(node)) == width
