"""Algebra nodes, scopes, and name resolution."""

import random

import pytest

from flexdp import (
    Aliased,
    AttrRef,
    Catalog,
    Comparison,
    Count,
    CountGrouped,
    Join,
    MetricsStore,
    ParseError,
    PrivacyParams,
    Project,
    ReleaseResult,
    ScopeEntry,
    Select,
    SmoothBound,
    Table,
    UnknownColumn,
    UnresolvedAttribute,
    UnsupportedQuery,
    attribute_index,
    join_nodes,
    root_count,
    scope_of,
)
from flexdp.relalg import _Names
from flexdp.sensitivity import _compiled

EDGES = Table("edges", "e1", ("source", "dest"))
EDGES2 = Table("edges", "e2", ("source", "dest"))
USERS = Table("users", "u", ("id", "dept"))


def _join(left, right, kl, kr):  # keys written "qualifier.name"
    return Join(left, right, AttrRef(*kl.split(".")), AttrRef(*kr.split(".")))


def test_attr_ref_text():
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
    assert scope[0] == ScopeEntry("e1", "source", "edges")


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
    assert scope[0] == ScopeEntry("e1", "dest", "edges")


def test_aliased_requalifies():
    a = Aliased(USERS, "v")
    scope = scope_of(a)
    assert [(e.qualifier, e.name) for e in scope] == [("v", "id"), ("v", "dept")]
    # the entry still names the base table of its column
    assert scope[0] == ScopeEntry("v", "id", "users")


def test_count_scope_is_single_derived_column():
    c = Count(USERS, label="n")
    scope = scope_of(c)
    assert [(e.qualifier, e.name) for e in scope] == [(None, "n")]
    assert scope[0].table is None


def test_grouped_scope_keeps_keys_and_derives_count():
    g = CountGrouped((AttrRef("u", "dept"),), USERS)
    scope = scope_of(g)
    assert [(e.qualifier, e.name) for e in scope] == [("u", "dept"), (None, "count")]
    # columns coming out of an aggregation carry no frequency metric, so
    # even the grouping key has no base table (it cannot be a join key)
    assert scope[0].table is None
    assert scope[1].table is None


def test_resolution_qualified_and_bare():
    j = _join(EDGES, USERS, "e1.dest", "u.id")
    assert attribute_index(AttrRef("u", "id"), j) == 2
    # bare name that is unique across the scope resolves
    assert attribute_index(AttrRef(None, "dept"), j) == 3
    assert scope_of(j)[3] == ScopeEntry("u", "dept", "users")
    assert attribute_index(AttrRef("e1", "source"), j) == 0
    with pytest.raises(UnresolvedAttribute):
        attribute_index(AttrRef("e9", "source"), j)


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


def test_an_unresolved_reference_is_a_parse_error_with_its_message():
    # a hand-built tree's unresolved reference is refused as the parser refuses one
    q = Count(Select((Comparison(AttrRef("u", "age"), "<", 3),), USERS))
    for caught in (UnresolvedAttribute, UnknownColumn, ParseError):
        with pytest.raises(caught) as info:
            scope_of(q)
        assert type(info.value) is UnresolvedAttribute
        assert str(info.value) == "no attribute u.age in scope"
        assert (info.value.category, info.value.exit_code) == ("parse", 1)


def _scan(attr, scope):
    """Reference resolution: a linear scan of the whole scope."""
    found = [
        i for i, entry in enumerate(scope)
        if entry.name == attr.name and attr.qualifier in (None, entry.qualifier)
    ]
    if not found:
        raise UnresolvedAttribute("no attribute %s in scope" % attr)
    if len(found) > 1:
        raise UnresolvedAttribute("ambiguous attribute %s" % attr)
    return found[0]


def _outcome(resolve, attr):
    try:
        return resolve(attr)
    except UnresolvedAttribute as exc:
        return type(exc), str(exc)


def test_name_index_agrees_with_a_linear_scan():
    # small alphabets, so qualifiers are missing or repeated, bare and
    # qualified names repeat, and some references name nothing
    rng = random.Random(1706)
    qualifiers, names = (None, "a", "b", "c"), ("x", "y", "z")
    attrs = [AttrRef(q, n) for q in qualifiers + ("d",) for n in names + ("w",)]
    for _ in range(500):
        scope = [
            ScopeEntry(rng.choice(qualifiers), rng.choice(names), None)
            for _ in range(rng.randrange(9))
        ]
        whole = _Names(scope)
        assert whole.entries == scope
        # grown in random pieces, the index answers at every prefix it
        # passes as the scan of that prefix does, and ends equal to the whole
        grown, start = _Names(), 0
        while True:
            prefix = scope[:start]
            for attr in attrs:
                assert _outcome(grown.index, attr) == _outcome(lambda a: _scan(a, prefix), attr)
            if start == len(scope):
                break
            end = rng.randrange(start + 1, len(scope) + 1)
            grown.add(tuple(scope[start:end]))
            start = end
        assert grown.entries == whole.entries
        for attr in attrs:
            assert _outcome(whole.index, attr) == _outcome(lambda a: _scan(a, scope), attr)


def test_ancestors_and_self_join():
    def self_join(j):  # the flag of the join's step, the last of its plan
        return _compiled(j)[0][-1].self_join

    plain = _join(EDGES, USERS, "e1.dest", "u.id")
    assert not self_join(plain)

    selfy = _join(EDGES, EDGES2, "e1.dest", "e2.source")
    assert self_join(selfy)

    # aliasing a subtree does not hide shared ancestry
    wrapped = _join(Aliased(EDGES, "w"), EDGES2, "w.dest", "e2.source")
    assert self_join(wrapped)


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


def test_join_nodes_order_on_a_bushy_tree():
    # post-order through every wrapper kind: a join after its left input's
    # joins, then its right input's
    def t(alias):
        return Table("edges", alias, ("source", "dest"))

    j1 = _join(t("a"), t("b"), "a.dest", "b.source")
    j2 = _join(Select((), j1), t("c"), "b.dest", "c.source")
    j3 = _join(t("d"), Project((AttrRef("e", "source"),), t("e")), "d.dest", "e.source")
    grouped = Aliased(CountGrouped((AttrRef("d", "source"),), j3), "g")
    j4 = _join(j2, grouped, "c.dest", "g.source")
    j5 = _join(t("f"), t("h"), "f.dest", "h.source")
    j6 = _join(j5, Aliased(j4, "w"), "h.dest", "w.source")
    q = Count(Project((AttrRef("f", "source"),), j6))
    walked = list(join_nodes(q))
    expected = [j5, j1, j2, j3, j4, j6]
    assert len(walked) == len(expected)
    assert all(got is want for got, want in zip(walked, expected))
    assert list(join_nodes(t("a"))) == []


def test_join_nodes_walks_a_chain_deeper_than_the_recursion_limit():
    chain = t = Table("edges", "e0", ("source", "dest"))
    for i in range(1, 5001):
        t = Table("edges", "e%d" % i, ("source", "dest"))
        chain = _join(chain, t, "e%d.dest" % (i - 1), "e%d.source" % i)
    assert sum(1 for _ in join_nodes(Count(chain))) == 5000


def test_unwrap_and_root_count():
    c = Count(USERS, label="n")
    q = Project((AttrRef(None, "n"),), Aliased(c, "sub"))
    assert root_count(q) is c
    with pytest.raises(UnsupportedQuery, match="count"):
        root_count(Project((AttrRef("u", "id"),), USERS))


def test_scope_entries_align_with_row_width():
    # every relational node's scope length equals its row arity
    g = CountGrouped((AttrRef("u", "dept"),), USERS)
    for node, width in [(USERS, 2), (Count(USERS), 1), (g, 2)]:
        assert len(scope_of(node)) == width


def _triangle():
    inner = _join(EDGES, EDGES2, "e1.dest", "e2.source")
    e3 = Table("edges", "e3", ("source", "dest"))
    return Count(Join(inner, e3, AttrRef("e2", "dest"), AttrRef("e3", "source")))


def test_equality_and_hash_ignore_the_cached_resolution_and_plan():
    q, fresh = _triangle(), _triangle()
    before = hash(q)
    scope_of(q), scope_of(q.input), _compiled(q.input)
    assert {"_resolved", "_plan"} <= set(vars(q.input)) and "_entries" in vars(EDGES)
    assert not {"_resolved", "_plan"} & set(vars(fresh.input))
    assert q == fresh and hash(q) == hash(fresh) == before
    assert q != Count(fresh.input, label="n") and q.input != fresh


_FROZEN = [
    (AttrRef("e1", "dest"), ("qualifier", "name")),
    (Comparison(AttrRef(None, "a"), "<", 3), ("left", "op", "right")),
    (EDGES, ("name", "alias", "columns")),
    (_join(EDGES, EDGES2, "e1.dest", "e2.source"), ("left", "right", "key_left", "key_right")),
    (Project((AttrRef("e1", "dest"),), EDGES), ("attrs", "input")),
    (Select((), EDGES), ("predicate", "input")),
    (Aliased(USERS, "v"), ("input", "alias")),
    (Count(USERS), ("input", "label")),
    (CountGrouped((AttrRef("u", "dept"),), USERS), ("group_attrs", "input", "label")),
    (Catalog(columns={"t": ("a",)}), ("columns",)),
    (PrivacyParams(1.0, 1e-6), ("epsilon", "delta", "beta")),
    (SmoothBound(2.0, 1, 3, 4, 0.5), ("S", "k_star", "k_max", "values_scanned", "log_S")),
    (ReleaseResult(1.5, None, 2.0, 1, 4.0, 7), ("value", "bins", "S", "k_star", "noise_scale", "seed")),
    (MetricsStore(), ("mf", "public_tables", "row_counts")),
]


@pytest.mark.parametrize("record, fields", _FROZEN, ids=[type(r).__name__ for r, _ in _FROZEN])
def test_frozen_records_refuse_assignment(record, fields):
    # every field, in constructor order: the positional form rebuilds an equal record
    assert type(record)._fields == fields
    values = tuple(getattr(record, name) for name in fields)
    init = values[:2] if isinstance(record, PrivacyParams) else values  # beta is derived
    assert type(record)(*init) == record
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match="^cannot delete field %r$" % name):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in fields) == values
