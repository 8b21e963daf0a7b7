"""SQL front end: a small counting-query subset parsed into relational algebra.

Supported shape::

    [WITH name AS ( <subquery> ), ...]
    SELECT [group_cols,] COUNT(*) [AS label]
    FROM table [alias] [JOIN table [alias] ON <conjunction>]*
    [WHERE <conjunction>]
    [GROUP BY group_cols]

WITH-subqueries may themselves be counting queries or plain
selections/projections of base tables. Join conditions are conjunctions of
comparisons; the first equality whose two sides are base-table columns of the
two join inputs becomes the equijoin key, and every other conjunct is kept as
a residual filter on the joined rows. Queries the analysis cannot bound are
rejected with UnsupportedQuery: join conditions with no usable equijoin term,
join keys produced by an aggregation, outer joins, disjunctive join
conditions, and outermost operations that are not counts.

COUNT(col) is treated identically to COUNT(*): the analysis bounds how much
the row count can change, which is unaffected by which column is named.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from .errors import (
    ParseError,
    UnknownColumn,
    UnknownTable,
    UnresolvedAttribute,
    UnsupportedQuery,
)
from .relalg import (
    Aliased,
    AttrRef,
    Catalog,
    Comparison,
    Count,
    CountGrouped,
    Join,
    Project,
    RelExpr,
    Select,
    Table,
    attribute_index,
    root_count,
    scope_of,
)

_TOKEN_RE = re.compile(
    r"""\s*(?:
      (?P<comment>--[^\n]*)
    | (?P<number>-?\d+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<string>'[^']*'|"[^"]*")
    | (?P<op><=|>=|<>|!=|=|<|>)
    | (?P<punc>[(),.;*])
    )""",
    re.VERBOSE,
)

_KEYWORDS = {
    "SELECT", "FROM", "JOIN", "INNER", "LEFT", "RIGHT", "FULL", "OUTER",
    "CROSS", "ON", "WHERE", "AND", "OR", "GROUP", "BY", "AS", "WITH",
}

_FLIPPED = {"=": "=", "!=": "!=", "<": ">", ">": "<", "<=": ">=", ">=": "<="}


def _tokenize(text: str) -> List[Tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ParseError("unexpected character %r" % rest[0])
        pos = m.end()
        kind = m.lastgroup
        if kind == "comment":
            continue
        value = m.group()
        tokens.append((kind, value.strip()))
    tokens.append(("eof", ""))
    return tokens


class _Parser:
    def __init__(self, text: str, catalog: Catalog):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.catalog = catalog
        self.ctes = {}

    # token plumbing

    def _peek(self) -> Tuple[str, str]:
        return self.tokens[self.pos]

    def _at_keyword(self, word: str) -> bool:
        kind, value = self._peek()
        return kind == "ident" and value.upper() == word

    def _accept_keyword(self, word: str) -> bool:
        if self._at_keyword(word):
            self.pos += 1
            return True
        return False

    def _expect_keyword(self, word: str):
        if not self._accept_keyword(word):
            raise ParseError("expected %s, found %r" % (word, self._peek()[1]))

    def _accept_punc(self, value: str) -> bool:
        kind, tok = self._peek()
        if kind == "punc" and tok == value:
            self.pos += 1
            return True
        return False

    def _expect_punc(self, value: str):
        if not self._accept_punc(value):
            raise ParseError("expected %r, found %r" % (value, self._peek()[1]))

    def _identifier(self, what: str) -> str:
        kind, value = self._peek()
        if kind != "ident" or value.upper() in _KEYWORDS:
            raise ParseError("expected %s, found %r" % (what, value))
        self.pos += 1
        return value

    # grammar

    def parse(self) -> RelExpr:
        if self._accept_keyword("WITH"):
            while True:
                name = self._identifier("subquery name")
                if name in self.ctes:
                    raise ParseError("duplicate subquery name %r" % name)
                self._expect_keyword("AS")
                self._expect_punc("(")
                self.ctes[name] = self._select_statement()
                self._expect_punc(")")
                if not self._accept_punc(","):
                    break
        query = self._select_statement()
        self._accept_punc(";")
        if self._peek()[0] != "eof":
            raise ParseError("trailing input after query: %r" % self._peek()[1])
        root_count(query)
        return query

    def _select_statement(self) -> RelExpr:
        self._expect_keyword("SELECT")
        items = self._select_list()
        self._expect_keyword("FROM")
        rel = self._from_clause()
        if self._accept_keyword("WHERE"):
            predicate = self._conjunction(rel)
            rel = Select(tuple(predicate), rel)
        group_attrs = None
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            group_attrs = [self._attribute()]
            while self._accept_punc(","):
                group_attrs.append(self._attribute())
            for attr in group_attrs:
                self._resolve(attr, rel)
        return self._assemble(items, rel, group_attrs)

    def _select_list(self):
        items = [self._select_item()]
        while self._accept_punc(","):
            items.append(self._select_item())
        return items

    def _select_item(self):
        kind, value = self._peek()
        if kind == "punc" and value == "*":
            raise ParseError("SELECT * is not supported; name columns or use COUNT(*)")
        if kind == "ident" and value.upper() == "COUNT" and self.tokens[self.pos + 1] == ("punc", "("):
            self.pos += 2
            if self._accept_punc("*"):
                arg = None
            else:
                if self._at_keyword("DISTINCT"):
                    raise ParseError("COUNT(DISTINCT ...) is not supported")
                arg = self._attribute()
            self._expect_punc(")")
            label = "count"
            if self._accept_keyword("AS"):
                label = self._identifier("count label")
            return ("count", arg, label)
        return ("attr", self._attribute())

    def _attribute(self) -> AttrRef:
        first = self._identifier("column name")
        if self._accept_punc("."):
            return AttrRef(first, self._identifier("column name"))
        return AttrRef(None, first)

    def _from_clause(self) -> RelExpr:
        rel = self._table_ref()
        while True:
            if self._accept_keyword("INNER"):
                self._expect_keyword("JOIN")
            elif self._at_keyword("JOIN"):
                self.pos += 1
            elif self._at_keyword("LEFT") or self._at_keyword("RIGHT") or self._at_keyword("FULL"):
                raise UnsupportedQuery("outer joins are not supported")
            elif self._at_keyword("CROSS"):
                raise UnsupportedQuery("cross joins are not supported; use an equijoin")
            elif self._accept_punc(","):
                raise ParseError("comma joins are not supported; use JOIN ... ON")
            else:
                break
            right = self._table_ref()
            self._check_distinct_aliases(rel, right)
            self._expect_keyword("ON")
            condition = self._conjunction(rel, right)
            rel = self._make_join(rel, right, condition)
        return rel

    def _table_ref(self) -> RelExpr:
        name = self._identifier("table name")
        alias = None
        if self._accept_keyword("AS"):
            alias = self._identifier("table alias")
        else:
            kind, value = self._peek()
            if kind == "ident" and value.upper() not in _KEYWORDS:
                self.pos += 1
                alias = value
        if name in self.ctes:
            return Aliased(self.ctes[name], alias or name)
        if name not in self.catalog.columns:
            raise UnknownTable("unknown table %r" % name)
        return Table(name, alias or name, tuple(self.catalog.columns[name]))

    @staticmethod
    def _qualifiers(rel: RelExpr):
        return {entry.qualifier for entry in scope_of(rel)}

    def _check_distinct_aliases(self, left: RelExpr, right: RelExpr):
        shared = self._qualifiers(left) & self._qualifiers(right)
        if shared:
            raise ParseError(
                "duplicate table alias %r; give each join input a distinct alias"
                % sorted(q or "" for q in shared)[0]
            )

    def _conjunction(self, *rels: RelExpr):
        """Parse comparisons joined by AND; two relations make it a join condition."""
        comparisons = [self._comparison(rels)]
        while True:
            if self._accept_keyword("AND"):
                comparisons.append(self._comparison(rels))
            elif self._at_keyword("OR"):
                if len(rels) == 2:
                    raise UnsupportedQuery(
                        "disjunction (OR) in a join condition is not supported"
                    )
                raise ParseError("OR is not supported; predicates are conjunctions")
            else:
                return comparisons

    def _operand(self):
        kind, value = self._peek()
        if kind == "number":
            self.pos += 1
            return int(value)
        if kind == "string":
            self.pos += 1
            return value[1:-1]
        return self._attribute()

    def _comparison(self, rels) -> Comparison:
        left = self._operand()
        kind, op = self._peek()
        if kind != "op":
            raise ParseError("expected comparison operator, found %r" % op)
        self.pos += 1
        if op == "<>":
            op = "!="
        right = self._operand()
        if not isinstance(left, AttrRef) and not isinstance(right, AttrRef):
            raise ParseError("comparison of two literals")
        if not isinstance(left, AttrRef):
            left, op, right = right, _FLIPPED[op], left
        comparison = Comparison(left, op, right)
        # every referenced attribute must resolve uniquely across the whole
        # scope; a bare name visible on both sides of a join is ambiguous
        for attr in (comparison.left, comparison.right):
            if isinstance(attr, AttrRef):
                self._resolve(attr, *rels)
        return comparison

    @staticmethod
    def _resolve(attr: AttrRef, *rels: RelExpr) -> int:
        """``attribute_index``, with an unknown or ambiguous name as UnknownColumn."""
        try:
            return attribute_index(attr, *rels)
        except UnresolvedAttribute as exc:
            raise UnknownColumn(str(exc)) from None

    def _make_join(self, left: RelExpr, right: RelExpr, condition) -> Join:
        scope = scope_of(left) + scope_of(right)
        split = len(scope_of(left))
        key = None
        derived_key = None
        residual = []
        for comparison in condition:
            if key is None and comparison.op == "=" and isinstance(comparison.right, AttrRef):
                # order the two ends by position alone (AttrRef has no ordering,
                # and a.x = a.x gives equal positions); a key has one end per side
                pair = (comparison.left, comparison.right)
                ends = sorted(
                    ((attribute_index(a, left, right), a) for a in pair), key=lambda e: e[0]
                )
                (i, kl), (j, kr) = ends
                if i < split <= j:
                    derived = [a for n, a in ends if scope[n].provenance is None]
                    if not derived:
                        key = (kl, kr)
                        continue
                    derived_key = derived_key or derived[0]
            residual.append(comparison)
        if key is None:
            if derived_key is not None:
                raise UnsupportedQuery(
                    "join key %s is produced by an aggregation; join keys must be "
                    "base-table columns" % derived_key
                )
            raise UnsupportedQuery(
                "join condition has no equijoin term between the two inputs: %s"
                % " AND ".join(str(c) for c in condition)
            )
        return Join(left, right, key[0], key[1], tuple(residual))

    def _assemble(self, items, rel, group_attrs) -> RelExpr:
        count_items = [item for item in items if item[0] == "count"]
        plain_attrs = [item[1] for item in items if item[0] == "attr"]
        if len(count_items) > 1:
            raise ParseError("at most one COUNT expression is supported")
        if count_items:
            _, arg, label = count_items[0]
            if arg is not None:
                self._resolve(arg, rel)
            if group_attrs is None:
                if plain_attrs:
                    raise ParseError(
                        "non-aggregated column %s requires GROUP BY" % plain_attrs[0]
                    )
                return Count(rel, label)
            grouped = {self._resolve(g, rel) for g in group_attrs}
            for attr in plain_attrs:
                if self._resolve(attr, rel) not in grouped:
                    raise ParseError(
                        "column %s is not in the GROUP BY list" % attr
                    )
            return CountGrouped(tuple(group_attrs), rel, label)
        if group_attrs is not None:
            raise ParseError("GROUP BY without a COUNT expression")
        for attr in plain_attrs:
            self._resolve(attr, rel)
        return Project(tuple(plain_attrs), rel)


def parse_query(text: str, catalog: Catalog) -> RelExpr:
    """Parse SQL text into a relational-algebra counting query.

    Args:
        text: the query, in the supported SQL subset.
        catalog: table and column names to validate references against.

    Returns:
        The root of the relational-algebra tree. The root is a Count or
        CountGrouped node, possibly under a projection of the count attribute.

    Raises:
        ParseError: the text is outside the supported grammar.
        UnknownTable/UnknownColumn: a reference is absent from the catalog.
        UnsupportedQuery: the query parses but cannot be analyzed (no usable
            equijoin term, aggregation-derived join key, outer join,
            disjunctive join condition, or a non-count root).
    """
    if not text or not text.strip():
        raise ParseError("empty query")
    return _Parser(text, catalog).parse()
