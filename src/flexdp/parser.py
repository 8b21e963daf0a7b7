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
two join inputs becomes the equijoin key, and every other conjunct becomes a
selection on the joined rows. A WHERE conjunction is a selection on the
FROM relation; when that is already the last join's selection, the two are
one ``Select``, the ON conjuncts first. Queries the analysis cannot bound are
rejected with UnsupportedQuery: join conditions with no usable equijoin term,
join keys produced by an aggregation, outer joins, disjunctive join
conditions, and outermost operations that are not counts.

COUNT(col) is treated identically to COUNT(*): the analysis bounds how much
the row count can change, which is unaffected by which column is named.

The text is read in one regular-expression scan into (kind, text, word)
tokens (``_tokenize``). A keyword or punctuation test compares the token's
word, an identifier's text upper-cased once, so keywords are matched in
any case, and a character that starts no token is refused.
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
    _Names,
    root_count,
    scope_of,
)

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"  # a name, unless it spells a keyword (``is_identifier``)

_TOKEN_RE = re.compile(
    r"""\s*(?:
      (?P<comment>--[^\n]*)
    | (?P<number>-?[0-9]+)
    | (?P<ident>""" + _IDENT + r""")
    | (?P<string>'[^']*'|"[^"]*")
    | (?P<op><=|>=|<>|!=|=|<|>)
    | (?P<punc>[(),.;*])
    | (?P<bad>\S)
    )""",
    re.VERBOSE,
)

_KEYWORDS = {
    "SELECT", "FROM", "JOIN", "INNER", "LEFT", "RIGHT", "FULL", "OUTER",
    "CROSS", "ON", "WHERE", "AND", "OR", "GROUP", "BY", "AS", "WITH",
}


def is_identifier(name: str) -> bool:
    """Whether the parser reads ``name`` as a table, alias or column name: an ident token, no keyword."""
    return re.fullmatch(_IDENT, name) is not None and name.upper() not in _KEYWORDS


_FLIPPED = {"=": "=", "!=": "!=", "<": ">", ">": "<", "<=": ">=", ">=": "<="}


def _tokenize(text: str) -> List[Tuple[str, str, str]]:
    """The tokens of ``text`` as (kind, text, word) triples, ending with ("eof", "", "").

    A token's word is its text upper-cased for an identifier, so that a
    keyword test compares one string, and its text otherwise: a number,
    string, operator or punctuation mark never spells a keyword, and a
    word never spells punctuation. One scan reads every token; its last
    alternative, one non-space character where no token starts, is refused.
    """
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        value = m[kind]
        if kind == "ident":
            tokens.append((kind, value, value.upper()))
        elif kind == "bad":
            raise ParseError("unexpected character %r" % value)
        elif kind != "comment":
            tokens.append((kind, value, value))
    tokens.append(("eof", "", ""))
    return tokens


class _Parser:
    def __init__(self, text: str, catalog: Catalog):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.catalog = catalog
        self.ctes = {}

    # token plumbing: a keyword or punctuation mark is a token's word (_tokenize)

    def _peek(self) -> Tuple[str, str, str]:
        return self.tokens[self.pos]

    def _at(self, word: str) -> bool:
        return self.tokens[self.pos][2] == word

    def _accept(self, word: str) -> bool:
        if self.tokens[self.pos][2] == word:
            self.pos += 1
            return True
        return False

    def _expect_keyword(self, word: str):
        if not self._accept(word):
            raise ParseError("expected %s, found %r" % (word, self._peek()[1]))

    def _expect_punc(self, value: str):
        if not self._accept(value):
            raise ParseError("expected %r, found %r" % (value, self._peek()[1]))

    def _identifier(self, what: str) -> str:
        kind, value, word = self.tokens[self.pos]
        if kind != "ident" or word in _KEYWORDS:
            raise ParseError("expected %s, found %r" % (what, value))
        self.pos += 1
        return value

    # grammar

    def parse(self) -> RelExpr:
        if self._accept("WITH"):
            while True:
                name = self._identifier("subquery name")
                if name in self.ctes:
                    raise ParseError("duplicate subquery name %r" % name)
                self._expect_keyword("AS")
                self._expect_punc("(")
                self.ctes[name] = self._select_statement()
                self._expect_punc(")")
                if not self._accept(","):
                    break
        query = self._select_statement()
        self._accept(";")
        if self._peek()[0] != "eof":
            raise ParseError("trailing input after query: %r" % self._peek()[1])
        root_count(query)
        return query

    def _select_statement(self) -> RelExpr:
        self._expect_keyword("SELECT")
        items = self._select_list()
        self._expect_keyword("FROM")
        rel, names = self._from_clause()
        if self._accept("WHERE"):
            predicate = tuple(self._conjunction(names))
            if isinstance(rel, Select):  # the last JOIN's other ON conjuncts: one selection
                rel = Select(rel.predicate + predicate, rel.input)
            else:
                rel = Select(predicate, rel)
        group_attrs = None
        if self._accept("GROUP"):
            self._expect_keyword("BY")
            group_attrs = [self._attribute()]
            while self._accept(","):
                group_attrs.append(self._attribute())
            for attr in group_attrs:
                self._resolve(attr, names)
        return self._assemble(items, rel, names, group_attrs)

    def _select_list(self):
        items = [self._select_item()]
        while self._accept(","):
            items.append(self._select_item())
        return items

    def _select_item(self):
        if self._at("*"):
            raise ParseError("SELECT * is not supported; name columns or use COUNT(*)")
        if self._at("COUNT") and self.tokens[self.pos + 1][2] == "(":
            self.pos += 2
            if self._accept("*"):
                arg = None
            else:
                if self._at("DISTINCT"):
                    raise ParseError("COUNT(DISTINCT ...) is not supported")
                arg = self._attribute()
            self._expect_punc(")")
            label = "count"
            if self._accept("AS"):
                label = self._identifier("count label")
            return ("count", arg, label)
        return ("attr", self._attribute())

    def _attribute(self) -> AttrRef:
        first = self._identifier("column name")
        if self._accept("."):
            return AttrRef(first, self._identifier("column name"))
        return AttrRef(None, first)

    def _from_clause(self):
        """The FROM relation and the name index of its scope, grown with each JOIN.

        Each JOIN adds its new input's names before its ON clause is
        parsed, so a condition sees the inputs joined so far, and the
        finished index is the whole relation's.
        """
        rel = self._table_ref()
        names = _Names(scope_of(rel))
        qualifiers = {entry.qualifier for entry in names.entries}  # kept as ``rel`` grows
        while True:
            if self._accept("INNER"):
                self._expect_keyword("JOIN")
            elif self._at("JOIN"):
                self.pos += 1
            elif self._at("LEFT") or self._at("RIGHT") or self._at("FULL"):
                raise UnsupportedQuery("outer joins are not supported")
            elif self._at("CROSS"):
                raise UnsupportedQuery("cross joins are not supported; use an equijoin")
            elif self._accept(","):
                raise ParseError("comma joins are not supported; use JOIN ... ON")
            else:
                break
            right = self._table_ref()
            added = scope_of(right)
            self._add_distinct_aliases(qualifiers, added)
            split = len(names.entries)
            names.add(added)
            self._expect_keyword("ON")
            condition = self._conjunction(names, join=True)
            rel = self._make_join(rel, right, condition, names, split)
        return rel, names

    def _table_ref(self) -> RelExpr:
        name = self._identifier("table name")
        alias = None
        if self._accept("AS"):
            alias = self._identifier("table alias")
        else:
            kind, value, word = self._peek()
            if kind == "ident" and word not in _KEYWORDS:
                self.pos += 1
                alias = value
        if name in self.ctes:
            return Aliased(self.ctes[name], alias or name)
        if name not in self.catalog.columns:
            raise UnknownTable("unknown table %r" % name)
        return Table(name, alias or name, tuple(self.catalog.columns[name]))

    @staticmethod
    def _add_distinct_aliases(qualifiers: set, entries: tuple):
        """Add the qualifiers of ``entries``, the right input's scope, to the left input's; refuse a shared one."""
        added = {entry.qualifier for entry in entries}
        shared = qualifiers & added
        if shared:
            raise ParseError(
                "duplicate table alias %r; give each join input a distinct alias"
                % sorted(q or "" for q in shared)[0]
            )
        qualifiers |= added

    def _conjunction(self, names: _Names, join: bool = False):
        """Parse comparisons joined by AND, each attribute resolved in ``names``."""
        comparisons = [self._comparison(names)]
        while True:
            if self._accept("AND"):
                comparisons.append(self._comparison(names))
            elif self._at("OR"):
                if join:
                    raise UnsupportedQuery(
                        "disjunction (OR) in a join condition is not supported"
                    )
                raise ParseError("OR is not supported; predicates are conjunctions")
            else:
                return comparisons

    def _operand(self):
        kind, value, _ = self._peek()
        if kind == "number":
            self.pos += 1
            try:
                return int(value)
            except ValueError as exc:  # more digits than Python converts
                raise ParseError("integer literal: %s" % exc) from None
        if kind == "string":
            self.pos += 1
            return value[1:-1]
        return self._attribute()

    def _comparison(self, names: _Names) -> Comparison:
        left = self._operand()
        kind, op, _ = self._peek()
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
                self._resolve(attr, names)
        return comparison

    @staticmethod
    def _resolve(attr: AttrRef, names: _Names) -> int:
        """``names.index``, with an unknown or ambiguous name as UnknownColumn."""
        try:
            return names.index(attr)
        except UnresolvedAttribute as exc:
            raise UnknownColumn(str(exc)) from None

    @staticmethod
    def _make_join(left: RelExpr, right: RelExpr, condition, names: _Names, split: int) -> RelExpr:
        """The join of ``left`` and ``right`` on ``condition``.

        ``names`` indexes both inputs' scopes, the right's from position
        ``split`` on. Conjuncts other than the key are a ``Select`` above
        the ``Join``.
        """
        key = None
        derived_key = None
        extra = []
        for comparison in condition:
            if key is None and comparison.op == "=" and isinstance(comparison.right, AttrRef):
                # order the two ends by position (a.x = a.x gives equal
                # positions); a key has one end per side
                kl, kr = comparison.left, comparison.right
                i, j = names.index(kl), names.index(kr)
                if j < i:
                    i, j, kl, kr = j, i, kr, kl
                if i < split <= j:
                    derived = [a for n, a in ((i, kl), (j, kr)) if names.entries[n].provenance is None]
                    if not derived:
                        key = (kl, kr)
                        continue
                    derived_key = derived_key or derived[0]
            extra.append(comparison)
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
        join = Join(left, right, key[0], key[1])
        return Select(tuple(extra), join) if extra else join

    def _assemble(self, items, rel, names, group_attrs) -> RelExpr:
        count_items = [item for item in items if item[0] == "count"]
        plain_attrs = [item[1] for item in items if item[0] == "attr"]
        if len(count_items) > 1:
            raise ParseError("at most one COUNT expression is supported")
        if count_items:
            _, arg, label = count_items[0]
            if arg is not None:
                self._resolve(arg, names)
            if group_attrs is None:
                if plain_attrs:
                    raise ParseError(
                        "non-aggregated column %s requires GROUP BY" % plain_attrs[0]
                    )
                return Count(rel, label)
            grouped = {self._resolve(g, names) for g in group_attrs}
            for attr in plain_attrs:
                if self._resolve(attr, names) not in grouped:
                    raise ParseError(
                        "column %s is not in the GROUP BY list" % attr
                    )
            return CountGrouped(tuple(group_attrs), rel, label)
        if group_attrs is not None:
            raise ParseError("GROUP BY without a COUNT expression")
        for attr in plain_attrs:
            self._resolve(attr, names)
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
