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

The text is read in one regular-expression ``split`` into the tokens'
texts and their words, the texts upper-cased (``_tokenize``). A keyword or
punctuation test compares a token's word, so keywords are matched in any
case; a token's first character tells its kind where a rule needs it; and
a character that starts no token is refused.

The parser keeps its resolution on the tree: the root and the FROM
relation of each SELECT carry the one that ``relalg.resolve`` would
compute, made from the name index the parser grows as it reads, so
analysing or evaluating a parsed query resolves nothing again.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from .errors import ParseError, UnknownTable, UnsupportedQuery
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
    _above,
    _comparison_positions,
    _Names,
    root_count,
)

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"  # a name, unless it spells a keyword (``is_identifier``)

# One match: the white space and comments before a token, then the token's
# text, captured, or nothing where no token starts (the end of the text, or a
# character that is refused). The empty alternative matches wherever the
# others fail, so a match never backtracks into a comment.
_TOKEN_RE = re.compile(
    r"""(?:\s+|--[^\n]*)*(
        -?[0-9]+                  # a number
      | """ + _IDENT + r"""       # a name or keyword
      | '[^']*' | "[^"]*"         # a string
      | <=|>=|<>|!=|=|<|>         # an operator
      | [(),.;*]                  # punctuation
      |
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
_OPERATORS = {*_FLIPPED, "<>"}
# a token's kind, where a rule asks: a number or a string by its first
# character, a name by ``str.isidentifier`` (any other token starts with a
# digit, '-', a quote or a symbol)
_NUMBER_START = frozenset("-0123456789")
_QUOTES = frozenset("'\"")


def _tokenize(text: str) -> Tuple[List[str], List[str]]:
    """The texts of ``text``'s tokens, ending with "" at its end, and their words.

    A token's word is its text upper-cased, so that a keyword test compares
    one string; a string keeps its quotes, so only a name's word spells a
    keyword and only a punctuation mark's spells punctuation. One ``split``
    reads every token: the texts are at its odd indexes, and between two
    matches lies a character no token starts with, the first of which is
    refused.
    """
    parts = _TOKEN_RE.split(text)
    texts = parts[1::2]
    if any(parts[::2]):
        raise ParseError("unexpected character %r" % next(filter(None, parts[::2]))[0])
    return texts, [t.upper() for t in texts]


class _Parser:
    def __init__(self, text: str, catalog: Catalog):
        self.texts, self.words = _tokenize(text)
        self.pos = 0
        self.catalog = catalog
        self.ctes = {}
        # the statement being parsed: per node built, in post-order, its positions
        self.positions = []

    # token plumbing: a keyword or punctuation mark is a token's word (_tokenize)

    def _at(self, word: str) -> bool:
        return self.words[self.pos] == word

    def _accept(self, word: str) -> bool:
        if self.words[self.pos] == word:
            self.pos += 1
            return True
        return False

    def _expect_keyword(self, word: str):
        if not self._accept(word):
            raise ParseError("expected %s, found %r" % (word, self.texts[self.pos]))

    def _expect_punc(self, value: str):
        if not self._accept(value):
            raise ParseError("expected %r, found %r" % (value, self.texts[self.pos]))

    def _at_name(self) -> bool:
        word = self.words[self.pos]
        return word.isidentifier() and word not in _KEYWORDS

    def _identifier(self, what: str) -> str:
        if not self._at_name():
            raise ParseError("expected %s, found %r" % (what, self.texts[self.pos]))
        self.pos += 1
        return self.texts[self.pos - 1]

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
        if self.texts[self.pos]:
            raise ParseError("trailing input after query: %r" % self.texts[self.pos])
        root_count(query)
        return query

    def _select_statement(self) -> RelExpr:
        """One SELECT, whose FROM relation and root each keep their resolution (``relalg.resolve``)."""
        self._expect_keyword("SELECT")
        items = self._select_list()
        self._expect_keyword("FROM")
        self.positions = []
        rel, names, selection = self._from_clause()
        if self._accept("WHERE"):
            selection += self._conjunction(names)
        if selection:  # the last JOIN's other ON conjuncts, then the WHERE's: one selection
            rel = self._select(rel, selection)
        rel.__dict__["_resolved"] = self.positions, names
        group_attrs = group_positions = None
        if self._accept("GROUP"):
            self._expect_keyword("BY")
            group_attrs = [self._attribute()]
            while self._accept(","):
                group_attrs.append(self._attribute())
            group_positions = tuple(map(names.index, group_attrs))
        return self._assemble(items, rel, names, group_attrs, group_positions)

    def _select_list(self):
        items = [self._select_item()]
        while self._accept(","):
            items.append(self._select_item())
        return items

    def _select_item(self):
        if self._at("*"):
            raise ParseError("SELECT * is not supported; name columns or use COUNT(*)")
        if self._at("COUNT") and self.words[self.pos + 1] == "(":
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
        """The FROM relation, the name index of its scope, and its last JOIN's other ON conjuncts.

        Each JOIN adds its new input's names before its ON clause is
        parsed, so a condition sees the inputs joined so far, and the
        finished index is the whole relation's. Each node built is recorded
        as it is built, except the selection of the last JOIN's other
        conjuncts, which a WHERE extends; each conjunct comes with its
        positions.
        """
        rel, entries = self._table_ref()
        names = _Names(entries)
        aliases = {rel.alias}  # the qualifiers of ``names``, one per FROM item
        selection = []
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
            if selection:  # the previous JOIN's, below this one
                rel = self._select(rel, selection)
            right, added = self._table_ref()
            if right.alias in aliases:
                raise ParseError(
                    "duplicate table alias %r; give each join input a distinct alias" % right.alias
                )
            aliases.add(right.alias)
            split = len(names.entries)
            names.add(added)
            self._expect_keyword("ON")
            condition = self._conjunction(names, join=True)
            rel, selection = self._make_join(rel, right, condition, names, split)
        return rel, names, selection

    def _table_ref(self):
        """A FROM item, recorded, and its scope entries."""
        name = self._identifier("table name")
        alias = None
        if self._accept("AS"):
            alias = self._identifier("table alias")
        elif self._at_name():
            self.pos += 1
            alias = self.texts[self.pos - 1]
        if name in self.ctes:  # its recorded lists, once per reference
            node = Aliased(self.ctes[name], alias or name)
            positions, names = node.input._resolved
            self.positions += [*positions, ()]
            return node, _above(node, names, ()).entries
        if name not in self.catalog.columns:
            raise UnknownTable("unknown table %r" % name)
        node = Table(name, alias or name, tuple(self.catalog.columns[name]))
        self.positions.append(())
        return node, node._entries

    def _conjunction(self, names: _Names, join: bool = False):
        """Parse comparisons joined by AND, each with its positions in ``names``."""
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
        value = self.texts[self.pos]
        if value[:1] in _NUMBER_START:
            self.pos += 1
            try:
                return int(value)
            except ValueError:  # a fixed text: the interpreter's own differs by version
                digits = len(value.lstrip("-"))
                raise ParseError("integer literal has %d digits, more than Python converts" % digits) from None
        if value[:1] in _QUOTES:
            self.pos += 1
            return value[1:-1]
        return self._attribute()

    def _comparison(self, names: _Names):
        """A comparison and its positions (``relalg._comparison_positions``)."""
        left = self._operand()
        op = self.texts[self.pos]
        if op not in _OPERATORS:
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
        return comparison, _comparison_positions(names, comparison)

    def _select(self, rel: RelExpr, selection: list) -> Select:
        """The selection on ``rel`` of ``selection``'s comparisons, recorded."""
        self.positions.append(tuple([pair for _, pair in selection]))
        return Select(tuple([comparison for comparison, _ in selection]), rel)

    def _make_join(self, left: RelExpr, right: RelExpr, condition, names: _Names, split: int):
        """The join of ``left`` and ``right`` on ``condition``, and its conjuncts other than the key.

        ``names`` indexes both inputs' scopes, the right's from position
        ``split`` on, and the conjuncts' positions are in it. The join is
        recorded.
        """
        key = None
        derived_key = None
        extra = []
        for comparison, pair in condition:
            i, j = pair
            if key is None and comparison.op == "=" and j is not None:
                # order the two ends by position (a.x = a.x gives equal
                # positions); a key has one end per side
                kl, kr = comparison.left, comparison.right
                if j < i:
                    i, j, kl, kr = j, i, kr, kl
                if i < split <= j:
                    derived = [a for n, a in ((i, kl), (j, kr)) if names.entries[n].table is None]
                    if not derived:
                        key, positions = (kl, kr), (i, j - split)
                        continue
                    derived_key = derived_key or derived[0]
            extra.append((comparison, pair))
        if key is None:
            if derived_key is not None:
                raise UnsupportedQuery(
                    "join key %s is produced by an aggregation; join keys must be "
                    "base-table columns" % derived_key
                )
            raise UnsupportedQuery(
                "join condition has no equijoin term between the two inputs: %s"
                % " AND ".join(str(c) for c, _ in condition)
            )
        self.positions.append(positions)
        return Join(left, right, key[0], key[1]), extra

    def _assemble(self, items, rel, names, group_attrs, group_positions) -> RelExpr:
        """The statement's root on ``rel``, whose index is ``names``, keeping its resolution."""
        count_items = [item for item in items if item[0] == "count"]
        plain_attrs = [item[1] for item in items if item[0] == "attr"]
        if len(count_items) > 1:
            raise ParseError("at most one COUNT expression is supported")
        if count_items:
            _, arg, label = count_items[0]
            if arg is not None:
                names.index(arg)
            if group_attrs is None:
                if plain_attrs:
                    raise ParseError(
                        "non-aggregated column %s requires GROUP BY" % plain_attrs[0]
                    )
                root, positions = Count(rel, label), ()
            else:
                for attr in plain_attrs:
                    if names.index(attr) not in group_positions:
                        raise ParseError(
                            "column %s is not in the GROUP BY list" % attr
                        )
                root, positions = CountGrouped(tuple(group_attrs), rel, label), group_positions
        else:
            if group_attrs is not None:
                raise ParseError("GROUP BY without a COUNT expression")
            positions = tuple(map(names.index, plain_attrs))
            root = Project(tuple(plain_attrs), rel)
        root.__dict__["_resolved"] = self.positions + [positions], _above(root, names, positions)
        return root


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
