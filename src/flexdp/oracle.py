"""Ground truth on concrete databases: CSV loading and evaluation.

``eval_query`` is ``release --execute``'s evaluator, playing the database
whose answer is released: it reads each table as stored, which must be in
the query's columns. A join is a hash join keyed on every ``=`` between its
two sides, a selection's directly above it included, so the pairs those
reject are never built; that selection's comparisons of one side filter
that side's rows before the join. ``MicroDatabase.from_csv_dir`` loads
every table of a directory, or only those of a schema it is given (for a
release, the query's), reading each file once, and converts every column of
each: an all-integer body in one ``json.loads``, else a column of ASCII
digits whole and every other cell by ``coerce_value``.
It is the one place that decides a table's column order: the schema's,
with the header's other columns dropped, or without a schema the header's.
The brute force that ``flexdp check`` runs on these databases, and the
neighbour model it enumerates, are in ``bruteforce``.
"""

from __future__ import annotations

import collections
import csv
import io
import json
import operator
import os
from typing import Dict, Iterator, List, Optional, Union

from .errors import EvaluationError
from .metrics import MetricsStore, ascii_int
from .records import Record
from .relalg import (
    Catalog,
    Count,
    CountGrouped,
    Join,
    Project,
    RelExpr,
    Select,
    Table,
    _check_node,
    counted_relation,
    postorder,
    root_count,
)

_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

Value = Union[int, str]


def coerce_value(text: str) -> Value:
    """A CSV cell or a bin label: its ``ascii_int`` value, else the text (ValueError as there)."""
    number = ascii_int(text)
    return text if number is None else number


def _check_width(row: tuple, width: int, name: str):
    if len(row) != width:
        raise EvaluationError("row width %d does not match columns of %r" % (len(row), name))


_INT_START = frozenset("-0123456789")  # the first character of every ``ascii_int``


def _all_digits(cells: List[str]) -> bool:
    text = "".join(cells)
    return all(cells) and text.isdigit() and text.isascii()


def _coerce_column(rows: List[list], index: int) -> Iterator[Value]:
    """``coerce_value`` of each stripped cell at ``index``, a column at a time.

    A column whose raw cells are all ASCII digits goes to ``int`` unstripped,
    and one where no stripped cell starts like an int stays text.
    """
    cells = [row[index] for row in rows]
    if _all_digits(cells):
        return map(int, cells)
    cells = [cell.strip() for cell in cells]
    if _INT_START.isdisjoint("".join([cell[:1] for cell in cells])):
        return iter(cells)
    return map(int if _all_digits(cells) else coerce_value, cells)


_INT_BODY = str.maketrans("", "", "0123456789-,\r\n")  # deletes every character of an all-int body


def _int_rows(text: io.StringIO) -> Optional[List[tuple]]:
    """The rest of ``text`` as rows of ints in one ``json.loads``, else None; ``text`` is not moved.

    Tried on ASCII digits, ``-``, commas and line ends, no line past the csv
    field limit. JSON's integers are ``ascii_int``'s less a leading zero.
    """
    body = text.getvalue()[text.tell() :]
    if body.isascii() and not body.translate(_INT_BODY):  # translate is slow on other text
        lines = body.splitlines()  # on CR, LF and CRLF alone here, as ``csv`` splits
        if max(map(len, lines), default=0) <= csv.field_size_limit():
            try:
                return list(map(tuple, filter(None, json.loads("[[" + "],[".join(lines) + "]]"))))
            except ValueError:
                pass
    return None


class MicroDatabase(Record):
    """A tiny multi-table database: each table's rows and column names.

    ``domains`` holds the value domains a caller gave, per table one per
    column, that ``bruteforce`` draws replacement rows from (a table
    without one draws from its observed values). A table that only one of
    ``tables`` and ``columns`` names, or a row's width or a given domain's
    that differs from its table's columns, is an EvaluationError.
    """

    _fields = ("tables", "columns", "domains")

    def __init__(
        self,
        tables: Dict[str, List[tuple]],
        columns: Dict[str, tuple],
        domains: Optional[Dict[str, tuple]] = None,
    ):
        if tables.keys() != columns.keys():
            name = min(tables.keys() ^ columns.keys())
            raise EvaluationError("table %r has no %s" % (name, "column names" if name in tables else "row list"))
        for name, rows in tables.items():
            for row in rows:
                _check_width(row, len(columns[name]), name)
        domains = domains or {}
        for name, domain in domains.items():
            if len(domain) != len(columns.get(name, ())):
                raise EvaluationError("domain width %d does not match columns of %r" % (len(domain), name))
        self.tables, self.columns, self.domains = tables, columns, domains

    @classmethod
    def from_csv_dir(cls, path: str, schema: Optional[Dict[str, tuple]] = None) -> "MicroDatabase":
        """Load every ``*.csv`` in a directory, or only the tables of ``schema``.

        The file name (less ``.csv``) is the table name; blank lines are
        skipped. Each file is read once, and decoded whole before it is
        parsed. Every column of a loaded table is converted, whichever
        columns a caller will read: an all-integer body in one call
        (``_int_rows``), else a column of ASCII digits goes to ``int``
        whole, every other cell by ``coerce_value``. ``schema`` maps each
        table to load to its columns; the table is stored in that order, and
        the header's other columns are dropped. Without it, a table keeps
        its header's columns in their order.

        Raises:
            EvaluationError: no table to load, a named table has no file,
                a file is not UTF-8, its header row is missing or blank, has
                an empty or repeated column name, or lacks a column of
                ``schema`` (each found before any row is parsed), a row's
                width differs from the header's, or a cell is past the csv
                module's field limit or holds an integer of more digits than
                Python converts. Each names the file and the fault, never a
                row, a line or a byte.
        """
        if schema is None:
            names = sorted(n[: -len(".csv")] for n in os.listdir(path) if n.endswith(".csv"))
            if not names:
                raise EvaluationError("no .csv tables found in %r" % path)
        else:
            names = sorted(schema)
            for name in names:
                if not os.path.isfile(os.path.join(path, name + ".csv")):
                    raise EvaluationError("no table %r (%s.csv) in %r" % (name, name, path))
        rows_of: Dict[str, List[tuple]] = {}
        columns: Dict[str, tuple] = {}
        for name in names:
            filename = name + ".csv"
            with open(os.path.join(path, filename), newline="", encoding="utf-8-sig") as f:
                try:  # the whole file first, so where a bad byte stands decides no refusal
                    text = io.StringIO(f.read(), newline="")
                except UnicodeDecodeError:  # whose text gives a byte's offset
                    raise EvaluationError("%s: not UTF-8 text" % filename) from None
            reader = csv.reader(text)
            try:
                header = next(reader, None)
                if header is None:
                    raise EvaluationError("%s is empty (no header row)" % filename)
                header = tuple(h.strip() for h in header)
                if not header or "" in header:
                    raise EvaluationError("%s has a blank header row or an empty column name" % filename)
                if len(set(header)) != len(header):
                    raise EvaluationError("%s repeats a column name in its header" % filename)
                wanted = header if schema is None else tuple(schema[name])
                missing = [col for col in wanted if col not in header]
                if missing:  # named by the header, never by a cell
                    raise EvaluationError("table %r has no column %r of the query's schema" % (name, missing[0]))
                ints = _int_rows(text)
                rows = list(filter(None, reader)) if ints is None else ints
            # a cell past the csv module's field limit (process-global, so left as it is)
            except csv.Error as exc:
                raise EvaluationError("%s: %s" % (filename, exc)) from None
            width = len(header)
            if set(map(len, rows)) - {width}:
                raise EvaluationError("%s: a row's width differs from its header's %d columns" % (filename, width))
            if ints is None:
                try:
                    rows = list(zip(*[_coerce_column(rows, i) for i in range(width)]))
                except ValueError:  # whose text counts the cell's digits
                    raise EvaluationError("%s: a cell holds an integer past the digit limit" % filename) from None
            if wanted != header:
                rows = list(map(_tuple_getter([header.index(col) for col in wanted]), rows))
            rows_of[name], columns[name] = rows, wanted
        db = cls.__new__(cls)  # skips __init__'s row-by-row check, made above
        db.tables, db.columns, db.domains = rows_of, columns, {}
        return db

    def catalog(self) -> Catalog:
        return Catalog(columns=dict(self.columns))

    def exact_metrics(self, public=()) -> MetricsStore:
        """Ground-truth metrics: true max frequency of every column."""
        mf = {}
        for name, cols in self.columns.items():
            for i, col in enumerate(cols):
                mf[(name, col)] = column_max_frequency(self.tables[name], i)
        return MetricsStore(
            mf=mf,
            public_tables=frozenset(public),
            row_counts={name: len(rows) for name, rows in self.tables.items()},
        )


def _tuple_getter(positions: tuple):
    """``operator.itemgetter`` of ``positions``, returning a tuple also for one position."""
    if len(positions) == 1:
        (i,) = positions
        return lambda row: (row[i],)
    return operator.itemgetter(*positions)


def eval_rows(r: RelExpr, db: MicroDatabase) -> List[tuple]:
    """Evaluate a relational transformation to its concrete rows.

    One loop over ``r``'s nodes in post-order (``relalg.postorder``), each
    with its resolved positions, and a stack of row lists, so a tree of any
    depth evaluates: each node pops its inputs' rows and pushes its own. A
    selection directly on a join, the next node after it, is evaluated
    inside the join (``_join``). A grouped count's rows are its groups in
    order of first appearance.
    """
    _check_node(r)
    nodes, resolved = postorder(r), r._resolved[0]
    stack: List[List[tuple]] = []
    for at, (node, positions) in enumerate(zip(nodes, resolved)):
        if isinstance(node, Table):
            if db.columns.get(node.name) != node.columns:
                raise EvaluationError("table %r is not stored in the query's columns" % node.name)
            rows = list(db.tables[node.name])
        elif isinstance(node, Join):
            right_rows, left_rows = stack.pop(), stack.pop()
            above = (nodes[at + 1], resolved[at + 1]) if at + 1 < len(nodes) else (None, ())
            rows = _join(left_rows, right_rows, positions, *above)
        else:
            rows = stack.pop()
            if isinstance(node, Select) and not isinstance(node.input, Join):
                rows = _filter(rows, zip(node.predicate, positions))
            elif isinstance(node, Project):
                rows = list(map(_tuple_getter(positions), rows))
            elif isinstance(node, Count):
                rows = [(len(rows),)]
            elif isinstance(node, CountGrouped):
                counts = collections.Counter(map(_tuple_getter(positions), rows))
                rows = [key + (count,) for key, count in counts.items()]
            # Aliased passes its input's rows through
        stack.append(rows)
    return stack.pop()


def _join(left_rows: List[tuple], right_rows: List[tuple], keys: tuple, above, positions) -> list:
    """The rows of a join on ``keys``, and of ``above`` on it when that is a ``Select``.

    Each ``=`` of the selection across the two sides joins the hash key. A
    comparison of one side only filters that side's rows before the buckets
    are built or probed, and the other comparisons filter the pairs. Rows
    are left-major, the right rows in stored order.
    """
    left_keys, right_keys, left_tests, right_tests, rest = [keys[0]], [keys[1]], [], [], []
    if isinstance(above, Select) and left_rows:
        width = len(left_rows[0])
        for c, (li, ri) in zip(above.predicate, positions):
            if li < width and (ri is None or ri < width):
                left_tests.append((c, (li, ri)))
            elif li >= width and (ri is None or ri >= width):
                right_tests.append((c, (li - width, None if ri is None else ri - width)))
            elif c.op == "=":
                left_keys.append(min(li, ri))
                right_keys.append(max(li, ri) - width)
            else:
                rest.append((c, (li, ri)))
    left_rows, right_rows = _filter(left_rows, left_tests), _filter(right_rows, right_tests)
    left_key, right_key = operator.itemgetter(*left_keys), operator.itemgetter(*right_keys)
    buckets: Dict[object, List[tuple]] = {}  # a value, or a tuple of them
    for row in right_rows:
        buckets.setdefault(right_key(row), []).append(row)
    rows = [lrow + rrow for lrow in left_rows for rrow in buckets.get(left_key(lrow), ())]
    return _filter(rows, rest)


def _typed(value) -> tuple:
    """``value``'s place in SQLite's order, where every number sorts before every text value."""
    return isinstance(value, str), value


def _passing(rows: List[tuple], op, li: int, ri, literal) -> List[tuple]:
    if ri is None:
        return [row for row in rows if op(row[li], literal)]
    return [row for row in rows if op(row[li], row[ri])]


def _filter(rows: List[tuple], tests) -> List[tuple]:
    """The rows passing each of ``tests``, (comparison, positions) pairs, in turn.

    Comparisons are total on ints and text, in SQLite's order: an int and a
    text value are never equal, and the int sorts first. So whether a query
    can be evaluated never depends on which rows reach a comparison. A
    comparison is made plainly first and redone in that order only when an
    int met a text value, so an all-int column pays nothing. Values of any
    other type, which no CSV file yields, are an error that names the
    comparison, never a value of the rows.
    """
    for c, (li, ri) in tests:
        op, literal = _OPS[c.op], c.right
        try:
            try:
                rows = _passing(rows, op, li, ri, literal)
            except TypeError:  # an int met a text value
                rows = _passing(rows, lambda a, b: op(_typed(a), _typed(b)), li, ri, literal)
        except TypeError:
            raise EvaluationError("cannot compare the values of %s" % c) from None
    return rows


def column_max_frequency(rows: List[tuple], index: int) -> int:
    """Multiplicity of the most frequent value at ``index``; 0 for no rows."""
    return max(collections.Counter(map(operator.itemgetter(index), rows)).values(), default=0)


def column_domain(rows: List[tuple], index: int) -> tuple:
    """The distinct values at ``index``, sorted by ``repr``: a column's observed domain."""
    return tuple(sorted({row[index] for row in rows}, key=repr))


def eval_query(q: RelExpr, db: MicroDatabase):
    """Evaluate a counting query on a concrete database.

    Returns:
        An int for a plain count; for a grouped count, a dict mapping the
        group label (a scalar for one grouping column, else a tuple) to its
        count, in order of first appearance. Groups with no rows are absent.
    """
    root = root_count(q)
    rows = eval_rows(counted_relation(root), db)
    if isinstance(root, Count):
        return len(rows)
    return {row[0] if len(row) == 2 else row[:-1]: row[-1] for row in rows}
