"""Precomputed data-dependent metrics used by the sensitivity analysis.

The analysis never touches protected rows directly. It consumes a small
store of per-column maximum frequencies (the count of the most common value
in a column), per-table row counts, and the set of tables marked public.
Collecting a max frequency is itself a counting query, so the one-time
collection step can be run through the same private machinery or on the
database directly by the operator.

The store round-trips through a small INI-like text format::

    # anything after '#' is a comment
    [tables]
    edges = 5000

    [public]
    nodes

    [mf]
    edges.source = 65
    edges.dest = 65

Section order is free, whitespace around '=' is ignored, and duplicate keys,
unknown section names and names no query can write (``check_identifiers``:
``users.from``, ``t.b.c``) are errors. The ``[mf]`` lines give each table's
columns in the order a catalog built from the store lists them. Nothing
re-sorts them: a store keeps the order they were written in
(``collect-metrics``: each CSV header's) through a save and a load.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

from .errors import FormatError, MissingMetric, NegativeCount
from .parser import is_identifier
from .records import Frozen
from .relalg import Catalog


def ascii_int(text: str) -> Optional[int]:
    """``text`` as an int if it is an optional ``-`` then ASCII digits only, else None.

    The integer rule of metrics values, CSV cells and bin labels. Raises
    ValueError past ``sys.get_int_max_str_digits()`` digits.
    """
    body = text[1:] if text.startswith("-") else text
    return int(text) if body.isdigit() and body.isascii() else None


def read_text(handle, name: str) -> str:
    """All of ``handle``'s text, without a leading byte-order mark.

    Raises:
        FormatError: the text is not UTF-8, in a fixed message naming
            ``name``. Python's own gives the first bad byte's offset, which
            would tell how much text stands before it.
    """
    try:
        text = handle.read()
        text.encode("utf-8")  # stdin decodes a bad byte to a lone surrogate
    except UnicodeError:
        raise FormatError("%s: not UTF-8 text" % name) from None
    return text.removeprefix("\ufeff")


class MetricsStore(Frozen):
    """Max-frequency metrics, public-table flags, and row counts.

    Fields:
        mf: (table, column) -> max frequency of any single value.
        public_tables: tables whose rows are not protected.
        row_counts: table -> number of rows (used for the delta default).

    An omitted ``mf`` or ``row_counts`` is a new empty dict.
    """

    _fields = ("mf", "public_tables", "row_counts")

    def __init__(
        self,
        mf: Optional[Dict[Tuple[str, str], int]] = None,
        public_tables: frozenset = frozenset(),
        row_counts: Optional[Dict[str, int]] = None,
    ):
        d = self.__dict__
        d["mf"] = {} if mf is None else mf
        d["public_tables"] = public_tables
        d["row_counts"] = {} if row_counts is None else row_counts

    def mf_of(self, table: str, column: str) -> int:
        try:
            return self.mf[(table, column)]
        except KeyError:
            raise MissingMetric(
                "no max-frequency metric recorded for %s.%s" % (table, column)
            ) from None

    def is_public(self, table: str) -> bool:
        return table in self.public_tables

    def total_rows(self) -> int:
        """Row count summed over all tables, public ones included.

        Used as n for the delta default; counting public rows too makes n
        larger and so the default delta smaller, which is conservative.
        """
        return sum(self.row_counts.values())


def validate_store(store: MetricsStore):
    """Check cross-field consistency; raises FormatError/NegativeCount."""
    for table, count in store.row_counts.items():
        if count < 0:
            raise NegativeCount("row count for %s is negative" % table)
    for (table, column), value in store.mf.items():
        if value < 0:
            raise NegativeCount("mf for %s.%s is negative" % (table, column))
        rows = store.row_counts.get(table)
        if rows is not None:
            if value > rows:
                raise FormatError(
                    "mf for %s.%s exceeds the table row count (%d > %d)"
                    % (table, column, value, rows)
                )
            if rows > 0 and value == 0:
                raise FormatError(
                    "mf for %s.%s is 0 but the table is non-empty" % (table, column)
                )


def check_identifiers(*names: str, line=None):
    """Raise FormatError (at ``line``, if given) for the first of ``names`` the parser cannot read as a name."""
    for name in names:
        if not is_identifier(name):
            raise FormatError("invalid identifier %r" % name, line=line)


def metrics_collection_sql(table: str, column: str) -> str:
    """Return the SQL statement that collects one max-frequency metric.

    The statement is meant to be run once, by the operator, against the
    live database. Identifiers are validated so the template cannot be used
    for injection.
    """
    check_identifiers(table, column)
    return (
        "SELECT COUNT(%(col)s) AS mf FROM %(table)s GROUP BY %(col)s "
        "ORDER BY mf DESC LIMIT 1;" % {"col": column, "table": table}
    )


def load_metrics(path: str) -> MetricsStore:
    """Parse a metrics file into a MetricsStore.

    Raises:
        FormatError: a file that is not UTF-8 text, malformed lines,
            unknown sections, duplicate keys, a name that is not an
            identifier, or inconsistent values (with the offending line
            number).
        NegativeCount: a negative row count or max frequency.
    """
    mf: Dict[Tuple[str, str], int] = {}
    public = set()
    row_counts: Dict[str, int] = {}
    section = None
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(read_text(handle, path).split("\n"), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip()
                if section not in ("tables", "public", "mf"):
                    raise FormatError("unknown section [%s]" % section, line=lineno)
                continue
            if section is None:
                raise FormatError("entry before any section header", line=lineno)
            if section == "public":
                if "=" in line:
                    raise FormatError(
                        "[public] entries are bare table names", line=lineno
                    )
                check_identifiers(line, line=lineno)
                if line in public:
                    raise FormatError("duplicate public table %r" % line, line=lineno)
                public.add(line)
                continue
            if "=" not in line:
                raise FormatError("expected 'name = value'", line=lineno)
            key, _, value = (part.strip() for part in line.partition("="))
            try:
                number = ascii_int(value)
            except ValueError:  # count the digits, echo none
                raise FormatError("value for %r has %d digits, more than Python converts"
                                  % (key, len(value.lstrip("-"))), line=lineno) from None
            if number is None:
                raise FormatError("value for %r is not an integer: %r" % (key, value), line=lineno)
            if number < 0:
                raise NegativeCount(
                    "negative count for %r: %d" % (key, number), line=lineno
                )
            if section == "tables":
                check_identifiers(key, line=lineno)
                if key in row_counts:
                    raise FormatError("duplicate table %r" % key, line=lineno)
                row_counts[key] = number
            else:
                if "." not in key:
                    raise FormatError(
                        "[mf] keys are table.column, got %r" % key, line=lineno
                    )
                table, _, column = key.partition(".")
                check_identifiers(table, column, line=lineno)
                if (table, column) in mf:
                    raise FormatError("duplicate mf key %r" % key, line=lineno)
                mf[(table, column)] = number
    store = MetricsStore(mf=mf, public_tables=frozenset(public), row_counts=row_counts)
    validate_store(store)
    return store


def save_metrics(store: MetricsStore, path: str):
    """Write ``store`` in the text format ``load_metrics`` reads; ``path`` may be path-like."""
    lines = ["[tables]"]
    for table in sorted(store.row_counts):
        lines.append("%s = %d" % (table, store.row_counts[table]))
    lines.append("")
    lines.append("[public]")
    for table in sorted(store.public_tables):
        lines.append(table)
    lines.append("")
    lines.append("[mf]")
    for (table, column), value in store.mf.items():  # in the store's order
        lines.append("%s.%s = %d" % (table, column, value))
    lines.append("")
    replace_durably(path, "\n".join(lines))


def replace_durably(path, text: str):
    """Write ``text`` to ``<path>.tmp``, sync it, then rename it over ``path``.

    A crash leaves ``path`` whole, old or new, never a truncated copy.
    """
    tmp = os.fspath(path) + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def catalog_from_metrics(store: MetricsStore) -> Catalog:
    """Build a parser catalog from the columns the store has metrics for, in its order."""
    columns: Dict[str, tuple] = {}
    for table, column in store.mf:
        columns[table] = columns.get(table, ()) + (column,)
    return Catalog(columns=columns)
