"""Metrics store, file format, and collection helpers."""

import os
import pathlib
import re

import pytest

from flexdp import (
    FormatError,
    MetricsStore,
    MicroDatabase,
    MissingMetric,
    NegativeCount,
    catalog_from_metrics,
    cli,
    load_metrics,
    metrics_collection_sql,
    save_metrics,
    validate_store,
)

from _support import sqlite_copy, sqlite_metrics


def make_store(**kwargs):
    base = dict(
        mf={("edges", "source"): 65, ("edges", "dest"): 65},
        public_tables=frozenset(),
        row_counts={"edges": 1000},
    )
    base.update(kwargs)
    return MetricsStore(**base)


def test_store_lookups():
    store = make_store(public_tables=frozenset({"zips"}))
    assert store.mf_of("edges", "source") == 65
    assert store.is_public("zips")
    assert not store.is_public("edges")
    assert store.total_rows() == 1000
    with pytest.raises(MissingMetric, match="edges.weight"):
        store.mf_of("edges", "weight")
    # each empty store has dicts of its own
    empty, other = MetricsStore(), MetricsStore()
    assert empty == other and empty.mf == {} and empty.row_counts == {}
    assert empty.mf is not other.mf and empty.row_counts is not other.row_counts
    assert repr(empty) == "MetricsStore(mf={}, public_tables=frozenset(), row_counts={})"


def test_validate_rejects_impossible_values():
    with pytest.raises(NegativeCount):
        validate_store(make_store(mf={("edges", "source"): -1}))
    with pytest.raises(NegativeCount, match="row count for edges"):
        validate_store(make_store(row_counts={"edges": -1}))
    # a max frequency above the row count is impossible
    with pytest.raises(FormatError, match="exceeds"):
        validate_store(make_store(mf={("edges", "source"): 2000}))
    # zero frequency with rows present is impossible too
    with pytest.raises(FormatError):
        validate_store(make_store(mf={("edges", "source"): 0}))


def test_collection_sql_template():
    sql = metrics_collection_sql("edges", "source")
    assert sql == (
        "SELECT COUNT(source) AS mf FROM edges GROUP BY source "
        "ORDER BY mf DESC LIMIT 1;"
    )


CORPUS_CASES = sorted(
    d for d in (pathlib.Path(__file__).parent.parent / "corpus").iterdir() if d.is_dir()
)


@pytest.mark.parametrize("case", CORPUS_CASES, ids=lambda d: d.name)
def test_collection_sql_runs_on_sqlite(case):
    db = MicroDatabase.from_csv_dir(str(case))
    assert sqlite_metrics(db) == db.exact_metrics().mf


def test_collection_sql_on_sqlite_edge_tables():
    # an empty table yields no row (mf 0), and a column named like the
    # count's alias still groups by the column and orders by the count
    db = MicroDatabase(
        tables={"empty": [], "t": [(1, 5), (1, 5), (1, 6), (2, 6)]},
        columns={"empty": ("a",), "t": ("mf", "b")},
    )
    assert sqlite_metrics(db) == db.exact_metrics().mf == {
        ("empty", "a"): 0, ("t", "mf"): 3, ("t", "b"): 2,
    }


def test_a_typed_column_counts_cells_that_flexdp_keeps_as_text(tmp_path):
    # flexdp reads "7", " 7", "007" and "7 " as 7 and keeps "+7" and "7.0" as
    # text; a NUMERIC (or INTEGER) column stores all six as 7, so metrics for
    # a typed database come from the statements run there (README, CSV conventions)
    (tmp_path / "t.csv").write_text("v\n7\n+7\n7.0\n 7\n007\n7 \n")
    db = MicroDatabase.from_csv_dir(str(tmp_path))
    assert db.exact_metrics().mf == sqlite_metrics(db) == {("t", "v"): 4}
    with sqlite_copy(db) as conn:
        conn.execute("CREATE TABLE typed (v NUMERIC)")
        conn.execute("INSERT INTO typed SELECT v FROM t")
        assert conn.execute(metrics_collection_sql("typed", "v")).fetchall() == [(6,)]


def test_collection_sql_rejects_bad_identifiers():
    with pytest.raises(FormatError):
        metrics_collection_sql("edges; DROP", "source")
    with pytest.raises(FormatError):
        metrics_collection_sql("edges", "source--")


def test_round_trip(tmp_path):
    store = make_store(public_tables=frozenset({"zips"}))
    path = str(tmp_path / "metrics.txt")
    save_metrics(store, path)
    loaded = load_metrics(path)
    assert loaded.mf == store.mf
    assert loaded.public_tables == store.public_tables
    assert loaded.row_counts == store.row_counts
    # a pathlib path goes through save and load alike
    save_metrics(store, tmp_path / "m.txt")
    assert load_metrics(tmp_path / "m.txt") == loaded


def test_load_drops_a_byte_order_mark(tmp_path):
    # as Notepad writes it; otherwise the first line is no section header
    store = make_store(public_tables=frozenset({"zips"}))
    save_metrics(store, tmp_path / "m.txt")
    text = (tmp_path / "m.txt").read_text()
    (tmp_path / "bom.txt").write_text("\ufeff" + text, encoding="utf-8")
    assert load_metrics(tmp_path / "bom.txt") == load_metrics(tmp_path / "m.txt")


def test_saving_and_loading_keep_the_order_columns_were_written_in(tmp_path):
    # not sorted: a catalog built from the file lists a table's columns as
    # they were written (by collect-metrics, in the CSV header's order;
    # test_catalog_from_metrics)
    store = make_store(mf={("edges", "source"): 65, ("users", "uid"): 1, ("edges", "dest"): 65})
    save_metrics(store, tmp_path / "m.txt")
    written = (tmp_path / "m.txt").read_text().split("[mf]\n")[1].splitlines()
    assert written == ["edges.source = 65", "users.uid = 1", "edges.dest = 65"]
    loaded = load_metrics(tmp_path / "m.txt")
    assert list(loaded.mf) == list(store.mf)


def test_save_metrics_syncs_the_file_before_renaming_it(tmp_path, monkeypatch):
    # renamed unsynced, a crash could leave a truncated file under the real
    # name, and an mf of 65 cut to 6 under-noises every later release
    calls = []
    fsync, replace = os.fsync, os.replace
    monkeypatch.setattr(os, "fsync", lambda fd: (calls.append("fsync"), fsync(fd))[1])
    monkeypatch.setattr(os, "replace", lambda *paths: (calls.append("replace"), replace(*paths))[1])
    save_metrics(make_store(), tmp_path / "m.txt")
    assert calls == ["fsync", "replace"]
    assert load_metrics(tmp_path / "m.txt") == make_store()


def test_load_parses_comments_and_blanks(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text(
        "# collected 2026-08-01\n"
        "[tables]\n"
        "edges = 4   # row count\n"
        "\n"
        "[public]\n"
        "zips\n"
        "\n"
        "[mf]\n"
        "edges.source = 2\n"
        "edges.dest = 2\n"
    )
    store = load_metrics(str(path))
    assert store.row_counts == {"edges": 4}
    assert store.public_tables == frozenset({"zips"})
    assert store.mf[("edges", "dest")] == 2


BAD_FILES = [
    ("[nope]\n", "unknown section", 1),
    ("edges = 4\n", "before any section", 1),
    ("[tables]\nedges 4\n", "name = value", 2),
    ("[tables]\nedges = many\n", "not an integer", 2),
    ("[tables]\nedges = 4\nedges = 5\n", "duplicate table", 3),
    ("[tables]\nedges = 4\n[mf]\nsource = 2\n", "table.column", 4),
    ("[tables]\nedges = 4\n[mf]\nedges.s = 1\nedges.s = 1\n", "duplicate mf", 5),
    ("[public]\nzips = 1\n", "bare table names", 2),
    ("[public]\nzips\nzips\n", "duplicate public", 3),
    # one integer rule with CSV cells: an optional '-', then ASCII digits only
    ("[tables]\nt = 1_000\n", "not an integer", 2),
    ("[tables]\nt = +5\n", "not an integer", 2),
    ("[tables]\nt = \u0663\n", "not an integer", 2),
    ("[tables]\nt = 1\n[mf]\nt.a = \u0662\n", "not an integer", 4),
    pytest.param("[tables]\nt = %s\n" % ("9" * 5000), "'t' has 5000 digits, more than Python converts", 2,
                 id="5000-digits"),
    # every name is one a query can write, the rule collect-metrics writes by
    ("[tables]\nfrom = 1\n", "invalid identifier 'from'", 2),
    ("[public]\nt.x\n", r"invalid identifier 't\.x'", 2),
    ("[tables]\nt = 1\n[mf]\nt.a = 1\nt.from = 1\n", "invalid identifier 'from'", 5),
    ("[mf]\nt.b.c = 1\n", r"invalid identifier 'b\.c'", 2),
    ("[mf]\n1t.a = 1\n", "invalid identifier '1t'", 2),
    ("[mf]\nt. a = 1\n", "invalid identifier ' a'", 2),
]


@pytest.mark.parametrize("text,fragment,lineno", BAD_FILES)
def test_load_rejects_bad_files(tmp_path, capsys, text, fragment, lineno):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(FormatError, match=fragment) as exc:
        load_metrics(str(path))
    assert exc.value.line == lineno
    assert len(str(exc.value)) < 100  # a 5000-digit value is counted, not echoed
    # a command that loads the file prints that refusal as one error[io] line, exit 3
    (tmp_path / "q.sql").write_text("SELECT COUNT(*) FROM t\n")
    assert cli.main(["analyze", str(tmp_path / "q.sql"), "--metrics", str(path), "--epsilon", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and re.fullmatch(r"error\[io\]: line %d: .*%s.*\n" % (lineno, fragment), err), err


def test_load_rejects_negative_with_line(tmp_path):
    path = tmp_path / "neg.txt"
    path.write_text("[tables]\nedges = -4\n")
    with pytest.raises(NegativeCount) as exc:
        load_metrics(str(path))
    assert exc.value.line == 2


def test_catalog_from_metrics():
    store = MetricsStore(
        mf={("t", "b"): 1, ("t", "a"): 1, ("u", "x"): 1},
        public_tables=frozenset({"u"}),
        row_counts={"t": 1, "u": 1},
    )
    # each table's columns in the order the store lists them, not sorted
    catalog = catalog_from_metrics(store)
    assert catalog.columns == {"t": ("b", "a"), "u": ("x",)}
