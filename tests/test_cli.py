"""End-to-end command behavior: exit codes, streams, determinism, budget."""

import gc
import io
import json
import math
import os
import pathlib
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import flexdp
from flexdp import MetricsStore, cli, errors, load_metrics, relalg, save_metrics

from _support import chain_metrics, chain_sql, random_micro_db, random_query_sql

METRICS_TEXT = (
    "[tables]\n"
    "edges = 4\n"
    "\n"
    "[public]\n"
    "\n"
    "[mf]\n"
    "edges.source = 2\n"
    "edges.dest = 2\n"
)

EDGES_CSV = "source,dest\n1,2\n2,3\n3,1\n1,3\n"

PAIRS_SQL = "SELECT COUNT(*) FROM edges e1 JOIN edges e2 ON e1.dest = e2.source\n"
GROUPED_SQL = "SELECT source, COUNT(*) FROM edges GROUP BY source\n"


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "metrics.txt").write_text(METRICS_TEXT)
    data = tmp_path / "data"
    data.mkdir()
    (data / "edges.csv").write_text(EDGES_CSV)
    (tmp_path / "pairs.sql").write_text(PAIRS_SQL)
    (tmp_path / "grouped.sql").write_text(GROUPED_SQL)
    return tmp_path


def run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_text_report(workspace, capsys):
    code, out, err = run(
        capsys,
        "analyze",
        workspace / "pairs.sql",
        "--metrics",
        workspace / "metrics.txt",
        "--epsilon",
        "0.7",
        "--delta",
        "1e-7",
    )
    assert code == 0
    report = dict(line.split(": ", 1) for line in out.strip().splitlines())
    assert report["joins"] == "1"
    # self join of edges: (2+0) + (2+0) + 1 at k = 0
    assert report["stability_at_0"] == "5"
    assert float(report["S"]) >= 5.0
    assert float(report["noise_scale"]) == pytest.approx(2 * float(report["S"]) / 0.7)


def test_analyze_json_report(workspace, capsys):
    code, out, _ = run(
        capsys,
        "analyze",
        workspace / "pairs.sql",
        "--metrics",
        workspace / "metrics.txt",
        "--epsilon",
        "0.7",
        "--delta",
        "1e-7",
        "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["joins"] == 1
    assert report["k_max"] >= report["k_star"] >= 0


def _refuse_constant(name):
    raise ValueError("not strict JSON: %s" % name)


@pytest.mark.parametrize(
    "store,sql,expected",
    [
        # 60 joins at mf 1e6: S overflows a double but ln S does not, and
        # the log-domain scan peaks at k = 0 (828.93, decreasing after it)
        (
            chain_metrics(61, mf=10**6, rows=10**7),
            chain_sql(60),
            {"S": None, "noise_scale": None, "log_S": pytest.approx(828.9306, abs=1e-4), "k_star": 0},
        ),
        # every table public: S is 0 and ln S is -inf
        (
            MetricsStore(
                mf={("edges", "source"): 2, ("edges", "dest"): 2},
                public_tables=frozenset({"edges"}),
                row_counts={"edges": 4},
            ),
            PAIRS_SQL,
            {"S": 0.0, "noise_scale": 0.0, "log_S": None, "k_star": 0},
        ),
    ],
    ids=["overflow", "all-public"],
)
def test_analyze_json_writes_non_finite_as_null(tmp_path, capsys, store, sql, expected):
    save_metrics(store, str(tmp_path / "metrics.txt"))
    (tmp_path / "q.sql").write_text(sql)
    code, out, _ = run(
        capsys,
        "analyze",
        tmp_path / "q.sql",
        "--metrics",
        tmp_path / "metrics.txt",
        "--epsilon",
        "1.0",
        "--delta",
        "1e-9",
        "--json",
    )
    assert code == 0
    report = json.loads(out, parse_constant=_refuse_constant)
    assert {key: report[key] for key in expected} == expected


@pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
def test_analyze_reports_a_stability_too_long_for_text_as_null(tmp_path, capsys, as_json):
    # 80 joins at mf 1e60: the k=0 bound 1e4800 has more digits than Python
    # converts to text, or json.loads reads
    save_metrics(chain_metrics(81, mf=10**60, rows=10**60), str(tmp_path / "metrics.txt"))
    (tmp_path / "q.sql").write_text(chain_sql(80))
    code, out, err = run(
        capsys,
        "analyze",
        tmp_path / "q.sql",
        "--metrics",
        tmp_path / "metrics.txt",
        "--epsilon",
        "1.0",
        "--delta",
        "1e-9",
        *(["--json"] if as_json else []),
    )
    assert (code, err) == (0, "")
    if as_json:
        report = json.loads(out, parse_constant=_refuse_constant)
        assert report["stability_at_0"] is None and report["S"] is None
    else:
        report = dict(line.split(": ", 1) for line in out.strip().splitlines())
        assert report["stability_at_0"] == "None" and report["S"] == "inf"
    assert float(report["log_S"]) == pytest.approx(4800 * math.log(10), rel=1e-3)


def test_printable_stops_at_the_int_to_text_limit():
    digits = sys.get_int_max_str_digits()
    if not digits:
        pytest.skip("int-to-text conversion is unlimited in this interpreter")
    assert cli._printable(10 ** (digits - 1)) == 10 ** (digits - 1)
    assert cli._printable(10**digits) is None


def test_analyze_defaults_delta_from_row_count(workspace, capsys):
    code, out, _ = run(
        capsys,
        "analyze",
        workspace / "pairs.sql",
        "--metrics",
        workspace / "metrics.txt",
        "--epsilon",
        "0.7",
        "--json",
    )
    assert code == 0
    report = json.loads(out)
    import math

    assert report["delta"] == pytest.approx(math.exp(-0.7 * math.log(4) ** 2))


def test_query_from_stdin(workspace, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("SELECT COUNT(*) FROM edges"))
    code, out, _ = run(
        capsys,
        "analyze",
        "-",
        "--metrics",
        workspace / "metrics.txt",
        "--epsilon",
        "1.0",
        "--delta",
        "1e-6",
    )
    assert code == 0
    assert "joins: 0" in out


def test_release_is_replayable_and_separates_streams(workspace, capsys):
    argv = (
        "release",
        workspace / "pairs.sql",
        "--metrics",
        workspace / "metrics.txt",
        "--epsilon",
        "0.7",
        "--delta",
        "1e-7",
        "--seed",
        "42",
        "--true-result",
        "100",
    )
    code1, out1, err1 = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2  # same seed, same bytes
    float(out1.strip())  # stdout is exactly one number
    assert "seed: 42" in err1
    assert "noise_scale" in err1
    # the true result stays off stdout
    assert out1.strip() != "100" and out1.strip() != "100.0"


def test_release_execute_reads_csv(workspace, capsys):
    code, out, err = run(
        capsys,
        "release",
        workspace / "pairs.sql",
        "--metrics",
        workspace / "metrics.txt",
        "--epsilon",
        "0.7",
        "--delta",
        "1e-7",
        "--seed",
        "1",
        "--execute",
        "--data",
        workspace / "data",
    )
    assert code == 0
    float(out.strip())


def test_release_execute_reads_only_the_named_tables(workspace, capsys):
    argv = ("release", workspace / "pairs.sql", "--metrics", workspace / "metrics.txt",
            "--epsilon", "0.7", "--delta", "1e-7", "--seed", "1",
            "--execute", "--data", workspace / "data", "--json")
    code, before, _ = run(capsys, *argv)
    assert code == 0
    # a table the query does not read is not parsed, however malformed
    (workspace / "data" / "other.csv").write_text("a,b\n1\n")
    assert run(capsys, *argv)[:2] == (0, before)
    # a table it reads must be there
    (workspace / "data" / "edges.csv").unlink()
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert "error[io]" in err and "edges" in err


def test_release_requires_some_true_result(workspace, capsys):
    code, _, err = run(
        capsys,
        "release",
        workspace / "pairs.sql",
        "--metrics",
        workspace / "metrics.txt",
        "--epsilon",
        "0.7",
        "--delta",
        "1e-7",
    )
    assert code == 1
    assert "error[invalid-params]" in err


def test_grouped_release_with_bins(workspace, capsys):
    code, out, _ = run(
        capsys,
        "release",
        workspace / "grouped.sql",
        "--metrics",
        workspace / "metrics.txt",
        "--epsilon",
        "1.0",
        "--delta",
        "1e-6",
        "--seed",
        "5",
        "--execute",
        "--data",
        workspace / "data",
        "--bins",
        "1,2,3,4",
    )
    assert code == 0
    lines = [line.split("\t") for line in out.strip().splitlines()]
    assert [l for l, _ in lines] == ["1", "2", "3", "4"]
    for _, value in lines:
        float(value)


def test_grouped_release_without_bins_is_refused(workspace, capsys):
    code, out, err = run(
        capsys,
        "release",
        workspace / "grouped.sql",
        "--metrics",
        workspace / "metrics.txt",
        "--epsilon",
        "1.0",
        "--delta",
        "1e-6",
        "--execute",
        "--data",
        workspace / "data",
    )
    assert code == 1
    assert "error[unsupported]" in err
    assert "bin domain" in err
    assert out == ""


def test_grouped_release_from_true_result_file(workspace, capsys):
    truth = workspace / "truth.txt"
    truth.write_text("1,2\n2,1\n3,1\n")
    code, out, _ = run(
        capsys,
        "release",
        workspace / "grouped.sql",
        "--metrics",
        workspace / "metrics.txt",
        "--epsilon",
        "1.0",
        "--delta",
        "1e-6",
        "--seed",
        "5",
        "--true-result",
        truth,
        "--bins",
        "1,2,3",
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 3


@pytest.fixture
def cities(tmp_path, capsys):
    """Private trips (corpus/grouped) joined to a public table of city zones."""
    data = tmp_path / "data"
    shutil.copytree(pathlib.Path(__file__).parent.parent / "corpus" / "grouped", data)
    (data / "cities.csv").write_text("city,zone\na,1\nb,1\nc,2\n")
    metrics = tmp_path / "metrics.txt"
    argv = ["collect-metrics", "--data", str(data), "--metrics", str(metrics), "--public", "cities"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    return tmp_path


def release_cities(capsys, cities, group_by, *extra):
    sql = "SELECT %s, COUNT(*) FROM trips t JOIN cities c ON t.city = c.city GROUP BY %s"
    (cities / "q.sql").write_text(sql % (group_by, group_by))
    return run(
        capsys,
        "release",
        cities / "q.sql",
        "--metrics",
        cities / "metrics.txt",
        "--epsilon",
        "1.0",
        "--delta",
        "1e-6",
        "--seed",
        "5",
        *extra,
    )


def test_bin_domain_of_a_public_grouping_column_comes_from_the_data(cities, capsys):
    code, out, err = release_cities(capsys, cities, "c.zone", "--execute", "--data", cities / "data")
    assert code == 0
    assert [line.split("\t")[0] for line in out.strip().splitlines()] == ["1", "2"]
    # trips a, a, b lie in zone 1 and c in zone 2: the same draw as from the counts
    truth = cities / "truth.txt"
    truth.write_text("1,3\n2,1\n")
    assert release_cities(capsys, cities, "c.zone", "--true-result", truth, "--bins", "1,2") == (
        0, out, err
    )


def test_bin_domain_of_two_public_grouping_columns_is_their_product(cities, capsys):
    code, out, err = release_cities(
        capsys, cities, "c.city, c.zone", "--execute", "--data", cities / "data", "--json"
    )
    assert code == 0 and err == ""
    report = json.loads(out)
    labels = [label for label, _ in report["bins"]]
    assert labels == ["a|1", "a|2", "b|1", "b|2", "c|1", "c|2"]
    assert all(math.isfinite(value) for _, value in report["bins"])
    assert report["seed"] == 5 and report["S"] > 0


def test_multi_part_bins_and_a_true_result_file_with_label_columns(cities, capsys):
    # labels spread over columns, tab- or comma-separated, with a blank line
    truth = cities / "truth.txt"
    truth.write_text("a,1,2\n\nb\t1\t1\n  \nc,2,1\n")
    code, out, _ = release_cities(
        capsys, cities, "c.city, c.zone", "--true-result", truth, "--bins", "a|1, c|2,b|2", "--json"
    )
    assert code == 0
    store = load_metrics(str(cities / "metrics.txt"))
    query = flexdp.parse_query((cities / "q.sql").read_text(), flexdp.catalog_from_metrics(store))
    expected = flexdp.release_histogram(
        {("a", 1): 2, ("b", 1): 1, ("c", 2): 1},
        [("a", 1), ("c", 2), ("b", 2)],
        query,
        store,
        flexdp.make_params(1.0, 1e-6),
        seed=5,
    )
    labels = ["a|1", "c|2", "b|2"]
    assert json.loads(out)["bins"] == [[t, v] for t, (_, v) in zip(labels, expected.bins)]


def test_bins_with_the_wrong_number_of_parts_are_refused(cities, capsys):
    code, out, err = release_cities(
        capsys, cities, "c.city, c.zone", "--execute", "--data", cities / "data", "--bins", "a|1,b"
    )
    assert code == 1 and out == ""
    assert "error[invalid-params]" in err and "'b' does not have 2" in err


@pytest.mark.parametrize(
    "text,grouped,fragment",
    [
        ("1,2\n", False, "single number"),
        ("1,2\nb\n", True, "is not 'label,count'"),
        ("1,2\n1,abc\n", True, "line 2: true-result count is not a number"),
    ],
    ids=["plain-with-a-label", "grouped-line-without-count", "grouped-count-not-a-number"],
)
def test_malformed_true_result_file_is_a_format_error(workspace, capsys, text, grouped, fragment):
    truth = workspace / "truth.txt"
    truth.write_text(text)
    query = workspace / ("grouped.sql" if grouped else "pairs.sql")
    code, out, err = run(
        capsys,
        "release",
        query,
        "--metrics",
        workspace / "metrics.txt",
        "--epsilon",
        "1.0",
        "--delta",
        "1e-6",
        "--true-result",
        truth,
        "--bins",
        "1,2",
        *BUDGET,
    )
    assert_refused_free(code, out, err, workspace / "metrics.txt")
    assert code == 3 and "error[io]" in err and fragment in err


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("alice|1,4711\n", "line 1: true-result line is not 'label,count' with a 2-part label"),
        ("bob,1,3\nalice,1,4711,99\n", "line 2: true-result line is not 'label,count'"),
        ("alice,1,4711\n\nbob,1,3\nalice,1,99\n", "line 4: true-result label repeats"),
        ("alice,1,4711\nbob,1,9x9\n", "line 2: true-result count is not a number"),
    ],
    ids=["one-part-label", "three-part-label", "repeated-label", "count-not-a-number"],
)
def test_a_grouped_true_result_file_is_read_with_the_grouping_arity(cities, capsys, text, fragment):
    # one error[io] line that names the line and echoes no label or count; nothing charged
    truth = cities / "truth.txt"
    truth.write_text(text)
    code, out, err = release_cities(
        capsys, cities, "c.city, c.zone", "--true-result", truth, "--bins", "alice|1,bob|1", *BUDGET
    )
    assert_refused_free(code, out, err, cities / "metrics.txt")
    assert code == 3 and err.startswith("error[io]: " + fragment), err
    assert not [value for value in ("alice", "bob", "4711", "99", "9x9") if value in err], err


def test_label_parts_are_read_stripped_like_csv_cells(trips, capsys):
    # a space around a part, in --bins or in a true-result line, names the same label
    (trips / "q.sql").write_text("SELECT city, taxi, COUNT(*) FROM trips GROUP BY city, taxi\n")
    truth = trips / "truth.txt"
    released = []
    for bins, line in (("a|t1,b|t2", "a,t1,5"), ("a|t1,b|t2", "a, t1,5"), ("a| t1, b |t2 ", "a,t1 ,5")):
        truth.write_text(line + "\n")
        released.append(run(capsys, "release", trips / "q.sql", "--metrics", trips / "metrics.txt",
                            "--epsilon", "1", "--delta", "1e-6", "--seed", "3", "--json",
                            "--true-result", truth, "--bins", bins))
    assert released[0][0] == 0
    assert [label for label, _ in json.loads(released[0][1])["bins"]] == ["a|t1", "b|t2"]
    assert released[1] == released[0] and released[2] == released[0]


def test_true_result_file_with_a_single_number(workspace, capsys):
    truth = workspace / "truth.txt"
    truth.write_text("\n7\n")
    argv = ("release", workspace / "pairs.sql", "--metrics", workspace / "metrics.txt",
            "--epsilon", "1.0", "--delta", "1e-6", "--seed", "3", "--true-result")
    from_file, from_flag = run(capsys, *argv, truth), run(capsys, *argv, "7")
    assert from_file[0] == 0 and from_file == from_flag


def test_budget_refusal_is_exit_2_and_persists(workspace, capsys):
    argv = (
        "release",
        workspace / "pairs.sql",
        "--metrics",
        workspace / "metrics.txt",
        "--epsilon",
        "0.7",
        "--delta",
        "1e-7",
        "--seed",
        "9",
        "--true-result",
        "10",
        "--budget-epsilon",
        "1.0",
        "--budget-delta",
        "1e-5",
    )
    code1, _, err1 = run(capsys, *argv)
    assert code1 == 0
    assert "spent_epsilon: 0.7" in err1
    ledger_path = str(workspace / "metrics.txt") + ".budget.json"
    assert os.path.exists(ledger_path)

    code2, out2, err2 = run(capsys, *argv)
    assert code2 == 2
    assert "error[budget]" in err2
    assert out2 == ""
    # the refused charge must not be recorded
    with open(ledger_path) as handle:
        spent = json.load(handle)
    assert spent["spent_epsilon"] == pytest.approx(0.7)


BUDGET = ("--budget-epsilon", "1.0", "--budget-delta", "1e-5")


def _ledger(metrics_path) -> str:
    return str(metrics_path) + ".budget.json"


@pytest.fixture
def trips(tmp_path, capsys):
    """corpus/grouped (trips by city a, b, c) with exact metrics."""
    data = tmp_path / "data"
    shutil.copytree(pathlib.Path(__file__).parent.parent / "corpus" / "grouped", data)
    metrics = tmp_path / "metrics.txt"
    assert cli.main(["collect-metrics", "--data", str(data), "--metrics", str(metrics)]) == 0
    capsys.readouterr()
    return tmp_path


def release_trips(capsys, trips, *extra):
    return run(
        capsys,
        "release",
        trips / "data" / "q_by_city.sql",
        "--metrics",
        trips / "metrics.txt",
        "--epsilon",
        "0.5",
        "--delta",
        "1e-6",
        *BUDGET,
        *extra,
    )


def assert_refused_free(code, out, err, metrics_path):
    assert code != 0
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error["), err
    assert out == ""
    assert not os.path.exists(_ledger(metrics_path))


@pytest.mark.parametrize(
    "extra,category",
    [
        (("--execute", "--bins", "a,a"), "invalid-params"),
        (("--execute",), "unsupported"),
        (("--true-result", "3"), "invalid-params"),
    ],
    ids=["duplicate-bins", "no-bins", "scalar-true-result"],
)
def test_refused_grouped_release_charges_nothing(trips, capsys, extra, category):
    if "--execute" in extra:
        extra = extra + ("--data", trips / "data")
    code, out, err = release_trips(capsys, trips, *extra)
    assert_refused_free(code, out, err, trips / "metrics.txt")
    assert "error[%s]" % category in err


def test_non_finite_bound_is_refused_and_charges_nothing(tmp_path, capsys):
    save_metrics(chain_metrics(61, mf=10**6, rows=10**7), str(tmp_path / "metrics.txt"))
    (tmp_path / "chain.sql").write_text(chain_sql(60))
    code, out, err = run(
        capsys,
        "release",
        tmp_path / "chain.sql",
        "--metrics",
        tmp_path / "metrics.txt",
        "--epsilon",
        "1.0",
        "--delta",
        "1e-9",
        "--true-result",
        "5",
        *BUDGET,
    )
    assert_refused_free(code, out, err, tmp_path / "metrics.txt")
    assert code == 1 and "error[unsupported]" in err


def test_release_whose_draw_could_overflow_is_refused_and_charges_nothing(tmp_path, capsys):
    # S = 5.55e307 and the scale are finite, but seed 10 draws past the float range
    save_metrics(chain_metrics(55, mf=500000, rows=10**7), str(tmp_path / "metrics.txt"))
    (tmp_path / "chain.sql").write_text(chain_sql(54))
    code, out, err = run(
        capsys,
        "release",
        tmp_path / "chain.sql",
        "--metrics",
        tmp_path / "metrics.txt",
        "--epsilon",
        "1",
        "--delta",
        "1e-9",
        "--true-result",
        "0",
        "--seed",
        "10",
        "--json",
        "--budget-epsilon",
        "5",
        "--budget-delta",
        "0.1",
    )
    assert_refused_free(code, out, err, tmp_path / "metrics.txt")
    assert code == 1 and "error[unsupported]" in err and "value non-finite" in err


def test_infinite_epsilon_release_is_refused_and_charges_nothing(workspace, capsys):
    # an infinite epsilon would smooth to S = 0 and print the true count
    code, out, err = run(
        capsys,
        "release",
        workspace / "pairs.sql",
        "--metrics",
        workspace / "metrics.txt",
        "--epsilon",
        "inf",
        "--delta",
        "1e-6",
        "--true-result",
        "5",
        *BUDGET,
    )
    assert_refused_free(code, out, err, workspace / "metrics.txt")
    assert code == 1 and "error[invalid-params]" in err


def _release_pairs(capsys, workspace, *extra):
    return run(
        capsys,
        "release",
        workspace / "pairs.sql",
        "--metrics",
        workspace / "metrics.txt",
        "--epsilon",
        "1.0",
        "--delta",
        "1e-6",
        *BUDGET,
        *extra,
    )


@pytest.mark.parametrize(
    "extra",
    [
        ("--true-result", "inf"),
        ("--true-result", "nan"),
        ("--seed", "-1", "--true-result", "5"),
        ("--execute",),
        # each refused before the data or a true-result file is read
        ("--execute", "--data", "no-such-directory", "--true-result", "1000000"),
        ("--data", "no-such-directory", "--true-result", "3"),
    ],
    ids=["inf", "nan", "negative-seed", "execute-without-data", "true-result-beside-execute", "data-without-execute"],
)
def test_invalid_release_input_is_refused_and_charges_nothing(workspace, capsys, extra):
    code, out, err = _release_pairs(capsys, workspace, *extra)
    assert_refused_free(code, out, err, workspace / "metrics.txt")
    assert code == 1 and "error[invalid-params]" in err
    assert "Traceback" not in err

    # with a ledger already there, the refusal leaves it byte-identical
    assert _release_pairs(capsys, workspace, "--true-result", "5")[0] == 0
    with open(_ledger(workspace / "metrics.txt"), "rb") as handle:
        before = handle.read()
    code, out, err = _release_pairs(capsys, workspace, *extra)
    assert code == 1 and out == "" and "error[invalid-params]" in err
    with open(_ledger(workspace / "metrics.txt"), "rb") as handle:
        assert handle.read() == before


def test_non_finite_grouped_true_result_is_refused(workspace, capsys):
    truth = workspace / "truth.txt"
    truth.write_text("1,2\n2,inf\n3,1\n")
    code, out, err = run(
        capsys,
        "release",
        workspace / "grouped.sql",
        "--metrics",
        workspace / "metrics.txt",
        "--epsilon",
        "1.0",
        "--delta",
        "1e-6",
        "--true-result",
        truth,
        "--bins",
        "1,2,3",
        *BUDGET,
    )
    assert_refused_free(code, out, err, workspace / "metrics.txt")
    assert code == 1 and "error[invalid-params]" in err and "inf" not in err


def test_labels_outside_bins_are_dropped_without_echo(trips, capsys):
    code, out, err = release_trips(
        capsys, trips, "--execute", "--data", trips / "data", "--bins", "nowhere", "--seed", "2"
    )
    assert code == 0
    (line,) = out.strip().splitlines()
    label, value = line.split("\t")
    assert label == "nowhere"
    float(value)
    # the observed labels a, b, c reach no stream
    assert not re.search(r"\b[abc]\b", out + err)
    with open(_ledger(trips / "metrics.txt")) as handle:
        assert json.load(handle)["spent_epsilon"] == pytest.approx(0.5)


def test_drawn_seed_is_not_printed(workspace, capsys):
    argv = (
        "release",
        workspace / "pairs.sql",
        "--metrics",
        workspace / "metrics.txt",
        "--epsilon",
        "0.7",
        "--delta",
        "1e-7",
        "--true-result",
        "100",
    )
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0
    assert "seed" not in json.loads(out)
    assert "seed" not in err
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert "seed" not in out + err
    assert "noise_scale" in err


@pytest.mark.parametrize(
    "text",
    [
        '{"spent_epsilon": 0.',
        '{"spent_epsilon": -5, "spent_delta": 0}',
        '{"spent_epsilon": 0.1}',
        '{"spent_epsilon": NaN, "spent_delta": 0}',
        '{"spent_epsilon": 0.1, "spent_delta": Infinity}',
        "[0.1, 0]",
        '{"spent_epsilon": true, "spent_delta": 0}',
        '{"spent_epsilon": "0.5", "spent_delta": 0}',
        '{"spent_epsilon": 0, "spent_delta": 1%s}' % ("0" * 400),
    ],
    ids=[
        "truncated", "negative", "missing-delta", "nan", "infinite", "not-an-object",
        "boolean", "string", "past-the-float-range",
    ],
)
def test_corrupt_ledger_is_io_error_and_left_alone(workspace, capsys, text):
    ledger_path = _ledger(workspace / "metrics.txt")
    with open(ledger_path, "w") as handle:
        handle.write(text)
    code, out, err = run(
        capsys,
        "release",
        workspace / "pairs.sql",
        "--metrics",
        workspace / "metrics.txt",
        "--epsilon",
        "0.7",
        "--delta",
        "1e-7",
        "--true-result",
        "10",
        *BUDGET,
    )
    assert code == 3
    assert "error[io]" in err
    assert out == ""
    with open(ledger_path) as handle:
        assert handle.read() == text


def test_budget_flags_must_come_together(workspace, capsys):
    code, _, err = run(
        capsys,
        "release",
        workspace / "pairs.sql",
        "--metrics",
        workspace / "metrics.txt",
        "--epsilon",
        "0.7",
        "--delta",
        "1e-7",
        "--true-result",
        "10",
        "--budget-epsilon",
        "1.0",
    )
    assert code == 1
    assert "together" in err


def test_collect_metrics_local(workspace, capsys):
    out_path = workspace / "collected.txt"
    code, _, _ = run(
        capsys,
        "collect-metrics",
        "--data",
        workspace / "data",
        "--metrics",
        out_path,
    )
    assert code == 0
    store = load_metrics(str(out_path))
    assert store.row_counts == {"edges": 4}
    assert store.mf[("edges", "source")] == 2
    assert store.mf[("edges", "dest")] == 2


def test_collect_metrics_refuses_a_repeated_column_name(tmp_path, capsys):
    # which ``a`` a metric or a row would read is not defined: refuse, write nothing
    data = tmp_path / "data"
    data.mkdir()
    (data / "t.csv").write_text("a,a,b\n1,1,0\n1,2,0\n")
    out_path = tmp_path / "t.metrics"
    code, _, err = run(capsys, "collect-metrics", "--data", data, "--metrics", out_path)
    assert code == 3
    assert "repeats a column name" in err
    assert not out_path.exists()


@pytest.mark.parametrize(
    "text,message",
    [
        ("\n1,2,3\n", "t.csv has a blank header row or an empty column name"),
        ("a,,b\n1,2,3\n", "t.csv has a blank header row or an empty column name"),
        # past the csv module's field limit, which is process-global and left as it is
        ("a,b\n1," + "x" * 140_000 + "\n", "t.csv: field larger than field limit (131072)"),
        # the refusal names the file and the fault, never the row
        ("a,b\n1,2\n\n3\n", "t.csv: a row's width differs from its header's 2 columns"),
    ],
    ids=["blank-header", "empty-name", "oversized-cell", "ragged-row"],
)
@pytest.mark.parametrize("command", ["collect-metrics", "check"])
def test_a_csv_header_without_column_names_is_an_io_error(tmp_path, capsys, command, text, message):
    case = tmp_path / "corpus" / "case"
    case.mkdir(parents=True)
    (case / "t.csv").write_text(text)
    out_path = tmp_path / "t.metrics"
    if command == "check":
        argv = ("check", "--corpus", case.parent)
    else:
        argv = ("collect-metrics", "--data", case, "--metrics", out_path)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == "error[io]: %s\n" % message and "Traceback" not in err
    assert not out_path.exists()


@pytest.mark.parametrize(
    "argv,fragment",
    [
        (("--emit-sql",), "--emit-sql needs --data or an existing --metrics file"),
        (("--metrics", "{tmp}/out.txt"), "collect-metrics needs --data"),
        (("--data", "{tmp}/data"), "collect-metrics needs --metrics"),
        (("--data", "{tmp}/data", "--metrics", "{tmp}/out.txt", "--public", "edges,nope"),
         "--public names unknown tables: nope"),
    ],
    ids=["emit-sql-without-inputs", "without-data", "without-metrics", "unknown-public-table"],
)
def test_collect_metrics_refuses_missing_or_unknown_inputs(workspace, capsys, argv, fragment):
    argv = [a.format(tmp=workspace) for a in argv]
    code, out, err = run(capsys, "collect-metrics", *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error[invalid-params]: ") and fragment in err and err.count("\n") == 1
    assert not (workspace / "out.txt").exists()


def test_collect_metrics_emit_sql(workspace, capsys):
    code, out, _ = run(
        capsys,
        "collect-metrics",
        "--data",
        workspace / "data",
        "--emit-sql",
    )
    assert code == 0
    assert (
        "SELECT COUNT(source) AS mf FROM edges GROUP BY source "
        "ORDER BY mf DESC LIMIT 1;" in out
    )
    # the same statements from the metrics file's columns, in the file's order
    # (here the header's)
    code, from_metrics, _ = run(
        capsys, "collect-metrics", "--metrics", workspace / "metrics.txt", "--emit-sql"
    )
    assert code == 0
    assert from_metrics == out


def test_check_passes_on_consistent_corpus(workspace, capsys):
    corpus = workspace / "corpus"
    case = corpus / "case"
    case.mkdir(parents=True)
    (case / "edges.csv").write_text(EDGES_CSV)
    (case / "q.sql").write_text(PAIRS_SQL)
    code, out, _ = run(capsys, "check", "--corpus", corpus)
    assert code == 0
    assert "violations: 0" in out


_BOM = "\ufeff"  # the byte-order mark Excel and Notepad put before UTF-8 text


def test_a_csv_file_that_starts_with_a_byte_order_mark_keeps_its_first_column(workspace, capsys):
    data, collected = workspace / "data", workspace / "collected.txt"
    (data / "u.csv").write_text(_BOM + "id,dept\n1,x\n2,y\n1,y\n", encoding="utf-8")
    assert run(capsys, "collect-metrics", "--data", data, "--metrics", collected)[0] == 0
    assert list(load_metrics(collected).mf)[2:] == [("u", "id"), ("u", "dept")]
    (workspace / "u.sql").write_text("SELECT COUNT(*) FROM u WHERE id < 2\n")
    argv = ("release", workspace / "u.sql", "--metrics", collected, "--epsilon", "1", "--delta", "1e-6",
            "--seed", "3", "--execute", "--data", data)
    released = run(capsys, *argv)
    assert released[0] == 0, released
    (data / "u.csv").write_text("id,dept\n1,x\n2,y\n1,y\n")
    assert run(capsys, *argv) == released


def test_a_query_file_that_starts_with_a_byte_order_mark_reads_as_without(workspace, capsys):
    argv = ("--metrics", workspace / "metrics.txt", "--epsilon", "1", "--delta", "1e-6", "--json")
    plain = run(capsys, "analyze", workspace / "pairs.sql", *argv)
    (workspace / "pairs.sql").write_text(_BOM + PAIRS_SQL, encoding="utf-8")
    assert plain[0] == 0 and run(capsys, "analyze", workspace / "pairs.sql", *argv) == plain
    # a corpus case's query and table, as ``check`` reads them
    case = workspace / "corpus" / "case"
    case.mkdir(parents=True)
    (case / "edges.csv").write_text(_BOM + EDGES_CSV, encoding="utf-8")
    (case / "q.sql").write_text(_BOM + PAIRS_SQL, encoding="utf-8")
    code, out, err = run(capsys, "check", "--corpus", workspace / "corpus")
    assert (code, out.splitlines()[-2:]) == (0, ["comparisons: 9", "violations: 0"]), err


def test_a_query_on_stdin_that_starts_with_a_byte_order_mark_reads_as_without(workspace, capsys, monkeypatch):
    argv = ("--metrics", workspace / "metrics.txt", "--epsilon", "1", "--delta", "1e-6", "--json")
    plain = run(capsys, "analyze", workspace / "pairs.sql", *argv)
    monkeypatch.setattr(sys, "stdin", io.StringIO(_BOM + PAIRS_SQL))
    assert plain[0] == 0 and run(capsys, "analyze", "-", *argv) == plain


@pytest.mark.parametrize("query,truth", [("pairs.sql", "5\n"), ("grouped.sql", "1,2\n2,1\n")], ids=["plain", "grouped"])
def test_a_true_result_file_that_starts_with_a_byte_order_mark_reads_as_without(workspace, capsys, query, truth):
    truth_path = workspace / "truth.txt"
    argv = ("release", workspace / query, "--metrics", workspace / "metrics.txt", "--epsilon", "1",
            "--delta", "1e-6", "--seed", "3", "--bins", "1,2", "--true-result", truth_path)
    truth_path.write_text(truth)
    released = run(capsys, *argv)
    truth_path.write_text(_BOM + truth, encoding="utf-8")
    assert released[0] == 0 and run(capsys, *argv) == released


@pytest.mark.parametrize("filename,header,name",
                         [("a.b.csv", "x", "a.b"), ("t.csv", "b.x", "b.x"), ("t.csv", "from", "from")],
                         ids=["table", "column", "keyword"])
def test_collect_metrics_refuses_a_name_that_is_not_an_identifier(workspace, capsys, filename, header, name):
    # written, table a.b's column x would load back as table a's column b.x,
    # and no query could name a column called from
    data, collected = workspace / "data", workspace / "collected.txt"
    (data / filename).write_text(header + "\n2\n")
    code, out, err = run(capsys, "collect-metrics", "--data", data, "--metrics", collected)
    assert (code, out, err) == (3, "", "error[io]: invalid identifier %r\n" % name)
    assert sorted(os.listdir(workspace)) == ["data", "grouped.sql", "metrics.txt", "pairs.sql"]
    # the rule --emit-sql applies to the same directory
    assert run(capsys, "collect-metrics", "--data", data, "--emit-sql")[0] == 3


def test_emit_sql_refuses_a_keyword_column_and_prints_no_statement(workspace, capsys):
    # SELECT COUNT(from) ... GROUP BY from is not SQL; the parser reads no keyword as a name
    data = workspace / "data"
    (data / "t.csv").write_text("id,from\n1,2\n")
    (workspace / "t.metrics").write_text("[tables]\nt = 1\n[mf]\nt.id = 1\nt.from = 1\n")
    refused = (3, "", "error[io]: invalid identifier 'from'\n")
    assert run(capsys, "collect-metrics", "--data", data, "--emit-sql") == refused
    # the metrics file is refused as it loads, at the line that names the column
    refused = (3, "", "error[io]: line 5: invalid identifier 'from'\n")
    assert run(capsys, "collect-metrics", "--metrics", workspace / "t.metrics", "--emit-sql") == refused


def test_check_refuses_a_corpus_without_cases(tmp_path, capsys):
    (tmp_path / "loose.sql").write_text(PAIRS_SQL)
    code, out, err = run(capsys, "check", "--corpus", tmp_path)
    assert (code, out) == (3, "")
    assert err == "error[io]: no case directories in %r\n" % str(tmp_path)


def test_check_flags_understated_metrics(workspace, capsys):
    corpus = workspace / "badcorpus"
    case = corpus / "case"
    case.mkdir(parents=True)
    (case / "edges.csv").write_text(EDGES_CSV)
    (case / "q.sql").write_text(PAIRS_SQL)
    # claim a max frequency of 1 when the data reaches 2
    (case / "metrics.txt").write_text(
        "[tables]\nedges = 4\n[mf]\nedges.source = 1\nedges.dest = 1\n"
    )
    code, out, _ = run(capsys, "check", "--corpus", corpus)
    assert code == 1
    assert any(
        line.startswith("VIOLATION") and "mf bound for" in line
        for line in out.splitlines()
    )


# The categories and exit codes every error class has always been reported
# with, restated here so that a change to errors.py cannot move one silently.
ERROR_REPORTS = [
    (errors.BudgetExhausted, "error[budget]", 2),
    (errors.UnsupportedQuery, "error[unsupported]", 1),
    (errors.ProtectedBinLabels, "error[unsupported]", 1),
    (errors.MissingMetric, "error[missing-metric]", 1),
    (errors.InvalidParams, "error[invalid-params]", 1),
    (errors.InvalidScale, "error[invalid-params]", 1),
    (errors.ParseError, "error[parse]", 1),
    (errors.UnknownTable, "error[parse]", 1),
    (errors.UnknownColumn, "error[parse]", 1),
    (errors.UnresolvedAttribute, "error[parse]", 1),
    (errors.FormatError, "error[io]", 3),
    (errors.NegativeCount, "error[io]", 3),
    (errors.EvaluationError, "error[io]", 3),
    (errors.TooLargeToEnumerate, "error[limits]", 3),
    (errors.FlexError, "error", 1),
    (OSError, "error[io]", 3),
]


def test_every_error_class_has_a_pinned_report():
    classes, pending = {errors.FlexError}, [errors.FlexError]
    while pending:
        for sub in pending.pop().__subclasses__():
            classes.add(sub)
            pending.append(sub)
    assert classes == {cls for cls, _, _ in ERROR_REPORTS} - {OSError}


@pytest.mark.parametrize(
    "cls,prefix,code", ERROR_REPORTS, ids=[cls.__name__ for cls, _, _ in ERROR_REPORTS]
)
def test_each_error_class_reaches_stderr_with_its_category_and_exit_code(
    monkeypatch, capsys, cls, prefix, code
):
    def refuse(args):
        raise cls("no way")

    monkeypatch.setattr(cli, "cmd_check", refuse)
    assert run(capsys, "check", "--corpus", "corpus") == (code, "", prefix + ": no way\n")


def test_a_format_error_names_its_line(monkeypatch, capsys):
    def refuse(args):
        raise errors.NegativeCount("mf is negative", line=4)

    monkeypatch.setattr(cli, "cmd_check", refuse)
    assert run(capsys, "check", "--corpus", "corpus") == (3, "", "error[io]: line 4: mf is negative\n")


REJECTED = [
    (
        "SELECT COUNT(*) FROM edges e1 JOIN edges e2 ON e1.source > e2.dest",
        "unsupported",
        "no equijoin term",
    ),
    ("SELECT COUNT(*) FROM people", "parse", "people"),
    ("SELECT dest FROM edges", "unsupported", "count"),
    ("SELECT COUNT(*) FROM edges WHERE source = 1 OR dest = 2", "parse", "OR"),
]


@pytest.mark.parametrize("sql,category,fragment", REJECTED)
def test_rejected_query_exits_1_with_category(workspace, capsys, sql, category, fragment):
    bad = workspace / "bad.sql"
    bad.write_text(sql)
    code, out, err = run(
        capsys,
        "analyze",
        bad,
        "--metrics",
        workspace / "metrics.txt",
        "--epsilon",
        "0.7",
        "--delta",
        "1e-7",
    )
    assert code == 1
    assert "error[%s]" % category in err
    assert fragment in err
    assert out == ""


@pytest.mark.parametrize(
    "target", ["metrics", "query", "csv-collect", "csv-execute", "true-result"]
)
def test_input_that_is_not_utf8_is_an_io_error(workspace, capsys, target):
    # a 0xff byte is never UTF-8: one error[io] line, nothing written or charged
    metrics, data = workspace / "metrics.txt", workspace / "data"
    bad = {
        "metrics": metrics,
        "query": workspace / "pairs.sql",
        "csv-collect": data / "edges.csv",
        "csv-execute": data / "edges.csv",
        "true-result": workspace / "truth.txt",
    }[target]
    bad.write_bytes(b"\xff" + (bad.read_bytes() if bad.exists() else b"1\n"))
    if target == "csv-collect":
        argv = ("collect-metrics", "--data", data, "--metrics", workspace / "collected.txt")
    else:
        source = {
            "csv-execute": ("--execute", "--data", data),
            "true-result": ("--true-result", bad),
        }.get(target, ("--true-result", "5"))
        argv = ("release", workspace / "pairs.sql", "--metrics", metrics, "--epsilon", "1.0",
                "--delta", "1e-6", *BUDGET, *source)
    code, out, err = run(capsys, *argv)
    assert_refused_free(code, out, err, metrics)
    assert code == 3 and err.startswith("error[io]: ")
    if target.startswith("csv"):  # the file, but no byte offset
        assert err == "error[io]: edges.csv: not UTF-8 text\n"
    assert not (workspace / "collected.txt").exists()


_BAD_ROWS = {  # a bad row of t.csv (header a,b,c), and the one line each command prints for it
    "over-long-cell": (b"1,2," + b"9" * 5000, "error[io]: t.csv: a cell holds an integer past the digit limit\n"),
    "ragged-row": (b"1,2", "error[io]: t.csv: a row's width differs from its header's 3 columns\n"),
    "not-utf8": (b"1,\xff,3", "error[io]: t.csv: not UTF-8 text\n"),
}


@pytest.mark.parametrize("fault", sorted(_BAD_ROWS))
def test_a_bad_row_is_refused_with_the_same_line_wherever_it_stands(tmp_path, capsys, fault):
    # which row of a protected table is bad is not told: the first, the
    # second, one past the reader's first 8 KiB and the last give one line
    bad, refusal = _BAD_ROWS[fault]
    good = [b"%d,%d,%d" % (i, i % 3, i % 5) for i in range(2000)]
    metrics, collected = tmp_path / "metrics.txt", tmp_path / "collected.txt"
    metrics.write_text("[tables]\nt = 2001\n\n[mf]\nt.a = 1\nt.b = 667\nt.c = 400\n")  # by hand
    (tmp_path / "q.sql").write_text("SELECT COUNT(*) FROM t WHERE b < 2\n")
    for at in (0, 1, 1500, len(good)):
        case = tmp_path / str(at) / "case"
        case.mkdir(parents=True)
        (case / "t.csv").write_bytes(b"\n".join([b"a,b,c", *good[:at], bad, *good[at:]]) + b"\n")
        for argv in (
            ("collect-metrics", "--data", case, "--metrics", collected),
            ("check", "--corpus", case.parent),
            ("release", tmp_path / "q.sql", "--metrics", metrics, "--epsilon", "1", "--delta", "1e-6", *BUDGET,
             "--execute", "--data", case),
        ):
            code, out, err = run(capsys, *argv)
            assert_refused_free(code, out, err, metrics)
            assert (code, err) == (3, refusal), (at, argv[0])
    assert not collected.exists()


_LONG = "9" * 5000  # more digits than Python converts to an int (4300 by default)


@pytest.mark.parametrize(
    "target,code,fragment",
    [
        ("query", 1, "error[parse]: integer literal has 5000 digits, more than Python converts\n"),
        ("csv-collect", 3, "error[io]: edges.csv: a cell holds an integer past the digit limit\n"),
        ("csv-execute", 3, "error[io]: edges.csv: a cell holds an integer past the digit limit\n"),
        ("bins", 1, "error[invalid-params]: --bins: integer label has 5000 digits, more than Python converts\n"),
        ("true-result", 3, "error[io]: line 2: true-result label holds an integer past the digit limit\n"),
    ],
    ids=["query", "csv-collect", "csv-execute", "bins", "true-result"],
)
def test_an_integer_past_the_digit_limit_is_refused_by_its_input(workspace, capsys, target, code, fragment):
    # each input reports it as its own error: one line, nothing written or charged
    metrics, data = workspace / "metrics.txt", workspace / "data"
    query, source = workspace / "grouped.sql", ("--true-result", workspace / "truth.txt")
    (workspace / "truth.txt").write_text("1,2\n%s,1\n" % (_LONG if target == "true-result" else 2))
    if target == "query":
        query.write_text(GROUPED_SQL.replace("edges", "edges WHERE source < " + _LONG))
    elif target.startswith("csv"):
        (data / "edges.csv").write_text(EDGES_CSV.replace("2,3", _LONG + ",3"))
        source = ("--execute", "--data", data)
    bins = ("--bins", "1," + (_LONG if target == "bins" else "2"))
    if target == "csv-collect":
        argv = ("collect-metrics", "--data", data, "--metrics", workspace / "collected.txt")
    else:
        argv = ("release", query, "--metrics", metrics, "--epsilon", "1.0", "--delta", "1e-6",
                *BUDGET, *source, *bins)
    got, out, err = run(capsys, *argv)
    assert_refused_free(got, out, err, metrics)
    assert got == code and err.startswith(fragment), err
    assert not (workspace / "collected.txt").exists()
    if target.startswith("csv") or target == "true-result":
        # a protected value: its refusal gives no digit count, the cell's or the limit's
        assert not re.search(r"\d{3}", err), err


def test_a_cell_past_the_digit_limit_refuses_alike_whichever_column_a_query_reads(tmp_path, capsys):
    # every column of a loaded table is converted, so a query cannot learn,
    # for free and again and again, whether the column it reads holds such a cell
    data = tmp_path / "data"
    data.mkdir()
    (data / "t.csv").write_text("name,salary,note\nalice,100,1\nbob,200,%s\ncarol,300,3\n" % _LONG)
    metrics = tmp_path / "metrics.txt"  # by hand: collect-metrics refuses the file
    metrics.write_text("[tables]\nt = 3\n\n[mf]\nt.name = 1\nt.salary = 1\nt.note = 1\n")
    for where in ("note < 5", "salary < 250", "note < 5", "name = 'alice'", ""):
        (tmp_path / "q.sql").write_text("SELECT COUNT(*) FROM t %s\n" % (where and "WHERE " + where))
        code, out, err = run(capsys, "release", tmp_path / "q.sql", "--metrics", metrics, "--epsilon", "0.5",
                             "--delta", "1e-6", "--budget-epsilon", "5", "--budget-delta", "0.1", "--seed", "1",
                             "--execute", "--data", data)
        assert_refused_free(code, out, err, metrics)
        assert (code, err) == (3, "error[io]: t.csv: a cell holds an integer past the digit limit\n"), where


def test_every_query_that_loads_a_table_with_an_over_long_cell_gets_one_refusal(tmp_path, capsys):
    # over random databases and queries: a query that loads the table gets
    # the same one line whichever of its columns it reads, and charges nothing
    rng = np.random.default_rng(20261021)
    reads_the_column = {True: 0, False: 0}
    for trial in range(30):
        db = random_micro_db(rng, max_tables=3, max_rows=5)
        long_table = str(rng.choice(sorted(db.tables)))
        row = int(rng.integers(len(db.tables[long_table])))
        column = int(rng.integers(len(db.columns[long_table])))
        data = tmp_path / str(trial)
        data.mkdir()
        for name, rows in db.tables.items():
            lines = [",".join(db.columns[name])]
            for i, cells in enumerate(rows):
                cells = list(map(str, cells))
                if (name, i) == (long_table, row):
                    cells[column] = _LONG
                lines.append(",".join(cells))
            (data / (name + ".csv")).write_text("\n".join(lines) + "\n")
        metrics = tmp_path / ("%d.metrics" % trial)
        save_metrics(db.exact_metrics(), metrics)
        refusal = "error[io]: %s.csv: a cell holds an integer past the digit limit\n" % long_table
        for _ in range(6):
            sql = random_query_sql(rng, db)
            if not re.search(r"\b%s\b" % long_table, sql):
                continue
            (tmp_path / "q.sql").write_text(sql)
            code, out, err = run(capsys, "release", tmp_path / "q.sql", "--metrics", metrics, "--epsilon", "1",
                                 "--delta", "1e-6", *BUDGET, "--execute", "--data", data, "--json")
            assert_refused_free(code, out, err, metrics)
            assert (code, err) == (3, refusal), sql
            reads_the_column["." + db.columns[long_table][column] in sql] += 1
    # both kinds of query were asked
    assert min(reads_the_column.values()) > 0, reads_the_column


def test_a_digit_that_is_not_ascii_stays_text(workspace, capsys):
    # "\u00b2".isdigit() is true, but int() refuses it: it is a label like any other
    data = workspace / "data"
    (data / "edges.csv").write_text(EDGES_CSV + "\u00b2,1\n")
    collected = workspace / "collected.txt"
    assert run(capsys, "collect-metrics", "--data", data, "--metrics", collected)[0] == 0
    assert load_metrics(collected).row_counts == {"edges": 5}
    code, out, err = run(
        capsys, "release", workspace / "grouped.sql", "--metrics", collected, "--epsilon", "1.0",
        "--delta", "1e-6", "--seed", "3", "--execute", "--data", data, "--bins", "1,\u00b2", "--json",
    )
    assert code == 0 and err == ""
    assert [label for label, _ in json.loads(out)["bins"]] == ["1", "\u00b2"]


def test_an_int_column_orders_before_text_and_releases(tmp_path, capsys):
    # a holds ints and 'q' is text: in SQLite's order every number sorts
    # first, so both rows pass and the release is charged like any other
    data = tmp_path / "data"
    data.mkdir()
    (data / "t.csv").write_text("a,b\n1,x\n2,y\n")
    metrics = tmp_path / "metrics.txt"
    assert run(capsys, "collect-metrics", "--data", data, "--metrics", metrics)[0] == 0
    for where in ("a < 'q'", "a >= 'q'", "b > 5"):
        (tmp_path / "q.sql").write_text("SELECT COUNT(*) FROM t WHERE %s\n" % where)
        code, out, err = run(capsys, "release", tmp_path / "q.sql", "--metrics", metrics,
                             "--epsilon", "0.25", "--delta", "1e-7", "--execute", "--data", data,
                             *BUDGET, "--json")
        assert code == 0 and err == "", (where, err)
        assert json.loads(out)["S"] == 1.0
    assert json.loads(out)["spent_epsilon"] == 0.75


def test_whether_a_release_is_refused_does_not_depend_on_a_protected_row(tmp_path, capsys):
    # the ordering against text meets only the rows the name test keeps. When
    # an int and text did not order, alice's row made the release exit 3 and
    # charge nothing while zed's absence released: the exit code told, for
    # free and again and again, whether alice exists
    data = tmp_path / "data"
    data.mkdir()
    (data / "t.csv").write_text("name,salary\nalice,100\nbob,200\ncarol,300\n")
    metrics = tmp_path / "metrics.txt"
    assert run(capsys, "collect-metrics", "--data", data, "--metrics", metrics)[0] == 0
    spent = []
    for who in ("alice", "zed", "alice"):
        (tmp_path / "q.sql").write_text(
            "SELECT COUNT(*) FROM t WHERE name = '%s' AND salary < 'x'\n" % who
        )
        code, out, err = run(capsys, "release", tmp_path / "q.sql", "--metrics", metrics,
                             "--epsilon", "0.5", "--delta", "1e-6", "--execute", "--data", data,
                             "--budget-epsilon", "2", "--budget-delta", "0.1", "--json")
        assert code == 0 and err == "", (who, err)
        spent.append(json.loads(out)["spent_epsilon"])
    assert spent == [0.5, 1.0, 1.5]


def test_missing_metrics_file_is_io_error(workspace, capsys):
    code, _, err = run(
        capsys,
        "analyze",
        workspace / "pairs.sql",
        "--metrics",
        workspace / "nope.txt",
        "--epsilon",
        "0.7",
        "--delta",
        "1e-7",
    )
    assert code == 3
    assert "error[io]" in err


def test_invalid_epsilon_is_invalid_params(workspace, capsys):
    code, _, err = run(
        capsys,
        "analyze",
        workspace / "pairs.sql",
        "--metrics",
        workspace / "metrics.txt",
        "--epsilon",
        "0",
        "--delta",
        "1e-7",
    )
    assert code == 1
    assert "error[invalid-params]" in err


# The child runs one command and reports which of numpy, the modules of code
# generation (dataclasses, inspect) and secrets (with hmac) it loaded: each
# costs a CLI process start-up time, and none is needed.
_CHILD = """\
import sys
from flexdp import cli
code = cli.main(sys.argv[1:])
print("imported:", sorted({"numpy", "dataclasses", "inspect", "secrets", "hmac"} & set(sys.modules)))
sys.exit(code)
"""


def _run_child(argv):
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(flexdp.__file__).parent.parent))
    done = subprocess.run(
        [sys.executable, "-c", _CHILD] + [str(a) for a in argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    *lines, imported = done.stdout.splitlines()
    return "\n".join(lines), imported


# A process that analyses queries in memory imports the analysis layers
# only: the package resolves its public names on first use, so neither the
# evaluator nor csv is compiled, and every public name is still there.
_LAYERS_CHILD = """\
import sys
import flexdp.parser, flexdp.relalg, flexdp.sensitivity, flexdp.mechanism, flexdp.metrics
assert not {"flexdp.oracle", "csv"} & set(sys.modules), sorted(sys.modules)
import flexdp
names = {}
exec("from flexdp import *", names)
got = [getattr(flexdp, name) for name in flexdp.__all__]
assert len(flexdp.__all__) == len(set(flexdp.__all__)) == 60 == len(got), flexdp.__all__
assert set(flexdp.__all__) <= set(names) and set(flexdp.__all__) <= set(dir(flexdp))
print("ok")
"""


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_main_runs_the_handler_with_the_collector_paused_and_restores_it(workspace, capsys, monkeypatch, enabled):
    # what a command builds holds no cycle, so reference counting frees it
    paused, real = [], cli.cmd_analyze

    def handler(args):
        paused.append(not gc.isenabled())
        if args.epsilon == 2:
            raise RuntimeError("a fault outside the handled errors")
        return real(args)

    monkeypatch.setattr(cli, "cmd_analyze", handler)
    argv = ("analyze", workspace / "pairs.sql", "--metrics", workspace / "metrics.txt", "--epsilon")
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert run(capsys, *argv, "1")[0] == 0
        assert gc.isenabled() is enabled
        assert run(capsys, *argv, "0")[0] == 1  # invalid-params
        assert gc.isenabled() is enabled
        assert run(capsys, *argv[:-2], workspace / "absent.txt", "--epsilon", "1")[0] == 3  # io
        assert gc.isenabled() is enabled
        with pytest.raises(RuntimeError):
            cli.main([str(a) for a in argv] + ["2"])
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert paused == [True, True, True, True]


# A release imports no brute force; ``check`` imports it when it runs.
_BRUTE_FORCE_CHILD = """\
import contextlib, io, sys
from flexdp import cli
corpus, metrics = sys.argv[1:]
data = corpus + "/two_tables"
common = ["--metrics", metrics, "--epsilon", "1", "--delta", "1e-9"]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    assert cli.main(["collect-metrics", "--data", data, "--metrics", metrics]) == 0
    assert cli.main(["analyze", data + "/q_join.sql"] + common) == 0
    assert cli.main(["release", data + "/q_join.sql", "--execute", "--data", data, "--seed", "5"] + common) == 0
    before = "flexdp.bruteforce" in sys.modules
    assert cli.main(["check", "--corpus", corpus]) == 0
print(before, "flexdp.bruteforce" in sys.modules)
"""


def test_only_check_imports_the_brute_force(tmp_path):
    src = pathlib.Path(flexdp.__file__).parent.parent
    corpus = pathlib.Path(__file__).resolve().parent.parent / "corpus"
    done = subprocess.run(
        [sys.executable, "-c", _BRUTE_FORCE_CHILD, str(corpus), str(tmp_path / "metrics.txt")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=120,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "False True\n", "")


def test_the_analysis_layers_import_without_the_evaluator():
    src = str(pathlib.Path(flexdp.__file__).parent.parent)
    # -S: no site module, whose start-up could import csv on its own
    done = subprocess.run(
        [sys.executable, "-S", "-c", _LAYERS_CHILD],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "ok\n", "")


def test_small_commands_run_without_numpy(tmp_path, capsys):
    # at any epsilon, down to a horizon of 10**13 distances; this process,
    # which holds numpy, prints the same numbers
    corpus = pathlib.Path(__file__).resolve().parent.parent / "corpus"
    data = corpus / "two_tables"
    metrics = tmp_path / "metrics.txt"
    assert run(capsys, "collect-metrics", "--data", data, "--metrics", metrics)[0] == 0
    query = data / "q_join.sql"
    for epsilon in ("1", "1e-3", "1e-12"):
        common = ("--metrics", metrics, "--epsilon", epsilon, "--delta", "1e-9", "--json")
        for argv in (
            ("analyze", query) + common,
            ("release", query) + common + ("--seed", "5", "--execute", "--data", data),
        ):
            out, imported = _run_child(argv)
            assert imported == "imported: []"
            assert run(capsys, *argv)[:2] == (0, out + "\n")
    out, imported = _run_child(("check", "--corpus", corpus))
    assert imported == "imported: []"
    assert out.splitlines()[-2:] == ["comparisons: 51", "violations: 0"]


def _two_tables_metrics(tmp_path, capsys, name, **mf):
    """The exact metrics of corpus/two_tables, with ``mf`` entries (table_column=value) overriding."""
    data = pathlib.Path(__file__).resolve().parent.parent / "corpus" / "two_tables"
    path = tmp_path / name
    assert run(capsys, "collect-metrics", "--data", data, "--metrics", path)[0] == 0
    store = load_metrics(path)
    overrides = {tuple(key.split("_")): value for key, value in mf.items()}
    save_metrics(
        MetricsStore(
            mf={**store.mf, **overrides},
            public_tables=store.public_tables,
            row_counts={table: 1000 for table in store.row_counts},
        ),
        path,
    )
    return data, path


def test_a_plain_count_release_resolves_its_query_once(tmp_path, capsys, monkeypatch):
    # the bound, the columns read and the evaluation share the counted relation's resolution,
    # and a grouped release's bin domain, derived from a public grouping column, reads its keys
    # through ``scope_of`` and ``attribute_index`` of the grouped count's input, the FROM
    # relation; the parser records both resolutions as it reads the query, so ``resolve`` is
    # never called
    data, metrics = _two_tables_metrics(tmp_path, capsys, "metrics.txt")
    grouped = pathlib.Path(__file__).resolve().parent.parent / "corpus" / "grouped"
    trips_metrics = tmp_path / "trips.txt"
    assert run(capsys, "collect-metrics", "--data", grouped, "--metrics", trips_metrics, "--public", "trips")[0] == 0
    calls, resolve = [], relalg.resolve

    def counted_resolve(*args, **options):
        calls.append(args[0])
        return resolve(*args, **options)

    for name, module in list(sys.modules.items()):  # each module that holds it by name
        if name.startswith("flexdp") and getattr(module, "resolve", None) is resolve:
            monkeypatch.setattr(module, "resolve", counted_resolve)
    for query, metrics_path, data_dir in ((data / "q_join.sql", metrics, data),
                                          (grouped / "q_by_city.sql", trips_metrics, grouped)):
        calls.clear()
        argv = ("release", query, "--metrics", metrics_path, "--epsilon", "1", "--delta", "1e-9",
                "--seed", "5", "--execute", "--data", data_dir)
        assert run(capsys, *argv)[0] == 0
        assert calls == []


def test_execute_raises_stale_metrics_to_the_data(tmp_path, capsys):
    # orders.uid is recorded as 1 while the data holds 2: a release from the
    # data uses 2, so its output is byte for byte that of exact metrics
    data, exact = _two_tables_metrics(tmp_path, capsys, "exact.txt")
    _, stale = _two_tables_metrics(tmp_path, capsys, "stale.txt", orders_uid=1)
    assert load_metrics(exact).mf[("orders", "uid")] == 2
    query = data / "q_join.sql"
    common = ("--epsilon", "1", "--delta", "1e-9", "--seed", "5")
    for extra in ((), ("--json",)):
        argv = ("release", query) + common + extra + ("--execute", "--data", data, "--metrics")
        released = run(capsys, *argv, exact)
        assert released[0] == 0
        assert run(capsys, *argv, stale) == released
    # analyze has no data and still trusts the file
    analyze = ("analyze", query, "--epsilon", "1", "--delta", "1e-9", "--json", "--metrics")
    exact_s = json.loads(run(capsys, *analyze, exact)[1])["S"]
    assert json.loads(run(capsys, *analyze, stale)[1])["S"] < exact_s


def test_execute_keeps_metrics_above_the_data(tmp_path, capsys):
    # recorded values above the data stay: the release equals one from the
    # true result under the same metrics
    data, high = _two_tables_metrics(tmp_path, capsys, "high.txt", orders_uid=300, users_id=7)
    common = ("--metrics", high, "--epsilon", "1", "--delta", "1e-9", "--seed", "5")
    query = data / "q_join.sql"
    executed = run(capsys, "release", query, *common, "--execute", "--data", data)
    assert executed[0] == 0
    assert run(capsys, "release", query, *common, "--true-result", "3") == executed


SHOP = {  # headers not in sorted order
    "users": "uid,dept,age\n1,a,30\n2,b,41\n3,a,25\n",
    "orders": "oid,uid,amount\n10,1,5\n11,1,7\n12,3,9\n13,2,6\n",
}


@pytest.fixture
def shop(tmp_path, capsys):
    """SHOP's tables in data/, their collected metrics, and a join with a filter on each side."""
    data = tmp_path / "data"
    data.mkdir()
    for name, text in SHOP.items():
        (data / (name + ".csv")).write_text(text)
    sql = "SELECT COUNT(*) FROM orders o JOIN users u ON o.uid = u.uid WHERE u.age < 40 AND o.amount > 5\n"
    (tmp_path / "q.sql").write_text(sql)
    assert run(capsys, "collect-metrics", "--data", data, "--metrics", tmp_path / "metrics.txt")[0] == 0
    return tmp_path


def release_shop(capsys, shop, data, *extra):
    return run(capsys, "release", shop / "q.sql", "--metrics", shop / "metrics.txt", "--epsilon", "1",
               "--delta", "1e-6", "--seed", "3", "--json", "--execute", "--data", data, *extra)


def test_collected_metrics_keep_each_header_and_a_release_loads_the_query_columns(shop, capsys, monkeypatch):
    headers = {name: tuple(text.split("\n", 1)[0].split(",")) for name, text in SHOP.items()}
    assert flexdp.catalog_from_metrics(load_metrics(shop / "metrics.txt")).columns == headers
    # a release stores each table in the query's columns, also from a header
    # with another column in another order
    extra = shop / "extra"
    extra.mkdir()
    (extra / "users.csv").write_text(SHOP["users"])
    (extra / "orders.csv").write_text("note,amount,oid,uid\nx,5,10,1\ny,7,11,1\nz,9,12,3\nw,6,13,2\n")
    real, loaded = flexdp.oracle.MicroDatabase.from_csv_dir, []

    def from_csv_dir(path, schema=None):
        loaded.append(real(path, schema))
        return loaded[-1]

    monkeypatch.setattr(flexdp.oracle.MicroDatabase, "from_csv_dir", from_csv_dir)
    for data in (shop / "data", extra):
        assert release_shop(capsys, shop, data)[0] == 0
    assert [db.columns for db in loaded] == [headers, headers]
    assert loaded[0].tables == loaded[1].tables


def test_a_header_with_an_extra_column_releases_the_same_value(shop, capsys):
    # a database finds a table's columns by name and ignores the others
    released = release_shop(capsys, shop, shop / "data")
    assert released[0] == 0
    extra = shop / "extra"
    extra.mkdir()
    (extra / "users.csv").write_text(SHOP["users"])
    (extra / "orders.csv").write_text("note,amount,oid,uid\nx,5,10,1\ny,7,11,1\nz,9,12,3\nw,6,13,2\n")
    assert release_shop(capsys, shop, extra) == released


def test_a_header_lacking_a_schema_column_is_an_io_error_naming_no_cell(shop, capsys):
    lacking = shop / "lacking"
    lacking.mkdir()
    (lacking / "users.csv").write_text(SHOP["users"])
    (lacking / "orders.csv").write_text("oid,uid\n4711,1\n9973,2\n")
    code, out, err = release_shop(capsys, shop, lacking, *BUDGET)
    assert_refused_free(code, out, err, shop / "metrics.txt")
    assert code == 3
    assert err == "error[io]: table 'orders' has no column 'amount' of the query's schema\n"
