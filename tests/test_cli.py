"""End-to-end command behavior: exit codes, streams, determinism, budget."""

import io
import json
import os
import pathlib
import re
import shutil

import pytest

from flexdp import MetricsStore, cli, load_metrics, save_metrics

from _support import chain_metrics, chain_sql

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
    [("--true-result", "inf"), ("--true-result", "nan"), ("--seed", "-1", "--true-result", "5")],
    ids=["inf", "nan", "negative-seed"],
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
    ],
    ids=["truncated", "negative", "missing-delta", "nan", "infinite", "not-an-object"],
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
    # the same statements from the metrics file's columns (sorted there)
    code, from_metrics, _ = run(
        capsys, "collect-metrics", "--metrics", workspace / "metrics.txt", "--emit-sql"
    )
    assert code == 0
    assert sorted(from_metrics.splitlines()) == sorted(out.splitlines())


def test_check_passes_on_consistent_corpus(workspace, capsys):
    corpus = workspace / "corpus"
    case = corpus / "case"
    case.mkdir(parents=True)
    (case / "edges.csv").write_text(EDGES_CSV)
    (case / "q.sql").write_text(PAIRS_SQL)
    code, out, _ = run(capsys, "check", "--corpus", corpus)
    assert code == 0
    assert "violations: 0" in out


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
