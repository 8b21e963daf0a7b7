"""Tests of the benchmark itself: ``python3 -m pytest perfbench`` from the repository root."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads as w  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from speed import Speed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=str(cwd), timeout=170)


@pytest.mark.parametrize("trace, listed", [("0", "end_to_end"), ("1", "per_layer")])
@pytest.mark.parametrize("workload", [wl["name"] for wl in SPEC["workloads"]])
def test_short_run_prints_every_metric(workload, trace, listed):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if trace == "0":
        assert lines[1].split() == ["error_rate", "0", "ratio"]
    want = {m["name"]: m["unit"] for m in SPEC[listed]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        assert name in proc.stdout.split(lines[-1])[0]


def test_check_fails_when_expected_s_is_perturbed(tmp_path):
    flex = run.Flex(("parser", "sensitivity", "mechanism", "metrics"))
    metrics, entries = w.mix_metrics(), w.mix_catalogue()
    path = tmp_path / "metrics.txt"
    path.write_text(metrics.text())
    store = flex.metrics.load_metrics(str(path))
    catalog = flex.metrics.catalog_from_metrics(store)
    expected = run.load_expected("analyze_mix", entries, metrics)
    stream = w.mix_stream(5, entries)
    ops = [next(stream) for _ in range(20)]
    for op in ops:
        out = run.release_op(flex, store, catalog, op, w.DELTA)
        S, k_star, s0 = expected[op.key]
        assert run.check_release((S, k_star, s0), op, out) is None
        if S > 0:
            assert run.check_release((S * (1 + 1e-6), k_star, s0), op, out) is not None
    assert any(op.domain for op in ops) and any(op.domain is None for op in ops)


def test_rescale_divides_by_the_slowdown_of_each_stretch():
    speed = Speed(["interpreter", "arrays"])
    (_, ref_i), (_, ref_a) = speed.kernels
    speed.segments = [[0, [ref_i, ref_a], [ref_i, ref_a]],
                      [2, [ref_i, 4 * ref_a], [3 * ref_i, 12 * ref_a]]]  # sqrt(2 * 8) = 4
    assert speed.rescale([1.0, 2.0, 3.0, 6.0]) == pytest.approx([1.0, 2.0, 0.75, 1.5])
    speed.sensitivity = 0.5
    assert speed.rescale([1.0, 2.0, 3.0, 6.0]) == pytest.approx([1.0, 2.0, 1.5, 3.0])


def test_every_stretch_is_closed_and_the_pin_released():
    speed = Speed(["interpreter"])  # every_s 0: one stretch per operation
    for done in range(3):
        speed.tick(done)
    speed.tick(3, last=True)
    assert [segment[0] for segment in speed.segments] == [0, 1, 2]
    assert all(before[0] > 0 and after[0] > 0 for _, before, after in speed.segments)
    assert sorted(os.sched_getaffinity(0)) == speed.cpus


def test_missing_boundary_is_reported_absent(monkeypatch):
    import flexdp.parser

    monkeypatch.delattr(flexdp.parser, "parse_query")
    tracer = Tracer()
    tracer.install({"flexdp.parser", "flexdp.mechanism"})
    try:
        tracer.op = 0
        tracer.end(tracer.begin("op"))
    finally:
        tracer.uninstall()
    assert tracer.absent == {"parser.parse_query"}
    layers = layer_metrics(tracer)
    assert layers["parser.parse_ms"] is None and layers["parser.parse_share"] is None
    assert layers["mechanism.scan_self_ms"] == 0.0


def test_refuses_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "analyze_mix", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
