#!/usr/bin/env python3
"""flexdp benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload analyze_mix --seed 1 --seconds 20 --trace 0

Workloads (see README.md for why each exists):

    analyze_mix  in-process parse -> exact k=0 -> release, small/medium queries
    deep_scan    in-process, the same operation on 16-40 join queries
    cli_release  whole ``python -m flexdp.cli`` processes: analyze and
                 release --execute on seeded CSV tables, one budget ledger

Every workload is a closed loop: one client, the next operation starts when
the previous one has finished. A run measures for at least ``--seconds`` and
at least MIN_OPS operations, ending on a whole block of the workload's
stratified stream. End-to-end times are wall times rescaled to a reference
machine speed measured between operations (speed.py). Every operation's
output is checked; a failed check counts the operation as failed. The last
line of stdout is one JSON object: end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import Speed

# numpy and flexdp are imported inside functions: the set-up times their
# import in a fresh interpreter.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
HARD_STOP_S = 150.0  # a run always ends well inside 180 s
MIN_OPS = 100  # leaves ten operations beyond p90
SETUP_REPEATS = 7
# analyze_mix runs this many operations per --seconds: a fixed count keeps
# peak_rss_mb, which relalg's unbounded caches grow with every operation,
# comparable between commits of different speed (about 20 s at 20 on the
# 2-core machine described in README.md).
MIX_OPS_PER_SECOND = 1200
BASELINE_REPEATS = 5
PROCESS_TIMEOUT_S = 60
CLI_BUDGET = ("--budget-epsilon", "1e9", "--budget-delta", "0.5")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# Closed loop and end-to-end statistics.
# ---------------------------------------------------------------------------


def closed_loop(ops, run, check, seconds, min_ops, block, speed=None):
    """Run ``ops`` one after another; returns (latencies in s, failed count).

    Stops once ``seconds`` have passed and ``min_ops`` operations are done, at
    a multiple of ``block``; always stops after HARD_STOP_S. An operation
    fails when it raises or ``check`` returns an error message. With
    ``speed``, its kernel is timed between operations and after the last.
    """
    latencies, failed = [], 0
    start = time.perf_counter()
    while True:
        n = len(latencies)
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_STOP_S or (elapsed >= seconds and n >= min_ops and n % block == 0):
            break
        if speed is not None:
            speed.tick(n)
        op = next(ops)  # only once the loop goes on, so the next call starts on this op
        t0 = time.perf_counter()
        try:
            out, error = run(op), None
        except Exception as exc:  # an operation error is a measured failure, not a crash
            out, error = None, "%s: %s" % (type(exc).__name__, exc)
        latencies.append(time.perf_counter() - t0)
        if error is None:
            try:
                error = check(op, out)
            except Exception as exc:  # output of an unexpected shape fails the check
                error = "output check raised %s: %s" % (type(exc).__name__, exc)
        if error is not None:
            failed += 1
            if failed <= 3:
                print("operation %d failed: %s" % (n, error), file=sys.stderr)
    if speed is not None:
        speed.tick(len(latencies), last=True)
    return latencies, failed


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of the order statistics, weighted by a Beta((n+1)p,
    (n+1)(1-p)) distribution, so the operations next to the percentile all
    count and one slow or fast operation there moves the figure little.
    """
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    grid = np.linspace(0.0, 1.0, 200001)
    with np.errstate(divide="ignore"):
        log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum(pdf[1:] + pdf[:-1])))
    cdf /= cdf[-1]
    edges = np.interp(np.arange(n + 1) / n, grid, cdf)
    return float(np.dot(np.diff(edges), x))


def end_to_end(latencies, speed, setup_s, peak_rss_kb):
    """End-to-end metrics, times at the reference speed, and the wall-clock figures."""
    scaled = speed.rescale(latencies)
    wall = "wall clock: p50 %.4g ms, p90 %.4g ms, %.4g ops/s; kernel slowdown median %.3f" % (
        1e3 * quantile(latencies, 0.5), 1e3 * quantile(latencies, 0.9),
        len(latencies) / sum(latencies),
        statistics.median(speed.slowdowns()))
    return {
        "setup_s": setup_s,
        "latency_p50_ms": 1e3 * quantile(scaled, 0.5),
        "latency_p90_ms": 1e3 * quantile(scaled, 0.9),
        "ops_per_s": len(scaled) / sum(scaled),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }, wall


def timed_setup(step, speed):
    """Run ``step`` SETUP_REPEATS times; returns (median seconds at the reference speed, last result).

    ``step`` returns (its seconds, its result).
    """
    times, result = [], None
    for _ in range(SETUP_REPEATS):
        (took, result), slowdown = speed.around(step)
        times.append(took / slowdown)
    return statistics.median(times), result


def package_env():
    """The environment for a process that imports flexdp from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def fresh_import_s(modules, env, workdir):
    """Seconds to import ``modules`` in a fresh interpreter, timed inside it."""
    code = ("import time; t0 = time.perf_counter(); import %s; print(time.perf_counter() - t0)"
            % ", ".join(modules))
    status, stdout, stderr, _ = run_process([sys.executable, "-c", code], env, workdir)
    if status != 0:
        raise BenchError("importing %s exited %d: %s" % (", ".join(modules), status, stderr.strip()))
    return float(stdout)


# ---------------------------------------------------------------------------
# In-process workloads: analyze_mix and deep_scan.
# ---------------------------------------------------------------------------


class Flex:
    """The layer modules, looked up at call time so traced wrappers apply."""

    def __init__(self, names):
        for name in names:
            setattr(self, name, importlib.import_module("flexdp." + name))


def release_op(flex, store, catalog, op, delta):
    q = flex.parser.parse_query(op.sql, catalog)
    s0 = flex.sensitivity.elastic_sensitivity(q, 0, store)
    params = flex.mechanism.make_params(op.epsilon, delta)
    if op.domain is None:
        result = flex.mechanism.release_count(op.true_result, q, store, params, seed=op.seed)
    else:
        result = flex.mechanism.release_histogram(
            op.true_result, op.domain, q, store, params, seed=op.seed)
    return s0, result


def check_release(expected, op, out):
    """None when the release matches ``expected`` = (S, k_star, s0); else why not."""
    from shapes import close

    S, k_star, s0 = expected
    got_s0, result = out
    if got_s0 != s0:
        return "stability at k=0 is %s, expected %s" % (got_s0, s0)
    if not close(result.S, S):
        return "S is %r, expected %r" % (result.S, S)
    if result.k_star != k_star:
        return "k* is %s, expected %s" % (result.k_star, k_star)
    if op.domain is None:
        values = [result.value]
    else:
        if [label for label, _ in result.bins] != list(op.domain):
            return "released bins do not follow the bin domain"
        values = [v for _, v in result.bins]
    return _check_values(values, op.true_result, S, op.epsilon, op.seed, op.domain)


def _check_values(values, true_result, S, epsilon, seed, domain):
    from shapes import close, released_values

    want = released_values(true_result, S, epsilon, seed, domain)
    scale = 2.0 * S / epsilon
    if len(values) != len(want) or not all(close(a, b, scale) for a, b in zip(values, want)):
        return "released values differ from the seeded replay"
    return None


def load_expected(name, entries, metrics):
    from workloads import fingerprint

    with open(Path(__file__).with_name("expected.json"), encoding="utf-8") as f:
        data = json.load(f)[name]
    if data["fingerprint"] != fingerprint(entries, metrics):
        raise BenchError("expected.json does not describe the %s catalogue" % name)
    return {key: (S, k, int(s0)) for key, (S, k, s0) in data["results"].items()}


def run_in_process(args, workdir, name):
    layer_names = ("parser", "relalg", "sensitivity", "mechanism", "metrics")
    flex = Flex(layer_names)
    import workloads as w

    if name == "analyze_mix":
        make_metrics, make_entries, stream, block = w.mix_metrics, w.mix_catalogue, w.mix_stream, 1
    else:
        make_metrics, make_entries, stream = w.deep_metrics, w.deep_catalogue, w.deep_stream
        block = w.deep_block_size()
    metrics_path = str(workdir / "metrics.txt")
    env = package_env()

    def setup():
        # The import is timed in a fresh interpreter, as this one has it cached.
        took = fresh_import_s(["flexdp." + name for name in layer_names], env, workdir)
        t0 = time.perf_counter()
        metrics, entries = make_metrics(), make_entries()
        with open(metrics_path, "w", encoding="utf-8") as f:
            f.write(metrics.text())
        store = flex.metrics.load_metrics(metrics_path)
        catalog = flex.metrics.catalog_from_metrics(store)
        return took + time.perf_counter() - t0, (metrics, entries, store, catalog)

    setup_s, (metrics, entries, store, catalog) = timed_setup(setup, Speed(["interpreter"]))
    expected = load_expected(name, entries, metrics)
    ops = stream(args.seed, entries)
    run = lambda op: release_op(flex, store, catalog, op, w.DELTA)
    check = lambda op, out: check_release(expected[op.key], op, out)

    if args.trace:
        latencies, failed, layers = traced(args, ops, run, check, block, flex, modules={
            "flexdp.parser", "flexdp.sensitivity", "flexdp.mechanism", "flexdp.metrics"})
        # no process, ledger or metrics collection on this workload
        layers.update(dict.fromkeys(
            ("metrics.collect_ms", "cli.interpreter_ms", "cli.import_ms", "cli.ledger_bytes"), 0))
        return latencies, failed, layers, {}
    if name == "analyze_mix":
        # interpreter-bound operations of about 0.5 ms: the kernel runs every 0.25 s
        speed = Speed(["interpreter"], every_s=0.25)
        latencies, failed = closed_loop(
            ops, run, check, 0, max(MIN_OPS, int(MIX_OPS_PER_SECOND * args.seconds)), block, speed)
    else:
        # The smoothing scan waits on memory and page faults as well, so it slows
        # less than the kernels do: over 18 runs on the machine in README.md, log
        # operation rate against log kernel slowdown had slope -0.65 (r = -0.95).
        speed = Speed(["interpreter", "arrays"], every_s=1.0, sensitivity=0.65)
        latencies, failed = closed_loop(ops, run, check, args.seconds, MIN_OPS, block, speed)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    values, wall = end_to_end(latencies, speed, setup_s, usage.ru_maxrss)
    return latencies, failed, values, {"wall": wall}


# ---------------------------------------------------------------------------
# Traced runs.
# ---------------------------------------------------------------------------


def traced(args, ops, run, check, block, flex, modules):
    """Alternate untraced and traced blocks of one stream for ``args.seconds``.

    One untimed block warms up first. Returns (latencies, failed, layer
    metrics); the difference between the untraced and traced operation rates
    is the tracing overhead.
    """
    from spans import Tracer, layer_metrics

    tracer = Tracer()

    def run_spanned(op):
        tracer.op += 1
        index = tracer.begin("op")
        try:
            return run(op)
        finally:
            tracer.end(index)

    warm, failed = closed_loop(ops, run, check, 0, block, block)
    plain, spanned = [], []
    start = time.perf_counter()
    while not spanned or len(plain) > len(spanned) or time.perf_counter() - start < args.seconds:
        if len(plain) <= len(spanned):
            latencies, block_failed = closed_loop(ops, run, check, 0, block, block)
            plain += latencies
        else:
            tracer.install(modules)
            try:
                latencies, block_failed = closed_loop(ops, run_spanned, check, 0, block, block)
            finally:
                tracer.uninstall()
            spanned += latencies
        failed += block_failed
    WORK.mkdir(exist_ok=True)
    tracer.write(str(WORK / ("trace-%s.json" % args.workload)))
    layers = layer_metrics(tracer)
    for metric, attr in (("relalg.scope_cache_entries", "scope_of"),
                         ("relalg.ancestors_cache_entries", "ancestors")):
        info = getattr(getattr(flex.relalg, attr, None), "cache_info", None)
        layers[metric] = info().currsize if info is not None else 0
    plain_rate = len(plain) / sum(plain)
    traced_rate = len(spanned) / sum(spanned)
    layers["trace.overhead_ops_per_s"] = plain_rate - traced_rate
    layers["trace.overhead_share"] = (plain_rate - traced_rate) / plain_rate
    return warm + plain + spanned, failed, layers


# ---------------------------------------------------------------------------
# cli_release: whole processes.
# ---------------------------------------------------------------------------


def _timeout(signum, frame):
    raise TimeoutError("process ran longer than %d s" % PROCESS_TIMEOUT_S)


def run_process(argv, env, workdir):
    """Run one process to completion: (exit code, stdout, stderr, peak RSS in KB)."""
    with open(workdir / "stdout", "w+b") as out, open(workdir / "stderr", "w+b") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=str(ROOT))
        previous = signal.signal(signal.SIGALRM, _timeout)
        signal.alarm(PROCESS_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except TimeoutError:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read().decode(), err.read().decode(), usage.ru_maxrss


def check_cli(expected, op, out):
    """None when one analyze/release process printed the expected JSON; else why not."""
    from shapes import close

    code, stdout = out
    if code != 0:
        return "exit code %s" % code
    try:
        payload = json.loads(stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return "stdout does not end in a JSON object"
    S, k_star = expected["bounds"][op.epsilon]
    if not isinstance(payload.get("S"), float) or not close(payload["S"], S):
        return "S is %r, expected %r" % (payload.get("S"), S)
    if payload.get("k_star") != k_star:
        return "k* is %r, expected %r" % (payload.get("k_star"), k_star)
    if op.kind == "analyze":
        if payload.get("stability_at_0") != expected["s0"]:
            return "stability at k=0 is %r, expected %r" % (payload.get("stability_at_0"), expected["s0"])
        return None
    domain = expected["domain"]
    if domain is None:
        values = [payload.get("value")]
    else:
        bins = payload.get("bins") or []
        if [label for label, _ in bins] != [str(label) for label in domain]:
            return "released bins do not follow the bin domain"
        values = [v for _, v in bins]
    if not all(isinstance(v, float) for v in values):
        return "released values are not numbers"
    return _check_values(values, expected["true"], S, op.epsilon, op.seed, domain)


def run_cli(args, workdir):
    import workloads as w
    from shapes import beta_of, brute_smooth, evaluate, sensitivity_at, to_sql

    env = package_env()
    python = sys.executable
    data, meta = workdir / "data", workdir / "meta"
    meta.mkdir()
    metrics_path = meta / "metrics.txt"
    instances = w.cli_instances(args.seed)
    query_paths = [workdir / ("%s.sql" % name) for name, _, _ in instances]
    collect_s = []

    def setup():
        t0 = time.perf_counter()
        tables = w.cli_tables(args.seed)
        w.write_csv_dir(tables, str(data))
        for path, (_, shape, literals) in zip(query_paths, instances):
            path.write_text(to_sql(shape, w.CLI_ALIASES, literals) + "\n", encoding="utf-8")
        t1 = time.perf_counter()
        code, _, stderr, _ = run_process(
            [python, "-m", "flexdp.cli", "collect-metrics", "--data", str(data),
             "--metrics", str(metrics_path), "--public", ",".join(w.CLI_PUBLIC)], env, workdir)
        t2 = time.perf_counter()
        collect_s.append(t2 - t1)
        if code != 0:
            raise BenchError("collect-metrics exited %d: %s" % (code, stderr.strip()))
        return t2 - t0, tables

    speed = Speed(["interpreter"])  # start-up, import and CSV loading
    setup_s, tables = timed_setup(setup, speed)
    reference = w.cli_metrics(tables)
    expected = []
    for _, shape, literals in instances:
        expected.append({
            "s0": sensitivity_at(shape, reference, 0),
            "bounds": {eps: brute_smooth(shape, reference, beta_of(eps, w.DELTA))
                       for eps in w.MIX_EPSILONS},
            "true": evaluate(shape, tables, w.CLI_COLUMNS, literals),
            "domain": w.cli_domain(shape),
        })

    def argv(op):
        line = [op.kind, str(query_paths[op.instance]), "--metrics", str(metrics_path),
                "--epsilon", repr(op.epsilon), "--delta", repr(w.DELTA), "--json"]
        if op.kind == "release":
            line += ["--execute", "--data", str(data), "--seed", str(op.seed), *CLI_BUDGET]
            domain = expected[op.instance]["domain"]
            if domain is not None:
                line += ["--bins", ",".join(str(label) for label in domain)]
        return line

    peak_kb = []

    def run_subprocess(op):
        code, stdout, _, rss_kb = run_process(
            [python, "-m", "flexdp.cli"] + argv(op), env, workdir)
        peak_kb.append(rss_kb)
        return code, stdout

    ops = w.cli_stream(args.seed, len(instances))
    check = lambda op, out: check_cli(expected[op.instance], op, out)
    block = 2 * len(instances)
    if args.trace:
        flex = Flex(("relalg", "cli"))

        def run_in_process(op):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = flex.cli.main(argv(op))
                except SystemExit as exc:  # argparse rejected the arguments
                    code = exc.code
            return code, out.getvalue()

        modules = {"flexdp.parser", "flexdp.sensitivity", "flexdp.mechanism",
                   "flexdp.metrics", "flexdp.oracle", "flexdp.cli"}
        latencies, failed, layers = traced(args, ops, run_in_process, check, block, flex, modules)
        layers["metrics.collect_ms"] = 1e3 * statistics.median(collect_s)
        layers.update(startup_split(python, env, workdir, speed))
        layers["cli.ledger_bytes"] = sum(
            p.stat().st_size for p in meta.iterdir() if p.name != metrics_path.name)
        return latencies, failed, layers, {}
    latencies, failed = closed_loop(
        ops, run_subprocess, check, args.seconds, MIN_OPS, block, speed)
    notes = startup_split(python, env, workdir, speed)
    values, notes["wall"] = end_to_end(latencies, speed, setup_s, max(peak_kb, default=0))
    return latencies, failed, values, notes


def startup_split(python, env, workdir, speed):
    """Median time of a bare interpreter, and what importing flexdp.cli adds, at the reference speed."""

    def median_ms(code):
        times = []
        for _ in range(BASELINE_REPEATS):
            def process():
                t0 = time.perf_counter()
                status, _, stderr, _ = run_process([python, "-c", code], env, workdir)
                if status != 0:
                    raise BenchError("%r exited %d: %s" % (code, status, stderr.strip()))
                return time.perf_counter() - t0

            took, slowdown = speed.around(process)
            times.append(took / slowdown)
        return 1e3 * statistics.median(times)

    bare = median_ms("pass")
    return {"cli.interpreter_ms": bare, "cli.import_ms": median_ms("import flexdp.cli") - bare}


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------

END_TO_END_UNITS = {
    "setup_s": "s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
    "ops_per_s": "1/s", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "parser.parse_ms": "ms", "parser.parse_share": "ratio",
    "relalg.scope_cache_entries": "count", "relalg.ancestors_cache_entries": "count",
    "sensitivity.exact_k0_ms": "ms", "sensitivity.exact_k0_share": "ratio",
    "sensitivity.log_profile_ms": "ms", "sensitivity.log_profile_share": "ratio",
    "sensitivity.log_profile_points": "count",
    "mechanism.scan_self_ms": "ms", "mechanism.scan_self_share": "ratio",
    "mechanism.k_max_p50": "count", "mechanism.k_star_ratio": "ratio",
    "mechanism.sample_ms": "ms",
    "metrics.load_ms": "ms", "metrics.collect_ms": "ms",
    "oracle.csv_load_ms": "ms", "oracle.eval_ms": "ms",
    "cli.interpreter_ms": "ms", "cli.import_ms": "ms", "cli.self_ms": "ms",
    "cli.ledger_bytes": "bytes",
    "trace.overhead_ops_per_s": "1/s", "trace.overhead_share": "ratio",
}
WORKLOADS = ("analyze_mix", "deep_scan", "cli_release")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all of them, each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def argv_tail(args):
    return ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "flexdp" / "__init__.py").is_file():
        print("error: no flexdp package under %s; run from a repository checkout" % SRC,
              file=sys.stderr)
        return 2
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", name] + argv_tail(args)).returncode
                 for name in WORKLOADS]
        return max(codes)
    sys.path.insert(0, str(SRC))
    workdir = WORK / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    workdir.mkdir(parents=True)
    try:
        if args.workload == "cli_release":
            result = run_cli(args, workdir)
        else:
            result = run_in_process(args, workdir, args.workload)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    latencies, failed, values, notes = result
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print("%s seed %d trace %d: %d operations, %d failed"
          % (args.workload, args.seed, args.trace, len(latencies), failed))
    if not args.trace:
        print("  %-34s %.6g ratio" % ("error_rate", failed / len(latencies)))
    for name, unit in units.items():
        value = values[name]
        shown = "absent" if value is None else "%.6g %s" % (value, unit)
        if name == "latency_p50_ms" and "cli.import_ms" in notes:  # cli_release: the start-up floor
            shown += "  (interpreter %.1f ms + import flexdp.cli %.1f ms)" % (
                notes["cli.interpreter_ms"], notes["cli.import_ms"])
        print("  %-34s %s" % (name, shown))
    if "wall" in notes:
        print("  (%s)" % notes["wall"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(latencies),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
