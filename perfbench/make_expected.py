#!/usr/bin/env python3
"""Write expected.json: S, k* and exact k=0 sensitivity of every catalogue query.

Usage, from the root of a checkout (about five minutes, most of it deep_scan):

    python3 perfbench/make_expected.py

The values come from the package (``smooth_bound`` and ``elastic_sensitivity``
on the parsed SQL). Before anything is written, each one is recomputed with
the benchmark's own exact-integer recursion, maximised by brute force over
every k up to ceil(j*j/beta); the script fails and leaves expected.json as it
was unless S agrees within 1e-9 relative, k* and the k=0 sensitivity are
equal, and 0 < S with ln S < 600 so every released value is finite.
"""

import json
import math
import os
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from flexdp import catalog_from_metrics, elastic_sensitivity, load_metrics, make_params, parse_query, smooth_bound  # noqa: E402

import workloads as w  # noqa: E402
from shapes import brute_smooth, close, sensitivity_at, to_sql  # noqa: E402

CATALOGUES = {
    "analyze_mix": (w.mix_metrics, w.mix_catalogue, w.MIX_EPSILONS),
    "deep_scan": (w.deep_metrics, w.deep_catalogue, w.DEEP_EPSILONS),
}


def compute(name):
    metrics, entries = CATALOGUES[name][0](), CATALOGUES[name][1]()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "metrics.txt")
        with open(path, "w", encoding="utf-8") as f:
            f.write(metrics.text())
        store = load_metrics(path)
    catalog = catalog_from_metrics(store)
    results, worst = {}, 0.0
    for index, entry in enumerate(entries):
        shape = entry.shape
        aliases = ["t%d" % i for i in range(len(shape.tables))]
        q = parse_query(to_sql(shape, aliases, [0] * len(shape.filters)), catalog)
        s0 = elastic_sensitivity(q, 0, store)
        for epsilon in CATALOGUES[name][2]:
            params = make_params(epsilon, w.DELTA)
            bound = smooth_bound(q, store, params)
            key = "%d/%g" % (index, epsilon)
            results[key] = [bound.S, bound.k_star, str(s0)]
            brute_s, brute_k = brute_smooth(shape, metrics, params.beta)
            if brute_s:
                worst = max(worst, abs(bound.S - brute_s) / brute_s)
            problems = []
            if not close(bound.S, brute_s):
                problems.append("S %r vs brute force %r" % (bound.S, brute_s))
            if bound.k_star != brute_k:
                problems.append("k* %d vs brute force %d" % (bound.k_star, brute_k))
            if s0 != sensitivity_at(shape, metrics, 0):
                problems.append("k=0 sensitivity differs")
            if not 0 < bound.S < math.exp(600):
                problems.append("S = %r is not in (0, e^600)" % bound.S)
            if problems:
                raise SystemExit("%s %s: %s" % (name, key, "; ".join(problems)))
    return {"fingerprint": w.fingerprint(entries, metrics), "delta": w.DELTA,
            "results": results}, worst


def main():
    out = {}
    for name in CATALOGUES:
        t0 = time.perf_counter()
        out[name], worst = compute(name)
        print("%s: %d entries, verified by brute force, worst relative S error %.2g, in %.0f s"
              % (name, len(out[name]["results"]), worst, time.perf_counter() - t0))
    with open(HERE / "expected.json", "w", encoding="utf-8") as f:
        json.dump(out, f, indent=0, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
