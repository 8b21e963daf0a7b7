"""Walkthrough: bounding and smoothing a two-join triangle-counting query.

The query counts directed triangles in an edge table. Joins amplify how much
one person's data can move the count, so the noise must be calibrated from a
join-aware sensitivity bound rather than the usual 1/epsilon.

Run:  python3 demos/triangle_analysis.py
"""

import math

from flexdp import (
    Catalog,
    MetricsStore,
    elastic_sensitivity,
    make_params,
    parse_query,
    smooth_bound,
)

SQL = """
SELECT COUNT(*) FROM edges e1
JOIN edges e2 ON e1.dest = e2.source AND e1.source < e2.source
JOIN edges e3 ON e2.dest = e3.source AND e3.dest = e1.source
                 AND e2.source < e3.source
"""


def main():
    catalog = Catalog(columns={"edges": ("source", "dest")})
    # the only data-dependent inputs: per-column max frequencies and sizes
    metrics = MetricsStore(
        mf={("edges", "source"): 65, ("edges", "dest"): 65},
        public_tables=frozenset(),
        row_counts={"edges": 10**6},
    )

    query = parse_query(SQL, catalog)
    print("query parsed; the two self joins make the count volatile:")
    print("  a single heavily-connected node can sit in many triangles.\n")

    print("elastic sensitivity at replacement distance k")
    print("  (how far the count can move after up to k tuple replacements,")
    print("   then one more):")
    for k in (0, 1, 2, 5, 10):
        print("  k=%3d  ->  %d" % (k, elastic_sensitivity(query, k, metrics)))
    print("  the bound grows like (65+k)^2: a replaced edge can touch every")
    print("  pair of edges matching it on both sides.\n")

    for delta in (1e-7, 1e-8):
        params = make_params(0.7, delta)
        bound = smooth_bound(query, metrics, params)
        print(
            "epsilon=0.7 delta=%g: beta=%.6f, horizon 0..%d, max at k*=%d"
            % (delta, params.beta, bound.k_max, bound.k_star)
        )
        print(
            "  smooth sensitivity S = %.2f  ->  Laplace scale 2S/eps = %.1f"
            % (bound.S, 2 * bound.S / params.epsilon)
        )
    print()
    print("the smoothed bound pays for distances beyond the observed data:")
    print("  raw sensitivity at k=0 underestimates what a neighbor's")
    print("  neighbor could look like, so smoothing maximizes")
    print("  exp(-beta*k) * S^(k) and the noise uses that envelope.")

    n = metrics.total_rows()
    defaulted = make_params(0.7, n=n)
    print()
    print(
        "with delta left to its default n^(-eps*ln n) at n=%d: delta=%.3g"
        % (n, defaulted.delta)
    )
    assert math.isclose(
        defaulted.delta, math.exp(-0.7 * math.log(n) ** 2), rel_tol=1e-12
    )


if __name__ == "__main__":
    main()
