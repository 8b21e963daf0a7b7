"""Command line interface.

Subcommands:
    analyze          bound a query's sensitivity and show the smoothing scan
    collect-metrics  build a metrics file from CSV tables, or emit the SQL
                     an operator would run to collect the metrics remotely
    release          run the full private-release pipeline for one query
    check            brute-force validate the bounds on a corpus of tiny
                     databases and queries

Results go to stdout, diagnostics and release metadata to stderr. Exit codes:
0 success, 1 analysis rejection, 2 budget refusal, 3 I/O or format error.
The true query result is never printed.
"""

from __future__ import annotations

import argparse
import fcntl
import itertools
import json
import math
import os
import sys

from .errors import (
    BudgetExhausted,
    EvaluationError,
    FlexError,
    FormatError,
    InvalidParams,
    InvalidScale,
    MissingMetric,
    ParseError,
    ProtectedBinLabels,
    TooLargeToEnumerate,
    UnresolvedAttribute,
    UnsupportedQuery,
)
from .mechanism import (
    BudgetLedger,
    PrivacyParams,
    make_params,
    release_count,
    release_histogram,
    smooth_bound,
)
from .metrics import (
    MetricsStore,
    catalog_from_metrics,
    load_metrics,
    metrics_collection_sql,
    save_metrics,
    validate_store,
)
from .oracle import (
    MicroDatabase,
    coerce_value,
    eval_query,
    local_sensitivity_at,
    max_frequency_at,
)
from .parser import parse_query
from .relalg import CountGrouped, attribute_index, join_nodes, root_count, scope_of
from .sensitivity import elastic_sensitivity, join_count, mf_at_distance


def _diag(message: str):
    print(message, file=sys.stderr)


def _read_query(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_inputs(args):
    store = load_metrics(args.metrics)
    catalog = catalog_from_metrics(store)
    query = parse_query(_read_query(args.query), catalog)
    n = store.total_rows()
    params = make_params(args.epsilon, args.delta, n=n if n > 0 else None)
    return store, query, params


def cmd_analyze(args) -> int:
    store, query, params = _load_inputs(args)
    bound = smooth_bound(query, store, params)
    report = {
        "joins": join_count(query),
        "stability_at_0": elastic_sensitivity(query, 0, store),
        "epsilon": params.epsilon,
        "delta": params.delta,
        "beta": params.beta,
        "k_max": bound.k_max,
        "k_star": bound.k_star,
        "log_S": bound.log_S,
        "S": bound.S,
        "noise_scale": 2.0 * bound.S / params.epsilon,
    }
    if args.as_json:
        # strict JSON has no inf or NaN: a non-finite float is written as null
        finite = {
            key: None if isinstance(value, float) and not math.isfinite(value) else value
            for key, value in report.items()
        }
        print(json.dumps(finite, allow_nan=False))
    else:
        for key, value in report.items():
            print("%s: %s" % (key, value))
    return 0


def _parse_bins(raw: str, arity: int):
    labels = []
    for part in raw.split(","):
        part = part.strip()
        if arity == 1:
            labels.append(coerce_value(part))
        else:
            pieces = part.split("|")
            if len(pieces) != arity:
                raise InvalidParams(
                    "bin label %r does not have %d '|'-separated parts" % (part, arity)
                )
            labels.append(tuple(coerce_value(p) for p in pieces))
    return labels


def _parse_true_result(text: str, grouped: bool):
    try:
        return float(text)
    except ValueError:
        pass
    with open(text, "r", encoding="utf-8") as handle:
        content = handle.read().strip()
    if not grouped:
        try:
            return float(content)
        except ValueError:
            raise FormatError(
                "true-result file must hold a single number for a plain count"
            ) from None
    bins = {}
    for line in content.splitlines():
        line = line.strip()
        if not line:
            continue
        parts = line.split("\t") if "\t" in line else line.split(",")
        if len(parts) < 2:
            raise FormatError("true-result line %r is not 'label,count'" % line)
        *label_parts, count = parts
        label = (
            coerce_value(label_parts[0])
            if len(label_parts) == 1
            else tuple(coerce_value(p) for p in label_parts)
        )
        bins[label] = float(count)
    return bins


def _derived_bin_domain(query, store: MetricsStore, db: MicroDatabase):
    """Enumerate the bin domain from the data when every grouping column is public."""
    root = root_count(query)
    per_column = []
    scope = scope_of(root.input)
    for attr in root.group_attrs:
        provenance = scope[attribute_index(attr, root.input)].provenance
        if provenance is None or not store.is_public(provenance.table):
            return None
        index = db.columns[provenance.table].index(provenance.column)
        per_column.append(db.domains[provenance.table][index])
    if len(per_column) == 1:
        return per_column[0]
    return [tuple(combo) for combo in itertools.product(*per_column)]


def _charge_budget(args, params: PrivacyParams):
    if args.budget_epsilon is None and args.budget_delta is None:
        return None
    if args.budget_epsilon is None or args.budget_delta is None:
        raise InvalidParams(
            "--budget-epsilon and --budget-delta must be supplied together"
        )
    path = args.metrics + ".budget.json"
    lock_path = path + ".lock"
    with open(lock_path, "w") as lock_handle:
        fcntl.flock(lock_handle, fcntl.LOCK_EX)
        spent_epsilon = spent_delta = 0.0
        if os.path.exists(path):
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    data = json.load(handle)
                spent_epsilon = float(data["spent_epsilon"])
                spent_delta = float(data["spent_delta"])
            except (ValueError, KeyError, TypeError) as exc:
                raise FormatError("budget ledger %s is unreadable: %r" % (path, exc)) from None
            if not all(math.isfinite(v) and v >= 0 for v in (spent_epsilon, spent_delta)):
                raise FormatError("budget ledger %s holds an invalid total" % path)
        ledger = BudgetLedger(
            max_epsilon=args.budget_epsilon,
            max_delta=args.budget_delta,
            spent_epsilon=spent_epsilon,
            spent_delta=spent_delta,
        )
        ledger.charge(params)  # BudgetExhausted propagates; file stays unchanged
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "spent_epsilon": ledger.spent_epsilon,
                    "spent_delta": ledger.spent_delta,
                },
                handle,
            )
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        return ledger


def cmd_release(args) -> int:
    store, query, params = _load_inputs(args)
    grouped = isinstance(root_count(query), CountGrouped)

    db = None
    if args.execute:
        if not args.data:
            raise InvalidParams("--execute requires --data")
        db = MicroDatabase.from_csv_dir(args.data)
        true_result = eval_query(query, db)
    elif args.true_result is not None:
        true_result = _parse_true_result(args.true_result, grouped)
    else:
        raise InvalidParams("supply the true result (--true-result) or --execute")

    bin_domain = None
    if grouped:
        arity = len(root_count(query).group_attrs)
        if args.bins:
            bin_domain = _parse_bins(args.bins, arity)
        elif db is not None:
            bin_domain = _derived_bin_domain(query, store, db)
        if not isinstance(true_result, dict):
            raise InvalidParams("grouped query needs a per-label true result")
        result = release_histogram(
            true_result, bin_domain, query, store, params, seed=args.seed
        )
    else:
        result = release_count(true_result, query, store, params, seed=args.seed)

    # Charged only once the release exists, so every refusal above is free.
    ledger = _charge_budget(args, params)

    # A drawn seed recovers the true result from the value, so only a
    # caller-chosen one is echoed.
    metadata = {"S": result.S, "k_star": result.k_star, "noise_scale": result.noise_scale}
    if args.seed is not None:
        metadata["seed"] = result.seed
    metadata.update(epsilon=params.epsilon, delta=params.delta)
    if ledger is not None:
        metadata["spent_epsilon"] = ledger.spent_epsilon
        metadata["spent_delta"] = ledger.spent_delta

    if args.as_json:
        if grouped:
            payload = {"bins": [[_label_text(l), v] for l, v in result.bins]}
        else:
            payload = {"value": result.value}
        payload.update(metadata)
        print(json.dumps(payload))
    else:
        if grouped:
            for label, value in result.bins:
                print("%s\t%s" % (_label_text(label), value))
        else:
            print(result.value)
        for key, value in metadata.items():
            _diag("%s: %s" % (key, value))
    return 0


def _label_text(label) -> str:
    if isinstance(label, tuple):
        return "|".join(str(part) for part in label)
    return str(label)


def cmd_collect_metrics(args) -> int:
    if args.emit_sql:
        if args.data:
            db = MicroDatabase.from_csv_dir(args.data)
            schema = {name: db.columns[name] for name in sorted(db.columns)}
        elif args.metrics and os.path.exists(args.metrics):
            schema = catalog_from_metrics(load_metrics(args.metrics)).columns
        else:
            raise InvalidParams("--emit-sql needs --data or an existing --metrics file")
        for table in sorted(schema):
            for column in schema[table]:
                print(metrics_collection_sql(table, column))
        return 0
    if not args.data:
        raise InvalidParams("collect-metrics needs --data (or --emit-sql)")
    if not args.metrics:
        raise InvalidParams("collect-metrics needs --metrics to write to")
    db = MicroDatabase.from_csv_dir(args.data)
    public = frozenset(t.strip() for t in args.public.split(",") if t.strip()) if args.public else frozenset()
    unknown = public - set(db.columns)
    if unknown:
        raise InvalidParams("--public names unknown tables: %s" % ", ".join(sorted(unknown)))
    store = db.exact_metrics(public=public)
    validate_store(store)
    save_metrics(store, args.metrics)
    _diag(
        "wrote %d mf entries for %d tables to %s"
        % (len(store.mf), len(store.row_counts), args.metrics)
    )
    return 0


def cmd_check(args) -> int:
    corpus = args.corpus
    case_names = sorted(
        name
        for name in os.listdir(corpus)
        if os.path.isdir(os.path.join(corpus, name))
    )
    if not case_names:
        raise FormatError("no case directories in %r" % corpus)
    distances = (0, 1, 2)
    comparisons = 0
    violations = 0
    for case in case_names:
        case_dir = os.path.join(corpus, case)
        db = MicroDatabase.from_csv_dir(case_dir)
        metrics_path = os.path.join(case_dir, "metrics.txt")
        store = load_metrics(metrics_path) if os.path.exists(metrics_path) else db.exact_metrics()
        catalog = db.catalog()
        queries = sorted(n for n in os.listdir(case_dir) if n.endswith(".sql"))
        for query_name in queries:
            with open(os.path.join(case_dir, query_name), encoding="utf-8") as handle:
                query = parse_query(handle.read(), catalog)
            for k in distances:
                # (what, bound, actual): the sensitivity, then each join key's mf
                checks = [
                    ("bound=%s actual=%s", elastic_sensitivity(query, k, store),
                     local_sensitivity_at(query, db, k)),
                ]
                for join in join_nodes(query):
                    for key, side in ((join.key_left, join.left), (join.key_right, join.right)):
                        what = "mf bound for %s is %%s but enumeration reaches %%s" % key
                        bound = mf_at_distance(key, side, k, store)
                        checks.append((what, bound, max_frequency_at(key, side, db, k)))
                for what, bound, actual in checks:
                    comparisons += 1
                    if bound < actual:
                        violations += 1
                        detail = what % (bound, actual)
                        print("VIOLATION %s/%s k=%d %s" % (case, query_name, k, detail))
            _diag("checked %s/%s" % (case, query_name))
    print("comparisons: %d" % comparisons)
    print("violations: %d" % violations)
    return 0 if violations == 0 else 1


def _build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flexdp",
        description="Differentially private SQL counting queries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("query", help="path to a .sql file, or - for stdin")
        p.add_argument("--metrics", required=True, help="metrics file path")
        p.add_argument("--epsilon", type=float, required=True)
        p.add_argument("--delta", type=float, default=None)
        p.add_argument("--json", action="store_true", dest="as_json")

    p_analyze = sub.add_parser("analyze", help="bound a query's sensitivity")
    add_common(p_analyze)
    p_analyze.set_defaults(handler="analyze")

    p_release = sub.add_parser("release", help="privately release a query result")
    add_common(p_release)
    p_release.add_argument("--seed", type=int, default=None)
    p_release.add_argument("--true-result", default=None, help="value or file path")
    p_release.add_argument("--execute", action="store_true", help="evaluate the query on --data")
    p_release.add_argument("--data", default=None, help="directory of CSV tables")
    p_release.add_argument("--bins", default=None, help="comma-separated histogram bin labels")
    p_release.add_argument("--budget-epsilon", type=float, default=None)
    p_release.add_argument("--budget-delta", type=float, default=None)
    p_release.set_defaults(handler="release")

    p_collect = sub.add_parser("collect-metrics", help="build or emit metric collection")
    p_collect.add_argument("--data", default=None, help="directory of CSV tables")
    p_collect.add_argument("--metrics", default=None, help="metrics file to write (or read with --emit-sql)")
    p_collect.add_argument("--public", default=None, help="comma-separated public table names")
    p_collect.add_argument("--emit-sql", action="store_true", help="print collection SQL instead of running locally")
    p_collect.set_defaults(handler="collect")

    p_check = sub.add_parser("check", help="brute-force validate bounds on a corpus")
    p_check.add_argument("--corpus", required=True, help="directory of case subdirectories")
    p_check.set_defaults(handler="check")

    return parser


_CATEGORIES = (
    (BudgetExhausted, "budget", 2),
    (UnsupportedQuery, "unsupported", 1),
    (ProtectedBinLabels, "unsupported", 1),
    (MissingMetric, "missing-metric", 1),
    (InvalidParams, "invalid-params", 1),
    (InvalidScale, "invalid-params", 1),
    (ParseError, "parse", 1),  # covers UnknownTable and UnknownColumn
    (UnresolvedAttribute, "parse", 1),
    (FormatError, "io", 3),
    (EvaluationError, "io", 3),
    (TooLargeToEnumerate, "limits", 3),
)


def main(argv=None) -> int:
    args = _build_arg_parser().parse_args(argv)
    try:
        if args.handler == "analyze":
            return cmd_analyze(args)
        if args.handler == "release":
            return cmd_release(args)
        if args.handler == "collect":
            return cmd_collect_metrics(args)
        return cmd_check(args)
    except FlexError as exc:
        for kind, category, code in _CATEGORIES:
            if isinstance(exc, kind):
                _diag("error[%s]: %s" % (category, exc))
                return code
        _diag("error: %s" % exc)
        return 1
    except OSError as exc:
        _diag("error[io]: %s" % exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
