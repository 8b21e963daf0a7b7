"""Command line interface.

Subcommands:
    analyze          bound a query's sensitivity and show its smoothing
    collect-metrics  build a metrics file from CSV tables, or emit the SQL
                     an operator would run to collect the metrics remotely
    release          run the full private-release pipeline for one query
    check            brute-force validate the bounds on a corpus of tiny
                     databases and queries

Each subcommand's parser carries its handler. Results go to stdout,
diagnostics and release metadata to stderr. Exit codes: 0 success, 1
analysis rejection, 2 budget refusal, 3 I/O or format error. A refusal
prints ``error[<category>]: <message>`` and exits with the code that its
error class in ``errors.py`` carries; an OSError, or an input file that is
not UTF-8, is an I/O error. The true query result is never printed.
``main`` runs the subcommand with the cyclic garbage collector paused and
restores its state after: the rows, trees and plans a command builds hold
no cycle, so reference counting frees them.

``release --execute`` reads the data before it bounds the query. It loads
only the tables the query names, and converts every column of each, as
``collect-metrics`` and ``check`` do, so a refusal depends on the tables a
query loads, never on the columns it reads. These refusals can follow that
read; for each, whether its outcome can depend on a protected row:

* a table whose header lacks a column of the query's schema, ``io``: no,
  on the header only; it is refused before any row is read;
* a CSV file that does not load (a ragged row, a cell past the field
  limit, a byte that is not UTF-8, a missing or malformed header, or a
  cell past the digit limit in any column), ``io``: yes, on the form of a
  row, though on no value a query selects. The refusal names the file and
  the fault, never a row, a line or a byte, so it does not tell which row;
* a comparison: none can fail. Ints and text order as in SQLite, numbers
  first (``oracle._filter``);
* a grouped release without a bin domain, ``unsupported``, or with
  repeated labels, ``invalid-params``: no. A domain derived from the data
  reads public tables only;
* a noise scale whose largest draw could overflow (``mechanism._release``),
  ``unsupported``: yes. The scale comes from S under the data's observed
  key mfs, and the true counts add to the largest draw. This refusal
  charges nothing; it should instead be decided from the query and the
  metrics file alone, or charge the budget;
* the budget, ``budget``: no, on the ledger and the parameters only.
"""

from __future__ import annotations

import argparse
import fcntl
import gc
import itertools
import json
import math
import os
import sys

from .errors import FlexError, FormatError, InvalidParams
from .mechanism import (
    BudgetLedger,
    PrivacyParams,
    make_params,
    noise_scale,
    release_count,
    release_histogram,
    smooth_bound,
)
from .metrics import (
    MetricsStore,
    catalog_from_metrics,
    check_identifiers,
    load_metrics,
    metrics_collection_sql,
    save_metrics,
    validate_store,
)
from .oracle import (
    MicroDatabase,
    coerce_value,
    column_domain,
    column_max_frequency,
    eval_query,
)
from .parser import parse_query
from .relalg import (
    CountGrouped,
    Table,
    attribute_index,
    counted_relation,
    join_nodes,
    postorder,
    root_count,
    scope_of,
)
from .sensitivity import elastic_sensitivity, join_count, key_columns, mf_at_distance


def _diag(message: str):
    print(message, file=sys.stderr)


def _read_query(path: str) -> str:
    if path == "-":  # as utf-8-sig reads a file, without a leading byte-order mark
        return sys.stdin.read().removeprefix("\ufeff")
    with open(path, "r", encoding="utf-8-sig") as handle:
        return handle.read()


def _load_inputs(args):
    store = load_metrics(args.metrics)
    catalog = catalog_from_metrics(store)
    query = parse_query(_read_query(args.query), catalog)
    n = store.total_rows()
    params = make_params(args.epsilon, args.delta, n=n if n > 0 else None)
    return store, query, params


def _printable(n: int):
    """``n``, or None when it has more digits than Python converts to text.

    The limit is ``sys.get_int_max_str_digits()``; ``json.loads`` refuses
    such an integer too, so it is reported like an overflowing float.
    """
    try:
        str(n)
    except ValueError:
        return None
    return n


def cmd_analyze(args) -> int:
    store, query, params = _load_inputs(args)
    bound = smooth_bound(query, store, params)
    report = {
        "joins": join_count(query),
        "stability_at_0": _printable(elastic_sensitivity(query, 0, store)),
        "epsilon": params.epsilon,
        "delta": params.delta,
        "beta": params.beta,
        "k_max": bound.k_max,
        "k_star": bound.k_star,
        "log_S": bound.log_S,
        "S": bound.S,
        "noise_scale": noise_scale(bound.S, params),
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


def _label(parts):
    """A bin label from its parts: each stripped part's ``coerce_value``, a scalar for one part."""
    label = tuple(coerce_value(part.strip()) for part in parts)
    return label[0] if len(label) == 1 else label


def _parse_bins(raw: str, arity: int):
    labels = []
    for part in raw.split(","):
        pieces = [part] if arity == 1 else part.split("|")
        if len(pieces) != arity:
            raise InvalidParams(
                "bin label %r does not have %d '|'-separated parts" % (part, arity)
            )
        try:
            labels.append(_label(pieces))
        except ValueError:  # from coerce_value; a fixed text: the interpreter's own differs by version
            bodies = [piece.strip().removeprefix("-") for piece in pieces]
            digits = max(len(body) for body in bodies if body.isascii() and body.isdigit())
            raise InvalidParams("--bins: integer label has %d digits, more than Python converts" % digits) from None
    return labels


def _parse_true_result(text: str, arity):
    """A number or a file of one; for ``arity`` grouping columns, a file of per-label counts.

    An error names a line, never its content: labels and counts are protected.
    """
    try:
        return float(text)
    except ValueError:
        pass
    with open(text, "r", encoding="utf-8-sig") as handle:
        content = handle.read()
    if arity is None:
        try:
            return float(content)
        except ValueError:
            raise FormatError(
                "true-result file must hold a single number for a plain count"
            ) from None
    bins = {}
    for lineno, line in enumerate(content.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        *parts, count = line.split("\t") if "\t" in line else line.split(",")
        if len(parts) != arity:
            raise FormatError(
                "true-result line is not 'label,count' with a %d-part label" % arity, line=lineno
            )
        try:
            label = _label(parts)
        except ValueError:  # from coerce_value, whose text counts the digits
            raise FormatError("true-result label holds an integer past the digit limit", line=lineno) from None
        try:
            count = float(count)
        except ValueError:
            raise FormatError("true-result count is not a number", line=lineno) from None
        if label in bins:
            raise FormatError("true-result label repeats an earlier line's", line=lineno)
        bins[label] = count
    return bins


def _derived_bin_domain(root: CountGrouped, store: MetricsStore, db: MicroDatabase):
    """Enumerate the bin domain from the data when every grouping column of ``root`` is public."""
    per_column = []
    scope = scope_of(root.input)  # the parser records the FROM relation's resolution
    for attr in root.group_attrs:
        table = scope[attribute_index(attr, root.input)].table
        if table is None or not store.is_public(table):
            return None
        per_column.append(column_domain(db.tables[table], db.columns[table].index(attr.name)))
    if len(per_column) == 1:
        return per_column[0]
    return [tuple(combo) for combo in itertools.product(*per_column)]


def _observed_metrics(query, store: MetricsStore, db: MicroDatabase) -> MetricsStore:
    """``store`` with the mf of each join key the bound reads raised to ``db``'s, where larger.

    Elastic sensitivity bounds local sensitivity only where each mf is at
    least the data's. max(recorded, observed) still moves by at most 1
    between neighbouring databases, the one property of mf that smoothing
    needs, so a stale file cannot lower the noise of a release from data.
    """
    mf = dict(store.mf)
    for table, column in dict.fromkeys(key_columns(query)):  # each column once
        if (table, column) in mf:
            rows, columns = db.tables[table], db.columns[table]
            observed = column_max_frequency(rows, columns.index(column))
            mf[table, column] = max(mf[table, column], observed)
    return MetricsStore(mf, public_tables=store.public_tables, row_counts=store.row_counts)


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
                spent_epsilon, spent_delta = data["spent_epsilon"], data["spent_delta"]
            except (ValueError, KeyError, TypeError) as exc:
                raise FormatError("budget ledger %s is unreadable: %r" % (path, exc)) from None
            # a JSON number only: float() would read true as 1.0 and "0.5" as 0.5
            if not all(
                type(v) in (int, float) and 0 <= v <= sys.float_info.max
                for v in (spent_epsilon, spent_delta)
            ):
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
    root = root_count(query)
    grouped = isinstance(root, CountGrouped)
    arity = len(root.group_attrs) if grouped else None  # a label's parts

    db = None
    if args.execute:
        if not args.data:
            raise InvalidParams("--execute requires --data")
        if args.true_result is not None:
            raise InvalidParams("--execute evaluates the query on --data; it takes no --true-result")
        # only the tables the query names, each converted whole and stored in the query's columns
        schema = {node.name: node.columns for node in postorder(counted_relation(query)) if isinstance(node, Table)}
        db = MicroDatabase.from_csv_dir(args.data, schema)
        true_result = eval_query(query, db)
        store = _observed_metrics(query, store, db)
    elif args.data:
        raise InvalidParams("--data is read only with --execute")
    elif args.true_result is not None:
        true_result = _parse_true_result(args.true_result, arity)
    else:
        raise InvalidParams("supply the true result (--true-result) or --execute")

    bin_domain = None
    if grouped:
        if args.bins:
            bin_domain = _parse_bins(args.bins, arity)
        elif db is not None:
            bin_domain = _derived_bin_domain(root, store, db)
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
        # every name checked before a statement is printed
        statements = [metrics_collection_sql(table, column) for table in sorted(schema) for column in schema[table]]
        for statement in statements:
            print(statement)
        return 0
    if not args.data:
        raise InvalidParams("collect-metrics needs --data (or --emit-sql)")
    if not args.metrics:
        raise InvalidParams("collect-metrics needs --metrics to write to")
    db = MicroDatabase.from_csv_dir(args.data)
    # as --emit-sql does: written, table a.b's column x would load back as table a's b.x
    check_identifiers(*db.columns, *itertools.chain(*db.columns.values()))
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
    from .bruteforce import local_sensitivity_at, max_frequency_at  # only check enumerates

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
            query = parse_query(_read_query(os.path.join(case_dir, query_name)), catalog)
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
    p_analyze.set_defaults(handler=cmd_analyze)

    p_release = sub.add_parser("release", help="privately release a query result")
    add_common(p_release)
    p_release.add_argument("--seed", type=int, default=None)
    p_release.add_argument("--true-result", default=None, help="value or file path (without --execute)")
    p_release.add_argument("--execute", action="store_true", help="evaluate the query on --data")
    p_release.add_argument("--data", default=None, help="directory of CSV tables (with --execute)")
    p_release.add_argument("--bins", default=None, help="comma-separated histogram bin labels")
    p_release.add_argument("--budget-epsilon", type=float, default=None)
    p_release.add_argument("--budget-delta", type=float, default=None)
    p_release.set_defaults(handler=cmd_release)

    p_collect = sub.add_parser("collect-metrics", help="build or emit metric collection")
    p_collect.add_argument("--data", default=None, help="directory of CSV tables")
    p_collect.add_argument("--metrics", default=None, help="metrics file to write (or read with --emit-sql)")
    p_collect.add_argument("--public", default=None, help="comma-separated public table names")
    p_collect.add_argument("--emit-sql", action="store_true", help="print collection SQL instead of running locally")
    p_collect.set_defaults(handler=cmd_collect_metrics)

    p_check = sub.add_parser("check", help="brute-force validate bounds on a corpus")
    p_check.add_argument("--corpus", required=True, help="directory of case subdirectories")
    p_check.set_defaults(handler=cmd_check)

    return parser


def main(argv=None) -> int:
    args = _build_arg_parser().parse_args(argv)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.handler(args)
    except FlexError as exc:
        prefix = "error" if exc.category is None else "error[%s]" % exc.category
        _diag("%s: %s" % (prefix, exc))
        return exc.exit_code
    except (OSError, UnicodeDecodeError) as exc:
        _diag("error[io]: %s" % exc)
        return 3
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
