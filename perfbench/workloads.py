"""Inputs of the three workloads.

``analyze_mix`` and ``deep_scan`` draw their queries from fixed catalogues of
shapes over fixed metrics, so that every (shape, epsilon) pair has an
expected result in ``expected.json``; the workload seed chooses which shapes
run, in which order, with which epsilon, aliases, literals, true results and
RNG seeds. ``cli_release`` generates its CSV tables from the seed and derives
its expected results from them at set-up.
"""

from __future__ import annotations

import csv
import hashlib
import os
import random
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from shapes import Join, Metrics, Shape, to_sql

DELTA = 1e-9
MIX_EPSILONS = (0.5, 1.0)
DEEP_EPSILONS = (0.1, 0.25)
CATALOGUE_SEED = 20170628
ROWS = 10**6


@dataclass(frozen=True)
class Entry:
    shape: Shape
    bins: int = 0  # size of the released bin domain, grouped shapes only


@dataclass
class Op:
    """One in-process operation: analyze and release one query."""

    key: str  # "<catalogue index>/<epsilon>", the expected-results key
    sql: str
    epsilon: float
    true_result: object
    seed: int
    domain: Optional[list]


# ---------------------------------------------------------------------------
# analyze_mix: small and medium queries, weighted towards few joins.
# ---------------------------------------------------------------------------

_FEW = (0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 4, 4, 5, 6, 7, 8, 9, 10, 11, 12)


def mix_metrics() -> Metrics:
    r = random.Random(CATALOGUE_SEED)
    mf = {}
    for i in range(13):
        mf.update({("c%d" % i, "a"): r.randrange(1, 200), ("c%d" % i, "b"): r.randrange(1, 200),
                   ("c%d" % i, "v"): r.randrange(1, 5000)})
    for i in range(8):
        mf[("f", "k%d" % i)] = r.randrange(1, 500)
        mf.update({("d%d" % i, "id"): r.randrange(1, 4), ("d%d" % i, "v"): r.randrange(1, 5000)})
    mf[("f", "v")] = r.randrange(1, 5000)
    mf.update({("e", "src"): 65, ("e", "dst"): 80, ("e", "w"): 900})
    mf.update({("g", "label"): 40000, ("g", "k"): r.randrange(1, 300), ("g", "v"): 3000})
    tables = {t for t, _ in mf}
    return Metrics(mf=mf, public=frozenset({"d5", "d6", "d7"}), rows={t: ROWS for t in tables})


def _chain(r, tables, j, residual_p=0.3):
    occ = r.sample(tables, j + 1)
    joins = tuple(
        Join(t - 1, "b", "a", ((t - 1, "v", "<", t, "v"),) if r.random() < residual_p else ())
        for t in range(1, j + 1)
    )
    filters = tuple((r.randrange(j + 1), "v", r.choice("<>")) for _ in range(r.randrange(3)))
    return Shape("chain", tuple(occ), joins, filters)


def _star(r, n_dims, fact, dims):
    """``fact`` joined to ``n_dims`` of the tables ``dims`` on fact.k<i> = dim.id."""
    picked = r.sample(range(len(dims)), n_dims)
    joins = tuple(Join(0, "k%d" % d, "id") for d in picked)
    filters = tuple((r.randrange(1, n_dims + 1), "v", r.choice("<>")) for _ in range(r.randrange(3)))
    return Shape("star", (fact,) + tuple(dims[d] for d in picked), joins, filters)


def _path(r, table, j):
    joins = tuple(
        Join(t - 1, "dst", "src", ((0, "w", "<", t, "w"),) if r.random() < 0.3 else ())
        for t in range(1, j + 1)
    )
    return Shape("path", (table,) * (j + 1), joins)


def _cycle(table, length):
    """Triangle (3) or 4-cycle on ``table``: the closing edge and an order are residual."""
    joins = [Join(t - 1, "dst", "src") for t in range(1, length - 1)]
    joins.append(Join(length - 2, "dst", "src",
                      ((length - 1, "dst", "=", 0, "src"), (0, "src", "<", 1, "src"))))
    return Shape("cycle", (table,) * length, tuple(joins))


def mix_catalogue() -> List[Entry]:
    r = random.Random(CATALOGUE_SEED + 1)
    chain_tables = ["c%d" % i for i in range(13)]
    entries = [Entry(_chain(r, chain_tables, r.choice(_FEW))) for _ in range(80)]
    dims = ["d%d" % i for i in range(8)]
    entries += [Entry(_star(r, r.choice(_FEW[2:12]), "f", dims)) for _ in range(60)]
    entries += [Entry(_path(r, "e", r.choice(_FEW[2:14]))) for _ in range(40)]
    entries += [Entry(_cycle("e", 3 + i % 2)) for i in range(20)]
    for _ in range(50):
        j = r.choice(_FEW[:11])
        occ = r.sample(chain_tables, j)
        joins = [Join(0, "k", "a")] * (j > 0) + [Join(t - 1, "b", "a") for t in range(2, j + 1)]
        filters = ((0, "v", r.choice("<>")),) + tuple(
            (r.randrange(1, j + 1), "v", r.choice("<>")) for _ in range(r.randrange(2) if j else 0))
        shape = Shape("grouped", ("g",) + tuple(occ), tuple(joins), filters, (0, "label"))
        entries.append(Entry(shape, r.randrange(10, 101)))
    return entries


# ---------------------------------------------------------------------------
# deep_scan: 16 to 40 joins, where the smoothing scan dominates.
# ---------------------------------------------------------------------------

DEEP_BUCKETS = ((16, 19), (20, 23), (24, 27), (28, 31), (32, 35), (36, 40))


def deep_metrics() -> Metrics:
    r = random.Random(CATALOGUE_SEED + 2)
    mf = {}
    for i in range(41):
        mf.update({("q%d" % i, "a"): r.randrange(1, 100), ("q%d" % i, "b"): r.randrange(1, 100),
                   ("q%d" % i, "v"): r.randrange(1, 5000)})
        mf.update({("F", "k%d" % i): r.randrange(1, 300), ("D%d" % i, "id"): r.randrange(1, 4),
                   ("D%d" % i, "v"): r.randrange(1, 5000)})
    mf.update({("F", "v"): 5000, ("E", "src"): 40, ("E", "dst"): 50, ("E", "w"): 900})
    tables = {t for t, _ in mf}
    public = frozenset("D%d" % i for i in range(4, 41, 5))
    return Metrics(mf=mf, public=public, rows={t: ROWS for t in tables})


def deep_catalogue() -> List[Entry]:
    """Two shapes per (join bucket, family), of one join count, on different tables.

    The two shapes of a cell cost the same to analyze, so the seed's choice
    between them changes the inputs but not the mix of work.
    """
    r = random.Random(CATALOGUE_SEED + 3)
    chain_tables = ["q%d" % i for i in range(41)]
    dims = ["D%d" % i for i in range(41)]
    make = {
        "chain": lambda j: _chain(r, chain_tables, j, 0.1),
        "star": lambda j: _star(r, j, "F", dims),
        "path": lambda j: _path(r, "E", j),
    }
    entries = []
    for low, high in DEEP_BUCKETS:
        for family in ("chain", "star", "path"):
            j = r.randrange(low, high + 1)
            entries += [Entry(make[family](j)) for _ in range(2)]
    return entries


def deep_stratum(entry: Entry) -> int:
    j = entry.shape.n_joins
    return next(i for i, (low, high) in enumerate(DEEP_BUCKETS) if low <= j <= high)


def fingerprint(entries: List[Entry], metrics: Metrics) -> str:
    text = repr(entries) + metrics.text()
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Streams of operations.
# ---------------------------------------------------------------------------


def _op(r: random.Random, n: int, index: int, entry: Entry, epsilon: float) -> Op:
    shape = entry.shape
    aliases = ["o%dx%d" % (n, i) for i in range(len(shape.tables))]
    literals = [r.randrange(0, 5000) for _ in shape.filters]
    domain = None
    if entry.bins:
        domain = ["L%02d" % i for i in range(entry.bins)]
        true_result = {label: r.randrange(0, 2000) for label in domain if r.random() < 0.7}
    else:
        true_result = r.randrange(0, 10**6)
    return Op("%d/%g" % (index, epsilon), to_sql(shape, aliases, literals), epsilon,
              true_result, r.randrange(2**63), domain)


def mix_stream(seed: int, entries: List[Entry]) -> Iterator[Op]:
    r = random.Random(seed * 7 + 1)
    n = 0
    while True:
        index = r.randrange(len(entries))
        yield _op(r, n, index, entries[index], r.choice(MIX_EPSILONS))
        n += 1


def _deep_cells(entries: List[Entry]) -> Dict[tuple, List[int]]:
    cells: Dict[tuple, List[int]] = {}
    for index, entry in enumerate(entries):
        for eps in DEEP_EPSILONS:
            cells.setdefault((deep_stratum(entry), entry.shape.family, eps), []).append(index)
    return cells


def deep_block_size() -> int:
    return len(_deep_cells(deep_catalogue()))


def deep_stream(seed: int, entries: List[Entry]) -> Iterator[Op]:
    """Blocks holding one query of every (join bucket, family, epsilon) cell, shuffled.

    A run ends on a whole block, so runs of different seeds measure the same
    mix of query sizes and differ only in which shape of a cell runs.
    """
    r = random.Random(seed * 7 + 2)
    cells = _deep_cells(entries)
    n = 0
    while True:
        block = [(r.choice(cells[c]), c[2]) for c in sorted(cells)]
        r.shuffle(block)
        for index, epsilon in block:
            yield _op(r, n, index, entries[index], epsilon)
            n += 1


# ---------------------------------------------------------------------------
# cli_release: seeded CSV tables and a fixed set of query templates.
# ---------------------------------------------------------------------------

CLI_COLUMNS = {
    "users": ("uid", "dept", "age"),
    "orders": ("oid", "uid", "amount"),
    "depts": ("dept", "region"),
    "edges": ("src", "dst", "w"),
}
CLI_PUBLIC = ("depts",)
_DEPTS = ["D%02d" % i for i in range(40)]
_REGIONS = list(range(5))

# (name, shape, literal ranges); occurrence aliases are fixed per template.
CLI_TEMPLATES = (
    ("orders_filtered", Shape("cli", ("orders",), (), ((0, "amount", ">"),)), ((1, 500),)),
    ("orders_users", Shape("cli", ("orders", "users"), (Join(0, "uid", "uid"),),
                           ((1, "age", "<"),)), ((20, 80),)),
    ("users_depts", Shape("cli", ("users", "depts"), (Join(0, "dept", "dept"),),
                          ((1, "region", "="),)), ((0, 5),)),
    ("orders_by_dept", Shape("cli", ("orders", "users"), (Join(0, "uid", "uid"),),
                             ((0, "amount", ">"),), (1, "dept")), ((1, 500),)),
    ("users_by_region", Shape("cli", ("users", "depts"), (Join(0, "dept", "dept"),),
                              (), (1, "region")), ()),
    ("edge_paths", Shape("cli", ("edges", "edges"), (Join(0, "dst", "src", ((0, "w", "<", 1, "w"),)),)), ()),
    ("triangles", _cycle("edges", 3), ()),
)


def cli_tables(seed: int) -> Dict[str, list]:
    """5000 users, 20000 orders with Zipf-skewed uid, public depts, skewed edges."""
    r = random.Random(seed * 7 + 3)
    dept_weights = [1.0 / (i + 1) for i in range(len(_DEPTS))]
    users = [(u, d, r.randrange(18, 81))
             for u, d in zip(range(5000), r.choices(_DEPTS, dept_weights, k=5000))]
    ranked = list(range(5000))
    r.shuffle(ranked)
    uid_weights = [1.0 / (i + 1) ** 1.8 for i in range(5000)]
    orders = [(o, u, r.randrange(1, 501))
              for o, u in enumerate(r.choices(ranked, uid_weights, k=20000))]
    depts = [(d, i % len(_REGIONS)) for i, d in enumerate(_DEPTS)]
    nodes = list(range(400))
    node_weights = [1.0 / (i + 1) ** 0.6 for i in range(400)]
    r.shuffle(nodes)
    ends = r.choices(nodes, node_weights, k=2 * 2500)
    edges = [(ends[2 * i], ends[2 * i + 1], r.randrange(0, 1000)) for i in range(2500)]
    return {"users": users, "orders": orders, "depts": depts, "edges": edges}


def write_csv_dir(tables: Dict[str, list], path: str):
    os.makedirs(path, exist_ok=True)
    for name, rows in tables.items():
        with open(os.path.join(path, name + ".csv"), "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow(CLI_COLUMNS[name])
            writer.writerows(rows)


def cli_metrics(tables: Dict[str, list]) -> Metrics:
    """The metrics ``collect-metrics`` must write for ``tables``, counted here."""
    mf = {}
    for name, rows in tables.items():
        for i, column in enumerate(CLI_COLUMNS[name]):
            mf[(name, column)] = max(Counter(row[i] for row in rows).values())
    return Metrics(mf=mf, public=frozenset(CLI_PUBLIC), rows={t: len(v) for t, v in tables.items()})


def cli_domain(shape: Shape) -> Optional[list]:
    """Every label of the grouping column, from public knowledge of the schema."""
    if shape.group is None:
        return None
    column = shape.group[1]
    return _DEPTS if column == "dept" else _REGIONS


def cli_instances(seed: int) -> List[Tuple[str, Shape, list]]:
    """Every template with seeded literals: (name, shape, literals)."""
    r = random.Random(seed * 7 + 4)
    return [(name, shape, [r.randrange(low, high) for low, high in ranges])
            for name, shape, ranges in CLI_TEMPLATES]


CLI_ALIASES = ("x0", "x1", "x2")


@dataclass
class CliOp:
    kind: str  # "analyze" or "release"
    instance: int
    epsilon: float
    seed: int


def cli_stream(seed: int, n_instances: int) -> Iterator[CliOp]:
    """Blocks of every instance in shuffled order, each as analyze then release."""
    r = random.Random(seed * 7 + 5)
    while True:
        order = list(range(n_instances))
        r.shuffle(order)
        for i in order:
            for kind in ("analyze", "release"):
                yield CliOp(kind, i, r.choice(MIX_EPSILONS), r.randrange(2**63))
