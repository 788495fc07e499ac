"""Cofactor aggregation over Spark DataFrames.

Two functionally-equivalent pipelines, mirroring the paper's Figure-3
comparison:

* ``cofactor_sql`` — the "standard SQL" baseline: one wide aggregation with
  O(m^2) scalar ``SUM(Xi * Xj)`` expressions for the continuous block, plus
  one GROUP BY query per categorical attribute (class counts and per-class
  continuous sums) and one per categorical pair. This is what a user can
  write without a custom aggregate, and it is the slow path the ring beats.

* ``cofactor_ring`` — the paper's ``SUM_TRIPLE``: a single pass that lifts
  whole Arrow batches to partial ``Triple`` values (``mapInPandas``) and
  merges them with ring addition. One Spark job, one scan, no one-hot, and
  at most one Python task per core.

Both return the same ``Triple`` (tests assert bitwise-close equality and
check individual aggregates against the DuckDB oracle).
"""
from __future__ import annotations

import pickle
from typing import Iterator

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .schema import AttrSchema
from .triple import Rel, Triple, lift_block, triple_sum, _py


def cofactor_ring(df: DataFrame, schema: AttrSchema,
                  attrs: list[str] | None = None) -> Triple:
    """Compute the cofactor Triple in one distributed pass.

    Each task folds its Arrow batches through the bulk lift ``λ`` and emits a
    single pickled partial triple; the driver combines partials with ring
    ``+`` (the UDAF merge step). ``attrs`` restricts to a subset of the
    global schema (factorized evaluation lifts per-table subsets).

    The input is coalesced to ``defaultParallelism`` partitions first: each
    Python task costs tens of milliseconds to start and feed, against a few
    milliseconds of lifting per 10k rows, so the scan runs one task per core
    rather than one per input partition (a no-op for narrower inputs).
    """
    names = list(attrs) if attrs is not None else list(schema.names)

    def partials(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        acc = Triple.zero(schema)
        for b in batches:
            acc = acc + lift_block(b, schema, names)
        yield pd.DataFrame({"t": [pickle.dumps(acc)]})

    dp = df.sparkSession.sparkContext.defaultParallelism
    rows = df.select(*names).coalesce(dp).mapInPandas(partials, "t binary").collect()
    return triple_sum((pickle.loads(r.t) for r in rows), schema)


def cofactor_sql(df: DataFrame, schema: AttrSchema,
                 attrs: list[str] | None = None) -> Triple:
    """Compute the same Triple with plain Spark SQL aggregates.

    Issues ``1 + n_cat + C(n_cat, 2)`` aggregation jobs: scalar SUMs cannot
    express group-by relations, so every categorical attribute (and pair)
    needs its own GROUP BY scan — exactly the redundancy the ring removes.
    """
    names = list(attrs) if attrs is not None else list(schema.names)
    cont = [n for n in names if not schema.is_cat(n)]
    cats = [n for n in names if schema.is_cat(n)]
    s: dict[int, Rel] = {}
    q: dict[tuple[int, int], Rel] = {}

    aggs = [F.count(F.lit(1)).alias("__n")]
    for i, a in enumerate(cont):
        aggs.append(F.sum(F.col(a)).alias(f"__s_{i}"))
        for j in range(i, len(cont)):
            aggs.append(F.sum(F.col(a) * F.col(cont[j])).alias(f"__q_{i}_{j}"))
    row = df.agg(*aggs).collect()[0]
    n = float(row["__n"])
    for i, a in enumerate(cont):
        ia = schema.index(a)
        s[ia] = float(row[f"__s_{i}"] or 0.0)
        for j in range(i, len(cont)):
            ja = schema.index(cont[j])
            key = (ia, ja) if ia <= ja else (ja, ia)
            q[key] = float(row[f"__q_{i}_{j}"] or 0.0)

    for c in cats:
        ic = schema.index(c)
        aggs = [F.count(F.lit(1)).alias("__n")] + [
            F.sum(F.col(a)).alias(f"__s_{k}") for k, a in enumerate(cont)
        ]
        rows = df.groupBy(c).agg(*aggs).collect()
        cnt = {_py(r[c]): float(r["__n"]) for r in rows}
        s[ic] = cnt
        q[(ic, ic)] = dict(cnt)
        for k, a in enumerate(cont):
            ia = schema.index(a)
            key = (min(ic, ia), max(ic, ia))
            q[key] = {_py(r[c]): float(r[f"__s_{k}"] or 0.0) for r in rows}

    for x in range(len(cats)):
        for y in range(x + 1, len(cats)):
            cx, cy = cats[x], cats[y]
            ix, iy = schema.index(cx), schema.index(cy)
            rows = df.groupBy(cx, cy).count().collect()
            rel = {(_py(r[cx]), _py(r[cy])): float(r["count"]) for r in rows}
            if ix > iy:
                ix, iy = iy, ix
                rel = {(b, a): v for (a, b), v in rel.items()}
            q[(ix, iy)] = rel

    return Triple(schema, n, s, q)
