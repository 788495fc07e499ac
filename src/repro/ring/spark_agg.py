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
  at most one Python task per core; ``where=`` returns the triples of
  several row subsets from that same job.

Both return the same ``Triple`` (tests assert bitwise-close equality and
check individual aggregates against the DuckDB oracle).
"""
from __future__ import annotations

import pickle
from typing import Any, Callable, Iterator

import pandas as pd
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from .schema import AttrSchema
from .triple import Rel, Triple, lift_block, triple_sum, _py


def cofactor_ring(df: DataFrame, schema: AttrSchema,
                  attrs: list[str] | None = None, *,
                  where: list[Column] | None = None) -> Triple | list[Triple]:
    """Compute the cofactor Triple in one distributed pass.

    Each task folds its Arrow batches through the bulk lift ``λ`` and emits a
    single pickled partial triple; the driver combines partials with ring
    ``+`` (the UDAF merge step). ``attrs`` restricts to a subset of the
    global schema (factorized evaluation lifts per-table subsets).

    ``where`` takes boolean Columns (a null counts as false) and returns one
    Triple per predicate, the cofactor of the rows it selects, all from the
    same single job (``scan_partials``).
    """
    names = list(attrs) if attrs is not None else list(schema.names)
    per_task = scan_partials(df, names, where,
                             lambda b: lift_block(b, schema, names),
                             lambda: Triple.zero(schema))
    out = [triple_sum((accs[k] for accs in per_task), schema)
           for k in range(len(where) if where is not None else 1)]
    return out if where is not None else out[0]


def scan_partials(df: DataFrame, cols: list[str], where: list[Column] | None,
                  lift: Callable[[pd.DataFrame], Any],
                  zero: Callable[[], Any]) -> list[list]:
    """One ``mapInPandas`` job summing ``lift`` over the rows of ``df``.

    Each task adds ``lift(batch)`` over its Arrow batches of ``df[cols]``,
    starting from ``zero()``, and returns one partial per predicate of
    ``where`` (the predicates are projected as flag columns, and each batch
    is lifted once per flag), or a single whole-batch partial without
    ``where``. The result holds each task's list of partials.

    The input is coalesced to ``defaultParallelism`` partitions first: each
    Python task costs tens of milliseconds to start and feed, against a few
    milliseconds of lifting per 10k rows, so the scan runs one task per core
    rather than one per input partition (a no-op for narrower inputs).

    The partials come back sorted by their pickled bytes, not in task
    order. Which task a coalesce hands an input partition to varies between
    jobs over the same frame (it follows where, by the scheduler's possibly
    stale record, the input's blocks are cached), and callers fold the
    partials in list order, so the last bits of each sum would vary with
    it. In a canonical order, two scans of a frame of at most
    ``defaultParallelism`` partitions (every MICE frame), whose tasks each
    read one partition, give bit-identical sums.
    """
    dp = df.sparkSession.sparkContext.defaultParallelism
    preds = where if where is not None else [None]
    # a None flag lifts the whole batch (the call without ``where``); the
    # closure holds flag names only, as Columns do not pickle
    flags = [None if p is None else f"__where_{k}" for k, p in enumerate(preds)]

    def partials(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        accs = [zero() for _ in flags]
        for b in batches:
            for k, flag in enumerate(flags):
                sel = b if flag is None else b[b[flag]]
                accs[k] = accs[k] + lift(sel)
        yield pd.DataFrame({"t": [pickle.dumps(accs)]})

    proj = df.select(*cols, *[F.coalesce(p, F.lit(False)).alias(f)
                              for p, f in zip(preds, flags) if f is not None])
    rows = proj.coalesce(dp).mapInPandas(partials, "t binary").collect()
    return [pickle.loads(t) for t in sorted(r.t for r in rows)]


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
