"""Cofactor aggregation over Spark DataFrames.

Two functionally-equivalent pipelines, mirroring the paper's Figure-3
comparison:

* ``cofactor_sql`` — the "standard SQL" baseline: one wide aggregation with
  O(m^2) scalar ``SUM(Xi * Xj)`` expressions for the continuous block
  (``scalar_cofactor``), plus one GROUP BY query per categorical attribute
  (class counts and per-class continuous sums) and one per categorical
  pair. This is what a user can write without a custom aggregate, and it
  is the slow path the ring beats.

* ``cofactor_ring`` — the paper's ``SUM_TRIPLE``: a single pass that lifts
  whole Arrow batches to partial ``Triple`` values and merges them with ring
  addition. One Spark job, one scan; the lift is the Gram matrix of each
  batch's one-hot design matrix, built in the worker, so no one-hot column
  is ever materialized in Spark. A small frame is collected through Arrow
  and folded on the driver, a larger one in at most one ``mapInPandas``
  task per core; ``where=`` returns the triples of several row subsets from
  that same job.

Both return the same ``Triple`` (tests assert bitwise-close equality and
check individual aggregates against the DuckDB oracle).
"""
from __future__ import annotations

import pickle
from typing import Any, Callable, Iterable, Iterator

import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from repro.sql import select_cols, select_sql, sql_ident

from .schema import AttrSchema
from .triple import Triple, dense_columns, lift_rows, triple_sum, _py


def cofactor_ring(df: DataFrame, schema: AttrSchema,
                  attrs: list[str] | None = None, *,
                  where: list[Column] | None = None) -> Triple | list[Triple]:
    """Compute the cofactor Triple in one pass.

    Each task, or the driver for a small frame (``scan_partials``), folds
    Arrow batches through the bulk lift ``λ`` to one partial triple; the
    driver combines partials with ring ``+`` (the UDAF merge step).
    ``attrs`` restricts to a subset of the global schema (factorized
    evaluation lifts per-table subsets).

    ``where`` takes boolean Columns (a null counts as false) and returns one
    Triple per predicate, the cofactor of the rows it selects, all from the
    same single job (``scan_partials``).
    """
    names = list(attrs) if attrs is not None else list(schema.names)
    per_task = scan_partials(df, names, where,
                             lambda b, rows: lift_rows(b, schema, names, rows),
                             lambda: Triple.zero(schema))
    out = [triple_sum((accs[k] for accs in per_task), schema)
           for k in range(len(where) if where is not None else 1)]
    return out if where is not None else out[0]


#: Largest projected frame, by Spark's optimizer bound in bytes, that a scan
#: collects to the driver and folds there instead of in Python tasks. Every
#: ``mapInPandas`` job pays a fixed Python-task floor (~0.3 s on a 4-core
#: box) for a few milliseconds of lifting per 10k rows; the driver path is a
#: JVM Arrow collect. The bound caps the driver memory that path costs, the
#: collected Arrow table (+125 MB of driver peak at 1M rows of 14 numeric
#: columns), not its time: the driver fold kept level with four tasks up to
#: 1M such rows (EXPERIMENTS.md, Limits §1).
LOCAL_SCAN_BYTES = 64 << 20


def scan_partials(df: DataFrame, cols: list[str], where: list[Column] | None,
                  lift: Callable[[pd.DataFrame, list[np.ndarray | None]], list],
                  zero: Callable[[], Any]) -> list[list]:
    """One Spark job summing ``lift`` over the rows of ``df``.

    ``fold`` runs over pandas batches of ``df[cols]`` and returns one
    partial per predicate of ``where``, or a single whole-batch partial
    without ``where``; the result holds a list of such partials per fold.
    The predicates are projected as flag columns, and rows no predicate
    selects are filtered out before they leave the JVM. Per batch, ``fold``
    calls ``lift(batch, rows)`` once, with one boolean row mask per
    predicate (``None``: every row), and adds the partials it returns, one
    per mask, to its sums, which start at ``zero()``: so a lift builds what
    the masks share (a design matrix) once per batch.

    A small frame — one Spark's optimizer bounds at or below
    ``LOCAL_SCAN_BYTES`` — is collected with one Arrow collect (a JVM job, no
    Python worker) and folded on the driver over consecutive slices of
    ``spark.sql.execution.arrow.maxRecordsPerBatch`` rows, in partition
    order. So two scans of a frame fold in the same order, and on a
    one-partition frame the slices are the batches a task would see. A frame
    whose size Spark does not know (``spark.sql.defaultSizeInBytes``), or
    larger, is folded in ``mapInPandas`` tasks, one partial each.

    The task path coalesces its input to ``defaultParallelism`` partitions
    first: each Python task costs tens of milliseconds to start and feed,
    against a few milliseconds of lifting per 10k rows, so the scan runs
    one task per core rather than one per input partition (a no-op for
    narrower inputs). Its partials come back sorted by their pickled bytes,
    not in task order. Which task a coalesce hands an input partition to
    varies between jobs over the same frame (it follows where, by the
    scheduler's possibly stale record, the input's blocks are cached), and
    callers fold the partials in list order, so the last bits of each sum
    would vary with it. In a canonical order, two scans of a frame of at
    most ``defaultParallelism`` partitions, whose tasks each read one
    partition, give bit-identical sums.
    """
    spark = df.sparkSession
    preds = where if where is not None else [None]
    # a None flag lifts the whole batch (the call without ``where``); the
    # closure holds flag names only, as Columns do not pickle
    flags = [None if p is None else f"__where_{k}" for k, p in enumerate(preds)]

    def fold(batches: Iterable[pd.DataFrame]) -> list:
        accs = [zero() for _ in flags]
        for b in batches:
            rows = [None if f is None else b[f].to_numpy(dtype=bool) for f in flags]
            accs = [acc + part for acc, part in zip(accs, lift(b, rows))]
        return accs

    def partials(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        yield pd.DataFrame({"t": [pickle.dumps(fold(batches))]})

    # the column names go over as one string (``select_cols``), and the
    # flags, a Column each, as one ``withColumns``
    if where:
        df = df.withColumns({f: F.coalesce(p, F.lit(False))
                             for p, f in zip(preds, flags)})
    proj = select_cols(df, cols + [f for f in flags if f is not None])
    if where:
        proj = proj.filter(" OR ".join(sql_ident(f) for f in flags))
    if proj._jdf.queryExecution().optimizedPlan().stats().sizeInBytes() <= LOCAL_SCAN_BYTES:
        table = proj.toArrow()
        step = int(spark.conf.get("spark.sql.execution.arrow.maxRecordsPerBatch"))
        step = step if step > 0 else max(table.num_rows, 1)  # <= 0: no limit
        return [fold(table.slice(i, step).to_pandas()
                     for i in range(0, table.num_rows, step))]
    dp = spark.sparkContext.defaultParallelism
    rows = proj.coalesce(dp).mapInPandas(partials, "t binary").collect()
    return [pickle.loads(t) for t in sorted(r.t for r in rows)]


def scalar_cofactor(df: DataFrame, cols: list[str]) -> np.ndarray:
    """``COUNT(*)``, ``SUM(Xi)`` and ``SUM(Xi * Xj)`` of ``cols`` in one
    wide aggregation (one Spark job): the cofactor matrix with a bias
    row/column first, then ``cols`` in order."""
    q = sql_ident
    aggs = ["count(1)"]
    for i, a in enumerate(cols):
        aggs += [f"sum({q(a)})"] + [f"sum({q(a)} * {q(b)})" for b in cols[i:]]
    vals = iter(float(v or 0.0) for v in select_sql(df, aggs).collect()[0])
    p = len(cols) + 1
    mat = np.zeros((p, p))
    mat[0, 0] = next(vals)
    for i in range(1, p):
        for j in [0] + list(range(i, p)):
            mat[i, j] = mat[j, i] = next(vals)
    return mat


def cofactor_sql(df: DataFrame, schema: AttrSchema,
                 attrs: list[str] | None = None) -> Triple:
    """Compute the same Triple with plain Spark SQL aggregates.

    Issues ``1 + n_cat + C(n_cat, 2)`` aggregation jobs: scalar SUMs cannot
    express group-by relations, so every categorical attribute (and pair)
    needs its own GROUP BY scan — exactly the redundancy the ring removes.
    The rows of those scans fill the one-hot matrix over the categories they
    find, sorted.
    """
    names = list(attrs) if attrs is not None else list(schema.names)
    cont = [n for n in names if not schema.is_cat(n)]
    cats = [n for n in names if schema.is_cat(n)]

    moments = scalar_cofactor(df, cont)
    sums = [F.sum(F.col(a)).alias(f"__s_{k}") for k, a in enumerate(cont)]
    by_cat = {c: df.groupBy(c).agg(F.count(F.lit(1)).alias("__n"), *sums).collect()
              for c in cats}

    columns = dense_columns(
        schema, {c: sorted(_py(r[c]) for r in rows) for c, rows in by_cat.items()}, names)
    pos = {c: k for k, c in enumerate(columns)}
    mat = np.zeros((len(columns), len(columns)))

    def put(a: tuple, b: tuple, v) -> None:
        mat[pos[a], pos[b]] = mat[pos[b], pos[a]] = float(v or 0.0)

    bias = (-1, None)
    at = [pos[bias]] + [pos[(schema.index(a), None)] for a in cont]
    mat[np.ix_(at, at)] = moments

    for c, rows in by_cat.items():
        for r in rows:
            kc = (schema.index(c), _py(r[c]))
            put(bias, kc, r["__n"])
            put(kc, kc, r["__n"])
            for k, a in enumerate(cont):
                put(kc, (schema.index(a), None), r[f"__s_{k}"])

    for x in range(len(cats)):
        for y in range(x + 1, len(cats)):
            cx, cy = cats[x], cats[y]
            for r in df.groupBy(cx, cy).count().collect():
                put((schema.index(cx), _py(r[cx])), (schema.index(cy), _py(r[cy])),
                    r["count"])

    return Triple(schema, columns, mat)
