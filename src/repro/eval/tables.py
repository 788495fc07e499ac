"""Harnesses reproducing the paper's evaluation artefacts (Figures 3–8).

Each ``tableN_*`` function runs one experiment grid and returns plain row
dicts; ``jobs/`` wraps them as spark-submit entrypoints that print markdown
tables, and ``tests/`` runs them at small scale. Scale factors are
parameters — absolute times differ from the paper's testbed, the *shapes*
(who wins, where crossovers fall) are the reproduction target.
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.baselines import forest as forest_mod
from repro.baselines import gain as gain_mod
from repro.baselines import mice_python as mice_python_mod
from repro.baselines import midas as midas_mod
from repro.baselines import miracle as miracle_mod
from repro.baselines.systemds_like import mice_competitor
from repro.datasets import airquality, flight, inject_missing, retailer
from repro.datasets.plans import PLANS
from repro.mice import TimingLog, run_mice
from repro.models import train_ridge
from repro.ring import cofactor_ring, cofactor_sql
from .quality import downstream_quality, split_train_test

DATASETS = {"flight": flight, "retailer": retailer}


def _tick() -> float:
    return time.perf_counter()


# --------------------------------------------------------------- Table 3 --
#: timed runs per T3 cell; the cell reports the one with the median total
_T3_REPEATS = 3


def table3_learning(spark: SparkSession, sf: float = 0.02,
                    datasets=("flight", "retailer"), seed: int = 0) -> list[dict]:
    """Fig. 3: train one linear regression over the join of the input tables.

    Methods: scalar-SQL cofactor over the prejoined table (baseline), ring
    cofactor over the prejoined table, ring + factorized over the normalized
    tables. Each row carries the join/cofactor/train time breakdown of the
    median of ``_T3_REPEATS`` timed runs (by total time). The first cell of each
    method runs once untimed before the grid, so no timed cell pays a cold
    start: the first join, scalar-SQL aggregate and Python scan of a session
    each ran 2–4× slower than the next one (Flight sf 0.1, ``local[4]`` on a
    4-core box); single timed runs of one cell varied by ±25 %.
    """
    grid = []
    for name in datasets:
        ds = DATASETS[name].generate(sf=sf, seed=seed)
        for label, attrs in (
            ("continuous", list(ds.schema.continuous)),
            ("cont+cat", list(ds.schema.names)),
        ):
            grid += [(name, ds, label, attrs, method)
                     for method in ("sql", "ring", "ring+fact")]
    for name, ds, _, attrs, method in grid[:3]:  # warm-up, one cell per method
        _table3_run(spark, name, ds, attrs, method)
    return [_table3_cell(spark, *cell) for cell in grid]


def _table3_cell(spark: SparkSession, name: str, ds, label: str,
                 attrs: list[str], method: str) -> dict:
    """The T3 row of the median of ``_T3_REPEATS`` timed runs, by total time."""
    runs = [_table3_run(spark, name, ds, attrs, method) for _ in range(_T3_REPEATS)]
    t_join, t_cof, t_train = sorted(runs, key=sum)[len(runs) // 2]
    return dict(dataset=name, attrs=label, method=method,
                t_join=round(t_join, 3), t_cofactor=round(t_cof, 3),
                t_train=round(t_train, 3),
                t_total=round(t_join + t_cof + t_train, 3))


def _table3_run(spark: SparkSession, name: str, ds, attrs: list[str],
                method: str) -> tuple[float, float, float]:
    """One timed run of a T3 cell: (join, cofactor, train) seconds."""
    target = "elapsed_time" if name == "flight" else "inventoryunits"
    if method == "ring+fact":
        # checkpointed before the clock starts, so scan tasks read the fact
        # as they read the prejoined table, not ship its pandas frame
        fact = spark.createDataFrame(ds.tables[ds.fact]).localCheckpoint(eager=True)
        t_join = 0.0
        plan = PLANS[name](spark, ds, attrs=attrs)
        t1 = _tick()
        triple = plan.cofactor(fact)
        t_cof = _tick() - t1
    else:
        t0 = _tick()
        joined = spark.createDataFrame(ds.joined()).localCheckpoint(eager=True)
        t_join = _tick() - t0
        t1 = _tick()
        cof = cofactor_sql if method == "sql" else cofactor_ring
        triple = cof(joined, ds.schema, attrs=attrs)
        t_cof = _tick() - t1
    t2 = _tick()
    train_ridge(triple, target, l2=1e-3)
    return t_join, t_cof, _tick() - t2


# --------------------------------------------------------------- Table 4 --
T4_METHODS = ("baseline", "low", "high", "systemds", "madlib", "mindsdb")


def table4_single_table(
    spark: SparkSession,
    sf: float = 0.01,
    rates=(0.05, 0.1, 0.2, 0.4, 0.6, 0.8),
    datasets=("flight", "retailer"),
    methods=T4_METHODS,
    seed: int = 0,
) -> list[dict]:
    """Fig. 4: preprocessing + one-round cost of MICE over a single table."""
    rows = []
    for name in datasets:
        ds = DATASETS[name].generate(sf=sf, seed=seed)
        joined = ds.joined()
        for rate in rates:
            masked, _ = inject_missing(joined, ds.incomplete, rate, "MCAR",
                                       seed=seed + 1)
            sdf = spark.createDataFrame(masked).localCheckpoint(eager=True)
            for method in methods:
                if method in ("baseline", "low", "high"):
                    t = TimingLog()
                    run_mice(sdf, ds.schema, ds.incomplete, variant=method,
                             iters=1, noise=True, seed=seed, timing=t)
                    pre, it = t.bucket("preprocess"), t.bucket("iter")
                elif method in ("systemds", "madlib"):
                    t = TimingLog()
                    mice_competitor(sdf, ds.schema, ds.incomplete, iters=1,
                                    noise=True, seed=seed,
                                    madlib=(method == "madlib"), timing=t)
                    pre, it = t.bucket("preprocess"), t.bucket("iter")
                else:  # mindsdb-like: collect + tree ensemble per column
                    t0 = _tick()
                    pdf = sdf.toPandas()
                    pre = _tick() - t0
                    t1 = _tick()
                    forest_mod.impute(
                        pdf, ds.incomplete, set(ds.schema.categorical),
                        all_cols=list(ds.schema.names), iters=1, n_trees=4,
                        max_depth=6, seed=seed,
                    )
                    it = _tick() - t1
                rows.append(
                    dict(dataset=name, rate=rate, method=method,
                         t_preprocess=round(pre, 3), t_iteration=round(it, 3))
                )
    return rows


# --------------------------------------------------------------- Table 5 --
def table5_ncols(
    spark: SparkSession,
    sf: float = 0.01,
    rates=(0.05, 0.2),
    max_cols: int = 6,
    seed: int = 0,
) -> list[dict]:
    """Fig. 5: Low-variant runtime breakdown vs number of incomplete columns."""
    ds = flight.generate(sf=sf, seed=seed)
    joined = ds.joined()
    cont_incomplete = [a for a in ds.incomplete if a != "diverted"]
    rows = []
    for rate in rates:
        for k in range(1, max_cols + 1):
            cols = cont_incomplete[:k]
            masked, _ = inject_missing(joined, cols, rate, "MCAR", seed=seed + 2)
            sdf = spark.createDataFrame(masked).localCheckpoint(eager=True)
            t = TimingLog()
            run_mice(sdf, ds.schema, cols, variant="low", iters=1, noise=True,
                     seed=seed, timing=t)
            rows.append(
                dict(rate=rate, n_cols=k,
                     t_global_cofactor=round(
                         t.phases.get("preprocess.global_cofactor", 0.0), 3),
                     t_partition=round(
                         t.phases.get("preprocess.partition", 0.0), 3),
                     t_delta_cofactor=round(
                         t.phases.get("iter.delta_cofactor", 0.0), 3),
                     t_train=round(t.phases.get("iter.train", 0.0), 3),
                     t_update=round(t.phases.get("iter.update", 0.0), 3),
                     t_iteration=round(t.bucket("iter"), 3))
            )
    return rows


# --------------------------------------------------------------- Table 6 --
def table6_normalized(
    spark: SparkSession,
    sf: float = 0.01,
    rates=(0.05, 0.2, 0.4, 0.8),
    datasets=("retailer", "flight"),
    seed: int = 0,
) -> list[dict]:
    """Fig. 6: Low MICE over the materialized join vs factorized evaluation.

    Missing values are injected into fact attributes only, so both variants
    produce the same imputations (paper's setup).
    """
    rows = []
    for name in datasets:
        ds = DATASETS[name].generate(sf=sf, seed=seed)
        fact_incomplete = (
            retailer.FACT_INCOMPLETE if name == "retailer" else flight.INCOMPLETE
        )
        for rate in rates:
            fact_masked, _ = inject_missing(
                ds.tables[ds.fact], fact_incomplete, rate, "MCAR", seed=seed + 3
            )
            # factorized: normalized tables stay as they are
            fact_sdf = spark.createDataFrame(fact_masked).localCheckpoint(eager=True)
            t = TimingLog()
            plan = PLANS[name](spark, ds)
            run_mice(fact_sdf, ds.schema, fact_incomplete, variant="low",
                     plan=plan, iters=1, noise=True, seed=seed, timing=t)
            rows.append(dict(dataset=name, rate=rate, method="factorized",
                             t_preprocess=round(t.bucket("preprocess"), 3),
                             t_iteration=round(t.bucket("iter"), 3)))
            # materialized: join first (counted as preprocessing), then Low
            t = TimingLog()
            with t.time("preprocess.join"):
                tables = dict(ds.tables)
                tables[ds.fact] = fact_masked
                joined_sdf = spark.createDataFrame(
                    ds.join(tables)
                ).localCheckpoint(eager=True)
            run_mice(joined_sdf, ds.schema, fact_incomplete, variant="low",
                     iters=1, noise=True, seed=seed, timing=t)
            rows.append(dict(dataset=name, rate=rate, method="materialized",
                             t_preprocess=round(t.bucket("preprocess"), 3),
                             t_iteration=round(t.bucket("iter"), 3)))
    return rows


# --------------------------------------------------------------- Table 7 --
T7_METHODS = ("mice_spark", "mice_python", "mean", "missforest", "gain",
              "miracle", "midaspy")


def _np_impute(method: str, masked: pd.DataFrame, incomplete, cat_cols,
               all_cols, seed: int, fast: bool):
    if method == "mice_python":
        return mice_python_mod.impute(masked, incomplete, cat_cols,
                                      all_cols=all_cols,
                                      iters=3 if fast else 5, seed=seed)
    if method == "mean":
        out = masked.copy()
        for c in incomplete:
            fill = (out[c].mode().iloc[0] if c in cat_cols else out[c].mean())
            out[c] = out[c].fillna(fill)
        return out
    if method == "missforest":
        return forest_mod.impute(masked, incomplete, cat_cols, all_cols=all_cols,
                                 iters=2, n_trees=4 if fast else 8,
                                 max_depth=6 if fast else 8, seed=seed)
    if method == "gain":
        return gain_mod.impute(masked, incomplete, cat_cols, all_cols=all_cols,
                               iterations=400 if fast else 1500, seed=seed)
    if method == "miracle":
        return miracle_mod.impute(masked, incomplete, cat_cols,
                                  all_cols=all_cols,
                                  epochs=8 if fast else 20,
                                  ista_iters=80 if fast else 150, seed=seed)
    if method == "midaspy":
        return midas_mod.impute(masked, incomplete, cat_cols, all_cols=all_cols,
                                epochs=15 if fast else 30, seed=seed)
    raise ValueError(method)


def _mice_spark_impute(spark, masked: pd.DataFrame, ds, incomplete,
                       iters: int, seed: int) -> pd.DataFrame:
    sdf = spark.createDataFrame(masked)
    res = run_mice(sdf, ds.schema, incomplete, variant="low", iters=iters,
                   noise=True, seed=seed)
    return res.df.orderBy("__rid").toPandas().reset_index(drop=True)


def table7_quality(
    spark: SparkSession,
    sf: float = 0.05,
    methods=T7_METHODS,
    mice_iters: int = 5,
    seed: int = 0,
    fast: bool = False,
) -> list[dict]:
    """Fig. 7: imputation quality + time on the Air Quality dataset."""
    ds = airquality.generate(sf=sf, seed=seed)
    train, test = split_train_test(ds.joined(), seed=seed)
    masked, _ = inject_missing(train, ds.incomplete, airquality.MISSING_RATE,
                               "MCAR", seed=seed + 4)
    cat_cols = set(ds.schema.categorical)
    all_cols = list(ds.schema.names)
    rows = []
    for method in methods:
        t0 = _tick()
        if method == "mice_spark":
            imputed = _mice_spark_impute(spark, masked, ds, ds.incomplete,
                                         mice_iters, seed)
        else:
            imputed = _np_impute(method, masked, ds.incomplete, cat_cols,
                                 all_cols, seed, fast)
        elapsed = _tick() - t0
        q = downstream_quality(imputed, test, ds.schema, ds.target)
        rows.append(dict(method=method, r2=round(q["r2"], 4),
                         rmse=round(q["rmse"], 4), time_s=round(elapsed, 2)))
    return rows


# --------------------------------------------------------------- Table 8 --
T8_METHODS = ("mice_spark", "mice_python", "mean", "missforest", "gain",
              "miracle")


def table8_patterns(
    spark: SparkSession,
    dataset: str = "flight",
    sf: float = 0.002,
    rates=(0.05, 0.1, 0.2, 0.4, 0.6, 0.8),
    patterns=("MCAR", "MAR", "MNAR"),
    methods=T8_METHODS,
    mice_iters: int = 2,
    seed: int = 0,
    fast: bool = True,
) -> list[dict]:
    """Fig. 8 tables: downstream RMSE per missing pattern × rate + time.

    RMSE is normalized by the test-target std (the paper's RMSE regime);
    imputation time is recorded for every cell — the job reports the 20 %
    column like the paper.
    """
    ds = DATASETS[dataset].generate(sf=sf, seed=seed)
    train, test = split_train_test(ds.joined(), seed=seed)
    cat_cols = set(ds.schema.categorical)
    all_cols = list(ds.schema.names)
    rows = []
    for pattern in patterns:
        for rate in rates:
            masked, _ = inject_missing(
                train, ds.incomplete, rate, pattern,
                depends_on=ds.target if pattern == "MAR" else None,
                seed=seed + int(rate * 100),
            )
            for method in methods:
                t0 = _tick()
                if method == "mice_spark":
                    imputed = _mice_spark_impute(spark, masked, ds,
                                                 ds.incomplete, mice_iters, seed)
                else:
                    imputed = _np_impute(method, masked, ds.incomplete,
                                         cat_cols, all_cols, seed, fast)
                elapsed = _tick() - t0
                q = downstream_quality(imputed, test, ds.schema, ds.target)
                nrmse = q["rmse"] / float(test[ds.target].std())
                rows.append(dict(dataset=dataset, pattern=pattern, rate=rate,
                                 method=method, nrmse=round(nrmse, 4),
                                 time_s=round(elapsed, 2)))
    return rows


# ----------------------------------------------------------- formatting --
def rows_to_markdown(rows: list[dict]) -> str:
    if not rows:
        return "(no rows)"
    cols = list(rows[0].keys())
    lines = ["| " + " | ".join(cols) + " |",
             "|" + "|".join(["---"] * len(cols)) + "|"]
    for r in rows:
        lines.append("| " + " | ".join(str(r[c]) for c in cols) + " |")
    return "\n".join(lines)
