"""SystemDS/MADlib-style MICE competitors, on the same Spark substrate.

These reproduce the *cost structure* Figure 4 attributes to the competitors
(not their codebases):

* one-hot encoding of categorical attributes in a materialized preprocessing
  step — every category becomes a physical indicator column;
* the cofactor matrix computed with O(w²) plain *scalar* SQL aggregates over
  the one-hot width ``w`` (no ring value, no group-by compaction): one
  ``spark_agg.scalar_cofactor`` aggregate, the query ``cofactor_sql`` runs
  for its continuous block;
* every column of every iteration retrained from scratch (no computation
  sharing);
* ``madlib=True`` additionally re-materializes the training projection per
  column, modelling MADlib's dense-matrix staging.

Model quality is equivalent to ours by construction (the paper reports <1 %
RMSE difference vs SystemDS/MADlib after convergence): the scalar-SQL
cofactor matrix is handed to the same ``mice.step.fit`` and
``impute_column`` the MICE loops use, so the models and the imputation
expressions are shared code, and only the cofactor's cost path differs.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.mice.baseline import MiceResult
from repro.mice.prep import mask_col, prepare
from repro.mice.step import attr_seed, fit, impute_column
from repro.mice.timing import TimingLog
from repro.ring.schema import AttrSchema
from repro.ring.spark_agg import scalar_cofactor
from repro.ring.triple import Triple, dense_columns


def _onehot_cols(schema: AttrSchema, dense_cols) -> list[tuple[str, str, object]]:
    """(physical column, source attr, category|None) per ``dense_columns``
    entry after the bias, in that order."""
    names = schema.names
    return [(names[i] if v is None else f"__oh_{names[i]}_{v}", names[i], v)
            for i, v in dense_cols[1:]]


def _encode(df: DataFrame, cols) -> DataFrame:
    for name, attr, v in cols:
        if v is not None:
            df = df.withColumn(name, (F.col(attr) == F.lit(v)).cast("double"))
    return df


def mice_competitor(
    df: DataFrame,
    schema: AttrSchema,
    incomplete: list[str],
    *,
    iters: int = 1,
    noise: bool = False,
    seed: int = 0,
    l2: float = 1e-3,
    madlib: bool = False,
    timing: TimingLog | None = None,
) -> MiceResult:
    """Run the competitor-style MICE (no ring, no sharing, one-hot)."""
    timing = timing or TimingLog()
    with timing.time("preprocess.prepare"):
        prep = prepare(df, schema, incomplete)
    dense_cols = dense_columns(schema, prep.categories)
    with timing.time("preprocess.onehot"):
        cols = _onehot_cols(schema, dense_cols)
        cur = _encode(prep.df, cols).localCheckpoint(eager=True)
    names = [c[0] for c in cols]

    for it in range(iters):
        for ai, attr in enumerate(incomplete):
            observed = cur.filter(~F.col(mask_col(attr)))
            if madlib:
                with timing.time("iter.materialize"):
                    observed = observed.select(
                        *names, mask_col(attr)
                    ).localCheckpoint(eager=True)
            with timing.time("iter.cofactor"):
                mat = scalar_cofactor(observed, names)
            with timing.time("iter.train"):
                model = fit(Triple(schema, dense_cols, mat), attr, prep, l2=l2)
            if model is None:
                continue
            with timing.time("iter.update"):
                cur = cur.withColumn(attr, impute_column(
                    model, attr, prep, attr_seed(seed, it, ai), noise))
                if schema.is_cat(attr):  # refresh indicators
                    cur = _encode(cur, [c for c in cols if c[1] == attr])
                cur = cur.localCheckpoint(eager=True)

    out = cur.drop(*[c[0] for c in cols if c[2] is not None])
    return MiceResult(df=out, timing=timing, prep=prep)
