"""Factorized cofactor computation over normalized schemas (paper Ex. 4).

The cofactor SUM distributes over joins: for ``R(A, B) ⋈_B S(B, C)``

    SUM(λ(A) * λ(C))  =  Σ_b  [Σ_{R, B=b} λ(A)] * [Σ_{S, B=b} λ(C)]

so each table is aggregated to *keyed partial triples* first and the triples
are combined with ring multiplication — the join result is never
materialized. For snowflake schemas the combination proceeds bottom-up along
the join tree, marginalizing (summing out) each join key once it is no
longer needed, so wide attribute interactions are computed once per distinct
key instead of once per joined row.

Building blocks:

* ``lift_dim``       — driver-side keyed triples of a small dimension table.
* ``fact_fold``      — one fold step over the (large) fact: per Arrow batch,
  bulk-lift all out-key groups at once (``lift_grouped``), multiply by the
  broadcast dimension triples, and emit partial triples per key (ring-added
  downstream).
* ``keyed_fold``     — same fold over an already-keyed triple DataFrame.
* ``final_fold``     — collect a small keyed triple DataFrame and finish on
  the driver.
* ``FactorizedPlan`` — a dataset's fold over its join tree plus the
  ``enrich`` join that MICE uses to predict over normalized data.
"""
from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from .schema import AttrSchema
from .triple import Triple, lift_grouped


@dataclass
class FactorizedPlan:
    """Dataset-specific factorized evaluation plan.

    ``cofactor(fact_df)`` computes the cofactor Triple of ``fact_df ⋈ dims``
    without materializing the join; ``enrich(fact_df)`` joins dimension
    attributes onto the given (small) fact subset for prediction.
    ``categories`` pins the domain of every categorical attribute. The
    attribute schema is not part of the plan: callers pass the same schema
    the plan's folds were built over.
    """

    fact_attrs: list[str]
    cofactor: Callable[[DataFrame], Triple]
    enrich: Callable[[DataFrame], DataFrame]
    categories: dict[str, list]


def lift_dim(pdf: pd.DataFrame, schema: AttrSchema, attrs: Sequence[str],
             key_cols: Sequence[str]) -> dict:
    """Keyed partial triples of a dimension table (driver-side).

    Dimension keys are assumed unique per row group (grouped otherwise).
    Keys are scalars for a single key column, tuples for compound keys.
    """
    return lift_grouped(pdf, schema, attrs, list(key_cols))


def _out_schema_ddl(df: DataFrame, out_keys: Sequence[str]) -> str:
    by_name = {f.name: f.dataType.simpleString() for f in df.schema.fields}
    parts = [f"{k} {by_name[k]}" for k in out_keys]
    parts.append("t binary")
    return ", ".join(parts)


def fact_fold(df: DataFrame, schema: AttrSchema, attrs: Sequence[str],
              inner_keys: Sequence[str], inner_dim: dict | None,
              out_keys: Sequence[str],
              inner_frame: tuple[pd.DataFrame, Sequence[str]] | None = None,
              cluster: bool = True) -> DataFrame:
    """One factorized fold over the fact table.

    Returns a DataFrame ``(out_keys..., t binary)`` of *partial* triples:
    the ring-sum, over the rows of one Arrow batch sharing an out-key, of
    ``lift(rows with inner_key=k) * dim[k]``. A key may appear once per
    batch — downstream folds (``keyed_fold``/``final_fold``) ring-add the
    partials, which is sound because multiplication distributes over ``+``.
    Running as ``mapInPandas`` + the vectorized ``lift_grouped`` kernel
    amortizes Python overhead across all groups in a batch (thousands of
    tiny ``applyInPandas`` groups would dominate the runtime otherwise).

    Rows whose inner key is absent from the dimension are dropped
    (inner-join semantics). With ``inner_dim=None`` groups are simply
    bulk-lifted. ``inner_frame=(dim_pdf, dim_attrs)`` selects the fastest
    leaf path for dimensions with *unique keys*: each per-key dim triple has
    N = 1, so ``Σ_k lift(rows_k) * dim_k == lift(rows ⋈ dim)`` exactly and
    the batch is hash-merged with the broadcast dimension block before one
    grouped bulk lift. Tests assert all paths produce identical triples.
    """
    spark = SparkSession.getActiveSession()
    attrs = list(attrs)
    inner_keys = list(inner_keys)
    out_keys = list(out_keys)

    if inner_frame is not None:
        dim_pdf, dim_attrs = inner_frame
        keep = list(dict.fromkeys(inner_keys + list(dim_attrs)))
        bc = spark.sparkContext.broadcast(dim_pdf[keep])
        lift_attrs = attrs + [a for a in dim_attrs if a not in attrs]

        def batch_partials(pdf: pd.DataFrame) -> dict:
            merged = pdf.merge(bc.value, on=inner_keys, how="inner")
            return lift_grouped(merged, schema, lift_attrs, out_keys)

    elif inner_dim is not None:
        bc = spark.sparkContext.broadcast(inner_dim)

        def batch_partials(pdf: pd.DataFrame) -> dict:
            dim = bc.value
            nk = len(inner_keys)
            parts = lift_grouped(pdf, schema, attrs, out_keys + inner_keys)
            acc: dict = {}
            for k, t in parts.items():
                k = k if isinstance(k, tuple) else (k,)
                okey, ikey = k[:-nk], k[-nk:]
                okey = okey[0] if len(okey) == 1 else okey
                d = dim.get(ikey if nk > 1 else ikey[0])
                if d is None:
                    continue
                prod = t * d
                prev = acc.get(okey)
                acc[okey] = prod if prev is None else prev + prod
            return acc

    else:

        def batch_partials(pdf: pd.DataFrame) -> dict:
            return lift_grouped(pdf, schema, attrs, out_keys)

    def gen(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for b in batches:
            if len(b) == 0:
                continue
            parts = batch_partials(b)
            if not parts:
                continue
            rows = []
            for k, t in parts.items():
                k = k if isinstance(k, tuple) else (k,)
                rows.append(list(k) + [pickle.dumps(t)])
            yield pd.DataFrame(rows, columns=out_keys + ["t"])

    cols = list(dict.fromkeys(out_keys + inner_keys + attrs))
    src = df.select(*cols)
    if cluster and out_keys:
        # cluster rows by out-key so each key's partial is emitted once or
        # twice, not once per Arrow batch it is scattered across — the
        # partial-triple count (and downstream ring-adds) stays O(|keys|)
        src = src.repartition(*out_keys).sortWithinPartitions(*out_keys)
    return src.mapInPandas(gen, _out_schema_ddl(df, out_keys))


def keyed_fold(keyed: DataFrame, schema: AttrSchema, inner_keys: Sequence[str],
               inner_dim: dict, out_keys: Sequence[str]) -> DataFrame:
    """Fold an already-keyed triple DataFrame one level up the join tree."""
    spark = SparkSession.getActiveSession()
    bc = spark.sparkContext.broadcast(inner_dim)
    inner_keys = list(inner_keys)
    out_keys = list(out_keys)

    def fold_group(key: tuple, pdf: pd.DataFrame) -> pd.DataFrame:
        dim = bc.value
        acc = Triple.zero(schema)
        for row in pdf.itertuples(index=False):
            d = getattr(row, "t")
            ik = tuple(getattr(row, k) for k in inner_keys)
            k = ik if len(inner_keys) > 1 else ik[0]
            t = dim.get(k)
            if t is None:
                continue
            acc = acc + pickle.loads(d) * t
        vals = list(key)
        return pd.DataFrame([vals + [pickle.dumps(acc)]], columns=out_keys + ["t"])

    return keyed.groupBy(*out_keys).applyInPandas(
        fold_group, _out_schema_ddl(keyed, out_keys)
    )


def final_fold(keyed: DataFrame, schema: AttrSchema,
               inner_keys: Sequence[str] | None = None,
               inner_dim: dict | None = None) -> Triple:
    """Collect a (small) keyed triple DataFrame and finish on the driver."""
    rows = keyed.collect()
    acc = Triple.zero(schema)
    for r in rows:
        t = pickle.loads(r["t"])
        if inner_dim is not None:
            ik = tuple(r[k] for k in inner_keys)
            k = ik if len(inner_keys) > 1 else ik[0]
            d = inner_dim.get(k)
            if d is None:
                continue
            t = t * d
        acc = acc + t
    return acc

