"""MICE preprocessing: row ids, missing masks, initial mean/mode imputation.

Mirrors line 1 of both Algorithm 1 and 2: every missing value is replaced by
the column mean (continuous) or mode (categorical) so the first cofactor
pass sees a complete dataset; the original missingness is retained in
boolean ``__miss_<attr>`` columns that drive training-set selection and
prediction targets throughout the iterations.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.ring.factorized import FactorizedPlan
from repro.ring.schema import AttrSchema

MASK_PREFIX = "__miss_"
RID = "__rid"


def mask_col(attr: str) -> str:
    return f"{MASK_PREFIX}{attr}"


@dataclass
class Prepared:
    """Initially-imputed dataset plus metadata shared by all MICE variants."""

    df: DataFrame
    schema: AttrSchema
    incomplete: list[str]
    init_values: dict[str, Any]
    categories: dict[str, list] = field(default_factory=dict)


def prepare(df: DataFrame, schema: AttrSchema, incomplete: list[str],
            plan: FactorizedPlan | None = None) -> Prepared:
    """Add ``__rid``/mask columns and impute initial mean/mode values.

    Also collects the global category domain of every categorical attribute
    (so model parameter vectors stay aligned across ``C ± ΔC`` updates, cf.
    Section 4 — new categories can never appear after mode imputation).
    With a factorized ``plan``, ``df`` is the plan's fact table: only
    ``plan.fact_attrs`` are prepared and the domain is ``plan.categories``.
    """
    attrs = plan.fact_attrs if plan else schema.names
    for a in incomplete:
        if a not in attrs:
            where = "the plan's fact attributes" if plan else "schema"
            raise ValueError(f"incomplete attribute {a!r} not in {where}")
    out = df
    # cast continuous analysis attributes to double once, up front
    for a in attrs:
        if not schema.is_cat(a):
            out = out.withColumn(a, F.col(a).cast("double"))
    out = out.withColumn(RID, F.monotonically_increasing_id())
    for a in incomplete:
        out = out.withColumn(mask_col(a), F.col(a).isNull())

    cont_inc = [a for a in incomplete if not schema.is_cat(a)]
    cat_inc = [a for a in incomplete if schema.is_cat(a)]
    init: dict[str, Any] = {}
    if cont_inc:
        row = out.agg(*[F.avg(F.col(a)).alias(a) for a in cont_inc]).collect()[0]
        init.update({a: row[a] for a in cont_inc})
    for a in cat_inc:
        mode = (
            out.filter(F.col(a).isNotNull())
            .groupBy(a)
            .count()
            .orderBy(F.desc("count"), F.asc(a))
            .limit(1)
            .collect()
        )
        init[a] = mode[0][a] if mode else None
    for a, v in init.items():
        if v is None:
            raise ValueError(f"attribute {a!r} has no observed values")
        out = out.withColumn(a, F.coalesce(F.col(a), F.lit(v)))

    # loud guard: attributes not declared incomplete must be fully observed,
    # otherwise cofactor lifts would see NaNs mid-iteration
    others = [a for a in attrs if a not in set(incomplete)]
    if others:
        row = out.agg(
            *[F.sum(F.col(a).isNull().cast("long")).alias(a) for a in others]
        ).collect()[0]
        bad = [a for a in others if (row[a] or 0) > 0]
        if bad:
            raise ValueError(
                f"attributes {bad} contain nulls but are not declared "
                "incomplete — declare them or pre-impute them"
            )

    if plan:
        categories = plan.categories
    else:
        categories = {
            a: sorted(r[a] for r in out.select(a).distinct().collect()
                      if r[a] is not None)
            for a in schema.categorical
        }

    # coalesce to core count: downstream partitions inherit this count,
    # so per-attribute delta scans schedule ~2×cores tasks instead of
    # hundreds of near-empty ones (which would dominate Low's runtime)
    dp = out.sparkSession.sparkContext.defaultParallelism
    out = out.coalesce(dp).localCheckpoint(eager=True)
    return Prepared(df=out, schema=schema, incomplete=list(incomplete),
                    init_values=init, categories=categories)
