"""MICE preprocessing: row ids, missing masks, initial mean/mode imputation.

Mirrors line 1 of both Algorithm 1 and 2: every missing value is replaced by
the column mean (continuous) or mode (categorical) so the first cofactor
pass sees a complete dataset; the original missingness is retained in
boolean ``__miss_<attr>`` columns that drive training-set selection and
prediction targets throughout the iterations. Two Spark jobs: the
checkpoint of the masked input, and one aggregate for every statistic; the
imputed frame is a projection of the checkpoint.
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
    """Initially-imputed dataset plus metadata shared by all MICE variants.

    ``df`` is a lazy projection (the mean/mode fill) of a checkpoint.
    """

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

    # the input keeps its partitions, in order: the per-partition ``rand``
    # streams of every later update follow them, and each variant must draw
    # the same noise. A coalesce would regroup them by where the scheduler
    # last saw a cached input's blocks, which can differ from one call to
    # the next (cofactor scans cap their own task count in cofactor_ring)
    raw = out.localCheckpoint(eager=True)

    # one aggregate: mean (continuous) or mode (categorical, lowest value
    # on a tie) of each incomplete attribute, the null count of every other
    # attribute, and the domain of each categorical attribute. It reads the
    # checkpoint in one task, so it needs no exchange and runs as one job.
    others = [a for a in attrs if a not in set(incomplete)]
    domains = [] if plan else list(schema.categorical)
    stats = ([("init", a, F.mode(a, True) if schema.is_cat(a) else F.avg(a))
              for a in sorted(incomplete, key=schema.is_cat)]
             + [("nulls", a, F.sum(F.col(a).isNull().cast("long"))) for a in others]
             + [("domain", a, F.collect_set(a)) for a in domains])
    row = raw.coalesce(1).agg(*[c for *_, c in stats]).collect()[0] if stats else ()
    got: dict[str, dict[str, Any]] = {"init": {}, "nulls": {}, "domain": {}}
    for (kind, a, _), v in zip(stats, row):
        got[kind][a] = v

    init = got["init"]
    for a, v in init.items():
        if v is None:
            raise ValueError(f"attribute {a!r} has no observed values")

    # loud guard: attributes not declared incomplete must be fully observed,
    # otherwise cofactor lifts would see NaNs mid-iteration
    bad = [a for a in others if (got["nulls"][a] or 0) > 0]
    if bad:
        raise ValueError(
            f"attributes {bad} contain nulls but are not declared "
            "incomplete — declare them or pre-impute them"
        )

    categories = plan.categories if plan else {
        a: sorted(v) for a, v in got["domain"].items()}
    # the initial imputation is a lazy projection of the checkpoint
    filled = raw.select(*[F.coalesce(F.col(c), F.lit(init[c])).alias(c)
                          if c in init else c for c in raw.columns])
    return Prepared(df=filled, schema=schema, incomplete=list(incomplete),
                    init_values=init, categories=categories)
