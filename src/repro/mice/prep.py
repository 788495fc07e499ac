"""MICE preprocessing: row ids, missing masks, initial mean/mode imputation.

Mirrors line 1 of both Algorithm 1 and 2: every missing value (a null, or a
NaN of a continuous attribute) is replaced by the column mean (continuous)
or mode (categorical) so the first cofactor pass sees a complete dataset;
the original missingness is retained in boolean ``__miss_<attr>`` columns
that drive training-set selection and prediction targets throughout the
iterations. Two Spark jobs: the checkpoint of the masked input, and one
aggregate for every statistic; the imputed frame is a projection of the
checkpoint.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from pyspark.sql import DataFrame

from repro.ring.factorized import FactorizedPlan
from repro.ring.schema import AttrSchema
from repro.sql import RID, select_sql, sql_ident, sql_literal

MASK_PREFIX = "__miss_"


def mask_col(attr: str) -> str:
    return f"{MASK_PREFIX}{attr}"


@dataclass
class Prepared:
    """Initially-imputed dataset plus metadata shared by all MICE variants.

    ``df`` is a lazy projection (the mean/mode fill) of a checkpoint.
    ``masked`` counts each incomplete attribute's masked rows; masks never
    change after ``prepare``, so neither do the counts.
    """

    df: DataFrame
    schema: AttrSchema
    incomplete: list[str]
    init_values: dict[str, Any]
    masked: dict[str, int]
    categories: dict[str, list] = field(default_factory=dict)


def prepare(df: DataFrame, schema: AttrSchema, incomplete: list[str],
            plan: FactorizedPlan | None = None) -> Prepared:
    """Add ``__rid``/mask columns and impute initial mean/mode values.

    ``__rid`` is fixed per input frame (the checkpoint below), and the noise
    of every later update of a row is keyed by it (``models.stochastic``).

    Also collects the global category domain of every categorical attribute
    (so model parameter vectors stay aligned across ``C ± ΔC`` updates, cf.
    Section 4 — new categories can never appear after mode imputation).
    With a factorized ``plan``, ``df`` is the plan's fact table: only
    ``plan.fact_attrs`` are prepared and the domain is ``plan.categories``.
    """
    attrs = plan.fact_attrs if plan else schema.names
    if not incomplete:
        raise ValueError("no incomplete attribute to impute")
    for a in incomplete:
        if a not in attrs:
            where = "the plan's fact attributes" if plan else "schema"
            raise ValueError(f"incomplete attribute {a!r} not in {where}")
    # one projection: continuous analysis attributes cast to double once, up
    # front (in place, a NaN made null so that it counts as missing), then
    # the row id and the masks, each replacing a column of its name as
    # ``withColumn`` would. It, the aggregate and the fill below are SQL
    # strings (``select_sql``): a plan of them costs the same few Py4J calls
    # at any width.
    q = sql_ident
    exprs = {c: q(c) for c in df.columns}
    exprs.update({a: f"nanvl(CAST({q(a)} AS DOUBLE), NULL)"
                  for a in attrs if not schema.is_cat(a)})
    exprs[RID] = "monotonically_increasing_id()"
    exprs.update({mask_col(a): f"{exprs[a]} IS NULL" for a in incomplete})
    raw = select_sql(df, [f"{e} AS {q(c)}" for c, e in exprs.items()]
                     ).localCheckpoint(eager=True)

    # one aggregate: mean (continuous) or mode (categorical, lowest value
    # on a tie) of each incomplete attribute, the null count of every
    # attribute, and the domain of each categorical attribute. It reads the
    # checkpoint in one task, so it needs no exchange and runs as one job.
    others = [a for a in attrs if a not in set(incomplete)]
    domains = [] if plan else list(schema.categorical)
    stats = ([("init", a, f"mode({q(a)}, true)" if schema.is_cat(a) else f"avg({q(a)})")
              for a in sorted(incomplete, key=schema.is_cat)]
             + [("nulls", a, f"sum(CAST({q(a)} IS NULL AS BIGINT))") for a in attrs]
             + [("domain", a, f"collect_set({q(a)})") for a in domains])
    row = select_sql(raw.coalesce(1), [e for *_, e in stats]).collect()[0]
    got: dict[str, dict[str, Any]] = {"init": {}, "nulls": {}, "domain": {}}
    for (kind, a, _), v in zip(stats, row):
        got[kind][a] = int(v or 0) if kind == "nulls" else v

    init = got["init"]
    for a, v in init.items():
        if v is None:
            raise ValueError(f"attribute {a!r} has no observed values")

    # loud guard: attributes not declared incomplete must be fully observed,
    # otherwise cofactor lifts would see NaNs mid-iteration
    bad = [a for a in others if got["nulls"][a] > 0]
    if bad:
        raise ValueError(
            f"attributes {bad} contain nulls but are not declared "
            "incomplete — declare them or pre-impute them"
        )

    categories = plan.categories if plan else {
        a: sorted(v) for a, v in got["domain"].items()}
    # the initial imputation is a lazy projection of the checkpoint
    filled = select_sql(raw, [f"coalesce({q(c)}, {sql_literal(init[c])}) AS {q(c)}"
                              if c in init else q(c) for c in exprs])
    return Prepared(df=filled, schema=schema, incomplete=list(incomplete),
                    init_values=init,
                    masked={a: got["nulls"][a] for a in incomplete},
                    categories=categories)
