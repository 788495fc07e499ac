"""Shared per-attribute MICE step: train from a Triple, impute via Catalyst.

Both model families read the *same* triple (the paper's key observation):
stochastic linear regression for continuous targets, LDA for categorical
ones. Imputation is a single lazy projection ``CASE WHEN mask THEN pred ELSE
col END``, parsed from one SQL string — Spark's analogue of the paper's
column swap. It issues no Spark job: the next scan of the frame evaluates
it, and the loops checkpoint their frame once per iteration, so a plan
holds at most one projection per incomplete attribute. A projection is
deterministic, noise included (a function of ``__rid`` and the seed,
``models.stochastic``), so every scan that recomputes it sees the same
values.
"""
from __future__ import annotations

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from repro.models import train_lda, train_stochastic
from repro.models.stochastic import predict_stochastic_sql
from repro.ring.triple import Triple
from repro.sql import sql_ident
from .prep import Prepared, mask_col


def attr_seed(base: int, iteration: int, attr_idx: int) -> int:
    """Deterministic per-(iteration, attribute) seed of the noise."""
    return base + 7919 * iteration + 104729 * attr_idx


def fit(triple: Triple, target: str, prep: Prepared, *, l2: float = 1e-3):
    """Train the imputation model for ``target`` from a training Triple.

    Returns ``None`` when the training set is empty (the attribute keeps its
    current imputations this round).
    """
    if triple.n <= 0:
        return None
    if prep.schema.is_cat(target):
        return train_lda(triple, target, categories=prep.categories)
    return train_stochastic(triple, target, l2=l2, categories=prep.categories)


def impute_column(model, target: str, prep: Prepared, seed: int,
                  noise: bool) -> Column:
    """Expression producing the new ``target`` column (masked rows imputed)."""
    if prep.schema.is_cat(target):
        pred = model.predict_sql()
    else:
        pred = predict_stochastic_sql(model, seed=seed, noise=noise)
    return F.expr(f"CASE WHEN {sql_ident(mask_col(target))} THEN {pred} "
                  f"ELSE {sql_ident(target)} END")


def apply_imputation(df: DataFrame, model, target: str, prep: Prepared,
                     seed: int, noise: bool, enrich=None) -> DataFrame:
    """``df`` with the imputed target column (the "column swap"), as one
    lazy projection: a single ``withColumn``, whose Py4J cost does not grow
    with the frame's width.

    ``enrich`` joins on the attributes the model reads that ``df`` lacks (a
    factorized plan's dimension attributes); the projection keeps only
    ``df``'s columns.
    """
    new = impute_column(model, target, prep, seed, noise)
    if enrich is None:
        return df.withColumn(target, new)
    return enrich(df).select(*[new.alias(target) if c == target else c
                               for c in df.columns])
