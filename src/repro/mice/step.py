"""Shared per-attribute MICE step: train from a Triple, impute via Catalyst.

Both model families read the *same* triple (the paper's key observation):
stochastic linear regression for continuous targets, LDA for categorical
ones. Imputation is a single projection ``when(mask, pred).otherwise(col)``
— Spark's analogue of the paper's column swap.
"""
from __future__ import annotations

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from repro.models import predict_stochastic_expr, train_lda, train_stochastic
from repro.ring.triple import Triple
from .prep import Prepared, mask_col


def attr_seed(base: int, iteration: int, attr_idx: int) -> int:
    """Deterministic per-(iteration, attribute) seed for the noise streams."""
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
        pred = model.predict_expr()
    else:
        pred = predict_stochastic_expr(model, seed=seed, noise=noise)
    return F.when(F.col(mask_col(target)), pred).otherwise(F.col(target))


def apply_imputation(df: DataFrame, model, target: str, prep: Prepared,
                     seed: int, noise: bool, enrich=None) -> DataFrame:
    """Rebuild ``df`` with the imputed target column (the "column swap").

    ``enrich`` joins on the attributes the model reads that ``df`` lacks (a
    factorized plan's dimension attributes); they are dropped again before
    the checkpoint.
    """
    src = enrich(df) if enrich else df
    out = src.withColumn(target, impute_column(model, target, prep, seed, noise))
    return out.select(*df.columns).localCheckpoint(eager=True)
