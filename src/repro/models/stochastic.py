"""Stochastic linear regression (Section 3.1).

Ridge regression plus Gaussian noise on predictions: ``f(x) = θᵀx + ε`` with
``ε ~ N(0, σ²)`` and ``σ²`` the residual variance computed from the same
cofactor triple used for training. The noise is generated inside Spark SQL
with the Box–Muller transform over two ``rand`` streams, rendered as the
SQL the paper executes:

    ε = sqrt(-2 ln U₁) · cos(2π U₂) · σ
"""
from __future__ import annotations

import math

from pyspark.sql import Column
from pyspark.sql import functions as F

from repro.ring.triple import Triple
from .linreg import RidgeModel, sql_literal, train_ridge


def train_stochastic(triple: Triple, target: str, **kwargs) -> RidgeModel:
    """Train ridge parameters; σ² is computed by ``train_ridge`` already."""
    return train_ridge(triple, target, **kwargs)


def box_muller_sql(sigma: float, seed: int) -> str:
    """N(0, sigma²) sample per row as Spark SQL.

    ``1 - rand`` keeps U₁ in (0, 1] so the log never sees 0.
    """
    u1 = f"1.0D - rand({seed}L)"
    u2 = f"rand({seed + 1_000_003}L)"
    return (f"sqrt({sql_literal(-2.0)} * ln({u1})) * "
            f"cos({sql_literal(2.0 * math.pi)} * {u2}) * {sql_literal(sigma)}")


def box_muller_expr(sigma: float, seed: int) -> Column:
    """``box_muller_sql`` as a Catalyst expression."""
    return F.expr(box_muller_sql(sigma, seed))


def predict_stochastic_sql(model: RidgeModel, seed: int, noise: bool = True) -> str:
    """θᵀx (+ Box–Muller noise) as one Spark SQL expression."""
    sql = model.predict_sql()
    if noise and model.sigma2 > 0:
        sql = f"({sql}) + ({box_muller_sql(math.sqrt(model.sigma2), seed)})"
    return sql


def predict_stochastic_expr(model: RidgeModel, seed: int, noise: bool = True) -> Column:
    """``predict_stochastic_sql`` as a single Spark projection's expression."""
    return F.expr(predict_stochastic_sql(model, seed, noise))
