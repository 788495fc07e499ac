"""Stochastic linear regression (Section 3.1).

Ridge regression plus Gaussian noise on predictions: ``f(x) = θᵀx + ε`` with
``ε ~ N(0, σ²)`` and ``σ²`` the residual variance computed from the same
cofactor triple used for training. The noise is generated inside Spark SQL
with the Box–Muller transform, rendered as the SQL the paper executes:

    ε = sqrt(-2 ln U₁) · cos(2π U₂) · σ

Each uniform is counter-based (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC 2011): the top 53 bits of ``xxhash64`` of the row's
``__rid`` and a seed. A cell's noise is thus a function of its row id and
the seed alone, whatever the partition and position of the row.
"""
from __future__ import annotations

import math

from repro.ring.triple import Triple
from repro.sql import RID, sql_ident, sql_literal

from .linreg import RidgeModel, train_ridge


def train_stochastic(triple: Triple, target: str, **kwargs) -> RidgeModel:
    """Train ridge parameters; σ² is computed by ``train_ridge`` already."""
    return train_ridge(triple, target, **kwargs)


def _uniform_sql(seed: int) -> str:
    """A uniform in [0, 1) per row: the top 53 bits of the row id's hash,
    times 2⁻⁵³, an exact double."""
    return (f"shiftrightunsigned(xxhash64({sql_ident(RID)}, {seed}L), 11)"
            f" * {sql_literal(2.0 ** -53)}")


def box_muller_sql(sigma: float, seed: int) -> str:
    """N(0, sigma²) sample per row as Spark SQL, keyed by the row id.

    The expression reads the ``repro.sql.RID`` column, so the frame it is
    evaluated on must carry one. ``1 - u`` keeps U₁ in (0, 1] so the log
    never sees 0.
    """
    u1 = f"1.0D - {_uniform_sql(seed)}"
    u2 = _uniform_sql(seed + 1_000_003)
    return (f"sqrt({sql_literal(-2.0)} * ln({u1})) * "
            f"cos({sql_literal(2.0 * math.pi)} * {u2}) * {sql_literal(sigma)}")


def predict_stochastic_sql(model: RidgeModel, seed: int, noise: bool = True) -> str:
    """θᵀx (+ Box–Muller noise) as one Spark SQL expression.

    With noise on (``noise`` and ``sigma2 > 0``) the expression reads
    ``repro.sql.RID`` (see ``box_muller_sql``), so the frame must carry it;
    without noise it reads the model's features only.
    """
    sql = model.predict_sql()
    if noise and model.sigma2 > 0:
        sql = f"({sql}) + ({box_muller_sql(math.sqrt(model.sigma2), seed)})"
    return sql

