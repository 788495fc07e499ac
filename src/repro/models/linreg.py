"""Ridge linear regression trained from a cofactor Triple (Section 2.2/3.1).

Training never touches the data again: the dense one-hot expansion of the
triple provides ``F = X^T X`` (features, incl. bias and one-hot categoricals)
and ``c = X^T y``, and the parameters solve ``(F + λN·I) θ = c``. Two
solvers are provided:

* ``method="gd"``  — batch gradient descent ``θ ← θ − α(Fθ − c)/N`` as in the
  paper (each step is O(p²), decoupled from the data size); the step size is
  1/L with L the largest eigenvalue of F/N + λ (guaranteed convergence).
* ``method="solve"`` — direct solve (used as the default; identical result
  up to the GD tolerance, cheaper at our model sizes).

Prediction is a pure Catalyst expression: continuous features contribute
``θ_j * col``, categorical features a literal-map lookup ``map[col]``
(missing category → 0), so imputation runs as a single Spark projection with
no Python UDF on the hot path. The expression is rendered as one Spark SQL
string (``linear_sql``) and parsed by one ``F.expr`` call: building the same
tree from ``F.lit``/``F.col`` objects costs one Py4J round trip per node
(DESIGN.md §4 has the measurement).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np
import pandas as pd

from repro.ring.schema import AttrSchema
from repro.ring.triple import Triple
from repro.sql import sql_ident, sql_literal


def linear_sql(schema: AttrSchema, features: list[tuple[int, Any]],
               weights, offset: float) -> str:
    """``offset + Σ weight·x`` over one-hot ``features`` as Spark SQL:
    ``θ_j * col`` per continuous feature, and one literal-map lookup per
    categorical attribute (a category without a weight adds 0)."""
    terms = [sql_literal(float(offset))]
    # group categorical coefficients per attribute into one map lookup
    cat_coeffs: dict[int, dict[Any, float]] = {}
    for (i, v), th in zip(features, weights):
        if v is None:
            terms.append(f"{sql_literal(float(th))} * {sql_ident(schema.names[i])}")
        else:
            cat_coeffs.setdefault(i, {})[v] = float(th)
    for i, coeffs in cat_coeffs.items():
        kv = ", ".join(f"{sql_literal(v)}, {sql_literal(th)}"
                       for v, th in coeffs.items())
        terms.append(f"coalesce(map({kv})[{sql_ident(schema.names[i])}], 0.0D)")
    return " + ".join(terms)


@dataclass
class RidgeModel:
    """Linear model over the one-hot feature space of ``schema`` minus ``target``.

    ``features`` lists dense feature columns as ``(-1, None)`` for the bias,
    ``(attr_index, None)`` for continuous and ``(attr_index, category)`` for
    categorical indicators; ``theta`` is parallel to it. ``sigma2`` is the
    residual variance (set for stochastic regression, 0 otherwise).
    """

    schema: AttrSchema
    target: str
    features: list[tuple[int, Any]]
    theta: np.ndarray
    sigma2: float = 0.0
    gd_iters: int = 0

    # ------------------------------------------------------------- predict
    def predict_sql(self) -> str:
        """Spark SQL computing θᵀx over the feature columns."""
        return linear_sql(self.schema, self.features[1:], self.theta[1:],
                          self.theta[0])

    def predict_np(self, pdf: pd.DataFrame) -> np.ndarray:
        """Driver-side prediction over a pandas frame (for evaluation)."""
        out = np.full(len(pdf), float(self.theta[0]))
        for (i, v), th in zip(self.features[1:], self.theta[1:]):
            col = self.schema.names[i]
            if v is None:
                out += float(th) * pdf[col].to_numpy(dtype=float)
            else:
                out += float(th) * (pdf[col] == v).to_numpy(dtype=float)
        return out


def train_ridge(
    triple: Triple,
    target: str,
    *,
    l2: float = 1e-3,
    method: str = "solve",
    categories: dict[str, list] | None = None,
    lr_scale: float = 1.0,
    max_iters: int = 2000,
    tol: float = 1e-9,
) -> RidgeModel:
    """Learn ridge regression parameters for continuous ``target`` from a Triple.

    ``categories`` pins categorical domains (pass the global-cofactor domains
    inside MICE so parameter vectors stay aligned as C ± ΔC evolves).
    """
    schema = triple.schema
    if schema.is_cat(target):
        raise ValueError(f"{target} is categorical — use LDA")
    dense = triple.pinned(categories)
    t_idx = schema.index(target)
    tcol = dense.pos[(t_idx, None)]
    feat = [k for k in range(len(dense.columns)) if k != tcol]
    n = max(dense.n, 1.0)
    fmat = dense.mat[np.ix_(feat, feat)]
    c = dense.mat[feat, tcol]
    reg = l2 * n * np.eye(len(feat))
    reg[0, 0] = 0.0  # do not penalize the bias
    iters = 0
    if method == "solve":
        # the one-hot columns of a categorical feature sum to the bias
        # column, so without a ridge the system is singular by construction
        cats = [schema.names[i] for i, v in (dense.columns[k] for k in feat)
                if v is not None]
        if l2 == 0 and cats:
            raise ValueError(
                f"ridge for {target!r} with l2=0 is singular: the one-hot "
                f"columns of {cats[0]!r} sum to the bias; use l2 > 0")
        theta = np.linalg.solve(fmat + reg, c)
    elif method == "gd":
        a = fmat / n + reg / n
        # Lipschitz constant of the quadratic loss gradient
        lip = float(np.linalg.eigvalsh(a).max())
        step = lr_scale / max(lip, 1e-12)
        theta = np.zeros(len(feat))
        b = c / n
        for iters in range(1, max_iters + 1):
            grad = a @ theta - b
            new = theta - step * grad
            if np.max(np.abs(new - theta)) < tol * max(1.0, np.max(np.abs(new))):
                theta = new
                break
            theta = new
    else:
        raise ValueError(f"unknown method {method!r}")

    # residual variance σ² = (θ_f^T X^T X θ_f)/N with θ_f = [θ; -1] (Sec 3.1)
    q_tt = dense.mat[tcol, tcol]
    sigma2 = float(theta @ fmat @ theta - 2.0 * theta @ c + q_tt) / n
    sigma2 = max(sigma2, 0.0)

    features = [dense.columns[k] for k in feat]
    return RidgeModel(
        schema=schema,
        target=target,
        features=features,
        theta=theta,
        sigma2=sigma2,
        gd_iters=iters,
    )
