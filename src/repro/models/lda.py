"""Linear discriminant analysis trained from a cofactor Triple (Section 3.2).

The triple over ``(features..., Y)`` already contains every aggregate LDA
needs (the paper's (m+1)x(m+1) Q matrix):

* ``N_c``  — ``SUM(1) GROUP BY Y``        → class priors π_c = N_c / N
* ``s_c``  — ``SUM(X_i) GROUP BY Y``       → class means μ_c = s_c / N_c
* ``F``    — ``SUM(X_i * X_j)``            → shared covariance
  ``Σ = F/N − Σ_c N_c μ_c μ_cᵀ / N``

Prediction uses the linearized classifier (Eq. 3): ``argmax_c a_cᵀx + b_c``
with ``a_c = Σ⁻¹ μ_c`` and ``b_c = ln π_c − ½ μ_cᵀ Σ⁻¹ μ_c``. The argmax is
a Catalyst expression, rendered as one Spark SQL string: build the per-class
score array and take ``element_at(classes, array_position(scores,
array_max(scores)))``.

Categorical *features* participate through their one-hot indicator columns
of the dense expansion (the triple's group-by relations), with a small ridge
on Σ to keep it invertible under the induced linear dependence.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np
import pandas as pd

from repro.ring.schema import AttrSchema
from repro.ring.triple import Triple
from repro.sql import sql_literal

from .linreg import linear_sql


@dataclass
class LDAModel:
    """Per-class linear scores over the one-hot feature space minus ``target``."""

    schema: AttrSchema
    target: str
    classes: list
    features: list[tuple[int, Any]]  # (attr_index, category|None), no bias
    a: np.ndarray  # (C, p) score weights
    b: np.ndarray  # (C,) score offsets

    def predict_sql(self) -> str:
        """argmax-class as Spark SQL (ties → first class)."""
        scores = "array({})".format(", ".join(
            linear_sql(self.schema, self.features, a_c, b_c)
            for a_c, b_c in zip(self.a, self.b)))
        classes = "array({})".format(", ".join(map(sql_literal, self.classes)))
        return (f"element_at({classes}, "
                f"CAST(array_position({scores}, array_max({scores})) AS INT))")

    def predict_np(self, pdf: pd.DataFrame) -> np.ndarray:
        """Driver-side prediction (for tests/evaluation)."""
        n = len(pdf)
        scores = np.tile(self.b, (n, 1))
        for k, (i, v) in enumerate(self.features):
            col = self.schema.names[i]
            x = (
                pdf[col].to_numpy(dtype=float)
                if v is None
                else (pdf[col] == v).to_numpy(dtype=float)
            )
            scores += np.outer(x, self.a[:, k])
        return np.asarray(self.classes, dtype=object)[scores.argmax(axis=1)]


def train_lda(
    triple: Triple,
    target: str,
    *,
    reg: float = 1e-4,
    categories: dict[str, list] | None = None,
) -> LDAModel:
    """Estimate LDA parameters for categorical ``target`` from a Triple."""
    schema = triple.schema
    if not schema.is_cat(target):
        raise ValueError(f"{target} is continuous — use (stochastic) regression")
    dense = triple.pinned(categories)
    t_idx = schema.index(target)
    class_cols = dense.attr_cols(t_idx)
    classes = [dense.columns[k][1] for k in class_cols]
    feat = [
        k
        for k in range(1, len(dense.columns))  # skip bias
        if dense.columns[k][0] != t_idx
    ]
    n_c = np.array([dense.mat[k, k] for k in class_cols])
    keep = n_c > 0
    class_cols = [k for k, kp in zip(class_cols, keep) if kp]
    classes = [c for c, kp in zip(classes, keep) if kp]
    n_c = n_c[keep]
    n = float(n_c.sum())
    if n == 0 or not classes:
        raise ValueError("no observed classes in training triple")

    # class-conditional feature sums: column (feat, class) of the dense matrix
    s_c = np.stack([dense.mat[feat, k] for k in class_cols])  # (C, p)
    mu = s_c / n_c[:, None]
    fmat = dense.mat[np.ix_(feat, feat)]
    sigma = fmat / n - (mu.T * (n_c / n)) @ mu
    p = len(feat)
    ridge = reg * max(np.trace(sigma) / max(p, 1), 1e-12) * np.eye(p)
    sigma_r = sigma + ridge
    a = np.linalg.solve(sigma_r, mu.T).T  # (C, p): rows a_c = Σ⁻¹ μ_c
    b = np.log(n_c / n) - 0.5 * np.einsum("cp,cp->c", mu, a)
    features = [dense.columns[k] for k in feat]
    return LDAModel(
        schema=schema, target=target, classes=classes, features=features, a=a, b=b
    )
