"""Factorized cofactor computation over normalized schemas (paper Ex. 4).

The cofactor SUM distributes over joins: for ``R(A, B) ⋈_B S(B, C)``

    SUM(λ(A) * λ(C))  =  Σ_b  [Σ_{R, B=b} λ(A)] * [Σ_{S, B=b} λ(C)]

so each table is aggregated to *keyed partial triples* first and the triples
are combined with ring multiplication — the join result is never
materialized. For snowflake schemas the combination proceeds bottom-up along
the join tree, marginalizing (summing out) each join key once it is no
longer needed, so wide attribute interactions are computed once per distinct
key instead of once per joined row (the aggregate pushdown of F-IVM and
LMFAO).

Keyed triples are held as dense moment matrices over the plan's pinned
one-hot domain: for the rows of key ``k``, ``M[k] = Σ x xᵀ`` where ``x`` is a
row's design vector (bias 1 at index 0, continuous values, one indicator per
category), so ``M[k]`` is the ``Triple.to_dense`` of that key's triple and
the ring product of two such matrices over disjoint attributes is the block
formula of ``_ring_mul``.

``join_tree_cofactor`` builds a plan's ``cofactor(fact, where=None)``: one
``mapInPandas`` job over the fact (``scan_partials``), in which each task, per
Arrow batch,

1. builds its rows' design matrix and gathers the unique-key leaf dimensions
   (``gather``) into the rows, dropping rows without a match;
2. sums per-key moments ``[K, p, p]`` by the join keys the folds still need;
3. folds them up the tree: per level, a batched ring product with the
   dimension's moments at each key (keys without a match are dropped), then
   a segment sum to the keys the remaining levels need;

and emits one ``p × p`` matrix. The driver adds the tasks' matrices and
turns the sum back into the sparse ``Triple`` with ``Triple.from_dense``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame

from .schema import AttrSchema
from .spark_agg import scan_partials
from .triple import DenseCofactor, Triple, dense_columns


@dataclass
class FactorizedPlan:
    """Dataset-specific factorized evaluation plan.

    ``cofactor(fact_df, where=None)`` computes the cofactor Triple of
    ``fact_df ⋈ dims`` without materializing the join, or with ``where`` one
    Triple per predicate over the fact rows, from one Spark job (as
    ``cofactor_ring(where=)``); ``enrich(fact_df)`` joins dimension
    attributes onto the given (small) fact subset for prediction.
    ``categories`` pins the domain of every categorical attribute. The
    attribute schema is not part of the plan: callers pass the same schema
    the plan's folds were built over.
    """

    fact_attrs: list[str]
    cofactor: Callable[..., Triple | list[Triple]]
    enrich: Callable[[DataFrame], DataFrame]
    categories: dict[str, list]


@dataclass(eq=False)
class Dim:
    """A dimension table joined on ``key`` (unique per row) that contributes
    the attributes ``attrs`` to the cofactor."""

    table: pd.DataFrame
    key: list[str]
    attrs: list[str]


def _design(pdf: pd.DataFrame, schema: AttrSchema, categories: dict[str, list],
            attrs: Sequence[str]) -> np.ndarray:
    """Rows' design matrix over ``attrs``: the bias, then each attribute in
    schema order (categoricals one indicator per pinned category), so its
    columns are ``dense_columns(schema, categories, attrs)``. Fails on a NaN
    and on a category outside ``categories``."""
    cols = [np.ones(len(pdf))]
    for a in sorted(attrs, key=schema.index):
        v = pdf[a]
        if v.isna().any():
            raise ValueError(f"NaN in lifted column {a!r} — impute first")
        if not schema.is_cat(a):
            cols.append(v.to_numpy(dtype=np.float64))
            continue
        codes = pd.Index(categories[a]).get_indexer(v)
        if (codes < 0).any():
            bad = list(dict.fromkeys(v[codes < 0].tolist()))[:5]
            raise ValueError(f"{a!r} holds values outside the plan's categories: {bad}")
        cols.append(np.eye(len(categories[a]))[codes].T)
    return np.vstack(cols).T


def _key_index(cols: list[np.ndarray]) -> pd.Index:
    """Index over key tuples (a flat one for a single key column)."""
    return pd.Index(cols[0]) if len(cols) == 1 else pd.MultiIndex.from_arrays(cols)


def _groups(keys: dict[str, np.ndarray], cols: list[str],
            n: int) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Group id ``0..k-1`` of each of ``n`` rows by the key columns ``cols``,
    and the distinct keys (one group when ``cols`` is empty)."""
    code = np.zeros(n, dtype=np.int64)
    for c in cols:  # mixed-radix code over the per-column codes
        f, u = pd.factorize(keys[c])
        code = code * len(u) + f
    _, first, gid = np.unique(code, return_index=True, return_inverse=True)
    return gid, {c: keys[c][first] for c in cols}


def _segments(gid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row order that sorts ``gid``, and where each group starts in it."""
    order = np.argsort(gid, kind="stable")
    g = gid[order]
    return order, np.flatnonzero(np.r_[True, g[1:] != g[:-1]])


def _segment_sum(a: np.ndarray, gid: np.ndarray) -> np.ndarray:
    """Sum the rows of ``a`` per group id; row ``g`` of the result is group
    ``g`` (every id ``0..k-1`` occurs)."""
    order, starts = _segments(gid)
    return np.add.reduceat(a[order], starts, axis=0)


def _moments(x: np.ndarray, gid: np.ndarray) -> np.ndarray:
    """Per-group ``Σ x xᵀ`` as ``[k, p, p]``, one column of products at a
    time so no ``[n, p, p]`` array is built."""
    order, starts = _segments(gid)
    xs = x[order]
    return np.stack([np.add.reduceat(xs * xs[:, j, None], starts, axis=0)
                     for j in range(x.shape[1])], axis=1)


def _ring_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched ring product of dense moments over disjoint attributes.

    ``a`` is ``[K, 1+α, 1+α]`` and ``b`` is ``[K, 1+β, 1+β]``, each with the
    bias at index 0; the result is ``[K, 1+α+β, 1+α+β]`` with columns
    ``[bias, α, β]``, by the block formula ``A·B = [[a₀₀b₀₀, b₀₀A₀ₐ,
    a₀₀B₀ᵦ], [·, b₀₀Aₐₐ, Aₐ₀B₀ᵦ], [·, ·, a₀₀Bᵦᵦ]]``: the Triple product
    ``(NaNb, Nb·sa + Na·sb, Nb·Qa + Na·Qb + sa sbᵀ + sb saᵀ)``.
    """
    k, pa, pb = a.shape[0], a.shape[1], b.shape[1]
    na, nb = a[:, 0, 0, None], b[:, 0, 0, None, None]
    out = np.empty((k, pa + pb - 1, pa + pb - 1))
    out[:, :pa, :pa] = nb * a
    out[:, :pa, pa:] = a[:, :, 0, None] * b[:, None, 0, 1:]
    out[:, pa:, :pa] = out[:, :pa, pa:].transpose(0, 2, 1)
    out[:, pa:, pa:] = na[:, :, None] * b[:, 1:, 1:]
    return out


def join_tree_cofactor(schema: AttrSchema, categories: dict[str, list],
                       fact_attrs: Sequence[str], gather: Sequence[Dim] = (),
                       fold: Sequence[Dim] = ()) -> Callable[..., Triple | list[Triple]]:
    """``cofactor(fact, where=None)`` of ``fact ⋈ gather ⋈ fold``.

    ``gather`` dimensions are joined into the fact rows (the leaves of the
    join tree); ``fold`` dimensions are then folded in, in order, as the
    levels of the tree: before level ``i`` the moments are keyed by the
    join keys of levels ``i`` and up, so each key column is summed out once
    the level that joins on it is done. Every attribute belongs to one
    table, and every dimension's key is unique; both are checked here.
    """
    owner: dict[str, str] = {}
    for name, attrs in [("fact", fact_attrs)] + [
            (f"dimension on {d.key}", d.attrs) for d in (*gather, *fold)]:
        for a in attrs:
            if a in owner:
                raise ValueError(f"attribute {a!r} on both sides of a product: "
                                 f"{owner[a]} and {name}")
            owner[a] = name
    for d in (*gather, *fold):
        if d.table.duplicated(d.key).any():
            raise ValueError(f"dimension key {d.key} is not unique")

    def prepared(d: Dim):
        index = _key_index([d.table[c].to_numpy() for c in d.key])
        return d.key, index, _design(d.table, schema, categories, d.attrs)

    gathers = [prepared(d) for d in gather]
    levels = [prepared(d) for d in fold]
    # key columns the moments are grouped by before each level, and after
    # the last one (none)
    level_keys = [list(dict.fromkeys(c for d in fold[i:] for c in d.key))
                  for i in range(len(fold) + 1)]
    key_cols = list(dict.fromkeys([c for d in gather for c in d.key] + level_keys[0]))

    # the tasks' column order (bias, then the fact's, the gathered and the
    # folded attributes) → the DenseCofactor layout (attributes in schema order)
    columns = dense_columns(schema, categories, owner)
    pos = {c: k for k, c in enumerate(columns)}
    order = [0] + [pos[c] for attrs in (fact_attrs, *(d.attrs for d in (*gather, *fold)))
                   for c in dense_columns(schema, categories, attrs)[1:]]
    back = np.argsort(order)
    p = len(columns)

    def lift(pdf: pd.DataFrame) -> np.ndarray:
        x = _design(pdf, schema, categories, fact_attrs)
        keys = {c: pdf[c].to_numpy() for c in key_cols}
        for key, index, rows in gathers:
            hit = index.get_indexer(_key_index([keys[c] for c in key]))
            keep = hit >= 0  # inner join: rows without a match drop out
            x = np.hstack([x[keep], rows[hit[keep], 1:]])
            keys = {c: v[keep] for c, v in keys.items()}
        if len(x) == 0:
            return np.zeros((p, p))
        gid, keys = _groups(keys, level_keys[0], len(x))
        m = _moments(x, gid)
        for i, (key, index, rows) in enumerate(levels):
            hit = index.get_indexer(_key_index([keys[c] for c in key]))
            keep = hit >= 0
            if not keep.any():
                return np.zeros((p, p))
            b = rows[hit[keep]]
            m = _ring_mul(m[keep], b[:, :, None] * b[:, None, :])
            gid, keys = _groups({c: v[keep] for c, v in keys.items()},
                                level_keys[i + 1], len(m))
            m = _segment_sum(m, gid)
        return m[0]

    def cofactor(fact: DataFrame, *,
                 where: list[Column] | None = None) -> Triple | list[Triple]:
        cols = list(dict.fromkeys(key_cols + list(fact_attrs)))
        per_task = scan_partials(fact, cols, where, lift, lambda: np.zeros((p, p)))
        out = []
        for k in range(len(where) if where is not None else 1):
            mat = sum((accs[k] for accs in per_task), np.zeros((p, p)))[np.ix_(back, back)]
            out.append(Triple.from_dense(DenseCofactor(schema, columns, pos, mat, mat[0, 0])))
        return out if where is not None else out[0]

    return cofactor
