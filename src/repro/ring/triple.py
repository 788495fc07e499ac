"""The generalized cofactor ring (Section 2.2 of the paper).

A ring value is a ``Triple`` ``(N, s, Q)`` where

* ``N`` is the record count (``SUM(1)``),
* ``s`` holds ``SUM(X_i)`` for a continuous attribute ``i`` and
  ``SUM(1) GROUP BY X_i`` for a categorical one,
* ``Q`` holds ``SUM(X_i * X_j)`` when both attributes are continuous,
  ``SUM(X_cont) GROUP BY X_cat`` when exactly one is categorical, and
  ``SUM(1) GROUP BY X_i, X_j`` when both are.

A triple is stored as its one-hot cofactor matrix ``mat``: the Gram matrix
``xᵀx`` of the design vectors ``x`` of its rows, with a bias 1 at index 0,
then one column per continuous attribute and one indicator per category.
``mat[0, 0]`` is ``N``, row 0 is ``s`` and the rest is ``Q``. ``columns``
names the layout (``dense_columns``): the bias, then the attributes the
triple covers in schema order, each categorical one over some categories in
sorted order. A category or an attribute outside the layout is zero, so two
triples over different layouts are combined on the union of their layouts.
This is the paper's generalized multiset relation held dense, as the
per-batch lift and the factorized fold compute it and both models read it.

The ring operations ``+``, ``-``, ``*`` implement:

    a + b = (Na + Nb, sa + sb, Qa + Qb)
    a * b = (Na*Nb, Nb*sa + Na*sb, Nb*Qa + Na*Qb + sa sb^T + sb sa^T)

where, in the product, two different categories of one attribute never
meet (an indicator times another of its attribute is 0), so the cells
between them are 0: the key intersection of the relational product.

``lift_block`` is the bulk lifting function λ([cont...], [cat...]): it maps a
whole pandas block to one Triple, the Gram matrix of the block's one-hot
design matrix (``design_matrix``, over the categories that occur in the
block) — the analogue of the paper's ``SUM_TRIPLE`` aggregate operating on
value vectors. ``lift_rows`` builds that matrix once and lifts several row
subsets of it. ``Triple.pinned`` lays a triple over a fixed category domain,
from which both ridge/stochastic linear regression and LDA read their
parameters (Section 3).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np
import pandas as pd

from .schema import AttrSchema


def _union(a: list, b: list) -> list:
    """The layout holding the columns of both layouts."""
    if a == b:
        return a
    vals: dict[int, set] = {}
    for i, v in a + b:
        vals.setdefault(i, set()).add(v)
    return [(i, v) for i in sorted(vals) for v in sorted(vals[i])]


@dataclass(eq=False)
class Triple:
    """A value of the generalized cofactor ring over ``schema``: the one-hot
    cofactor matrix ``mat[a, b] = SUM(col_a * col_b)`` over ``columns``.

    ``columns[k]`` is ``(-1, None)`` for the bias, ``(i, None)`` for a
    continuous attribute ``i``, and ``(i, v)`` for the indicator of category
    ``v`` of attribute ``i``.
    """

    schema: AttrSchema
    columns: list[tuple[int, Any]]
    mat: np.ndarray

    # ------------------------------------------------------------------ ring
    @classmethod
    def zero(cls, schema: AttrSchema) -> "Triple":
        return cls(schema, [(-1, None)], np.zeros((1, 1)))

    @classmethod
    def one(cls, schema: AttrSchema) -> "Triple":
        """Multiplicative identity: (1, 0, 0)."""
        return cls(schema, [(-1, None)], np.ones((1, 1)))

    @property
    def n(self) -> float:
        return float(self.mat[0, 0])

    @property
    def pos(self) -> dict[tuple[int, Any], int]:
        """Index of each column of the layout."""
        return {c: k for k, c in enumerate(self.columns)}

    def _lay(self, columns: list) -> np.ndarray:
        """``mat`` over the layout ``columns``: zero where this triple has
        no column, and without this triple's columns ``columns`` lacks."""
        if columns == self.columns:
            return self.mat
        pos = {c: k for k, c in enumerate(columns)}
        src = [k for k, c in enumerate(self.columns) if c in pos]
        dst = [pos[self.columns[k]] for k in src]
        out = np.zeros((len(columns), len(columns)))
        out[np.ix_(dst, dst)] = self.mat[np.ix_(src, src)]
        return out

    def _both(self, other: "Triple") -> tuple[list, np.ndarray, np.ndarray]:
        if self.schema.names != other.schema.names:
            raise ValueError("triples over different schemas")
        cols = _union(self.columns, other.columns)
        return cols, self._lay(cols), other._lay(cols)

    def __add__(self, other: "Triple") -> "Triple":
        cols, a, b = self._both(other)
        return Triple(self.schema, cols, a + b)

    def __sub__(self, other: "Triple") -> "Triple":
        cols, a, b = self._both(other)
        return Triple(self.schema, cols, a - b)

    def __neg__(self) -> "Triple":
        return Triple(self.schema, self.columns, -self.mat)

    def __mul__(self, other: "Triple") -> "Triple":
        cols, a, b = self._both(other)
        na, nb = a[0, 0], b[0, 0]
        out = nb * a + na * b
        out[1:, 1:] += np.outer(a[0, 1:], b[0, 1:]) + np.outer(b[0, 1:], a[0, 1:])
        out[0, 0] = na * nb
        attr = np.array([i for i, _ in cols])
        cat = np.array([v is not None for _, v in cols])
        same = (attr[:, None] == attr[None, :]) & cat[:, None]
        out[same & ~np.eye(len(cols), dtype=bool)] = 0.0
        return Triple(self.schema, cols, out)

    # ------------------------------------------------------------- equality
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Triple):
            return NotImplemented
        if self.schema.names != other.schema.names:
            return False
        _, a, b = self._both(other)
        return bool(np.array_equal(a, b))

    def allclose(self, other: "Triple", rtol: float = 1e-9, atol: float = 1e-6) -> bool:
        _, a, b = self._both(other)
        return bool(np.all(np.abs(a - b) <= atol + rtol * np.maximum(np.abs(a), np.abs(b))))

    # --------------------------------------------------------------- access
    def _live(self, i: int) -> list[tuple[int, Any]]:
        """``(column, category)`` of attribute ``i`` in the layout, without
        the categories no row holds (``category`` is None if continuous)."""
        return [(k, v) for k, (a, v) in enumerate(self.columns)
                if a == i and (v is None or self.mat[0, k] != 0)]

    def sum_of(self, name: str) -> float | dict:
        """SUM(X) (continuous) or SUM(1) GROUP BY X (categorical)."""
        live = self._live(self.schema.index(name))
        if self.schema.is_cat(name):
            return {v: float(self.mat[0, k]) for k, v in live}
        return float(self.mat[0, live[0][0]]) if live else 0.0

    def q_of(self, a: str, b: str) -> float | dict:
        """SUM(X_a * X_b), grouped by the categorical ones of ``a`` and
        ``b``: keyed by category (one categorical, or ``a == b``) or by the
        pair of categories in schema order, without zero pair counts."""
        i, j = sorted((self.schema.index(a), self.schema.index(b)))
        li, lj = self._live(i), self._live(j)
        if i == j and self.schema.is_cat(i):
            return {v: float(self.mat[k, k]) for k, v in li}
        if not self.schema.is_cat(i) and not self.schema.is_cat(j):
            return float(self.mat[li[0][0], lj[0][0]]) if li and lj else 0.0
        out = {}
        for ki, vi in li:
            for kj, vj in lj:
                val = float(self.mat[ki, kj])
                if vi is None or vj is None:
                    out[vj if vi is None else vi] = val
                elif val != 0:
                    out[(vi, vj)] = val
        return out

    def attr_cols(self, i: int) -> list[int]:
        """Column indices belonging to attribute ``i``."""
        return [k for k, (a, _) in enumerate(self.columns) if a == i]

    def categories(self, name: str) -> list:
        """Observed categories of a categorical attribute, sorted."""
        return list(self.sum_of(name))

    def pinned(self, categories: dict[str, list] | None = None) -> "Triple":
        """This triple laid out over every attribute of the schema, each
        categorical one over ``categories[name]``: a category no row holds
        is a zero column, and one outside the list is dropped. A categorical
        attribute ``categories`` does not name keeps its observed
        categories. Pinning keeps model parameter vectors aligned across
        train/predict when a training subset misses a category."""
        schema = self.schema
        cats = {a: (categories or {}).get(a) for a in schema.categorical}
        cats = {a: self.categories(a) if c is None else c for a, c in cats.items()}
        cols = dense_columns(schema, cats)
        return Triple(schema, cols, self._lay(cols))


def dense_columns(schema: AttrSchema, categories: dict[str, list],
                  attrs: Iterable[str] | None = None) -> list[tuple[int, Any]]:
    """The ``Triple.columns`` layout: the bias, then ``attrs`` (all of the
    schema by default) in schema order, each categorical attribute expanded
    to one column per entry of ``categories[name]``."""
    keep = set(schema.names if attrs is None else attrs)
    cols: list[tuple[int, Any]] = [(-1, None)]
    for i, name in enumerate(schema.names):
        if name not in keep:
            continue
        if schema.is_cat(i):
            cols.extend((i, c) for c in categories[name])
        else:
            cols.append((i, None))
    return cols


# --------------------------------------------------------------- bulk lift
def _py(v: Any) -> Any:
    """Convert a numpy scalar to a plain hashable Python value."""
    return v.item() if isinstance(v, np.generic) else v


def lift_row(schema: AttrSchema, values: dict[str, Any]) -> Triple:
    """λ over a single record: the product of per-attribute lifts.

    Reference implementation (used in tests as ground truth for
    ``lift_block``); O(m^2) per row, so not for bulk use.
    """
    out = Triple.one(schema)
    for name, val in values.items():
        i = schema.index(name)
        if schema.is_cat(i):
            t = Triple(schema, [(-1, None), (i, _py(val))], np.ones((2, 2)))
        else:
            x = float(val)
            t = Triple(schema, [(-1, None), (i, None)], np.array([[1.0, x], [x, x * x]]))
        out = out * t
    return out


def design_matrix(pdf: pd.DataFrame, schema: AttrSchema,
                  categories: dict[str, list], attrs: Iterable[str]) -> np.ndarray:
    """Rows' one-hot design matrix over ``attrs``: the bias 1, then each
    attribute in schema order, a categorical one as a 0/1 indicator per
    entry of ``categories[name]``. Its columns are ``dense_columns(schema,
    categories, attrs)``, so ``x.T @ x`` is the ``Triple.mat`` of the rows.
    Fails, naming the attribute, on a NaN or null and on a category outside
    ``categories``."""
    n = len(pdf)
    names = sorted(attrs, key=schema.index)
    widths = [len(categories[a]) if schema.is_cat(a) else 1 for a in names]
    x = np.zeros((n, 1 + sum(widths)), order="F")  # filled column by column
    x[:, 0] = 1.0
    k = 1
    for a, w in zip(names, widths):
        # NumPy per column: a pandas ``isna`` costs ~60 µs per call
        v = pdf[a].to_numpy()
        if schema.is_cat(a):
            codes = pd.Index(categories[a]).get_indexer(v)
            if (codes < 0).any():
                if pd.isna(v).any():
                    raise ValueError(f"NaN in lifted column {a!r} — impute first")
                bad = list(dict.fromkeys(v[codes < 0].tolist()))[:5]
                raise ValueError(f"{a!r} holds values outside the plan's categories: {bad}")
            x[np.arange(n), k + codes] = 1.0
        else:
            x[:, k] = v
            if np.isnan(x[:, k]).any():
                raise ValueError(f"NaN in lifted column {a!r} — impute first")
        k += w
    return x


def lift_rows(pdf: pd.DataFrame, schema: AttrSchema, attrs: Iterable[str] | None,
              rows: Iterable[np.ndarray | None]) -> list[Triple]:
    """Bulk λ over the rows each entry of ``rows`` selects (a boolean mask
    over ``pdf``; ``None`` selects every row), one triple per entry.

    The batch's design matrix is built once, over the categories that occur
    in it, and each triple is the Gram matrix of the mask's rows of it. A
    category none of those rows holds is a zero column. ``attrs`` restricts
    lifting to a subset of the (global) schema, as factorized evaluation
    does.
    """
    names = list(attrs) if attrs is not None else list(schema.names)
    cats = {}
    for a in names:
        if schema.is_cat(a):
            u = pd.unique(pdf[a].to_numpy())
            cats[a] = sorted(u[~pd.isna(u)].tolist())  # a null fails in design_matrix
    x = design_matrix(pdf, schema, cats, names)
    columns = dense_columns(schema, cats, names)
    return [Triple(schema, columns, z.T @ z)
            for z in (x if r is None else x[r] for r in rows)]


def lift_block(pdf: pd.DataFrame, schema: AttrSchema,
               attrs: Iterable[str] | None = None) -> Triple:
    """Bulk λ: lift a pandas block to one Triple, the Gram matrix of its
    one-hot design matrix (``lift_rows`` over every row)."""
    return lift_rows(pdf, schema, attrs, [None])[0]


def triple_sum(triples: Iterable[Triple], schema: AttrSchema) -> Triple:
    """Fold with ring addition (the SUM over TRIPLE values)."""
    acc = Triple.zero(schema)
    for t in triples:
        acc = acc + t
    return acc
