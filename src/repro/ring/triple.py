"""The generalized cofactor ring (Section 2.2 of the paper).

A ring value is a ``Triple`` ``(N, s, Q)`` where

* ``N`` is the record count (``SUM(1)``),
* ``s[i]`` encodes ``SUM(X_i)`` for a continuous attribute ``i`` (a float) or
  ``SUM(1) GROUP BY X_i`` for a categorical one (a ``{category: count}`` map),
* ``Q[(i, j)]`` (``i <= j``) encodes ``SUM(X_i * X_j)`` when both attributes
  are continuous (a float), ``SUM(X_cont) GROUP BY X_cat`` when exactly one is
  categorical (a ``{category: sum}`` map), and ``SUM(1) GROUP BY X_i, X_j``
  when both are (a ``{(v_i, v_j): count}`` map; the diagonal ``(i, i)`` of a
  categorical attribute is ``{v_i: count}``).

``s`` and ``Q`` are sparse dicts: absent entries are zero. This is the
generalized-multiset-relation representation from the paper — only the
attribute interactions present in the data are stored, which is what lets the
ring avoid one-hot explosion.

The ring operations ``+``, ``-``, ``*`` implement:

    a + b = (Na + Nb, sa + sb, Qa + Qb)
    a * b = (Na*Nb, Nb*sa + Na*sb, Nb*Qa + Na*Qb + sa sb^T + sb sa^T)

where scalar addition on relation entries is union-with-sum and scalar
multiplication is join (cartesian key combination for distinct attributes,
key intersection for the same attribute).

``lift_block`` is the bulk lifting function λ([cont...], [cat...]): it maps a
whole pandas block to one Triple using vectorized NumPy/pandas kernels — the
analogue of the paper's ``SUM_TRIPLE`` aggregate operating on value vectors.

``Triple.to_dense`` expands a triple into the classic one-hot cofactor matrix
with a bias row/column, from which both ridge/stochastic linear regression and
LDA read their parameters (Section 3); ``Triple.from_dense`` is its inverse,
which factorized folds over dense keyed moments (``factorized.py``) use to
hand back the sparse triple.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np
import pandas as pd

from .schema import AttrSchema

Rel = float | dict  # a relation entry: scalar (continuous) or mapping (categorical)


def _rel_add(a: Rel | None, b: Rel | None) -> Rel | None:
    """Union-with-sum of two relation entries of the same shape."""
    if a is None:
        return b
    if b is None:
        return a
    if isinstance(a, dict) != isinstance(b, dict):
        raise TypeError(f"incompatible relation entries: {type(a)} vs {type(b)}")
    if isinstance(a, dict):
        out = dict(a)
        for k, v in b.items():
            out[k] = out.get(k, 0.0) + v
        return out
    return a + b


def _rel_scale(a: Rel, c: float) -> Rel:
    if isinstance(a, dict):
        return {k: v * c for k, v in a.items()}
    return a * c


def _rel_neg(a: Rel) -> Rel:
    return _rel_scale(a, -1.0)


def _dict_prune(d: dict, tol: float) -> dict:
    return {k: v for k, v in d.items() if abs(v) > tol}


@dataclass
class Triple:
    """A value of the generalized cofactor ring over ``schema``."""

    schema: AttrSchema
    n: float
    s: dict[int, Rel] = field(default_factory=dict)
    q: dict[tuple[int, int], Rel] = field(default_factory=dict)

    # ------------------------------------------------------------------ ring
    @classmethod
    def zero(cls, schema: AttrSchema) -> "Triple":
        return cls(schema, 0.0)

    @classmethod
    def one(cls, schema: AttrSchema) -> "Triple":
        """Multiplicative identity: (1, 0, 0)."""
        return cls(schema, 1.0)

    def __add__(self, other: "Triple") -> "Triple":
        self._check(other)
        s = dict(self.s)
        for i, e in other.s.items():
            s[i] = _rel_add(s.get(i), e)
        q = dict(self.q)
        for ij, e in other.q.items():
            q[ij] = _rel_add(q.get(ij), e)
        return Triple(self.schema, self.n + other.n, s, q)

    def __neg__(self) -> "Triple":
        return Triple(
            self.schema,
            -self.n,
            {i: _rel_neg(e) for i, e in self.s.items()},
            {ij: _rel_neg(e) for ij, e in self.q.items()},
        )

    def __sub__(self, other: "Triple") -> "Triple":
        return self + (-other)

    def __mul__(self, other: "Triple") -> "Triple":
        self._check(other)
        na, nb = self.n, other.n
        n = na * nb
        s: dict[int, Rel] = {}
        for i, e in self.s.items():
            s[i] = _rel_add(s.get(i), _rel_scale(e, nb))
        for i, e in other.s.items():
            s[i] = _rel_add(s.get(i), _rel_scale(e, na))
        q: dict[tuple[int, int], Rel] = {}
        for ij, e in self.q.items():
            q[ij] = _rel_add(q.get(ij), _rel_scale(e, nb))
        for ij, e in other.q.items():
            q[ij] = _rel_add(q.get(ij), _rel_scale(e, na))
        # Cross terms sa sb^T + sb sa^T: iterate over (x in sa, y in sb); the
        # pair (x, y) and its mirror (y, x) both land at the canonical key
        # (min, max), and the diagonal x == y appears once so it is doubled.
        cat = self.schema.cat
        for x, u in self.s.items():
            for y, v in other.s.items():
                key, prod = _cross(x, u, y, v, cat)
                if x == y:
                    prod = _rel_scale(prod, 2.0)
                q[key] = _rel_add(q.get(key), prod)
        return Triple(self.schema, n, s, q)

    def _check(self, other: "Triple") -> None:
        if self.schema.names != other.schema.names:
            raise ValueError("triples over different schemas")

    def prune(self, tol: float = 0.0) -> "Triple":
        """Drop near-zero entries (useful after ring subtraction)."""
        s = {}
        for i, e in self.s.items():
            e = _dict_prune(e, tol) if isinstance(e, dict) else e
            if (isinstance(e, dict) and e) or (not isinstance(e, dict) and abs(e) > tol):
                s[i] = e
        q = {}
        for ij, e in self.q.items():
            e = _dict_prune(e, tol) if isinstance(e, dict) else e
            if (isinstance(e, dict) and e) or (not isinstance(e, dict) and abs(e) > tol):
                q[ij] = e
        return Triple(self.schema, self.n, s, q)

    # ------------------------------------------------------------- equality
    def allclose(self, other: "Triple", rtol: float = 1e-9, atol: float = 1e-6) -> bool:
        self._check(other)

        def close(a: float, b: float) -> bool:
            return abs(a - b) <= atol + rtol * max(abs(a), abs(b))

        def rel_close(a: Rel | None, b: Rel | None) -> bool:
            a = a if a is not None else ({} if isinstance(b, dict) else 0.0)
            b = b if b is not None else ({} if isinstance(a, dict) else 0.0)
            if isinstance(a, dict) and isinstance(b, dict):
                keys = set(a) | set(b)
                return all(close(a.get(k, 0.0), b.get(k, 0.0)) for k in keys)
            if isinstance(a, dict) or isinstance(b, dict):
                return False
            return close(a, b)

        if not close(self.n, other.n):
            return False
        for i in set(self.s) | set(other.s):
            if not rel_close(self.s.get(i), other.s.get(i)):
                return False
        for ij in set(self.q) | set(other.q):
            if not rel_close(self.q.get(ij), other.q.get(ij)):
                return False
        return True

    # --------------------------------------------------------------- access
    def sum_of(self, name: str) -> Rel:
        """SUM(X) (continuous) or SUM(1) GROUP BY X (categorical)."""
        i = self.schema.index(name)
        e = self.s.get(i)
        if e is None:
            return {} if self.schema.is_cat(i) else 0.0
        return e

    def q_of(self, a: str, b: str) -> Rel:
        i, j = sorted((self.schema.index(a), self.schema.index(b)))
        e = self.q.get((i, j))
        if e is None:
            both_cont = not self.schema.is_cat(i) and not self.schema.is_cat(j)
            return 0.0 if both_cont else {}
        return e

    def categories(self, name: str) -> list:
        """Observed categories of a categorical attribute, sorted."""
        e = self.sum_of(name)
        assert isinstance(e, dict)
        return sorted(e.keys())

    # ------------------------------------------------------- dense expansion
    def to_dense(self, categories: dict[str, list] | None = None) -> "DenseCofactor":
        """Expand to the one-hot cofactor matrix with a bias column.

        Column 0 is the bias (intercept); then attributes in schema order,
        each categorical attribute expanding to one column per category.
        ``categories`` optionally pins the category list per attribute (so
        that model parameter vectors line up across train/predict even when a
        training subset misses a category); by default categories observed in
        this triple are used.
        """
        schema = self.schema
        cats = {}
        for name in schema.categorical:
            cats[name] = (categories or {}).get(name)
            if cats[name] is None:
                e = self.s.get(schema.index(name), {})
                cats[name] = sorted(e.keys()) if isinstance(e, dict) else []
        cols = dense_columns(schema, cats)
        pos = {c: k for k, c in enumerate(cols)}
        p = len(cols)
        mat = np.zeros((p, p))
        mat[0, 0] = self.n
        for i, e in self.s.items():
            if isinstance(e, dict):
                for v, cnt in e.items():
                    if (i, v) in pos:
                        mat[0, pos[(i, v)]] = cnt
            else:
                mat[0, pos[(i, None)]] = e
        for (i, j), e in self.q.items():
            ci, cj = self.schema.is_cat(i), self.schema.is_cat(j)
            if not ci and not cj:
                mat[pos[(i, None)], pos[(j, None)]] = e
            elif ci and cj:
                if i == j:
                    for v, cnt in e.items():
                        if (i, v) in pos:
                            mat[pos[(i, v)], pos[(i, v)]] = cnt
                else:
                    for (vi, vj), cnt in e.items():
                        if (i, vi) in pos and (j, vj) in pos:
                            mat[pos[(i, vi)], pos[(j, vj)]] = cnt
            else:
                # exactly one categorical; dict keyed by the categorical value
                cat_attr, con_attr = (i, j) if ci else (j, i)
                for v, sm in e.items():
                    if (cat_attr, v) in pos:
                        a, b = pos[(i, v if ci else None)], pos[(j, v if cj else None)]
                        mat[a, b] = sm
        mat = np.triu(mat) + np.triu(mat, 1).T
        return DenseCofactor(schema=schema, columns=cols, pos=pos, mat=mat, n=self.n)

    @classmethod
    def from_dense(cls, dense: "DenseCofactor") -> "Triple":
        """The inverse of ``to_dense``: the sparse triple of a one-hot matrix.

        A category whose count ``mat[0, k]`` is zero is left absent, with
        every entry it would key, as ``lift_block`` leaves out categories no
        row holds; so is a zero categorical pair count. A matrix with
        ``mat[0, 0] == 0`` (no rows) gives the zero triple.
        """
        schema, mat, cols = dense.schema, dense.mat, dense.columns
        n = float(mat[0, 0])
        if n == 0:
            return cls.zero(schema)
        s: dict[int, Rel] = {}
        q: dict[tuple[int, int], Rel] = {}
        live = [k for k, (i, v) in enumerate(cols)
                if i >= 0 and (v is None or mat[0, k] != 0)]
        for k in live:
            i, v = cols[k]
            if v is None:
                s[i] = float(mat[0, k])
            else:
                s.setdefault(i, {})[v] = float(mat[0, k])
        # columns run in schema order, so for a <= b, i <= j
        for a, ka in enumerate(live):
            i, vi = cols[ka]
            for kb in live[a:]:
                j, vj = cols[kb]
                val = float(mat[ka, kb])
                if vi is None and vj is None:
                    q[(i, j)] = val
                elif vi is None or vj is None:
                    q.setdefault((i, j), {})[vi if vj is None else vj] = val
                elif i == j:
                    if vi == vj:
                        q.setdefault((i, i), {})[vi] = val
                elif val != 0:
                    q.setdefault((i, j), {})[(vi, vj)] = val
        return cls(schema, n, s, q)


@dataclass
class DenseCofactor:
    """One-hot expansion of a Triple: ``mat[a, b] = SUM(col_a * col_b)``.

    ``columns[k]`` is ``(-1, None)`` for the bias, ``(i, None)`` for a
    continuous attribute ``i``, and ``(i, v)`` for the indicator of category
    ``v`` of attribute ``i``.
    """

    schema: AttrSchema
    columns: list[tuple[int, Any]]
    pos: dict[tuple[int, Any], int]
    mat: np.ndarray
    n: float

    def attr_cols(self, i: int) -> list[int]:
        """Dense column indices belonging to attribute ``i``."""
        return [k for k, (a, _) in enumerate(self.columns) if a == i]


def dense_columns(schema: AttrSchema, categories: dict[str, list],
                  attrs: Iterable[str] | None = None) -> list[tuple[int, Any]]:
    """The ``DenseCofactor.columns`` layout: the bias, then ``attrs`` (all
    of the schema by default) in schema order, each categorical attribute
    expanded to one column per entry of ``categories[name]``."""
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


def _cross(x: int, u: Rel, y: int, v: Rel, cat: tuple[bool, ...]):
    """Product of s-entries ``u`` (attr x) and ``v`` (attr y) as a Q entry.

    Returns ``(canonical_key, relation)`` where the relation is oriented for
    the canonical key ``(min(x, y), max(x, y))``.
    """
    if x == y:
        if isinstance(u, dict):
            common = set(u) & set(v)
            return (x, x), {k: u[k] * v[k] for k in common}
        return (x, x), u * v
    i, j = (x, y) if x < y else (y, x)
    ui, vj = (u, v) if x < y else (v, u)  # entry of attr i, entry of attr j
    ci, cj = cat[i], cat[j]
    if not ci and not cj:
        return (i, j), ui * vj
    if ci and cj:
        return (i, j), {(a, b): va * vb for a, va in ui.items() for b, vb in vj.items()}
    if ci:  # i categorical, j continuous: dict keyed by v_i
        return (i, j), {a: va * vj for a, va in ui.items()}
    return (i, j), {b: ui * vb for b, vb in vj.items()}


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
            t = Triple(schema, 1.0, {i: {_py(val): 1.0}}, {(i, i): {_py(val): 1.0}})
        else:
            x = float(val)
            t = Triple(schema, 1.0, {i: x}, {(i, i): x * x})
        out = out * t
    return out


def lift_block(pdf: pd.DataFrame, schema: AttrSchema,
               attrs: Iterable[str] | None = None) -> Triple:
    """Bulk λ: lift a pandas block to one Triple with vectorized kernels.

    ``attrs`` restricts lifting to a subset of the (global) schema — used by
    factorized evaluation where each table contributes only its own
    attributes. Continuous sums and the continuous-continuous block are one
    BLAS call; categorical interactions use pandas groupbys.
    """
    names = list(attrs) if attrs is not None else list(schema.names)
    cont = [n for n in names if not schema.is_cat(schema.index(n))]
    cats = [n for n in names if schema.is_cat(schema.index(n))]
    n_rows = float(len(pdf))
    s: dict[int, Rel] = {}
    q: dict[tuple[int, int], Rel] = {}
    if n_rows == 0:
        return Triple(schema, 0.0, s, q)

    if cont:
        xc = pdf[cont].to_numpy(dtype=np.float64, copy=False)
        if np.isnan(xc).any():
            raise ValueError("lift_block over data with NaNs — impute first")
        sums = xc.sum(axis=0)
        qcc = xc.T @ xc
        idx = [schema.index(c) for c in cont]
        for a, i in enumerate(idx):
            s[i] = float(sums[a])
            for b in range(a, len(idx)):
                j = idx[b]
                key = (i, j) if i <= j else (j, i)
                q[key] = float(qcc[a, b])

    for cname in cats:
        i = schema.index(cname)
        if cont:
            grouped = pdf.groupby(cname, sort=False, observed=True)[cont].sum()
            counts = pdf.groupby(cname, sort=False, observed=True).size()
        else:
            counts = pdf.groupby(cname, sort=False, observed=True).size()
            grouped = None
        cnt = {_py(k): float(v) for k, v in counts.items()}
        s[i] = cnt
        q[(i, i)] = dict(cnt)
        if grouped is not None:
            for ccol in cont:
                j = schema.index(ccol)
                key = (i, j) if i <= j else (j, i)
                q[key] = {_py(k): float(v) for k, v in grouped[ccol].items()}

    for a in range(len(cats)):
        for b in range(a + 1, len(cats)):
            i, j = schema.index(cats[a]), schema.index(cats[b])
            pair = pdf.groupby([cats[a], cats[b]], sort=False, observed=True).size()
            rel = {(_py(ki), _py(kj)): float(v) for (ki, kj), v in pair.items()}
            if i > j:
                i, j = j, i
                rel = {(kj, ki): v for (ki, kj), v in rel.items()}
            q[(i, j)] = rel

    return Triple(schema, n_rows, s, q)


def triple_sum(triples: Iterable[Triple], schema: AttrSchema) -> Triple:
    """Fold with ring addition (the SUM over TRIPLE values)."""
    acc = Triple.zero(schema)
    for t in triples:
        acc = acc + t
    return acc
