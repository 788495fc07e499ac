"""Unit tests for the generalized cofactor ring (no Spark needed).

Ground truth throughout: brute-force NumPy over the one-hot encoded block.
Ring axioms are property-tested with hypothesis.
"""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ring import AttrSchema, Triple, lift_block, lift_row, triple_sum
from repro.ring.triple import lift_rows

S2 = AttrSchema.of(continuous=["a", "b"])
SMIX = AttrSchema.of(continuous=["a", "b"], categorical=["c", "d"])


def block(n, seed=0, cats=("x", "y", "z")):
    g = np.random.default_rng(seed)
    return pd.DataFrame(
        {
            "a": g.normal(size=n),
            "b": g.normal(2.0, 3.0, size=n),
            "c": g.choice(cats, size=n),
            "d": g.integers(0, 2, size=n),
        }
    )


def onehot_with_bias(pdf, schema):
    """Brute-force one-hot design matrix [bias, a, b, c=x..., d=0...]."""
    cols = [np.ones(len(pdf))]
    names = []
    for i, nme in enumerate(schema.names):
        if schema.is_cat(i):
            for v in sorted(pdf[nme].unique().tolist()):
                cols.append((pdf[nme] == v).to_numpy(float))
                names.append((nme, v))
        else:
            cols.append(pdf[nme].to_numpy(float))
            names.append((nme, None))
    return np.column_stack(cols)


class TestSchema:
    def test_of_orders_continuous_first(self):
        s = AttrSchema.of(continuous=["x"], categorical=["y"])
        assert s.names == ("x", "y") and s.cat == (False, True)

    def test_index_and_flags(self):
        assert SMIX.index("c") == 2
        assert SMIX.is_cat("c") and not SMIX.is_cat("a")
        assert SMIX.is_cat(3) and not SMIX.is_cat(0)

    def test_continuous_categorical_lists(self):
        assert SMIX.continuous == ("a", "b")
        assert SMIX.categorical == ("c", "d")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            AttrSchema.of(continuous=["a", "a"])

    def test_parallel_length_enforced(self):
        with pytest.raises(ValueError):
            AttrSchema(("a",), (True, False))

    def test_subset_preserves_order(self):
        sub = SMIX.subset(["d", "a"])
        assert sub.names == ("a", "d") and sub.cat == (False, True)

    def test_m(self):
        assert SMIX.m == 4


class TestLiftContinuous:
    def test_single_row_matches_paper_example2(self):
        # λ(d) * λ(a) = (1, [d a], [[d², da], [ad, a²]])
        t = lift_row(S2, {"a": 3.0, "b": 4.0})
        assert t.n == 1
        assert t.sum_of("a") == 3.0 and t.sum_of("b") == 4.0
        assert t.q_of("a", "a") == 9.0
        assert t.q_of("a", "b") == 12.0
        assert t.q_of("b", "b") == 16.0

    def test_block_equals_sum_of_rows(self):
        pdf = block(37)[["a", "b"]]
        bulk = lift_block(pdf, S2)
        rows = triple_sum(
            (lift_row(S2, r._asdict()) for r in pdf.itertuples(index=False)), S2
        )
        assert bulk.allclose(rows, rtol=1e-9, atol=1e-9)

    def test_block_matches_numpy_xtx(self):
        pdf = block(64)[["a", "b"]]
        t = lift_block(pdf, S2)
        x = pdf.to_numpy()
        xtx = x.T @ x
        assert t.n == 64
        assert np.isclose(t.q_of("a", "a"), xtx[0, 0])
        assert np.isclose(t.q_of("a", "b"), xtx[0, 1])
        assert np.isclose(t.q_of("b", "b"), xtx[1, 1])
        assert np.isclose(t.sum_of("a"), x[:, 0].sum())

    def test_empty_block_is_zero(self):
        t = lift_block(block(5).iloc[:0][["a", "b"]], S2)
        assert t == Triple.zero(S2)

    def test_nan_rejected(self):
        pdf = block(5)[["a", "b"]].copy()
        pdf.loc[2, "a"] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            lift_block(pdf, S2)


class TestLiftMixed:
    def test_block_equals_sum_of_rows_mixed(self):
        pdf = block(29)
        bulk = lift_block(pdf, SMIX)
        rows = triple_sum(
            (lift_row(SMIX, r._asdict()) for r in pdf.itertuples(index=False)), SMIX
        )
        assert bulk.allclose(rows, rtol=1e-9, atol=1e-9)

    def test_categorical_counts(self):
        pdf = block(200)
        t = lift_block(pdf, SMIX)
        vc = pdf["c"].value_counts()
        assert t.sum_of("c") == {k: float(v) for k, v in vc.items()}
        assert t.q_of("c", "c") == {k: float(v) for k, v in vc.items()}

    def test_cont_by_cat_group_sums(self):
        pdf = block(150)
        t = lift_block(pdf, SMIX)
        expected = pdf.groupby("c")["a"].sum()
        got = t.q_of("a", "c")
        assert set(got) == set(expected.index)
        for k in got:
            assert np.isclose(got[k], expected[k])

    def test_cat_pair_counts(self):
        pdf = block(150)
        t = lift_block(pdf, SMIX)
        expected = pdf.groupby(["c", "d"]).size()
        got = t.q_of("c", "d")
        assert got == {(c, int(d)): float(v) for (c, d), v in expected.items()}

    def test_subset_attrs_only(self):
        pdf = block(40)
        t = lift_block(pdf, SMIX, attrs=["b", "d"])
        assert t.sum_of("a") == 0.0 and t.sum_of("c") == {}
        assert np.isclose(t.sum_of("b"), pdf["b"].sum())
        assert t.q_of("a", "b") == 0.0

    def test_subset_attrs_out_of_schema_order(self):
        pdf = block(40)
        t = lift_block(pdf, SMIX, attrs=["d", "a"])  # reversed order
        full = lift_block(pdf[["a", "d"]], SMIX, attrs=["a", "d"])
        assert t.allclose(full)

    def test_integer_categories_are_python_ints(self):
        t = lift_block(block(10), SMIX)
        assert all(isinstance(k, int) for k in t.sum_of("d"))

    def test_null_category_rejected(self):
        """A null in a lifted categorical column fails, naming the column,
        as a NaN in a continuous one does."""
        pdf = pd.DataFrame({"a": [1.0, 2.0, 3.0], "b": [0.5, 0.5, 0.5],
                            "c": ["x", None, "y"], "d": [0, 1, 0]})
        with pytest.raises(ValueError, match="NaN in lifted column 'c'"):
            lift_block(pdf, SMIX)

    def test_rows_match_filtered_blocks(self):
        """``lift_rows`` lifts each mask's rows of one design matrix: the
        triple of the filtered block, with categories no selected row holds
        left out."""
        pdf = block(300, seed=8)
        masks = [pdf["a"].to_numpy() > 0, (pdf["c"] == "x").to_numpy(),
                 np.zeros(len(pdf), dtype=bool)]
        got = lift_rows(pdf, SMIX, None, [None, *masks])
        assert got[0] == lift_block(pdf, SMIX)
        for t, m in zip(got[1:], masks):
            assert t.allclose(lift_block(pdf[m], SMIX), rtol=1e-12, atol=1e-12)
        assert set(got[2].sum_of("c")) == {"x"}
        assert got[3] == Triple.zero(SMIX)


class TestRingOps:
    def test_add_is_concat(self):
        p1, p2 = block(30, seed=1), block(40, seed=2)
        t = lift_block(p1, SMIX) + lift_block(p2, SMIX)
        whole = lift_block(pd.concat([p1, p2], ignore_index=True), SMIX)
        assert t.allclose(whole)

    def test_sub_removes_contribution(self):
        pdf = block(50, seed=3)
        whole = lift_block(pdf, SMIX)
        part = lift_block(pdf.iloc[:20], SMIX)
        rest = lift_block(pdf.iloc[20:], SMIX)
        assert (whole - part).allclose(rest, atol=1e-8)

    def test_zero_is_additive_identity(self):
        t = lift_block(block(10), SMIX)
        assert (t + Triple.zero(SMIX)).allclose(t)

    def test_one_is_multiplicative_identity(self):
        t = lift_block(block(10), SMIX)
        assert (t * Triple.one(SMIX)).allclose(t)
        assert (Triple.one(SMIX) * t).allclose(t)

    def test_mul_matches_cartesian_product(self):
        """a * b over disjoint attrs == lift of the cross join (paper Ex. 2/3)."""
        left = block(8, seed=4)[["a", "c"]]
        right = block(5, seed=5)[["b", "d"]]
        ta = lift_block(left, SMIX, attrs=["a", "c"])
        tb = lift_block(right, SMIX, attrs=["b", "d"])
        cross = left.merge(right, how="cross")
        expected = lift_block(cross, SMIX)
        assert (ta * tb).allclose(expected)

    def test_mul_single_rows_matches_lift_row(self):
        """λ(a)*λ(b)*λ(c)*λ(d) on one record equals the joint lift."""
        r = {"a": 1.5, "b": -2.0, "c": "x", "d": 1}
        t = lift_row(SMIX, r)
        cross = lift_block(pd.DataFrame([r]), SMIX)
        assert t.allclose(cross)

    def test_mul_shared_categorical_attribute(self):
        """Two categories of one attribute never meet in a product (the key
        intersection of the relational product): the cell between them is
        0, while one category meeting itself adds up as a value would."""
        t = lift_row(SMIX, {"c": "x"}) * lift_row(SMIX, {"c": "y"})
        assert t.columns == [(-1, None), (2, "x"), (2, "y")]
        np.testing.assert_array_equal(t.mat, [[1, 1, 1], [1, 1, 0], [1, 0, 1]])
        t = lift_row(SMIX, {"c": "x"}) * lift_row(SMIX, {"c": "x"})
        np.testing.assert_array_equal(t.mat, [[1, 2], [2, 4]])

    def test_self_difference_is_zero(self):
        pdf = block(20)
        t = lift_block(pdf, SMIX)
        assert t - t == Triple.zero(SMIX)

    def test_incompatible_schemas_rejected(self):
        with pytest.raises(ValueError):
            Triple.zero(S2) + Triple.zero(SMIX)


# ------------------------- hypothesis property tests of the ring axioms ----
def triples(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return lift_block(block(max(n, 1), seed=seed).iloc[:n], SMIX)


@st.composite
def triple_strategy(draw):
    return triples(draw)


@settings(max_examples=25, deadline=None)
@given(triple_strategy(), triple_strategy())
def test_addition_commutes(a, b):
    assert (a + b).allclose(b + a)


@settings(max_examples=25, deadline=None)
@given(triple_strategy(), triple_strategy(), triple_strategy())
def test_addition_associates(a, b, c):
    assert ((a + b) + c).allclose(a + (b + c))


@settings(max_examples=25, deadline=None)
@given(triple_strategy(), triple_strategy())
def test_multiplication_commutes(a, b):
    # The cofactor ring is commutative (symmetrized outer products).
    assert (a * b).allclose(b * a, rtol=1e-8)


@settings(max_examples=20, deadline=None)
@given(triple_strategy(), triple_strategy(), triple_strategy())
def test_multiplication_associates(a, b, c):
    assert ((a * b) * c).allclose(a * (b * c), rtol=1e-7, atol=1e-4)


@settings(max_examples=20, deadline=None)
@given(triple_strategy(), triple_strategy(), triple_strategy())
def test_distributivity(a, b, c):
    assert (a * (b + c)).allclose(a * b + a * c, rtol=1e-7, atol=1e-4)


@settings(max_examples=25, deadline=None)
@given(triple_strategy())
def test_additive_inverse(a):
    assert a + (-a) == Triple.zero(SMIX)


class TestDenseExpansion:
    def test_dense_matches_onehot_xtx(self):
        pdf = block(80, seed=7)
        t = lift_block(pdf, SMIX)
        d = t.pinned()
        x = onehot_with_bias(pdf, SMIX)
        assert d.mat.shape == (x.shape[1], x.shape[1])
        np.testing.assert_allclose(d.mat, x.T @ x, rtol=1e-9, atol=1e-9)

    def test_dense_layout(self):
        pdf = block(20, seed=8)
        d = lift_block(pdf, SMIX).pinned()
        assert d.columns[0] == (-1, None)
        assert d.columns[1] == (0, None) and d.columns[2] == (1, None)
        cats_c = sorted(pdf["c"].unique().tolist())
        assert [v for (i, v) in d.columns if i == 2] == cats_c

    def test_dense_symmetric(self):
        d = lift_block(block(33, seed=9), SMIX).pinned()
        np.testing.assert_allclose(d.mat, d.mat.T)

    def test_pinned_categories(self):
        pdf = block(20, seed=10)
        sub = pdf[pdf["c"] != "z"]
        d = lift_block(sub, SMIX).pinned({"c": ["x", "y", "z"], "d": [0, 1]})
        zcol = d.pos[(2, "z")]
        assert d.mat[zcol].sum() == 0  # absent category yields an all-zero column

    def test_attr_cols(self):
        d = lift_block(block(20, seed=11), SMIX).pinned()
        assert d.attr_cols(0) == [1]
        assert len(d.attr_cols(2)) == len(set(block(20, seed=11)["c"]))

    def test_dense_of_difference_matches_subset(self):
        """C - ΔC expanded densely == dense cofactor of the remaining rows."""
        pdf = block(60, seed=12)
        whole = lift_block(pdf, SMIX)
        part = lift_block(pdf.iloc[:25], SMIX)
        cats = {c: whole.categories(c) for c in ("c", "d")}
        d1 = (whole - part).pinned(cats)
        d2 = lift_block(pdf.iloc[25:], SMIX).pinned(cats)
        np.testing.assert_allclose(d1.mat, d2.mat, atol=1e-8)

    def test_pinned_round_trip(self):
        """Pinning onto a wider domain and back to the observed one loses
        nothing. The pinned domain holds a category no row has, and some
        pairs of categories never occur together."""
        pdf = block(40, seed=13, cats=("x", "y"))
        pdf.loc[pdf["c"] == "x", "d"] = 0
        t = lift_block(pdf, SMIX)
        wide = t.pinned({"c": ["x", "y", "z"], "d": [0, 1]})
        back = wide.pinned()
        assert ("x", 1) not in t.q_of("c", "d")
        assert wide == t and wide.columns != t.columns
        assert back.columns == t.columns and np.array_equal(back.mat, t.mat)
        for a in SMIX.names:
            assert wide.sum_of(a) == t.sum_of(a)
            for b in SMIX.names:
                assert wide.q_of(a, b) == t.q_of(a, b)

    def test_pinned_of_zero(self):
        z = Triple.zero(SMIX).pinned()
        assert z == Triple.zero(SMIX)
        assert z.columns == [(-1, None), (0, None), (1, None)]


class TestMixedLayouts:
    """Triples over different category sets combine on the union layout."""

    def test_disjoint_categories(self):
        p1 = block(30, seed=14, cats=("x", "y"))
        p2 = block(20, seed=15, cats=("z",))
        whole = lift_block(pd.concat([p1, p2], ignore_index=True), SMIX)
        part = lift_block(p2, SMIX)
        assert (lift_block(p1, SMIX) + part).allclose(whole, rtol=1e-12, atol=1e-12)
        rest = whole - part
        assert rest.sum_of("c") == {k: float(v) for k, v in p1["c"].value_counts().items()}
        d = rest.pinned({"c": ["x", "y", "z"]})
        assert not d.mat[d.pos[(2, "z")]].any()
        assert not d.mat[:, d.pos[(2, "z")]].any()
