"""Factorized cofactor evaluation == cofactor over the materialized join."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.ring import AttrSchema, cofactor_ring, spark_agg
from repro.ring.factorized import (
    Dim, _groups, _moments, _ring_mul, join_tree_cofactor,
)
from repro.ring.triple import (
    Triple, dense_columns, design_matrix, lift_block,
)

CATS = {"c": ["u", "v", "w"]}


def cofactor_factorized_2(left, right, schema, left_attrs, right_attrs, key):
    """Example 4: SUM(t1.T * t2.T) over per-key partials. The left side's
    per-key moments are multiplied by the right side's and summed over the
    keys, in one Spark job over ``left``."""
    return join_tree_cofactor(schema, CATS, left_attrs,
                              fold=[Dim(right, [key], right_attrs)])(left)


def keyed_triples(pdf, schema, attrs, by):
    """Per-key triples of ``pdf`` grouped by ``by``, from the fold's dense
    per-key moments."""
    x = design_matrix(pdf, schema, CATS, attrs)
    gid, keys = _groups({c: pdf[c].to_numpy() for c in by}, by, len(pdf))
    cols = dense_columns(schema, CATS, attrs)
    out = {}
    for g, m in enumerate(_moments(x, gid)):
        k = tuple(keys[c][g].item() for c in by)
        out[k if len(by) > 1 else k[0]] = Triple(schema, cols, m)
    return out


@pytest.fixture(scope="module")
def star(spark):
    """Tiny star schema: fact(k1, k2, x) ⋈ d1(k1, a, c) ⋈ d2(k2, b)."""
    g = np.random.default_rng(7)
    n, n1, n2 = 3000, 40, 15
    fact = pd.DataFrame(
        {
            "k1": g.integers(0, n1, n),
            "k2": g.integers(0, n2, n),
            "x": g.normal(size=n).round(4),
        }
    )
    d1 = pd.DataFrame(
        {
            "k1": np.arange(n1),
            "a": g.normal(5, 2, n1).round(4),
            "c": g.choice(["u", "v", "w"], n1),
        }
    )
    d2 = pd.DataFrame({"k2": np.arange(n2), "b": g.normal(-1, 1, n2).round(4)})
    schema = AttrSchema.of(continuous=["x", "a", "b"], categorical=["c"])
    sdf_fact = spark.createDataFrame(fact).repartition(6).cache()
    sdf_fact.count()
    joined = fact.merge(d1, on="k1").merge(d2, on="k2")
    yield dict(fact=fact, d1=d1, d2=d2, sdf_fact=sdf_fact, joined=joined, schema=schema, spark=spark)
    sdf_fact.unpersist()


class TestTwoTable:
    def test_example4_two_table(self, spark, star):
        """SUM(t1.T * t2.T) over per-key partials == cofactor over the join."""
        schema = star["schema"]
        r = spark.createDataFrame(star["fact"][["k1", "x"]])
        fac = cofactor_factorized_2(r, star["d1"], schema, ["x"], ["a", "c"], "k1")
        joined = spark.createDataFrame(star["fact"][["k1", "x"]].merge(star["d1"], on="k1"))
        mat = cofactor_ring(joined, schema, attrs=["x", "a", "c"])
        assert fac.allclose(mat, rtol=1e-7, atol=1e-4)

    def test_example4_key_mismatch_drops_rows(self, spark, star):
        schema = star["schema"]
        d1_half = star["d1"].iloc[:20]
        r = spark.createDataFrame(star["fact"][["k1", "x"]])
        fac = cofactor_factorized_2(r, d1_half, schema, ["x"], ["a", "c"], "k1")
        joined = spark.createDataFrame(star["fact"][["k1", "x"]].merge(d1_half, on="k1"))
        mat = cofactor_ring(joined, schema, attrs=["x", "a", "c"])
        assert fac.allclose(mat, rtol=1e-7, atol=1e-4)


class TestLiftGrouped:
    """Per-key dense moments (the fold's multi-group lift) == per-group bulk
    lift."""

    def test_matches_per_group_lift_block(self, star):
        schema = star["schema"]
        j = star["joined"]
        got = keyed_triples(j, schema, ["x", "a", "c"], ["k2"])
        for k, grp in j.groupby("k2"):
            assert got[k].allclose(lift_block(grp, schema, ["x", "a", "c"]),
                                   rtol=1e-9, atol=1e-9), k

    def test_compound_keys(self, star):
        schema = star["schema"]
        j = star["joined"]
        got = keyed_triples(j, schema, ["x", "b", "c"], ["k1", "k2"])
        assert len(got) == len(j.groupby(["k1", "k2"]))
        sample = list(got)[:5]
        for k in sample:
            grp = j[(j["k1"] == k[0]) & (j["k2"] == k[1])]
            assert got[k].allclose(lift_block(grp, schema, ["x", "b", "c"]))

    def test_empty_frame(self, spark, star):
        """A fold over a fact with no rows is the zero triple."""
        schema = star["schema"]
        empty = star["sdf_fact"].limit(0)
        fac = join_tree_cofactor(schema, CATS, ["x"],
                                 fold=[Dim(star["d1"], ["k1"], ["a", "c"])])(empty)
        assert fac == Triple.zero(schema)

    def test_no_attrs_counts_only(self, star):
        got = keyed_triples(star["joined"], star["schema"], [], ["k2"])
        sizes = star["joined"].groupby("k2").size()
        for k, n in sizes.items():
            assert got[k].n == n and got[k].columns == [(-1, None)]


class TestRingMul:
    def test_block_formula_matches_triple_product(self, star):
        """The batched dense product over disjoint attributes equals the
        Triple ring product, per key."""
        schema = star["schema"]
        j = star["joined"]
        left, right = ["x", "b"], ["a", "c"]
        xa = design_matrix(j, schema, CATS, left)
        xb = design_matrix(j, schema, CATS, right)
        gid, _ = _groups({"k2": j["k2"].to_numpy()}, ["k2"], len(j))
        got = _ring_mul(_moments(xa, gid), _moments(xb, gid))
        # columns [bias, x, b, a, c=u,v,w] → the schema-order layout
        cols = dense_columns(schema, CATS)
        back = np.argsort([0, 1, 3, 2, 4, 5, 6])
        for g in range(3):
            rows = j[gid == g]
            want = lift_block(rows, schema, left) * lift_block(rows, schema, right)
            m = got[g][np.ix_(back, back)]
            assert Triple(schema, cols, m).allclose(want, rtol=1e-9, atol=1e-9)


class TestStarFold:
    def test_full_star_fold(self, star):
        """fact ⋈ d1 ⋈ d2 via fold == cofactor over materialized join."""
        schema, spark = star["schema"], star["spark"]
        # Gather d1 into the fact rows, sum per k2, then multiply by d2 per key.
        total = join_tree_cofactor(
            schema, CATS, ["x"], gather=[Dim(star["d1"], ["k1"], ["a", "c"])],
            fold=[Dim(star["d2"], ["k2"], ["b"])])(star["sdf_fact"])
        expected = cofactor_ring(spark.createDataFrame(star["joined"]), schema)
        assert total.allclose(expected, rtol=1e-6, atol=1e-3)

    def test_fold_then_keyed_fold(self, star):
        """Same join with both dimensions folded as levels: moments keyed by
        (k1, k2) times d1, k1 summed out, then times d2."""
        schema, spark = star["schema"], star["spark"]
        total = join_tree_cofactor(
            schema, CATS, ["x"], fold=[Dim(star["d1"], ["k1"], ["a", "c"]),
                                       Dim(star["d2"], ["k2"], ["b"])])(star["sdf_fact"])
        expected = cofactor_ring(spark.createDataFrame(star["joined"]), schema)
        assert total.allclose(expected, rtol=1e-6, atol=1e-3)

    def test_merge_leaf_matches_dict_path(self, star):
        """Gathering a dimension into the rows equals folding it per key."""
        schema = star["schema"]
        d1 = Dim(star["d1"], ["k1"], ["a", "c"])
        via_fold = join_tree_cofactor(schema, CATS, ["x"], fold=[d1])(star["sdf_fact"])
        via_gather = join_tree_cofactor(schema, CATS, ["x"], gather=[d1])(star["sdf_fact"])
        assert via_gather.allclose(via_fold, rtol=1e-7, atol=1e-4)

    def test_fact_fold_no_dim(self, star):
        schema = star["schema"]
        total = join_tree_cofactor(schema, CATS, ["x"])(star["sdf_fact"])
        direct = cofactor_ring(star["sdf_fact"], schema, attrs=["x"])
        assert total.allclose(direct, rtol=1e-7, atol=1e-4)

    def test_marginalization_counts(self, star):
        """After folding, N equals the join cardinality, not the fact size."""
        schema = star["schema"]
        d1_half = Dim(star["d1"].iloc[:10], ["k1"], ["a", "c"])
        expected_n = (star["fact"]["k1"] < 10).sum()
        for how in ("fold", "gather"):
            total = join_tree_cofactor(schema, CATS, ["x"],
                                       **{how: [d1_half]})(star["sdf_fact"])
            assert total.n == expected_n, how

    def test_where_one_triple_per_predicate(self, spark, star):
        """``where`` gives each predicate's triple from one Spark job."""
        schema = star["schema"]
        cofactor = join_tree_cofactor(schema, CATS, ["x"],
                                      fold=[Dim(star["d1"], ["k1"], ["a", "c"])])
        preds = [F.col("k2") < 5, F.col("x") > 0, F.lit(False)]
        sc = spark.sparkContext
        sc.setJobGroup("test-fold-where", "fold")
        try:
            got = cofactor(star["sdf_fact"], where=preds)
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        sc._jsc.sc().listenerBus().waitUntilEmpty()
        assert len(sc.statusTracker().getJobIdsForGroup("test-fold-where")) == 1
        for p, t in zip(preds, got):
            assert t.allclose(cofactor(star["sdf_fact"].filter(p)), rtol=1e-9, atol=1e-9)
        assert got[2] == Triple.zero(schema)


class TestFailLoudly:
    def test_category_outside_domain_in_dimension(self, star):
        with pytest.raises(ValueError, match="outside the plan's categories"):
            join_tree_cofactor(star["schema"], {"c": ["u", "v"]}, ["x"],
                               fold=[Dim(star["d1"], ["k1"], ["a", "c"])])

    def test_category_outside_domain_in_fact(self, spark, star, distributed_scan):
        """Fact rows are checked inside the scan task; the job fails with the
        task's ValueError."""
        fact = spark.createDataFrame(pd.DataFrame(
            {"k1": [0, 1], "x": [1.0, 2.0], "c": ["u", "z"]}))
        cofactor = join_tree_cofactor(star["schema"], CATS, ["x", "c"])
        with pytest.raises(Exception, match="ValueError: 'c' holds values outside"):
            cofactor(fact)

    def test_nan_rejected(self, spark, star, distributed_scan):
        with pytest.raises(ValueError, match="NaN in lifted column 'x'"):
            design_matrix(pd.DataFrame({"x": [1.0, np.nan]}), star["schema"], CATS, ["x"])
        d1 = star["d1"].copy()
        d1.loc[3, "c"] = None
        with pytest.raises(ValueError, match="NaN in lifted column 'c'"):
            join_tree_cofactor(star["schema"], CATS, ["x"],
                               fold=[Dim(d1, ["k1"], ["a", "c"])])
        fact = star["fact"].copy()
        fact.loc[::7, "x"] = np.nan
        cofactor = join_tree_cofactor(star["schema"], CATS, ["x"])
        with pytest.raises(Exception, match="ValueError: NaN in lifted column 'x'"):
            cofactor(spark.createDataFrame(fact))

    def test_attribute_on_both_sides_rejected(self, star):
        """The block formula holds for disjoint attribute sets only."""
        with pytest.raises(ValueError, match="'a' on both sides of a product"):
            join_tree_cofactor(star["schema"], CATS, ["x", "a"],
                               fold=[Dim(star["d1"], ["k1"], ["a", "c"])])

    def test_non_unique_dimension_key_rejected(self, star):
        d2 = pd.concat([star["d2"], star["d2"]], ignore_index=True)
        with pytest.raises(ValueError, match="not unique"):
            join_tree_cofactor(star["schema"], CATS, ["x"],
                               fold=[Dim(d2, ["k2"], ["b"])])


@pytest.fixture(scope="module")
def rt(spark):
    """Retailer at 25k fact rows (two full Arrow batches and a partial one)
    and its factorized plan."""
    from repro.datasets import retailer
    from repro.datasets.plans import retailer_plan

    ds = retailer.generate(sf=0.025, seed=5)
    fact = spark.createDataFrame(ds.tables["inventory"])
    return dict(plan=retailer_plan(spark, ds),
                one=fact.coalesce(1).localCheckpoint(eager=True),
                wide=fact.repartition(50).localCheckpoint(eager=True))


class TestDriverFold:
    """A fact under ``LOCAL_SCAN_BYTES`` is folded on the driver, through
    the same ``lift`` and with the same result as in tasks."""

    @staticmethod
    def preds():
        return [F.col("inventoryunits") > 100, F.col("ksn") % 3 == 0]

    @staticmethod
    def both_paths(cofactor, fact, where=None):
        driver = cofactor(fact, where=where)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spark_agg, "LOCAL_SCAN_BYTES", -1)
            tasks = cofactor(fact, where=where)
        return ([driver], [tasks]) if where is None else (driver, tasks)

    @pytest.mark.parametrize("with_where", [False, True])
    def test_one_partition_bit_identical(self, rt, with_where):
        driver, tasks = self.both_paths(rt["plan"].cofactor, rt["one"],
                                        self.preds() if with_where else None)
        for a, b in zip(driver, tasks):
            assert a == b

    @pytest.mark.parametrize("with_where", [False, True])
    def test_fifty_partitions_close(self, rt, with_where):
        driver, tasks = self.both_paths(rt["plan"].cofactor, rt["wide"],
                                        self.preds() if with_where else None)
        for a, b in zip(driver, tasks):
            assert a.n == b.n
            assert a.allclose(b, rtol=1e-9, atol=1e-6)

    def test_category_outside_domain_raises_on_driver(self, spark, star):
        fact = spark.createDataFrame(pd.DataFrame(
            {"k1": [0, 1], "x": [1.0, 2.0], "c": ["u", "z"]}))
        cofactor = join_tree_cofactor(star["schema"], CATS, ["x", "c"])
        with pytest.raises(ValueError, match="'c' holds values outside"):
            cofactor(fact)

    def test_nan_raises_on_driver(self, spark, star):
        fact = star["fact"].copy()
        fact.loc[::7, "x"] = np.nan
        cofactor = join_tree_cofactor(star["schema"], CATS, ["x"])
        with pytest.raises(ValueError, match="NaN in lifted column 'x'"):
            cofactor(spark.createDataFrame(fact))
