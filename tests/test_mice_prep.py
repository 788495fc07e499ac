"""MICE preprocessing and partitioning."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.datasets import flight, inject_missing
from repro.mice import mask_col, partition, prepare

SF = 0.0005  # ~2.5k rows


@pytest.fixture(scope="module")
def masked(spark):
    ds = flight.generate(sf=SF, seed=3)
    pdf, mask = inject_missing(ds.joined(), ds.incomplete, 0.2, "MCAR", seed=0)
    sdf = spark.createDataFrame(pdf).cache()
    sdf.count()
    yield dict(ds=ds, pdf=pdf, mask=mask, sdf=sdf)
    sdf.unpersist()


@pytest.fixture(scope="module")
def prepped(masked):
    ds = masked["ds"]
    return prepare(masked["sdf"], ds.schema, ds.incomplete)


class TestPrepare:
    def test_no_nulls_after_prepare(self, prepped, masked):
        ds = masked["ds"]
        cnt = prepped.df.select(
            *[
                F.sum(F.col(a).isNull().cast("int")).alias(a)
                for a in ds.schema.names
            ]
        ).collect()[0]
        assert all(cnt[a] == 0 for a in ds.schema.names)

    def test_masks_match_injected(self, prepped, masked):
        ds = masked["ds"]
        got = prepped.df.select(
            *[F.sum(F.col(mask_col(a)).cast("int")).alias(a) for a in ds.incomplete]
        ).collect()[0]
        for a in ds.incomplete:
            assert got[a] == masked["mask"][a].sum()

    def test_initial_values_are_mean_mode(self, prepped, masked):
        pdf = masked["pdf"]
        assert np.isclose(prepped.init_values["distance"], pdf["distance"].mean())
        assert prepped.init_values["diverted"] == pdf["diverted"].mode()[0]

    def test_observed_values_untouched(self, prepped, masked):
        pdf = masked["pdf"]
        out = prepped.df.orderBy("__rid").toPandas()
        obs = ~masked["mask"]["distance"].to_numpy()
        np.testing.assert_allclose(
            out["distance"].to_numpy()[obs], pdf["distance"].to_numpy()[obs]
        )

    def test_categories_collected(self, prepped):
        assert prepped.categories["diverted"] == [0, 1]

    def test_rid_unique(self, prepped):
        n = prepped.df.count()
        assert prepped.df.select("__rid").distinct().count() == n

    def test_unknown_incomplete_rejected(self, masked):
        ds = masked["ds"]
        with pytest.raises(ValueError, match="not in schema"):
            prepare(masked["sdf"], ds.schema, ["nope"])

    def test_undeclared_nulls_rejected(self, masked):
        """Columns with nulls must be declared incomplete (loud guard)."""
        ds = masked["ds"]
        with pytest.raises(ValueError, match="not declared"):
            prepare(masked["sdf"], ds.schema, ds.incomplete[:2])

    def test_fully_missing_continuous_rejected(self, masked):
        """No observed value means no mean to start from: fail loudly."""
        ds = masked["ds"]
        sdf = masked["sdf"].withColumn("distance", F.lit(None).cast("double"))
        with pytest.raises(ValueError, match="'distance' has no observed values"):
            prepare(sdf, ds.schema, ds.incomplete)


    @pytest.mark.parametrize("values,mode", [
        ([2, 2, 1, 1, 3, None], 1),
        (["b", "b", "a", "a", "c", None], "a"),
    ])
    def test_mode_takes_lowest_value_on_tie(self, spark, values, mode):
        """A tie between the most frequent categories goes to the lowest."""
        from repro.ring import AttrSchema

        schema = AttrSchema.of(continuous=["x"], categorical=["g"])
        pdf = pd.DataFrame({"x": np.arange(len(values), dtype=float), "g": values})
        prep = prepare(spark.createDataFrame(pdf), schema, ["g"])
        assert prep.init_values == {"g": mode}
        assert prep.categories["g"] == sorted(v for v in set(values) if v is not None)

    def test_prepare_jobs(self, spark, masked):
        """One aggregate for every statistic, plus the checkpoint."""
        ds = masked["ds"]
        sc = spark.sparkContext
        sc.setJobGroup("test-prepare", "prepare")
        try:
            prepare(masked["sdf"], ds.schema, ds.incomplete)
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        sc._jsc.sc().listenerBus().waitUntilEmpty()
        assert len(sc.statusTracker().getJobIdsForGroup("test-prepare")) == 2


class TestPartition:
    @pytest.fixture(scope="class", params=["low", "high"])
    def parts(self, request, prepped):
        return partition(prepped, mode=request.param)

    def test_disjoint_and_complete(self, parts, prepped):
        total = prepped.df.count()
        sizes = (
            parts.complete.count()
            + parts.none.count()
            + parts.overflow.count()
            + sum(d.count() for d in parts.single.values())
        )
        assert sizes == total
        assert parts.union_all().select("__rid").distinct().count() == total

    def test_complete_has_no_masks(self, parts, prepped):
        inc = prepped.incomplete
        any_mask = parts.complete.filter(
            F.greatest(*[F.col(mask_col(a)).cast("int") for a in inc]) > 0
        )
        assert any_mask.count() == 0

    def test_none_all_masked(self, parts, prepped):
        inc = prepped.incomplete
        bad = parts.none.filter(
            F.least(*[F.col(mask_col(a)).cast("int") for a in inc]) == 0
        )
        assert bad.count() == 0

    def test_single_routing(self, parts, prepped):
        inc = prepped.incomplete
        for a, d in parts.single.items():
            cnt = sum(F.col(mask_col(x)).cast("int") for x in inc)
            expected = 1 if parts.mode == "low" else len(inc) - 1
            bad = d.filter(cnt != expected)
            assert bad.count() == 0
            flag = F.col(mask_col(a)) if parts.mode == "low" else ~F.col(mask_col(a))
            assert d.filter(~flag).count() == 0

    def test_partition_sizes_match_pandas(self, parts, prepped, masked):
        mask = masked["mask"]
        nmiss = mask.sum(axis=1)
        m = len(prepped.incomplete)
        if parts.mode == "low":
            assert parts.complete.count() == (nmiss == 0).sum()
            assert parts.none.count() == (nmiss == m).sum()
            assert parts.overflow.count() == ((nmiss >= 2) & (nmiss < m)).sum()
        else:
            nobs = m - nmiss
            assert parts.overflow.count() == ((nobs >= 2) & (nobs < m)).sum()


class TestPartitionSingleAttr:
    def test_single_incomplete_attribute(self, spark, masked):
        """m=1: no single/overflow partitions; none holds the missing rows."""
        ds = masked["ds"]
        pdf, mask = inject_missing(ds.joined(), ["distance"], 0.2, "MCAR", seed=7)
        sdf = spark.createDataFrame(pdf)
        prep = prepare(sdf, ds.schema, ["distance"])
        for mode in ("low", "high"):
            parts = partition(prep, mode=mode)
            assert parts.overflow.count() == 0
            assert parts.single["distance"].count() == 0
            assert parts.none.count() == mask["distance"].sum()
            assert (
                parts.complete.count() + parts.none.count() == prep.df.count()
            )

    def test_invalid_mode(self, prepped):
        with pytest.raises(ValueError, match="mode"):
            partition(prepped, mode="medium")
