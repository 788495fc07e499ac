"""MICE preprocessing and partitioning."""
import operator
from functools import reduce

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.datasets import flight, inject_missing
from repro.mice import mask_col, partition, prepare
from repro.mice.low import step_rows

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

    def test_masked_counts_match_injected(self, prepped, masked):
        mask = masked["mask"]
        assert prepped.masked == {a: mask[a].sum() for a in prepped.incomplete}

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


    def test_nan_in_declared_attribute_is_missing(self, spark):
        """A NaN counts as missing: masked, left out of the mean, filled."""
        from repro.ring import AttrSchema

        schema = AttrSchema.of(continuous=["x", "y"])
        df = spark.createDataFrame(
            [(1.0, 1.0), (float("nan"), 2.0), (3.0, 3.0)], "x double, y double")
        prep = prepare(df, schema, ["x"])
        assert prep.masked == {"x": 1}
        assert prep.init_values["x"] == 2.0
        out = prep.df.orderBy("y").toPandas()
        assert out["x"].tolist() == [1.0, 2.0, 3.0]
        assert out[mask_col("x")].tolist() == [False, True, False]

    def test_nan_in_undeclared_attribute_rejected(self, spark):
        """A NaN in an attribute not declared incomplete fails up front,
        naming the attribute."""
        from repro.ring import AttrSchema

        schema = AttrSchema.of(continuous=["x", "y"])
        df = spark.createDataFrame(
            [(1.0, None), (float("nan"), 2.0), (3.0, 3.0)], "x double, y double")
        with pytest.raises(ValueError, match=r"\['x'\] contain nulls but are "
                                             "not declared"):
            prepare(df, schema, ["y"])

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
    """The two frames and, per mode, the rows each step scans
    (``step_rows``), on data at a missing rate the mode is meant for."""

    @pytest.fixture(scope="class", params=["low", "high"])
    def regime(self, request, spark, masked, prepped):
        """The module's data (20 % MCAR) for Low, 60 % MCAR for High."""
        mode, ds = request.param, masked["ds"]
        mask, prep = masked["mask"], prepped
        if mode == "high":
            pdf, mask = inject_missing(ds.joined(), ds.incomplete, 0.6, "MCAR",
                                       seed=0)
            prep = prepare(spark.createDataFrame(pdf), ds.schema, ds.incomplete)
        complete, missing = partition(prep)
        return dict(mode=mode, mask=mask, prep=prep, complete=complete,
                    missing=missing)

    def test_disjoint_and_complete(self, regime):
        complete, missing = regime["complete"], regime["missing"]
        total = regime["prep"].df.count()
        assert complete.count() + missing.count() == total
        assert (complete.unionByName(missing).select("__rid").distinct().count()
                == total)

    def test_complete_has_no_masks(self, regime):
        inc = regime["prep"].incomplete
        any_mask = regime["complete"].filter(
            F.greatest(*[F.col(mask_col(a)).cast("int") for a in inc]) > 0
        )
        assert any_mask.count() == 0

    def test_none_all_masked(self, regime):
        """The rows of ``missing`` that no step scans are the all-missing
        ones, which are in no training set, in either mode."""
        inc, missing = regime["prep"].incomplete, regime["missing"]
        scanned = reduce(operator.or_,
                         [step_rows(regime["mode"], inc, a) for a in inc])
        unscanned = missing.filter(~scanned)
        all_masked = F.least(*[F.col(mask_col(a)).cast("int") for a in inc]) == 1
        assert unscanned.filter(~all_masked).count() == 0
        assert unscanned.count() == missing.filter(all_masked).count()

    def test_single_routing(self, regime):
        """Each step scans rows with its attribute masked (low) or observed
        (high), and no all-missing row."""
        inc = regime["prep"].incomplete
        nmiss = sum(F.col(mask_col(x)).cast("int") for x in inc)
        for a in inc:
            rows = regime["missing"].filter(step_rows(regime["mode"], inc, a))
            flag = F.col(mask_col(a))
            wrong = ~flag if regime["mode"] == "low" else flag
            assert rows.filter(wrong | (nmiss == len(inc))).count() == 0, a

    def test_partition_sizes_match_pandas(self, regime):
        mask = regime["mask"]
        inc = regime["prep"].incomplete
        nmiss = mask[inc].sum(axis=1)
        m = len(inc)
        assert regime["complete"].count() == (nmiss == 0).sum()
        assert regime["missing"].count() == (nmiss > 0).sum()
        for a in inc:
            want = (mask[a] & (nmiss < m) if regime["mode"] == "low"
                    else ~mask[a] & (nmiss > 0))
            got = regime["missing"].filter(step_rows(regime["mode"], inc, a))
            assert got.count() == want.sum(), a


class TestPartitionSingleAttr:
    def test_single_incomplete_attribute(self, spark, masked):
        """m=1: every row with the attribute missing is all-missing, so
        ``missing`` holds exactly them and no step of either mode scans
        one."""
        ds = masked["ds"]
        pdf, mask = inject_missing(ds.joined(), ["distance"], 0.2, "MCAR", seed=7)
        sdf = spark.createDataFrame(pdf)
        prep = prepare(sdf, ds.schema, ["distance"])
        complete, missing = partition(prep)
        assert missing.count() == mask["distance"].sum()
        assert complete.count() + missing.count() == prep.df.count()
        for mode in ("low", "high"):
            assert missing.filter(
                step_rows(mode, ["distance"], "distance")).count() == 0
