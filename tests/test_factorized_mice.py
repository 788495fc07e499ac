"""Factorized plans and MICE over normalized data (Figure 6 machinery)."""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.datasets import flight, inject_missing, retailer
from repro.datasets.plans import flight_plan, retailer_plan
from repro.mice import mice_low
from repro.ring import cofactor_ring


@pytest.fixture(scope="module")
def fl(spark):
    ds = flight.generate(sf=0.0004, seed=21)
    return dict(ds=ds, plan=flight_plan(spark, ds),
                fact=spark.createDataFrame(ds.tables["flights"]))


@pytest.fixture(scope="module")
def rt(spark):
    ds = retailer.generate(sf=0.005, seed=22)
    return dict(ds=ds, plan=retailer_plan(spark, ds),
                fact=spark.createDataFrame(ds.tables["inventory"]))


class TestPlansCofactor:
    def test_flight_plan_matches_materialized(self, spark, fl):
        ds = fl["ds"]
        fac = fl["plan"].cofactor(fl["fact"])
        mat = cofactor_ring(spark.createDataFrame(ds.joined()), ds.schema)
        assert fac.allclose(mat, rtol=1e-6, atol=1e-2)

    def test_retailer_plan_matches_materialized(self, spark, rt):
        ds = rt["ds"]
        fac = rt["plan"].cofactor(rt["fact"])
        mat = cofactor_ring(spark.createDataFrame(ds.joined()), ds.schema)
        assert fac.allclose(mat, rtol=1e-6, atol=1e-2)

    def test_flight_plan_attr_subset(self, spark, fl):
        ds = fl["ds"]
        attrs = ["distance", "airtime", "base_dist", "fleet_age"]
        plan = flight_plan(spark, ds, attrs=attrs)
        fac = plan.cofactor(fl["fact"])
        mat = cofactor_ring(spark.createDataFrame(ds.joined()), ds.schema,
                            attrs=attrs)
        assert fac.allclose(mat, rtol=1e-6, atol=1e-2)

    def test_enrich_adds_dim_attributes(self, fl):
        enriched = fl["plan"].enrich(fl["fact"])
        assert "base_dist" in enriched.columns
        assert "otp_score" in enriched.columns
        assert enriched.count() == fl["fact"].count()

    def test_retailer_enrich_no_fanout(self, rt):
        enriched = rt["plan"].enrich(rt["fact"])
        assert enriched.count() == rt["fact"].count()
        assert "population" in enriched.columns


class TestFactorizedMice:
    def test_matches_materialized_mice(self, spark, rt):
        """Same imputations from normalized and pre-joined execution."""
        ds = rt["ds"]
        fact_pdf = ds.tables["inventory"]
        masked, mask = inject_missing(fact_pdf, ["inventoryunits"], 0.2,
                                      "MCAR", seed=3)
        fact_sdf = spark.createDataFrame(masked)
        res_f = mice_low(fact_sdf, ds.schema, ["inventoryunits"],
                         plan=rt["plan"], iters=1, noise=False)
        out_f = res_f.df.orderBy("locn", "dateid", "ksn", "__rid").toPandas()

        tables = dict(ds.tables)
        tables["inventory"] = masked
        joined = ds.join(tables)
        res_m = mice_low(spark.createDataFrame(joined), ds.schema,
                         ["inventoryunits"], iters=1, noise=False)
        out_m = (
            res_m.df.orderBy("locn", "dateid", "ksn", "__rid").toPandas()
        )
        np.testing.assert_allclose(
            out_f["inventoryunits"].to_numpy(),
            out_m["inventoryunits"].to_numpy(),
            rtol=1e-5, atol=1e-3,
        )

    def test_imputation_beats_mean(self, spark, rt):
        ds = rt["ds"]
        fact_pdf = ds.tables["inventory"]
        masked, mask = inject_missing(fact_pdf, ["inventoryunits"], 0.3,
                                      "MCAR", seed=4)
        res = mice_low(spark.createDataFrame(masked), ds.schema,
                       ["inventoryunits"], plan=rt["plan"], iters=1, noise=False)
        out = res.df.orderBy("__rid").toPandas().reset_index(drop=True)
        src = masked.reset_index(drop=True)
        miss = mask["inventoryunits"].to_numpy()
        truth = fact_pdf["inventoryunits"].to_numpy()[miss]
        # __rid order == original row order for a driver-created DataFrame
        got = out["inventoryunits"].to_numpy()[miss]
        rmse = np.sqrt(((got - truth) ** 2).mean())
        mean_rmse = np.sqrt(((src["inventoryunits"].mean() - truth) ** 2).mean())
        assert rmse < 0.9 * mean_rmse

    def test_lazy_updates_match_checkpointed_updates(self, spark, rt,
                                                     monkeypatch):
        """With noise on and two iterations, the lazy enriched updates give
        the output that checkpointing each update as it is made gives: the
        broadcast joins keep the fact's partitions and row order, so every
        recomputation draws the same noise."""
        import repro.mice.low as low_mod

        ds = rt["ds"]
        masked, _ = inject_missing(ds.tables["inventory"], ["inventoryunits"],
                                   0.2, "MCAR", seed=6)
        fact = spark.createDataFrame(masked).localCheckpoint(eager=True)

        def run():
            res = mice_low(fact, ds.schema, ["inventoryunits"], plan=rt["plan"],
                           iters=2, noise=True, seed=4)
            return res.df.orderBy("__rid").toPandas()

        lazy = run()
        update = low_mod.apply_imputation
        monkeypatch.setattr(low_mod, "apply_imputation", lambda *a, **k: update(
            *a, **k).localCheckpoint(eager=True))
        assert lazy.equals(run())

    def test_non_fact_attribute_rejected(self, spark, rt):
        with pytest.raises(ValueError, match="fact attribute"):
            mice_low(rt["fact"], rt["ds"].schema, ["population"], plan=rt["plan"])

    def test_undeclared_fact_nulls_rejected(self, spark, fl):
        """prepare's loud guard also covers the factorized path."""
        pdf = fl["ds"].tables["flights"].copy()
        pdf.loc[::5, "taxi_in"] = np.nan
        with pytest.raises(ValueError, match="not declared"):
            mice_low(spark.createDataFrame(pdf), fl["ds"].schema, ["distance"],
                     plan=fl["plan"])


class TestFusedScans:
    def test_where_matches_filtered_folds(self, spark, rt):
        ds = rt["ds"]
        preds = [F.col("locn") < 3, F.col("inventoryunits") > 60]
        got = rt["plan"].cofactor(rt["fact"], where=preds)
        joined = spark.createDataFrame(ds.joined())
        for p, t in zip(preds, got):
            mat = cofactor_ring(joined.filter(p), ds.schema)
            assert t.allclose(mat, rtol=1e-6, atol=1e-2)

    def test_one_job_per_scan(self, spark, rt):
        """A factorized Low round (one attribute, two iterations) runs two
        scans, each one Spark job."""
        import dataclasses

        sc = spark.sparkContext
        groups = []

        def traced(fact, **kwargs):
            groups.append(f"test-fact-scan-{len(groups)}")
            sc.setJobGroup(groups[-1], "scan")
            try:
                return rt["plan"].cofactor(fact, **kwargs)
            finally:
                sc.setLocalProperty("spark.jobGroup.id", None)

        plan = dataclasses.replace(rt["plan"], cofactor=traced)
        masked, _ = inject_missing(rt["ds"].tables["inventory"], ["inventoryunits"],
                                   0.2, "MCAR", seed=5)
        mice_low(spark.createDataFrame(masked), rt["ds"].schema, ["inventoryunits"],
                 plan=plan, iters=2, noise=False)
        sc._jsc.sc().listenerBus().waitUntilEmpty()
        assert len(groups) == 2
        for g in groups:
            assert len(sc.statusTracker().getJobIdsForGroup(g)) == 1, g
