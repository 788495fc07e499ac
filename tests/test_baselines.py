"""Competitor imputers: correctness + relative quality sanity checks."""
import numpy as np
import pandas as pd
import pytest

from repro.baselines import (
    forest,
    gain,
    impute_mean_mode,
    mice_competitor,
    mice_python,
    midas,
    miracle,
)
from repro.datasets import airquality, flight, inject_missing
from repro.eval.quality import downstream_quality, split_train_test


@pytest.fixture(scope="module")
def aq_case():
    ds = airquality.generate(sf=0.012, seed=7)  # ~4.2k rows
    train, test = split_train_test(ds.joined(), seed=1)
    masked, mask = inject_missing(train, ds.incomplete, 0.2, "MCAR", seed=2)
    return dict(ds=ds, train=train, test=test, masked=masked, mask=mask)


def imputed_rmse(case, imputed):
    ds = case["ds"]
    return downstream_quality(imputed, case["test"], ds.schema, ds.target)["rmse"]


def truth_rmse_of(case, col, imputed):
    miss = case["mask"][col].to_numpy()
    t = case["train"][col].to_numpy()[miss]
    return float(np.sqrt(((imputed[col].to_numpy()[miss] - t) ** 2).mean()))


@pytest.fixture(scope="module")
def mean_imputed(aq_case):
    out = aq_case["masked"].copy()
    for c in aq_case["ds"].incomplete:
        out[c] = out[c].fillna(out[c].mean())
    return out


class TestMicePython:
    @pytest.fixture(scope="class")
    def imputed(self, aq_case):
        return mice_python.impute(
            aq_case["masked"], aq_case["ds"].incomplete, set(), iters=3,
            noise=False, seed=0,
        )

    def test_no_missing_left(self, imputed, aq_case):
        assert not imputed[aq_case["ds"].incomplete].isna().any().any()

    def test_observed_untouched(self, imputed, aq_case):
        c = "pm25"
        obs = ~aq_case["mask"][c].to_numpy()
        np.testing.assert_allclose(
            imputed[c].to_numpy()[obs], aq_case["train"][c].to_numpy()[obs]
        )

    def test_beats_mean_on_truth(self, imputed, aq_case, mean_imputed):
        assert truth_rmse_of(aq_case, "pm25", imputed) < 0.6 * truth_rmse_of(
            aq_case, "pm25", mean_imputed
        )

    def test_downstream_beats_mean(self, imputed, aq_case, mean_imputed):
        assert imputed_rmse(aq_case, imputed) < imputed_rmse(aq_case, mean_imputed)

    def test_categorical_target(self):
        g = np.random.default_rng(0)
        n = 800
        x = g.normal(size=n)
        lbl = (x + 0.3 * g.normal(size=n) > 0).astype(int)
        pdf = pd.DataFrame({"x": x, "y": x * 2 + g.normal(size=n), "lbl": lbl})
        masked, mask = inject_missing(pdf, ["lbl"], 0.3, "MCAR", seed=1)
        out = mice_python.impute(masked, ["lbl"], {"lbl"}, iters=2, seed=0)
        miss = mask["lbl"].to_numpy()
        acc = (out["lbl"].to_numpy()[miss] == lbl[miss]).mean()
        assert acc > 0.8


class TestForest:
    @pytest.fixture(scope="class")
    def imputed(self, aq_case):
        return forest.impute(
            aq_case["masked"], aq_case["ds"].incomplete, set(), iters=2,
            n_trees=5, max_depth=6, seed=0,
        )

    def test_no_missing_left(self, imputed, aq_case):
        assert not imputed[aq_case["ds"].incomplete].isna().any().any()

    def test_beats_mean_on_truth(self, imputed, aq_case, mean_imputed):
        assert truth_rmse_of(aq_case, "pm25", imputed) < truth_rmse_of(
            aq_case, "pm25", mean_imputed
        )

    def test_forest_learns_step_function(self):
        g = np.random.default_rng(3)
        x = g.uniform(-1, 1, (2000, 2))
        y = np.where(x[:, 0] > 0, 5.0, -5.0) + 0.1 * g.normal(size=2000)
        from repro.baselines.forest import RandomForest

        rf = RandomForest(n_trees=5, max_depth=4, seed=0).fit(x, y)
        pred = rf.predict(x)
        assert np.corrcoef(pred, y)[0, 1] > 0.95


class TestGain:
    @pytest.fixture(scope="class")
    def imputed(self, aq_case):
        return gain.impute(
            aq_case["masked"], aq_case["ds"].incomplete, set(),
            iterations=600, seed=0,
        )

    def test_no_missing_left(self, imputed, aq_case):
        assert not imputed[aq_case["ds"].incomplete].isna().any().any()

    def test_values_in_plausible_range(self, imputed, aq_case):
        for c in ("pm25", "o3"):
            lo, hi = aq_case["train"][c].min(), aq_case["train"][c].max()
            got = imputed[c]
            assert got.min() >= lo - 1e-6 and got.max() <= hi + 1e-6

    def test_deterministic(self, aq_case):
        a = gain.impute(aq_case["masked"].head(500), ["pm25"], set(),
                        iterations=50, seed=4)
        b = gain.impute(aq_case["masked"].head(500), ["pm25"], set(),
                        iterations=50, seed=4)
        pd.testing.assert_frame_equal(a, b)


class TestMiracle:
    @pytest.fixture(scope="class")
    def imputed(self, aq_case):
        return miracle.impute(
            aq_case["masked"], aq_case["ds"].incomplete, set(), epochs=8,
            ista_iters=80, seed=0,
        )

    def test_no_missing_left(self, imputed, aq_case):
        assert not imputed[aq_case["ds"].incomplete].isna().any().any()

    def test_beats_mean_on_truth(self, imputed, aq_case, mean_imputed):
        assert truth_rmse_of(aq_case, "pm25", imputed) < 0.7 * truth_rmse_of(
            aq_case, "pm25", mean_imputed
        )


class TestMidas:
    @pytest.fixture(scope="class")
    def imputed(self, aq_case):
        return midas.impute(
            aq_case["masked"], aq_case["ds"].incomplete, set(), epochs=15, seed=0,
        )

    def test_no_missing_left(self, imputed, aq_case):
        assert not imputed[aq_case["ds"].incomplete].isna().any().any()

    def test_beats_mean_on_truth(self, imputed, aq_case, mean_imputed):
        assert truth_rmse_of(aq_case, "pm25", imputed) < truth_rmse_of(
            aq_case, "pm25", mean_imputed
        )


class TestSparkCompetitors:
    @pytest.fixture(scope="class")
    def fl_case(self, spark):
        ds = flight.generate(sf=0.0004, seed=13)
        truth = ds.joined().reset_index(drop=True)
        masked, mask = inject_missing(truth, ds.incomplete, 0.2, "MCAR", seed=3)
        sdf = spark.createDataFrame(masked).cache()
        sdf.count()
        yield dict(ds=ds, truth=truth, masked=masked, mask=mask, sdf=sdf)
        sdf.unpersist()

    def test_mean_mode_spark(self, fl_case, spark):
        ds = fl_case["ds"]
        out = impute_mean_mode(fl_case["sdf"], ds.schema, ds.incomplete).toPandas()
        assert not out[ds.incomplete].isna().any().any()
        assert np.isclose(
            out.loc[fl_case["mask"]["distance"], "distance"].iloc[0],
            fl_case["masked"]["distance"].mean(),
        )

    @pytest.mark.parametrize("noise", [False, True])
    def test_systemds_like_matches_our_mice_quality(self, fl_case, noise):
        """Competitor MICE reaches the same solution (different cost path)."""
        from repro.mice import mice_baseline

        ds = fl_case["ds"]
        ours = (
            mice_baseline(fl_case["sdf"], ds.schema, ds.incomplete, iters=1,
                          noise=noise, seed=0)
            .df.orderBy("__rid").toPandas()
        )
        theirs = (
            mice_competitor(fl_case["sdf"], ds.schema, ds.incomplete, iters=1,
                            noise=noise, seed=0)
            .df.orderBy("__rid").toPandas()
        )
        for a in ds.incomplete:
            if a == "diverted":
                assert (ours[a] == theirs[a]).mean() > 0.99
            else:
                np.testing.assert_allclose(
                    theirs[a].to_numpy(), ours[a].to_numpy(), rtol=1e-4, atol=1e-3
                )

    def test_madlib_variant_runs(self, fl_case, spark):
        ds = fl_case["ds"]
        cols = ds.incomplete[:2]
        masked, _ = inject_missing(fl_case["truth"], cols, 0.2, "MCAR", seed=5)
        res = mice_competitor(spark.createDataFrame(masked), ds.schema, cols,
                              iters=1, madlib=True)
        out = res.df.toPandas()
        assert not out[cols].isna().any().any()
        assert res.timing.phases["iter.materialize"] > 0
