"""End-to-end MICE: Algorithm 1 vs Algorithm 2 (Low) vs High.

The central correctness claims:
* all three variants are functionally equivalent (identical imputations with
  noise disabled — C − ΔC is exact ring arithmetic);
* MICE imputations beat initial mean/mode imputation against ground truth;
* the shared-computation invariant C − ΔC == cofactor(observed) holds on the
  partitioned data mid-run.
"""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.datasets import flight, inject_missing
from repro.mice import (
    TimingLog,
    mask_col,
    mice_baseline,
    mice_high,
    mice_low,
    run_mice,
)
from repro.ring import cofactor_ring

SF = 0.0004  # ~2k rows — enough signal, fast iterations


@pytest.fixture(scope="module")
def data(spark):
    ds = flight.generate(sf=SF, seed=11)
    truth = ds.joined().reset_index(drop=True)
    pdf, mask = inject_missing(truth, ds.incomplete, 0.2, "MCAR", seed=1)
    pdf = pdf.reset_index(drop=True)
    sdf = spark.createDataFrame(pdf).cache()
    sdf.count()
    yield dict(ds=ds, truth=truth, pdf=pdf, mask=mask, sdf=sdf)
    sdf.unpersist()


def collect_sorted(result):
    return result.df.orderBy("__rid").toPandas().reset_index(drop=True)


@pytest.fixture(scope="module")
def runs(data):
    """One noise-free run of each variant over the same input."""
    ds = data["ds"]
    out = {}
    for variant in ("baseline", "low", "high"):
        res = run_mice(
            data["sdf"], ds.schema, ds.incomplete, variant=variant,
            iters=2, noise=False, seed=5,
        )
        out[variant] = dict(res=res, pdf=collect_sorted(res))
    return out


class TestEquivalence:
    @pytest.mark.parametrize("variant", ["low", "high"])
    def test_variant_matches_baseline_continuous(self, runs, data, variant):
        base = runs["baseline"]["pdf"]
        other = runs[variant]["pdf"]
        for a in data["ds"].incomplete:
            if a == "diverted":
                continue
            np.testing.assert_allclose(
                other[a].to_numpy(), base[a].to_numpy(), rtol=1e-5, atol=1e-4,
                err_msg=f"{variant} diverges from baseline on {a}",
            )

    @pytest.mark.parametrize("variant", ["low", "high"])
    def test_variant_matches_baseline_categorical(self, runs, variant):
        base = runs["baseline"]["pdf"]["diverted"].to_numpy()
        other = runs[variant]["pdf"]["diverted"].to_numpy()
        # LDA argmax can flip on near-ties under float reordering; require
        # near-perfect agreement rather than bitwise equality.
        assert (base == other).mean() > 0.99

    def test_row_count_preserved(self, runs, data):
        for v, r in runs.items():
            assert len(r["pdf"]) == len(data["pdf"]), v

    def test_observed_values_never_changed(self, runs, data):
        truth, mask = data["truth"], data["mask"]
        for v, r in runs.items():
            for a in data["ds"].incomplete:
                obs = ~mask[a].to_numpy()
                got = r["pdf"][a].to_numpy()[obs]
                want = truth[a].to_numpy()[obs]
                np.testing.assert_allclose(
                    got.astype(float), want.astype(float), rtol=1e-9,
                    err_msg=f"{v} modified observed {a}",
                )


class TestQuality:
    def test_beats_mean_imputation(self, runs, data):
        """Imputed values are closer to ground truth than the column mean."""
        truth, mask, pdf = data["truth"], data["mask"], data["pdf"]
        for a in ("airtime", "distance", "arr_delay"):
            miss = mask[a].to_numpy()
            true_vals = truth[a].to_numpy()[miss]
            mean_rmse = np.sqrt(((pdf[a].mean() - true_vals) ** 2).mean())
            mice_vals = runs["low"]["pdf"][a].to_numpy()[miss]
            mice_rmse = np.sqrt(((mice_vals - true_vals) ** 2).mean())
            assert mice_rmse < 0.7 * mean_rmse, (a, mice_rmse, mean_rmse)

    def test_categorical_accuracy_beats_mode(self, runs, data):
        truth, mask = data["truth"], data["mask"]
        miss = mask["diverted"].to_numpy()
        true_vals = truth["diverted"].to_numpy()[miss]
        got = runs["low"]["pdf"]["diverted"].to_numpy()[miss]
        mode_acc = (true_vals == data["pdf"]["diverted"].mode()[0]).mean()
        acc = (got == true_vals).mean()
        assert acc >= mode_acc - 0.02

    def test_noise_preserves_variance(self, data):
        """Stochastic imputation keeps dispersion; pure regression shrinks it."""
        ds = data["ds"]
        res_noise = mice_low(
            data["sdf"], ds.schema, ds.incomplete, iters=1, noise=True, seed=3
        )
        out = collect_sorted(res_noise)
        miss = data["mask"]["dep_delay"].to_numpy()
        true_std = data["truth"]["dep_delay"].to_numpy()[miss].std()
        noisy_std = out["dep_delay"].to_numpy()[miss].std()
        clean_std = (
            collect_sorted(
                mice_low(data["sdf"], ds.schema, ds.incomplete, iters=1,
                         noise=False, seed=3)
            )["dep_delay"].to_numpy()[miss].std()
        )
        # noise widens the imputed distribution towards the true one
        assert noisy_std > clean_std
        assert abs(noisy_std - true_std) < abs(clean_std - true_std) + 1e-6


class TestSharingInvariant:
    def test_c_minus_delta_equals_observed_cofactor(self, spark, data):
        """Alg. 2 lines 5-6 == Alg. 1 line 4 on the actual prepared data."""
        from repro.mice import partition, prepare
        from repro.ring import triple_sum

        ds = data["ds"]
        prep = prepare(data["sdf"], ds.schema, ds.incomplete)
        parts = partition(prep, mode="low")
        schema = ds.schema
        c = triple_sum(
            [
                cofactor_ring(parts.complete, schema),
                cofactor_ring(parts.overflow, schema),
                *[cofactor_ring(parts.single[a], schema) for a in ds.incomplete],
            ],
            schema,
        )
        attr = "airtime"
        mask = F.col(mask_col(attr))
        delta = cofactor_ring(parts.single[attr], schema) + cofactor_ring(
            parts.overflow.filter(mask), schema
        )
        direct = cofactor_ring(prep.df.filter(~mask), schema)
        assert (c - delta).allclose(direct, rtol=1e-7, atol=1e-3)


class TestMisc:
    def test_timing_buckets_populated(self, data):
        ds = data["ds"]
        t = TimingLog()
        mice_low(data["sdf"], ds.schema, ds.incomplete, iters=1, timing=t)
        assert t.bucket("preprocess") > 0
        assert t.bucket("iter") > 0
        assert t.phases["preprocess.global_cofactor"] > 0

    def test_baseline_timing_buckets(self, data):
        ds = data["ds"]
        t = TimingLog()
        mice_baseline(data["sdf"], ds.schema, ds.incomplete, iters=1, timing=t)
        assert t.phases["iter.cofactor"] > 0 and t.phases["iter.update"] > 0

    def test_unknown_variant(self, data):
        with pytest.raises(ValueError, match="variant"):
            run_mice(data["sdf"], data["ds"].schema, data["ds"].incomplete,
                     variant="mid")

    def test_high_takes_no_plan(self, data):
        # factorized evaluation is LOW-only; HIGH must not accept a plan
        with pytest.raises(TypeError, match="plan"):
            mice_high(data["sdf"], data["ds"].schema, data["ds"].incomplete,
                      plan=object())

    def test_deterministic_given_seed(self, data):
        ds = data["ds"]
        a = collect_sorted(
            mice_low(data["sdf"], ds.schema, ds.incomplete, iters=1, seed=9)
        )
        b = collect_sorted(
            mice_low(data["sdf"], ds.schema, ds.incomplete, iters=1, seed=9)
        )
        for col in ds.incomplete:
            np.testing.assert_allclose(
                a[col].to_numpy().astype(float), b[col].to_numpy().astype(float)
            )

    def test_single_incomplete_attribute(self, spark, data):
        # every other column fully observed: only airtime is masked
        ds = data["ds"]
        pdf, mask = inject_missing(data["truth"], ["airtime"], 0.2, "MCAR", seed=4)
        sdf = spark.createDataFrame(pdf)
        res = mice_low(sdf, ds.schema, ["airtime"], iters=1, noise=False)
        out = collect_sorted(res)
        assert not out["airtime"].isna().any()
        miss = mask["airtime"].to_numpy()
        truth = data["truth"]["airtime"].to_numpy()[miss]
        rmse = np.sqrt(((out["airtime"].to_numpy()[miss] - truth) ** 2).mean())
        mean_rmse = np.sqrt(((pdf["airtime"].mean() - truth) ** 2).mean())
        assert rmse < mean_rmse
