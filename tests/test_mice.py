"""End-to-end MICE: Algorithm 1 vs Algorithm 2 (Low) vs High.

The central correctness claims:
* all three variants are functionally equivalent (identical imputations with
  noise disabled — C − ΔC is exact ring arithmetic — and, with noise on,
  the same noise drawn for each cell);
* MICE imputations beat initial mean/mode imputation against ground truth;
* the shared-computation invariant C − ΔC == cofactor(observed) holds on the
  partitioned data mid-run.
"""
import itertools
import threading

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
    partition,
    prepare,
    run_mice,
)
from repro.mice.low import step_rows
from repro.mice.partition import n_missing
from repro.mice.step import apply_imputation, fit, impute_column
from repro.ring import AttrSchema, cofactor_ring

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
    """The training cofactor each step derives from the loop's own
    predicates (``step_rows``) equals Algorithm 1's cofactor of the rows
    with the attribute observed, for every attribute."""

    @pytest.fixture(scope="class")
    def split(self, data):
        ds = data["ds"]
        prep = prepare(data["sdf"], ds.schema, ds.incomplete)
        return prep, *partition(prep)

    def observed(self, prep):
        return [cofactor_ring(prep.df.filter(~F.col(mask_col(a))), prep.schema)
                for a in prep.incomplete]

    def test_c_minus_delta_equals_observed_cofactor(self, split):
        """Low: ``C − ΔC`` (Alg. 2 lines 5-6) == Alg. 1 line 4."""
        prep, complete, missing = split
        inc, schema = prep.incomplete, prep.schema
        (c,) = cofactor_ring(complete.unionByName(missing), schema,
                             where=[n_missing(inc) < len(inc)])
        deltas = cofactor_ring(missing, schema,
                               where=[step_rows("low", inc, a) for a in inc])
        for a, delta, direct in zip(inc, deltas, self.observed(prep)):
            assert (c - delta).allclose(direct, rtol=1e-7, atol=1e-3), a

    def test_c_complete_plus_observed_rows_equals_observed_cofactor(self, split):
        """High: ``C_complete`` plus the step's rows of ``missing`` ==
        Alg. 1 line 4."""
        prep, complete, missing = split
        inc, schema = prep.incomplete, prep.schema
        c_complete = cofactor_ring(complete, schema)
        adds = cofactor_ring(missing, schema,
                             where=[step_rows("high", inc, a) for a in inc])
        for a, add, direct in zip(inc, adds, self.observed(prep)):
            assert (c_complete + add).allclose(direct, rtol=1e-7, atol=1e-3), a


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

    @pytest.mark.parametrize("variant", ["baseline", "low", "high"])
    def test_no_incomplete_attribute_rejected(self, data, variant):
        with pytest.raises(ValueError, match="no incomplete attribute"):
            run_mice(data["sdf"], data["ds"].schema, [], variant=variant)

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


THREE = ["airtime", "arr_delay", "diverted"]


@pytest.fixture(scope="module")
def three(spark, data):
    """20 % MCAR on two continuous columns and ``diverted``, in 3 partitions."""
    pdf, _ = inject_missing(data["truth"], THREE, 0.2, "MCAR", seed=2)
    return spark.createDataFrame(pdf).repartition(3).localCheckpoint(eager=True)


class TestNoiseEquivalence:
    def test_variants_match_baseline_with_noise(self, three, data):
        """Every variant updates each masked cell with the same seed and the
        same per-partition ``rand`` stream, so noise is identical too."""
        ds = data["ds"]
        out = {
            v: collect_sorted(run_mice(three, ds.schema, THREE, variant=v,
                                       iters=2, noise=True, seed=7))
            for v in ("baseline", "low", "high")
        }
        base = out["baseline"]
        for v in ("low", "high"):
            assert out[v]["__rid"].equals(base["__rid"])
            for a in ("airtime", "arr_delay"):
                np.testing.assert_allclose(
                    out[v][a].to_numpy(), base[a].to_numpy(), rtol=1e-6,
                    err_msg=f"{v} diverges from baseline on {a}",
                )
            assert (out[v]["diverted"] == base["diverted"]).all(), v


class TestNoiseKeyedByRowId:
    def test_imputation_ignores_the_partition_layout(self, three, data):
        """A cell's noise is a function of its ``__rid`` and the seed only:
        the same imputations over a repartitioned or coalesced frame."""
        schema = data["ds"].schema
        prep = prepare(three, schema, THREE)
        model = fit(cofactor_ring(prep.df, schema), "airtime", prep)
        assert model.sigma2 > 0
        new = impute_column(model, "airtime", prep, seed=5, noise=True)

        def imputed(df):
            return (df.select("__rid", new.alias("v")).toPandas()
                    .sort_values("__rid").reset_index(drop=True))

        base = imputed(prep.df)
        for df in (prep.df.repartition(7), prep.df.coalesce(1)):
            pd.testing.assert_frame_equal(imputed(df), base)


@pytest.fixture(scope="module")
def wide(spark, data):
    """The ``three`` data as checkpointed by the table jobs, with twice as
    many partitions as cores (as a large Arrow input has, one per batch)."""
    pdf, _ = inject_missing(data["truth"], THREE, 0.2, "MCAR", seed=2)
    half = len(pdf) // 2
    sdf = (spark.createDataFrame(pdf.iloc[:half])
           .union(spark.createDataFrame(pdf.iloc[half:]))
           .localCheckpoint(eager=True))
    assert sdf.rdd.getNumPartitions() == 2 * spark.sparkContext.defaultParallelism
    return sdf


class TestWideInput:
    def test_variants_match_baseline_with_noise(self, wide, data):
        """A checkpointed input of more partitions than cores: each variant
        keeps its partitions in order, so noise is identical too."""
        out = {
            v: collect_sorted(run_mice(wide, data["ds"].schema, THREE, variant=v,
                                       iters=2, noise=True, seed=7))
            for v in ("baseline", "low", "high")
        }
        base = out["baseline"]
        assert len(base) == data["truth"].shape[0]
        for v in ("low", "high"):
            assert out[v]["__rid"].equals(base["__rid"])
            for a in ("airtime", "arr_delay"):
                np.testing.assert_allclose(
                    out[v][a].to_numpy(), base[a].to_numpy(), rtol=1e-6,
                    err_msg=f"{v} diverges from baseline on {a}",
                )
            assert (out[v]["diverted"] == base["diverted"]).all(), v

    def test_prepare_keeps_partitions_in_two_jobs(self, spark, wide, data):
        box = {}
        jobs = spark_jobs(spark, lambda: box.setdefault(
            "prep", prepare(wide, data["ds"].schema, THREE)))
        assert jobs == 2
        assert box["prep"].df.rdd.getNumPartitions() == wide.rdd.getNumPartitions()


class TestEmptyTrainingSet:
    @pytest.mark.parametrize("variant", ["low", "high"])
    def test_no_model_leaves_cofactor_unchanged(self, monkeypatch, three, data,
                                                variant):
        """A step without a model (``fit`` returns None on an empty training
        set) imputes nothing, so the running cofactor must stay exactly as it
        was: each later attribute's training triple in iteration 2 is
        bit-identical to its iteration-1 triple (the first attribute's
        iteration-1 rows come from the first, wider scan, so their sum order
        differs), and the output is the initial imputation."""
        import repro.mice.baseline as base_mod
        import repro.mice.low as low_mod

        seen = []

        def no_model(triple, attr, prep, **kwargs):
            seen.append((attr, triple))
            return None

        monkeypatch.setattr(low_mod, "fit", no_model)
        monkeypatch.setattr(base_mod, "fit", lambda *a, **k: None)
        ds = data["ds"]
        out = collect_sorted(run_mice(three, ds.schema, THREE, variant=variant,
                                      iters=2, noise=True, seed=7))
        assert [a for a, _ in seen] == THREE * 2
        for (a, t0), (_, t1) in zip(seen[1:len(THREE)], seen[len(THREE) + 1:]):
            assert t1 == t0, a
        base = collect_sorted(run_mice(three, ds.schema, THREE,
                                       variant="baseline", iters=2, seed=7))
        assert out.equals(base)


class TestEdgeCases:
    def test_high_with_empty_complete_partition(self, spark, data):
        """Every row misses one attribute, so High's complete partition is
        empty and every training triple starts from a zero ``C_complete``;
        High still matches Baseline with noise off."""
        ds = data["ds"]
        pdf = data["truth"].copy()
        for k, a in enumerate(THREE):
            col = pdf[a].astype("Int64") if ds.schema.is_cat(a) else pdf[a]
            pdf[a] = col.mask(pdf.index % len(THREE) == k)
        assert pdf[THREE].isna().any(axis=1).all()
        sdf = spark.createDataFrame(pdf).localCheckpoint(eager=True)
        out = {v: collect_sorted(run_mice(sdf, ds.schema, THREE, variant=v,
                                          iters=2, noise=False, seed=5))
               for v in ("baseline", "high")}
        for a in ("airtime", "arr_delay"):
            np.testing.assert_allclose(out["high"][a].to_numpy(),
                                       out["baseline"][a].to_numpy(), rtol=1e-6)
        assert (out["high"]["diverted"] == out["baseline"]["diverted"]).all()

    @pytest.mark.parametrize("variant", ["low", "baseline"])
    def test_single_observed_class(self, spark, data, variant):
        """When every observed ``diverted`` is 0, LDA has one class, and the
        masked cells are imputed with it."""
        pdf, mask = inject_missing(data["truth"], THREE, 0.2, "MCAR", seed=2)
        pdf.loc[data["truth"]["diverted"].to_numpy() == 1, "diverted"] = pd.NA
        miss = pdf["diverted"].isna().to_numpy()
        assert miss.any() and set(pdf["diverted"].dropna()) == {0}
        res = run_mice(spark.createDataFrame(pdf), data["ds"].schema, THREE,
                       variant=variant, iters=1, seed=3)
        out = collect_sorted(res)
        assert (out["diverted"].to_numpy()[miss] == 0).all()


class TestActionsPerRound:
    @pytest.mark.parametrize("variant", ["low", "high"])
    def test_one_scan_and_at_most_one_update_per_step(self, monkeypatch, three,
                                                      data, variant):
        import repro.mice.low as low_mod

        calls = {"scan": 0, "update": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(low_mod, "cofactor_ring",
                            counted("scan", low_mod.cofactor_ring))
        monkeypatch.setattr(low_mod, "apply_imputation",
                            counted("update", low_mod.apply_imputation))
        run_mice(three, data["ds"].schema, THREE, variant=variant, iters=2,
                 noise=True, seed=3)
        steps = 2 * len(THREE)
        assert calls["scan"] == steps
        assert 0 < calls["update"] <= steps

    @pytest.mark.parametrize("mode", ["low", "high"])
    def test_partition_jobs(self, spark, three, data, mode):
        """Two checkpoints, at Low's (20 %) and High's (60 %) missing rate."""
        frame = three
        if mode == "high":
            pdf, _ = inject_missing(data["truth"], THREE, 0.6, "MCAR", seed=2)
            frame = spark.createDataFrame(pdf)
        prep = prepare(frame, data["ds"].schema, THREE)
        box = {}
        jobs = spark_jobs(spark, lambda: box.setdefault("parts", partition(prep)))
        assert 0 < jobs <= 3
        complete, missing = box["parts"]
        assert complete.count() + missing.count() == frame.count()


_GROUPS = itertools.count()


def spark_jobs(spark, fn) -> int:
    """Spark jobs that ``fn()`` runs, counted under a job group of its own."""
    sc = spark.sparkContext
    group = f"test-jobs-{next(_GROUPS)}"
    sc.setJobGroup(group, "counted")
    try:
        fn()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    return len(sc.statusTracker().getJobIdsForGroup(group))


class TestLazyUpdates:
    def test_scans_of_a_lazy_frame_are_identical(self, three, data):
        """Stacked noise-on updates stay a lazy projection of ``missing``;
        each scan recomputes it, and two scans give bit-identical triples."""
        schema = data["ds"].schema
        prep = prepare(three, schema, THREE)
        complete, missing = partition(prep)
        c = cofactor_ring(complete.unionByName(missing), schema)
        lazy = missing
        for seed, attr in enumerate(THREE):
            lazy = apply_imputation(lazy, fit(c, attr, prep), attr, prep,
                                    seed=seed, noise=True)
        where = [F.col(mask_col(a)) for a in THREE]
        first, second = (cofactor_ring(lazy, schema, where=where) for _ in range(2))
        before = cofactor_ring(missing, schema, where=where)
        for a, t1, t2, t0 in zip(THREE, first, second, before):
            assert t1 == t2, a
            if not schema.is_cat(a):  # the noisy imputations did land
                assert t1.sum_of(a) != t0.sum_of(a), a


class TestJobsPerRound:
    #: prepare (aggregate, checkpoint) + partition (two checkpoints) + one
    #: scan per step; Baseline has no partition
    BOUND = {"low": 7, "high": 7, "baseline": 5}

    @pytest.mark.parametrize("variant", ["low", "high", "baseline"])
    def test_one_job_per_step(self, spark, three, data, variant):
        """An attribute step costs its scan and nothing else: the update is
        lazy, and the checkpoint between iterations is materialized by the
        next scan, so each iteration adds the same ``m`` jobs."""
        jobs = [spark_jobs(spark, lambda: run_mice(
                    three, data["ds"].schema, THREE, variant=variant,
                    iters=iters, noise=True, seed=3))
                for iters in (1, 2, 3)]
        assert jobs[0] <= self.BOUND[variant], jobs
        assert jobs[1] - jobs[0] == jobs[2] - jobs[1] == len(THREE), jobs


def py4j_commands(spark, fn) -> int:
    """Py4J commands this thread sends while ``fn()`` runs. Releases of JVM
    references (``m`` commands, sent whenever Python frees a JavaObject,
    also from Py4J's finalizer thread) are not counted."""
    client = spark.sparkContext._gateway._gateway_client
    me = threading.get_ident()
    sent = []
    real = client.send_command

    def spy(command, *args, **kwargs):
        if threading.get_ident() == me and not command.startswith("m\n"):
            sent.append(command)
        return real(command, *args, **kwargs)

    client.send_command = spy
    try:
        fn()
    finally:
        del client.send_command  # back to the class's method
    return len(sent)


class TestPy4JCommandsPerPlan:
    """Building a step's plan costs the same Py4J commands at any frame
    width: the per-column ``select``/``withColumn`` idiom sends one or more
    per column."""

    INC = ["x0", "x1"]

    @pytest.fixture(scope="class")
    def frames(self, spark):
        g = np.random.default_rng(4)
        out = {}
        for width in (10, 40):
            cols = [f"x{i}" for i in range(width)]
            pdf = pd.DataFrame(g.normal(size=(200, width)), columns=cols)
            pdf.loc[::5, "x0"] = np.nan
            pdf.loc[1::7, "x1"] = np.nan
            df = spark.createDataFrame(pdf).localCheckpoint(eager=True)
            out[width] = (df, AttrSchema.of(continuous=cols))
        return out

    @staticmethod
    def per_width(spark, frames, plan) -> dict[int, int]:
        """Commands of ``plan(df, schema)()`` per frame width, each counted
        after a warm-up call (first calls look up JVM classes and methods)."""
        counts = {}
        for width, frame in frames.items():
            build = plan(*frame)
            build()
            counts[width] = py4j_commands(spark, build)
        return counts

    def test_prepare(self, spark, frames):
        counts = self.per_width(
            spark, frames, lambda df, schema: lambda: prepare(df, schema, self.INC))
        assert counts[10] == counts[40], counts

    def test_apply_imputation(self, spark, frames):
        def update(df, schema):
            prep = prepare(df, schema, self.INC)
            model = fit(cofactor_ring(prep.df, schema), "x0", prep)
            return lambda: apply_imputation(prep.df, model, "x0", prep,
                                            seed=1, noise=True)

        counts = self.per_width(spark, frames, update)
        assert counts[10] == counts[40], counts
