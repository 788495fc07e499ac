"""Models trained from cofactor triples: ridge / stochastic LR and LDA."""
import math

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.ring import AttrSchema, lift_block
from repro.models.linreg import linear_sql, sql_ident, sql_literal
from repro.models import train_lda, train_ridge, train_stochastic
from repro.models.stochastic import predict_stochastic_sql

SCONT = AttrSchema.of(continuous=["x1", "x2", "x3", "y"])
SMIX = AttrSchema.of(continuous=["x1", "x2", "y"], categorical=["g", "lbl"])


def cont_block(n=500, seed=0, noise=0.1):
    g = np.random.default_rng(seed)
    x1, x2, x3 = g.normal(size=n), g.normal(size=n), g.normal(size=n)
    y = 2.0 + 1.5 * x1 - 0.7 * x2 + 0.2 * x3 + noise * g.normal(size=n)
    return pd.DataFrame({"x1": x1, "x2": x2, "x3": x3, "y": y})


def mixed_block(n=800, seed=1):
    g = np.random.default_rng(seed)
    x1, x2 = g.normal(size=n), g.normal(size=n)
    grp = g.choice([0, 1, 2], size=n)
    offs = np.array([0.0, 2.0, -1.0])[grp]
    y = 1.0 + 0.8 * x1 - 1.2 * x2 + offs + 0.1 * g.normal(size=n)
    # separable-ish label driven by x1
    lbl = np.where(x1 + 0.3 * g.normal(size=n) > 0, "pos", "neg")
    return pd.DataFrame({"x1": x1, "x2": x2, "y": y, "g": grp, "lbl": lbl})


class TestRidge:
    def test_solve_matches_numpy_lstsq(self):
        pdf = cont_block()
        t = lift_block(pdf, SCONT)
        m = train_ridge(t, "y", l2=0.0)
        xb = np.column_stack([np.ones(len(pdf)), pdf[["x1", "x2", "x3"]]])
        expected, *_ = np.linalg.lstsq(xb, pdf["y"], rcond=None)
        np.testing.assert_allclose(m.theta, expected, rtol=1e-6)

    def test_recovers_true_coefficients(self):
        m = train_ridge(lift_block(cont_block(n=5000, noise=0.01), SCONT), "y", l2=1e-8)
        np.testing.assert_allclose(m.theta, [2.0, 1.5, -0.7, 0.2], atol=0.01)

    def test_gd_matches_solve(self):
        t = lift_block(cont_block(), SCONT)
        ms = train_ridge(t, "y", l2=1e-4, method="solve")
        mg = train_ridge(t, "y", l2=1e-4, method="gd", max_iters=20000, tol=1e-12)
        np.testing.assert_allclose(mg.theta, ms.theta, atol=1e-5)
        assert mg.gd_iters > 0

    def test_gd_converges_poorly_scaled_features(self):
        pdf = cont_block()
        pdf["x1"] = pdf["x1"] * 10.0  # mildly ill-conditioned
        pdf["y"] = pdf["y"] + 0.1 * pdf["x1"]
        t = lift_block(pdf, SCONT)
        ms = train_ridge(t, "y", l2=1e-6, method="solve")
        mg = train_ridge(t, "y", l2=1e-6, method="gd", max_iters=50000, tol=1e-13)
        np.testing.assert_allclose(mg.theta, ms.theta, rtol=1e-3, atol=1e-6)

    def test_sigma2_matches_residual_variance(self):
        pdf = cont_block(noise=0.3)
        m = train_ridge(lift_block(pdf, SCONT), "y", l2=0.0)
        resid = pdf["y"] - m.predict_np(pdf)
        np.testing.assert_allclose(m.sigma2, (resid**2).mean(), rtol=1e-6)

    def test_ridge_shrinks_coefficients(self):
        t = lift_block(cont_block(), SCONT)
        m0 = train_ridge(t, "y", l2=0.0)
        m1 = train_ridge(t, "y", l2=10.0)
        assert np.linalg.norm(m1.theta[1:]) < np.linalg.norm(m0.theta[1:])

    def test_categorical_features_onehot(self):
        pdf = mixed_block()
        t = lift_block(pdf, SMIX)
        m = train_ridge(t, "y", l2=1e-8)
        pred = m.predict_np(pdf)
        rmse = np.sqrt(((pred - pdf["y"]) ** 2).mean())
        assert rmse < 0.2  # group offsets captured via indicators

    def test_l2_zero_with_categorical_feature_rejected(self):
        """The one-hot columns of ``g`` sum to the bias column, so the
        unregularized system is singular by construction."""
        t = lift_block(mixed_block(), SMIX)
        with pytest.raises(ValueError, match="'y' with l2=0 .* of 'g'"):
            train_ridge(t, "y", l2=0.0)

    def test_target_must_be_continuous(self):
        with pytest.raises(ValueError, match="categorical"):
            train_ridge(lift_block(mixed_block(), SMIX), "lbl")

    def test_pinned_categories_align_theta(self):
        pdf = mixed_block()
        cats = {"g": [0, 1, 2], "lbl": ["neg", "pos"]}
        sub = pdf[pdf["g"] != 2]
        m = train_ridge(lift_block(sub, SMIX), "y", categories=cats)
        assert (SMIX.index("g"), 2) in m.features  # absent category kept, θ≈0

    def test_predict_expr_matches_predict_np(self, spark):
        pdf = mixed_block(n=200)
        m = train_ridge(lift_block(pdf, SMIX), "y", l2=1e-6)
        sdf = spark.createDataFrame(pdf)
        got = sdf.select(F.expr(m.predict_sql()).alias("p")).toPandas()["p"].to_numpy()
        np.testing.assert_allclose(np.sort(got), np.sort(m.predict_np(pdf)), rtol=1e-8)


class TestStochastic:
    def test_noise_free_prediction_equals_ridge(self, spark):
        pdf = cont_block(n=100)
        m = train_stochastic(lift_block(pdf, SCONT), "y")
        sdf = spark.createDataFrame(pdf)
        got = sdf.select(
            F.expr(predict_stochastic_sql(m, seed=1, noise=False)).alias("p"))
        np.testing.assert_allclose(
            np.sort(got.toPandas()["p"]), np.sort(m.predict_np(pdf)), rtol=1e-8
        )

    def test_noise_statistics(self, spark):
        """Box–Muller noise has mean≈0 and std≈σ."""
        pdf = cont_block(n=4000, noise=0.5)
        m = train_stochastic(lift_block(pdf, SCONT), "y")
        sigma = math.sqrt(m.sigma2)
        sdf = spark.createDataFrame(pdf).withColumn(
            "__rid", F.monotonically_increasing_id())
        noisy = sdf.select(
            F.expr(predict_stochastic_sql(m, seed=7)).alias("p")).toPandas()["p"]
        clean = m.predict_np(pdf)
        # rows keep their order through a projection-only plan
        eps = noisy.to_numpy() - clean
        assert abs(eps.mean()) < 4 * sigma / math.sqrt(len(eps))
        assert abs(eps.std() - sigma) < 0.1 * sigma

    def test_noise_deterministic_given_seed(self, spark):
        pdf = cont_block(n=50)
        m = train_stochastic(lift_block(pdf, SCONT), "y")
        sdf = (spark.createDataFrame(pdf)
               .withColumn("__rid", F.monotonically_increasing_id())
               .repartition(4).cache())
        sdf.count()
        a, b = (sdf.select(F.expr(predict_stochastic_sql(m, seed=3)).alias("p"))
                .toPandas()["p"] for _ in range(2))
        np.testing.assert_allclose(np.sort(a), np.sort(b))
        sdf.unpersist()

    def test_sigma_zero_when_perfect_fit(self):
        pdf = cont_block(noise=0.0)
        m = train_stochastic(lift_block(pdf, SCONT), "y", l2=0.0)
        assert m.sigma2 < 1e-12


class TestLDA:
    def test_parameters_match_numpy_reference(self):
        pdf = mixed_block()
        t = lift_block(pdf, SMIX)
        reg = 1e-6
        m = train_lda(t, "lbl", reg=reg)
        # reference: classic LDA over the one-hot feature matrix
        feats = np.column_stack(
            [
                pdf["x1"],
                pdf["x2"],
                pdf["y"],
                (pdf["g"] == 0),
                (pdf["g"] == 1),
                (pdf["g"] == 2),
            ]
        ).astype(float)
        y = pdf["lbl"].to_numpy()
        classes = sorted(set(y))
        nc = np.array([(y == c).sum() for c in classes], dtype=float)
        mu = np.stack([feats[y == c].mean(axis=0) for c in classes])
        n = len(y)
        sigma = feats.T @ feats / n - (mu.T * (nc / n)) @ mu
        assert m.classes == classes
        # same ridge formula as train_lda so the comparison is exact
        ridge = reg * np.trace(sigma) / 6 * np.eye(6)
        a_ref = np.linalg.solve(sigma + ridge, mu.T).T
        b_ref = np.log(nc / n) - 0.5 * np.einsum("cp,cp->c", mu, a_ref)
        np.testing.assert_allclose(m.a, a_ref, rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(m.b, b_ref, rtol=1e-6, atol=1e-8)

    def test_high_accuracy_on_separable_data(self):
        pdf = mixed_block(n=2000)
        m = train_lda(lift_block(pdf, SMIX), "lbl")
        acc = (m.predict_np(pdf) == pdf["lbl"].to_numpy()).mean()
        assert acc > 0.9

    def test_predict_expr_matches_predict_np(self, spark):
        pdf = mixed_block(n=300)
        m = train_lda(lift_block(pdf, SMIX), "lbl")
        sdf = spark.createDataFrame(pdf)
        got = sdf.select(
            F.expr(m.predict_sql()).alias("p"), "x1"
        ).toPandas().sort_values("x1")["p"].to_numpy()
        exp_df = pdf.copy()
        exp_df["p"] = m.predict_np(pdf)
        exp = exp_df.sort_values("x1")["p"].to_numpy()
        assert (got == exp).all()

    def test_integer_classes(self, spark):
        pdf = mixed_block(n=300).copy()
        pdf["lbl"] = (pdf["lbl"] == "pos").astype(int)
        sch = AttrSchema.of(continuous=["x1", "x2", "y"], categorical=["g", "lbl"])
        m = train_lda(lift_block(pdf, sch), "lbl")
        assert set(m.classes) == {0, 1}
        sdf = spark.createDataFrame(pdf)
        preds = sdf.select(F.expr(m.predict_sql()).alias("p")).toPandas()["p"]
        assert set(preds.unique()) <= {0, 1}

    def test_priors_dominate_without_signal(self):
        g = np.random.default_rng(5)
        pdf = pd.DataFrame(
            {
                "x1": g.normal(size=1000),
                "x2": g.normal(size=1000),
                "y": g.normal(size=1000),
                "g": g.integers(0, 3, 1000),
                "lbl": np.where(g.random(1000) < 0.9, "a", "b"),
            }
        )
        m = train_lda(lift_block(pdf, SMIX), "lbl")
        preds = m.predict_np(pdf)
        assert (preds == "a").mean() > 0.8

    def test_empty_class_dropped(self):
        pdf = mixed_block()
        sub = pdf[pdf["lbl"] == "pos"]
        m = train_lda(lift_block(sub, SMIX), "lbl", categories={"lbl": ["neg", "pos"], "g": [0, 1, 2]})
        assert m.classes == ["pos"]

    def test_target_must_be_categorical(self):
        with pytest.raises(ValueError, match="continuous"):
            train_lda(lift_block(mixed_block(), SMIX), "y")

    def test_trained_from_triple_difference(self):
        """LDA from C − ΔC equals LDA over the remaining rows (MICE invariant)."""
        pdf = mixed_block(n=600)
        whole = lift_block(pdf, SMIX)
        part = lift_block(pdf.iloc[:200], SMIX)
        cats = {"g": [0, 1, 2], "lbl": ["neg", "pos"]}
        m1 = train_lda(whole - part, "lbl", categories=cats)
        m2 = train_lda(lift_block(pdf.iloc[200:], SMIX), "lbl", categories=cats)
        np.testing.assert_allclose(m1.a, m2.a, rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(m1.b, m2.b, rtol=1e-6, atol=1e-8)


class TestSqlLiterals:
    VALUES = [0.1, -0.0, 0.0, 1 / 3, -math.pi, 1e-300, 5e-324, -2.5e-8,
              1.7976931348623157e308, 123456789.123, np.float64(0.7),
              0, -5, 2**31 - 1, 2**31, -(2**40), np.int64(7),
              True, False, np.bool_(True),
              "plain", "it's", "back\\slash", "\\'", "new\nline", "ünï"]

    def test_round_trip_through_spark_sql(self, spark):
        sql = ", ".join(f"{sql_literal(v)} AS c{k}" for k, v in enumerate(self.VALUES))
        row = spark.sql(f"SELECT {sql}").collect()[0]
        for k, v in enumerate(self.VALUES):
            want = v.item() if isinstance(v, np.generic) else v
            got = row[f"c{k}"]
            assert type(got) is type(want) and got == want, (v, got)
            if isinstance(want, float):
                assert math.copysign(1.0, got) == math.copysign(1.0, want), v

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            sql_literal(bad)
        with pytest.raises(ValueError, match="non-finite"):
            linear_sql(SCONT, [(0, None)], [bad], 1.0)

    def test_backtick_in_column_name(self, spark):
        sdf = spark.createDataFrame(pd.DataFrame({"a`b": [1.5, -2.0]}))
        got = sdf.select(F.expr(f"2.0D * {sql_ident('a`b')}").alias("p")).toPandas()
        assert got["p"].tolist() == [3.0, -4.0]
