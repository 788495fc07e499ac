"""Spark cofactor aggregation: ring pipeline vs SQL baseline vs oracle.

Uses the provided TPC-H-lite generators at SF=0.002 so the suite stays fast
while still exercising multi-partition aggregation and shuffles.
"""
import numpy as np
import pandas as pd
import pytest

from repro.oracle import assert_equivalent
from repro.ring import AttrSchema, cofactor_ring, cofactor_sql, lift_block
from repro.ring.triple import Triple
from repro import synth_data

SF = 0.002

LI_SCHEMA = AttrSchema.of(
    continuous=["l_quantity", "l_extendedprice", "l_discount", "l_tax"],
    categorical=["l_returnflag", "l_linestatus"],
)


@pytest.fixture(scope="module")
def li(spark):
    df = synth_data.lineitem(spark, sf=SF, seed=42).cache()
    df.count()
    yield df
    df.unpersist()


@pytest.fixture(scope="module")
def ring_triple(spark, li):
    return cofactor_ring(li, LI_SCHEMA)


@pytest.fixture(scope="module")
def sql_triple(spark, li):
    return cofactor_sql(li, LI_SCHEMA)


class TestRingVsSql:
    def test_ring_equals_sql(self, ring_triple, sql_triple):
        assert ring_triple.allclose(sql_triple, rtol=1e-9, atol=1e-5)

    def test_ring_equals_local_lift(self, li, ring_triple):
        local = lift_block(li.toPandas(), LI_SCHEMA)
        assert ring_triple.allclose(local, rtol=1e-9, atol=1e-5)

    def test_count(self, li, ring_triple):
        assert ring_triple.n == li.count()


class TestAgainstOracle:
    """Individual cofactor aggregates re-derived as Spark SQL and checked in DuckDB."""

    def test_cont_cont_sums(self, spark, li):
        from pyspark.sql import functions as F

        got = li.agg(
            F.sum(F.col("l_quantity") * F.col("l_extendedprice")).alias("q_qty_price"),
            F.sum(F.col("l_discount") * F.col("l_discount")).alias("q_disc_disc"),
        )
        assert_equivalent(
            got,
            "SELECT SUM(l_quantity*l_extendedprice) AS q_qty_price, "
            "SUM(l_discount*l_discount) AS q_disc_disc FROM li",
            li=li,
        )

    def test_ring_cont_cont_matches_duckdb(self, li, ring_triple):
        import duckdb

        pdf = li.toPandas()
        exp = duckdb.sql(
            "SELECT SUM(l_quantity*l_extendedprice) q, SUM(l_tax) s FROM pdf"
        ).fetchone()
        assert np.isclose(ring_triple.q_of("l_quantity", "l_extendedprice"), exp[0], rtol=1e-9)
        assert np.isclose(ring_triple.sum_of("l_tax"), exp[1], rtol=1e-9)

    def test_ring_group_by_matches_duckdb(self, li, ring_triple):
        import duckdb

        pdf = li.toPandas()
        rows = duckdb.sql(
            "SELECT l_returnflag, SUM(l_quantity) s, COUNT(*) c FROM pdf GROUP BY 1"
        ).fetchall()
        grp = ring_triple.q_of("l_quantity", "l_returnflag")
        cnt = ring_triple.sum_of("l_returnflag")
        for flag, ssum, c in rows:
            assert np.isclose(grp[flag], ssum, rtol=1e-9)
            assert cnt[flag] == c

    def test_ring_cat_pair_matches_duckdb(self, li, ring_triple):
        import duckdb

        pdf = li.toPandas()
        rows = duckdb.sql(
            "SELECT l_returnflag, l_linestatus, COUNT(*) c FROM pdf GROUP BY 1,2"
        ).fetchall()
        rel = ring_triple.q_of("l_returnflag", "l_linestatus")
        assert len(rel) == len(rows)
        for rf, ls, c in rows:
            assert rel[(rf, ls)] == c


class TestSubsetsAndPartitions:
    def test_attr_subset(self, li):
        sub = cofactor_ring(li, LI_SCHEMA, attrs=["l_quantity", "l_returnflag"])
        assert sub.sum_of("l_extendedprice") == 0.0
        assert sub.q_of("l_quantity", "l_extendedprice") == 0.0
        assert isinstance(sub.q_of("l_quantity", "l_returnflag"), dict)

    def test_repartitioned_input_same_triple(self, li, ring_triple):
        t8 = cofactor_ring(li.repartition(8), LI_SCHEMA)
        assert t8.allclose(ring_triple, rtol=1e-9, atol=1e-4)

    def test_task_cap(self, spark, li, ring_triple):
        """A 50-partition input is lifted in at most one Python task per core."""
        sc = spark.sparkContext
        wide = li.repartition(50).localCheckpoint(eager=True)
        sc.setJobGroup("test-task-cap", "cofactor_ring over 50 partitions")
        try:
            t = cofactor_ring(wide, LI_SCHEMA)
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        sc._jsc.sc().listenerBus().waitUntilEmpty()
        st = sc.statusTracker()
        tasks = sum(st.getStageInfo(sid).numTasks
                    for jid in st.getJobIdsForGroup("test-task-cap")
                    for sid in st.getJobInfo(jid).stageIds)
        assert 0 < tasks <= sc.defaultParallelism
        assert t.allclose(ring_triple, rtol=1e-9, atol=1e-4)

    def test_single_partition_same_triple(self, li, ring_triple):
        t1 = cofactor_ring(li.coalesce(1), LI_SCHEMA)
        assert t1.allclose(ring_triple, rtol=1e-9, atol=1e-4)

    def test_filtered_adds_up(self, li, ring_triple):
        from pyspark.sql import functions as F

        a = cofactor_ring(li.filter(F.col("l_quantity") <= 25), LI_SCHEMA)
        b = cofactor_ring(li.filter(F.col("l_quantity") > 25), LI_SCHEMA)
        assert (a + b).allclose(ring_triple, rtol=1e-9, atol=1e-4)

    def test_incremental_subtract_matches_filter(self, li, ring_triple):
        """The MICE Low invariant: C - ΔC == cofactor over remaining rows."""
        from pyspark.sql import functions as F

        part = li.filter(F.col("l_linenumber") == 1)
        rest = li.filter(F.col("l_linenumber") != 1)
        delta = cofactor_ring(part, LI_SCHEMA)
        direct = cofactor_ring(rest, LI_SCHEMA)
        assert (ring_triple - delta).allclose(direct, rtol=1e-7, atol=1e-3)


class TestWhere:
    """``cofactor_ring(where=)``: one triple per predicate from one job."""

    @pytest.fixture(scope="class")
    def preds(self):
        from pyspark.sql import functions as F

        return [F.col("l_quantity") <= 30, F.col("l_returnflag") != "N",
                F.col("l_quantity") < 0]

    @pytest.fixture(scope="class")
    def fused(self, spark, li, preds):
        sc = spark.sparkContext
        sc.setJobGroup("test-where", "cofactor_ring with where=")
        try:
            out = cofactor_ring(li, LI_SCHEMA, where=preds)
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        return out

    def test_matches_filtered_scans(self, li, preds, fused):
        assert len(fused) == len(preds)
        for p, t in zip(preds[:2], fused):
            assert t.allclose(cofactor_ring(li.filter(p), LI_SCHEMA),
                              rtol=1e-9, atol=1e-5)

    def test_all_false_is_zero(self, fused):
        assert fused[2] == Triple.zero(LI_SCHEMA)

    def test_matches_duckdb(self, li, fused):
        import duckdb

        pdf = li.toPandas()
        n, s, q = duckdb.sql(
            "SELECT COUNT(*), SUM(l_tax), SUM(l_quantity*l_extendedprice) "
            "FROM pdf WHERE l_returnflag <> 'N'"
        ).fetchone()
        t = fused[1]
        assert t.n == n
        assert np.isclose(t.sum_of("l_tax"), s, rtol=1e-9)
        assert np.isclose(t.q_of("l_quantity", "l_extendedprice"), q, rtol=1e-9)
        rows = duckdb.sql(
            "SELECT l_linestatus, COUNT(*) FROM pdf WHERE l_quantity <= 30 "
            "GROUP BY 1"
        ).fetchall()
        assert fused[0].sum_of("l_linestatus") == {k: float(c) for k, c in rows}

    def test_one_job(self, spark, fused):
        sc = spark.sparkContext
        sc._jsc.sc().listenerBus().waitUntilEmpty()
        assert len(sc.statusTracker().getJobIdsForGroup("test-where")) == 1

    def test_without_where_unchanged(self, spark, li, ring_triple):
        """Without ``where``, the triple is bit-identical to the single-triple
        pass as it was before ``where`` existed (frozen here), its task
        partials folded in the scan's order: sorted by their pickled bytes."""
        import pickle

        from repro.ring.triple import triple_sum

        def partials(batches):
            acc = Triple.zero(LI_SCHEMA)
            for b in batches:
                acc = acc + lift_block(b, LI_SCHEMA, LI_SCHEMA.names)
            yield pd.DataFrame({"t": [pickle.dumps([acc])]})

        dp = spark.sparkContext.defaultParallelism
        rows = (li.select(*LI_SCHEMA.names).coalesce(dp)
                .mapInPandas(partials, "t binary").collect())
        want = triple_sum((pickle.loads(t)[0] for t in sorted(r.t for r in rows)),
                          LI_SCHEMA)
        assert isinstance(ring_triple, Triple)
        assert (ring_triple.n, ring_triple.s, ring_triple.q) == (want.n, want.s, want.q)


class TestContOnly:
    def test_cont_only_schema(self, spark, li):
        sch = AttrSchema.of(continuous=["l_quantity", "l_discount"])
        t = cofactor_ring(li, sch)
        pdf = li.select("l_quantity", "l_discount").toPandas()
        x = pdf.to_numpy()
        assert np.isclose(t.q_of("l_quantity", "l_discount"), (x[:, 0] * x[:, 1]).sum())
        assert t.allclose(cofactor_sql(li, sch), rtol=1e-9, atol=1e-5)

    def test_dense_from_spark_matches_numpy(self, li, ring_triple):
        d = ring_triple.to_dense()
        pdf = li.toPandas()
        cont = ["l_quantity", "l_extendedprice", "l_discount", "l_tax"]
        x = pdf[cont].to_numpy()
        xb = np.column_stack([np.ones(len(x)), x])
        np.testing.assert_allclose(
            d.mat[:5, :5], xb.T @ xb, rtol=1e-9
        )
