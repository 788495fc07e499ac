"""Spark cofactor aggregation: ring pipeline vs SQL baseline vs oracle.

Uses the provided TPC-H-lite generators at SF=0.002 so the suite stays fast
while still exercising multi-partition aggregation and shuffles.
"""
import numpy as np
import pandas as pd
import pytest

from repro.oracle import assert_equivalent
from repro.ring import AttrSchema, cofactor_ring, cofactor_sql, lift_block, spark_agg
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

    def test_task_cap(self, spark, li, ring_triple, distributed_scan):
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

    GROUP = "test-where"

    @pytest.fixture(scope="class")
    def preds(self):
        from pyspark.sql import functions as F

        return [F.col("l_quantity") <= 30, F.col("l_returnflag") != "N",
                F.col("l_quantity") < 0]

    @pytest.fixture(scope="class")
    def fused(self, spark, li, preds):
        sc = spark.sparkContext
        sc.setJobGroup(self.GROUP, "cofactor_ring with where=")
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
        assert len(sc.statusTracker().getJobIdsForGroup(self.GROUP)) == 1

    def test_without_where_unchanged(self, spark, li, distributed_scan):
        """Without ``where``, the triple is bit-identical to the single-triple
        pass as it was before ``where`` existed (frozen here), its task
        partials folded in the scan's order: sorted by their pickled bytes."""
        import pickle

        from repro.ring.triple import triple_sum

        ring_triple = cofactor_ring(li, LI_SCHEMA)

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
        assert ring_triple == want


class OnTasks:
    """Runs a test class with every scan folded in ``mapInPandas`` tasks:
    ``li`` is far below ``LOCAL_SCAN_BYTES``, so the classes as written
    test the driver fold."""

    @pytest.fixture(scope="class", autouse=True)
    def _on_tasks(self):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spark_agg, "LOCAL_SCAN_BYTES", -1)
            yield

    @pytest.fixture(scope="class")
    def ring_triple(self, li):
        return cofactor_ring(li, LI_SCHEMA)


class TestAgainstOracleOnTasks(OnTasks, TestAgainstOracle):
    pass


class TestWhereOnTasks(OnTasks, TestWhere):
    GROUP = "test-where-on-tasks"


@pytest.fixture
def map_in_pandas_calls(monkeypatch, li):
    """Counts ``DataFrame.mapInPandas`` calls, i.e. scans folded in tasks."""
    calls = []
    cls = type(li)
    real = cls.mapInPandas

    def spy(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(cls, "mapInPandas", spy)
    return calls


@pytest.fixture
def arrow_rows(monkeypatch, li):
    """Rows of each table ``DataFrame.toArrow`` collects (driver scans)."""
    rows = []
    cls = type(li)
    real = cls.toArrow

    def spy(self, *args, **kwargs):
        table = real(self, *args, **kwargs)
        rows.append(table.num_rows)
        return table

    monkeypatch.setattr(cls, "toArrow", spy)
    return rows


class TestDriverFold:
    """A frame under ``LOCAL_SCAN_BYTES`` is collected through Arrow and
    folded on the driver; the triple is the task fold's."""

    @pytest.fixture(scope="class")
    def preds(self):
        from pyspark.sql import functions as F

        return [F.col("l_quantity") <= 30, F.col("l_returnflag") != "N"]

    @staticmethod
    def both_paths(frame, where=None):
        driver = cofactor_ring(frame, LI_SCHEMA, where=where)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spark_agg, "LOCAL_SCAN_BYTES", -1)
            tasks = cofactor_ring(frame, LI_SCHEMA, where=where)
        return ([driver], [tasks]) if where is None else (driver, tasks)

    @pytest.mark.parametrize("with_where", [False, True])
    def test_one_partition_bit_identical(self, li, preds, with_where):
        """One partition: the driver's slices are the task's Arrow batches
        (12k rows: a full batch and a partial one)."""
        one = li.coalesce(1).localCheckpoint(eager=True)
        driver, tasks = self.both_paths(one, preds if with_where else None)
        for a, b in zip(driver, tasks):
            assert a == b

    @pytest.mark.parametrize("with_where", [False, True])
    def test_fifty_partitions_close(self, li, preds, with_where):
        wide = li.repartition(50).localCheckpoint(eager=True)
        driver, tasks = self.both_paths(wide, preds if with_where else None)
        for a, b in zip(driver, tasks):
            assert a.n == b.n
            assert a.allclose(b, rtol=1e-9, atol=1e-5)

    def test_small_frame_runs_no_python_task(self, li, map_in_pandas_calls):
        cofactor_ring(li, LI_SCHEMA)
        assert map_in_pandas_calls == []

    def test_frame_over_the_bound_runs_tasks(self, monkeypatch, li,
                                             map_in_pandas_calls):
        monkeypatch.setattr(spark_agg, "LOCAL_SCAN_BYTES", 0)
        cofactor_ring(li, LI_SCHEMA)
        assert map_in_pandas_calls == [1]

    def test_frame_of_unknown_size_runs_tasks(self, spark, li, map_in_pandas_calls):
        """Spark knows no size for a frame built from an RDD
        (``spark.sql.defaultSizeInBytes``)."""
        cofactor_ring(spark.createDataFrame(li.rdd, li.schema), LI_SCHEMA)
        assert map_in_pandas_calls == [1]

    def test_scans_of_a_lazy_noisy_frame_are_identical(self, spark, li,
                                                       map_in_pandas_calls):
        """Two driver scans of a MICE ``missing`` frame under stacked
        noise-on updates (a lazy projection over a 3-partition checkpoint)
        fold in one order."""
        from pyspark.sql import functions as F

        from repro.datasets import inject_missing
        from repro.mice import partition, prepare
        from repro.mice.prep import mask_col
        from repro.mice.step import apply_imputation, fit

        inc = ["l_quantity", "l_discount"]
        pdf, _ = inject_missing(li.select(*LI_SCHEMA.names).toPandas(), inc,
                                0.2, "MCAR", seed=3)
        df = spark.createDataFrame(pdf).repartition(3).localCheckpoint(eager=True)
        prep = prepare(df, LI_SCHEMA, inc)
        complete, missing = partition(prep)
        c = cofactor_ring(complete.unionByName(missing), LI_SCHEMA)
        lazy = missing
        for seed, attr in enumerate(inc):
            lazy = apply_imputation(lazy, fit(c, attr, prep), attr, prep,
                                    seed=seed, noise=True)
        where = [F.col(mask_col(a)) for a in inc]
        first, second = (cofactor_ring(lazy, LI_SCHEMA, where=where) for _ in range(2))
        for t1, t2 in zip(first, second):
            assert t1 == t2
        assert map_in_pandas_calls == []

    def test_rows_outside_every_predicate_stay_in_the_jvm(self, li, preds,
                                                           arrow_rows):
        from pyspark.sql import functions as F

        assert cofactor_ring(li, LI_SCHEMA, where=[F.lit(False)]) == [
            Triple.zero(LI_SCHEMA)]
        assert arrow_rows == [0]
        got = cofactor_ring(li, LI_SCHEMA, where=preds)
        assert arrow_rows[1] == li.filter(preds[0] | preds[1]).count()
        assert arrow_rows[1] < li.count()
        for p, t in zip(preds, got):
            assert t.n == li.filter(p).count()

    def test_empty_frame_is_zero(self, li, preds, map_in_pandas_calls):
        empty = li.limit(0)
        assert cofactor_ring(empty, LI_SCHEMA) == Triple.zero(LI_SCHEMA)
        assert cofactor_ring(empty, LI_SCHEMA, where=preds) == [
            Triple.zero(LI_SCHEMA)] * len(preds)
        assert map_in_pandas_calls == []


class TestContOnly:
    def test_cont_only_schema(self, spark, li):
        sch = AttrSchema.of(continuous=["l_quantity", "l_discount"])
        t = cofactor_ring(li, sch)
        pdf = li.select("l_quantity", "l_discount").toPandas()
        x = pdf.to_numpy()
        assert np.isclose(t.q_of("l_quantity", "l_discount"), (x[:, 0] * x[:, 1]).sum())
        assert t.allclose(cofactor_sql(li, sch), rtol=1e-9, atol=1e-5)

    def test_dense_from_spark_matches_numpy(self, li, ring_triple):
        d = ring_triple.pinned()
        pdf = li.toPandas()
        cont = ["l_quantity", "l_extendedprice", "l_discount", "l_tax"]
        x = pdf[cont].to_numpy()
        xb = np.column_stack([np.ones(len(x)), x])
        np.testing.assert_allclose(
            d.mat[:5, :5], xb.T @ xb, rtol=1e-9
        )
