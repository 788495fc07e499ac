"""Benchmark T6 (Fig. 6): normalized-data MICE, factorized vs materialized."""
import pytest

from repro.datasets import inject_missing, retailer
from repro.datasets.plans import retailer_plan
from repro.mice import run_mice

SF = 0.01
RATE = 0.2


@pytest.fixture(scope="module")
def case(spark):
    ds = retailer.generate(sf=SF, seed=0)
    masked, _ = inject_missing(ds.tables["inventory"], ["inventoryunits"],
                               RATE, "MCAR", seed=3)
    fact_sdf = spark.createDataFrame(masked).localCheckpoint(eager=True)
    tables = dict(ds.tables)
    tables["inventory"] = masked
    joined_sdf = spark.createDataFrame(ds.join(tables)).localCheckpoint(eager=True)
    return dict(ds=ds, fact=fact_sdf, joined=joined_sdf,
                plan=retailer_plan(spark, ds))


@pytest.mark.benchmark(group="t6-normalized")
def test_table6_factorized(benchmark, case):
    benchmark.pedantic(
        lambda: run_mice(case["fact"], case["ds"].schema, ["inventoryunits"],
                         variant="low", plan=case["plan"], iters=1, noise=True),
        rounds=1, iterations=1,
    )


@pytest.mark.benchmark(group="t6-normalized")
def test_table6_materialized(benchmark, case):
    ds = case["ds"]
    benchmark.pedantic(
        lambda: run_mice(case["joined"], ds.schema, ["inventoryunits"],
                         variant="low", iters=1, noise=True),
        rounds=1, iterations=1,
    )
