"""Factorized evaluation plans for the Flight and Retailer schemas.

Each plan implements the join-tree fold from Section 5.1 / Example 4 for its
dataset:

* **Flight** (star, wide fact): fold the airline dimension into the fact
  grouped by route, then finish against the route dimension on the driver.
  The fact carries most attributes, so factorization adds overhead here —
  the shape the paper reports.
* **Retailer** (snowflake, narrow fact): fold the item dimension into the
  fact while marginalizing ``ksn`` down to the (locn, dateid) domain — the
  wide attribute interactions then happen once per distinct (locn, dateid)
  instead of once per fact row — then fold weather and location⋈census.
  This is where factorization pays off.

``enrich`` joins dimension attributes onto a (small) fact subset with
explicit broadcast joins, for prediction over normalized data.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.ring.factorized import (
    FactorizedPlan, fact_fold, final_fold, keyed_fold, lift_dim,
)
from . import flight as fl
from . import retailer as rt
from .base import Dataset


def _filter(attr_list: list[str], attrs: list[str] | None) -> list[str]:
    return [a for a in attr_list if attrs is None or a in attrs]


def _cats_of(pdf: pd.DataFrame, cols: list[str]) -> dict[str, list]:
    return {c: sorted(pdf[c].dropna().unique().tolist()) for c in cols}


def flight_plan(spark: SparkSession, ds: Dataset,
                attrs: list[str] | None = None) -> FactorizedPlan:
    """Factorized plan for flights ⋈ routes ⋈ airlines."""
    schema = ds.schema
    routes, airlines = ds.tables["routes"], ds.tables["airlines"]
    route_t = lift_dim(routes, schema, _filter(fl.ROUTE_ATTRS, attrs), ["route_id"])
    airline_attrs = _filter(fl.AIRLINE_ATTRS, attrs)
    fact_attrs = _filter(fl.FACT_ATTRS, attrs)
    routes_sdf = spark.createDataFrame(routes)
    airlines_sdf = spark.createDataFrame(airlines)

    def cofactor(fact: DataFrame):
        # airlines has unique keys → vectorized merge-lift leaf fold
        keyed = fact_fold(
            fact, schema, fact_attrs, ["airline_id"], None, ["route_id"],
            inner_frame=(airlines, airline_attrs),
        )
        return final_fold(keyed, schema, ["route_id"], route_t)

    def enrich(fact: DataFrame) -> DataFrame:
        return fact.join(F.broadcast(routes_sdf), "route_id").join(
            F.broadcast(airlines_sdf), "airline_id"
        )

    categories = _cats_of(ds.tables["flights"], ["diverted"])
    return FactorizedPlan(
        fact_attrs=fact_attrs, cofactor=cofactor, enrich=enrich,
        categories=categories,
    )


def retailer_plan(spark: SparkSession, ds: Dataset,
                  attrs: list[str] | None = None) -> FactorizedPlan:
    """Factorized plan for inventory ⋈ location ⋈ census ⋈ item ⋈ weather."""
    schema = ds.schema
    loccen = ds.tables["location"].merge(ds.tables["census"], on="zip")
    item_attrs = _filter(rt.ITEM_ATTRS, attrs)
    weather_t = lift_dim(
        ds.tables["weather"], schema, _filter(rt.WEATHER_ATTRS, attrs),
        ["locn", "dateid"],
    )
    loccen_t = lift_dim(
        loccen, schema,
        _filter(rt.LOCATION_ATTRS, attrs) + _filter(rt.CENSUS_ATTRS, attrs),
        ["locn"],
    )
    fact_attrs = _filter(rt.FACT_ATTRS, attrs)
    dims_sdf = {
        "location": spark.createDataFrame(ds.tables["location"]),
        "census": spark.createDataFrame(ds.tables["census"]),
        "item": spark.createDataFrame(ds.tables["item"]),
        "weather": spark.createDataFrame(ds.tables["weather"]),
    }

    def cofactor(fact: DataFrame):
        # fold item (unique ksn → merge-lift leaf) and marginalize ksn down
        # to the (locn, dateid) domain
        f1 = fact_fold(fact, schema, fact_attrs, ["ksn"], None,
                       ["locn", "dateid"],
                       inner_frame=(ds.tables["item"], item_attrs))
        # fold weather and marginalize dateid → locn domain
        f2 = keyed_fold(f1, schema, ["locn", "dateid"], weather_t, ["locn"])
        return final_fold(f2, schema, ["locn"], loccen_t)

    def enrich(fact: DataFrame) -> DataFrame:
        return (
            fact.join(F.broadcast(dims_sdf["location"]), "locn")
            .join(F.broadcast(dims_sdf["census"]), "zip")
            .join(F.broadcast(dims_sdf["item"]), "ksn")
            .join(F.broadcast(dims_sdf["weather"]), ["locn", "dateid"])
        )

    categories = {
        **_cats_of(ds.tables["location"], ["rgn_cd"]),
        **_cats_of(ds.tables["item"], ["subcategory", "category"]),
        **_cats_of(ds.tables["weather"], ["rain"]),
    }
    return FactorizedPlan(
        fact_attrs=fact_attrs, cofactor=cofactor, enrich=enrich,
        categories=categories,
    )


PLANS = {"flight": flight_plan, "retailer": retailer_plan}
