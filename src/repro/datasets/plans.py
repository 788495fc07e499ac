"""Factorized evaluation plans for the Flight and Retailer schemas.

Each plan implements the join-tree fold from Section 5.1 / Example 4 for its
dataset (``ring.factorized.join_tree_cofactor``):

* **Flight** (star, wide fact): gather the airline dimension into the fact
  rows, sum moments per route, and fold the route dimension in. The fact
  carries most attributes, so factorization adds overhead here — the shape
  the paper reports.
* **Retailer** (snowflake, narrow fact): gather the item dimension into the
  fact rows and sum moments per (locn, dateid), marginalizing ``ksn`` — the
  wide attribute interactions then happen once per distinct (locn, dateid)
  instead of once per fact row — then fold weather (summing out ``dateid``)
  and location⋈census. This is where factorization pays off.

``enrich`` joins dimension attributes onto a (small) fact subset with
explicit broadcast joins, for prediction over normalized data.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.ring.factorized import Dim, FactorizedPlan, join_tree_cofactor
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
    routes, airlines = ds.tables["routes"], ds.tables["airlines"]
    fact_attrs = _filter(fl.FACT_ATTRS, attrs)
    categories = _cats_of(ds.tables["flights"], ["diverted"])
    cofactor = join_tree_cofactor(
        ds.schema, categories, fact_attrs,
        gather=[Dim(airlines, ["airline_id"], _filter(fl.AIRLINE_ATTRS, attrs))],
        fold=[Dim(routes, ["route_id"], _filter(fl.ROUTE_ATTRS, attrs))],
    )
    routes_sdf = spark.createDataFrame(routes)
    airlines_sdf = spark.createDataFrame(airlines)

    def enrich(fact: DataFrame) -> DataFrame:
        return fact.join(F.broadcast(routes_sdf), "route_id").join(
            F.broadcast(airlines_sdf), "airline_id"
        )

    return FactorizedPlan(
        fact_attrs=fact_attrs, cofactor=cofactor, enrich=enrich,
        categories=categories,
    )


def retailer_plan(spark: SparkSession, ds: Dataset,
                  attrs: list[str] | None = None) -> FactorizedPlan:
    """Factorized plan for inventory ⋈ location ⋈ census ⋈ item ⋈ weather."""
    loccen = ds.tables["location"].merge(ds.tables["census"], on="zip")
    fact_attrs = _filter(rt.FACT_ATTRS, attrs)
    categories = {
        **_cats_of(ds.tables["location"], ["rgn_cd"]),
        **_cats_of(ds.tables["item"], ["subcategory", "category"]),
        **_cats_of(ds.tables["weather"], ["rain"]),
    }
    cofactor = join_tree_cofactor(
        ds.schema, categories, fact_attrs,
        gather=[Dim(ds.tables["item"], ["ksn"], _filter(rt.ITEM_ATTRS, attrs))],
        fold=[
            Dim(ds.tables["weather"], ["locn", "dateid"],
                _filter(rt.WEATHER_ATTRS, attrs)),
            Dim(loccen, ["locn"],
                _filter(rt.LOCATION_ATTRS, attrs) + _filter(rt.CENSUS_ATTRS, attrs)),
        ],
    )
    dims_sdf = {
        "location": spark.createDataFrame(ds.tables["location"]),
        "census": spark.createDataFrame(ds.tables["census"]),
        "item": spark.createDataFrame(ds.tables["item"]),
        "weather": spark.createDataFrame(ds.tables["weather"]),
    }

    def enrich(fact: DataFrame) -> DataFrame:
        return (
            fact.join(F.broadcast(dims_sdf["location"]), "locn")
            .join(F.broadcast(dims_sdf["census"]), "zip")
            .join(F.broadcast(dims_sdf["item"]), "ksn")
            .join(F.broadcast(dims_sdf["weather"]), ["locn", "dateid"])
        )

    return FactorizedPlan(
        fact_attrs=fact_attrs, cofactor=cofactor, enrich=enrich,
        categories=categories,
    )


PLANS = {"flight": flight_plan, "retailer": retailer_plan}
