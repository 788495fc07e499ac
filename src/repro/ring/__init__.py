"""Generalized cofactor ring: Triple values, Spark aggregation, factorization."""
from .schema import AttrSchema
from .triple import Triple, lift_block, lift_row, triple_sum
from .spark_agg import cofactor_ring, cofactor_sql

__all__ = [
    "AttrSchema",
    "Triple",
    "lift_block",
    "lift_row",
    "triple_sum",
    "cofactor_ring",
    "cofactor_sql",
]
