"""The two frames Algorithm 2 runs over (Section 4, "Shared Computation with
Data Partitioning"): ``complete``, the records with no missing value, which
is never rewritten, and ``missing``, every other record, which the loop's
updates project. The paper's finer partitions are the predicates each step
scans ``missing`` with (``low.step_rows``).
"""
from __future__ import annotations

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from repro.sql import sql_ident
from .prep import Prepared, mask_col


def n_missing(incomplete: list[str]) -> Column:
    """Number of masked incomplete attributes of a row, parsed from one SQL
    string (one Py4J call at any width)."""
    return F.expr(" + ".join(f"CAST({sql_ident(mask_col(a))} AS INT)"
                             for a in incomplete))


def partition(prep: Prepared) -> tuple[DataFrame, DataFrame]:
    """``(complete, missing)`` of the prepared dataset, each materialized by
    an eager checkpoint: two Spark jobs."""
    nmiss = n_missing(prep.incomplete)
    complete, missing = (prep.df.filter(where).localCheckpoint(eager=True)
                         for where in (nmiss == 0, nmiss > 0))
    return complete, missing
