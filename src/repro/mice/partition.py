"""Missing/observed-count partitioning (Section 4, "Shared Computation with
Data Partitioning").

``mode="low"`` partitions by the number of *missing* incomplete attributes
per record (fast access to the small missing part, used by Algorithm 2):

* ``complete``  — records with no missing values,
* ``single[a]`` — records whose only missing attribute is ``a``
  (the per-attribute subpartitions of the paper's third partition),
* ``overflow``  — records with ≥2 missing values (but not all),
* ``none``      — records with *all* incomplete attributes missing; they are
  in no training set, so they are imputed each round but excluded from the
  global cofactor.

``mode="high"`` uses the mirrored criteria on the number of *observed*
incomplete attributes (fast access to the small observed part):
``single[a]`` holds records whose only observed incomplete attribute is
``a``, ``overflow`` those with ≥2 observed (but not all), while ``complete``
/ ``none`` keep their meanings (all observed / none observed).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .prep import Prepared, mask_col


@dataclass
class Partitions:
    mode: str
    complete: DataFrame
    single: dict[str, DataFrame]
    overflow: DataFrame
    none: DataFrame
    #: row counts per partition ("complete"/"overflow"/"none"/attr names).
    #: Masks are fixed at prepare time, so membership — and these counts —
    #: never change across iterations; empty partitions can be skipped
    #: without issuing Spark jobs.
    counts: dict[str, int] = None

    def count_of(self, name: str) -> int:
        return self.counts[name] if self.counts is not None else -1

    def union_all(self) -> DataFrame:
        dfs = [self.complete, *self.single.values(), self.overflow, self.none]
        return reduce(DataFrame.unionByName, dfs)


def partition(prep: Prepared, mode: str, checkpoint: bool = True) -> Partitions:
    """Split the prepared dataset into the four partitions for ``mode``."""
    if mode not in ("low", "high"):
        raise ValueError(f"mode must be 'low' or 'high': {mode}")
    inc = prep.incomplete
    m = len(inc)
    miss_cnt = reduce(
        lambda a, b: a + b, [F.col(mask_col(a)).cast("int") for a in inc]
    )
    df = prep.df.withColumn("__nmiss", miss_cnt)
    cnt = F.col("__nmiss") if mode == "low" else (F.lit(m) - F.col("__nmiss"))

    def fin(d: DataFrame) -> DataFrame:
        d = d.drop("__nmiss")
        return d.localCheckpoint(eager=True) if checkpoint else d

    complete = fin(df.filter(F.col("__nmiss") == 0))
    none = fin(df.filter(F.col("__nmiss") == m))
    single: dict[str, DataFrame] = {}
    for a in inc:
        flag = F.col(mask_col(a)) if mode == "low" else ~F.col(mask_col(a))
        # (cnt < m) keeps single disjoint from complete/none when m == 1
        single[a] = fin(df.filter((cnt == 1) & (F.lit(m) > 1) & flag))
    overflow = fin(df.filter((cnt >= 2) & (cnt < m) if m > 1 else F.lit(False)))
    counts = None
    if checkpoint:  # cheap on materialized partitions
        counts = {"complete": complete.count(), "overflow": overflow.count(),
                  "none": none.count()}
        counts.update({a: d.count() for a, d in single.items()})
    return Partitions(mode=mode, complete=complete, single=single,
                      overflow=overflow, none=none, counts=counts)
