"""Missing/observed-count partitioning (Section 4, "Shared Computation with
Data Partitioning").

The prepared dataset is held as two frames:

* ``complete`` — records with no missing values; never rewritten,
* ``missing``  — every other record, a narrow ``filter`` of ``prep.df``
  that keeps each row's Spark partition and its order within it. The
  loop's updates are lazy projections of it and its per-iteration
  checkpoints are narrow too; it is never repartitioned or coalesced. So a
  ``rand`` stream inside an update's ``CASE WHEN`` draws the same value for
  a cell as it does over the whole of ``prep.df`` (Algorithm 1's update),
  and the same value again each time a scan recomputes the projection.

The paper's remaining partitions are predicates over ``missing`` (``pred``)
and filtered views of it (``single``, ``overflow``, ``none``). Algorithm 2
builds its own per-step predicates and reads none of these views, so
``mode`` does not change the two frames, only which views they are.
``mode="low"`` partitions by the number of *missing* incomplete attributes
per record (fast access to the small missing part, used by Algorithm 2):

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

from pyspark.sql import Column, DataFrame, Observation
from pyspark.sql import functions as F

from .prep import Prepared, mask_col


def n_missing(incomplete: list[str]) -> Column:
    """Number of masked incomplete attributes of a row."""
    return sum(F.col(mask_col(a)).cast("int") for a in incomplete)


@dataclass
class Partitions:
    mode: str
    incomplete: list[str]
    complete: DataFrame
    missing: DataFrame
    #: row counts of ``complete``, ``missing`` and each attribute's masked
    #: rows (keyed ``mask_col(a)``). Masks are fixed at prepare time, so these
    #: never change across iterations; an attribute with no masked row needs
    #: no update, and knowing that issues no job.
    counts: dict[str, int]

    def count_of(self, name: str) -> int:
        return self.counts[name]

    def pred(self, name: str) -> Column:
        """Membership of ``"overflow"``, ``"none"`` or ``single[name]``, as a
        predicate over ``missing``."""
        m = len(self.incomplete)
        nmiss = n_missing(self.incomplete)
        if name == "none":
            return nmiss == m
        cnt = nmiss if self.mode == "low" else F.lit(m) - nmiss
        if name == "overflow":
            return (cnt >= 2) & (cnt < m) if m > 1 else F.lit(False)
        flag = F.col(mask_col(name))
        # (m > 1) keeps single disjoint from complete/none when m == 1
        return (cnt == 1) & F.lit(m > 1) & (flag if self.mode == "low" else ~flag)

    @property
    def single(self) -> dict[str, DataFrame]:
        return {a: self.missing.filter(self.pred(a)) for a in self.incomplete}

    @property
    def overflow(self) -> DataFrame:
        return self.missing.filter(self.pred("overflow"))

    @property
    def none(self) -> DataFrame:
        return self.missing.filter(self.pred("none"))

    def union_all(self) -> DataFrame:
        return self.complete.unionByName(self.missing)


def partition(prep: Prepared, mode: str) -> Partitions:
    """Split the prepared dataset into ``complete`` and ``missing``.

    Both frames are materialized, and the row counts the loop reads
    (``counts``) are observed while they are (``DataFrame.observe``): two
    Spark jobs.
    """
    if mode not in ("low", "high"):
        raise ValueError(f"mode must be 'low' or 'high': {mode}")
    inc = prep.incomplete
    nmiss = n_missing(inc)
    masked = [F.sum(F.col(mask_col(a)).cast("long")).alias(mask_col(a))
              for a in inc]
    counts: dict[str, int] = {}
    frames = {}
    for name, where, aggs in (("complete", nmiss == 0, []),
                              ("missing", nmiss > 0, masked)):
        obs = Observation()
        frames[name] = (prep.df.filter(where)
                        .observe(obs, F.count(F.lit(1)).alias(name), *aggs)
                        .localCheckpoint(eager=True))
        counts.update({n: int(v or 0) for n, v in obs.get.items()})
    return Partitions(mode=mode, incomplete=list(inc), counts=counts, **frames)
