"""MICE Algorithm 2 — computation sharing over missing/observed partitions.

One loop runs both of the paper's partitionings (``partition.py``):

* ``mode="low"`` — one global cofactor Triple ``C`` over the
  initially-imputed data is computed once, outside the loop (excluding the
  all-missing partition, which belongs to no training set). Per attribute
  the training cofactor is derived by ring subtraction, ``C_train = C − ΔC``,
  where ``ΔC`` scans only the rows with that attribute missing. After
  imputing, ``C`` is restored incrementally: ``C = C_train + ΔC'`` with
  ``ΔC'`` over the freshly imputed rows — the full-data scan never recurs.
* ``mode="high"`` — the complete partition contributes the same Triple to
  every training set, so only its cofactor is precomputed. Per attribute the
  training cofactor is ``C_complete`` plus a scan of the rows with that
  attribute observed; at high missing rates those rows are few.

In both modes the per-attribute scan reads ``single[attr]`` plus the
overflow rows in the same mask state, as one unioned Spark job, and the
update rewrites only the non-empty partitions holding rows with ``attr``
missing. Partition membership is fixed (masks never change), so empty
partitions are skipped without issuing Spark jobs.

With a ``FactorizedPlan`` (Section 6.3, Figure 6) the input is the fact
table of a normalized schema with missing values in fact columns only.
Cofactors come from the plan's folds, which push the ring SUM past the
joins, so the wide join is never materialized; only the rows being imputed
are enriched with dimension attributes, via broadcast joins.
"""
from __future__ import annotations

from functools import reduce

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.ring import cofactor_ring
from repro.ring.factorized import FactorizedPlan
from repro.ring.schema import AttrSchema
from repro.ring.triple import Triple
from .baseline import MiceResult
from .partition import partition
from .prep import mask_col, prepare
from .step import apply_imputation, attr_seed, fit
from .timing import TimingLog

#: Timing phase per mode: (precomputed cofactor, per-attribute scan).
_PHASES = {"low": ("preprocess.global_cofactor", "iter.delta_cofactor"),
          "high": ("preprocess.complete_cofactor", "iter.cofactor")}


def algorithm2(
    df: DataFrame,
    schema: AttrSchema,
    incomplete: list[str],
    mode: str,
    *,
    iters: int = 1,
    noise: bool = True,
    seed: int = 0,
    l2: float = 1e-3,
    timing: TimingLog | None = None,
    plan: FactorizedPlan | None = None,
) -> MiceResult:
    """Run Algorithm 2 with the ``mode`` partitioning (see module doc)."""
    low = mode == "low"
    pre_phase, scan_phase = _PHASES[mode]
    enrich = plan.enrich if plan else None
    timing = timing or TimingLog()
    with timing.time("preprocess.prepare"):
        prep = prepare(df, schema, incomplete, plan=plan)
    with timing.time("preprocess.partition"):
        parts = partition(prep, mode=mode)

    def cofactor_of(pieces: list[tuple[str, DataFrame]]) -> Triple:
        """Cofactor of the union of the non-empty ``(count name, frame)``s."""
        dfs = [d for name, d in pieces if parts.count_of(name) != 0]
        if not dfs:
            return Triple.zero(schema)
        union = reduce(DataFrame.unionByName, dfs)
        return plan.cofactor(union) if plan else cofactor_ring(union, schema)

    def scan(attr: str) -> Triple:
        # rows with `attr` missing (low) or observed (high), Alg. 2 l. 5/9
        mask = F.col(mask_col(attr))
        overflow = parts.overflow.filter(mask if low else ~mask)
        return cofactor_of([(attr, parts.single[attr]), ("overflow", overflow)])

    with timing.time(pre_phase):
        # low: C over everything that can appear in a training set (Alg. 2
        # line 2); high: the complete part every training set shares
        shared = [("overflow", parts.overflow),
                  *[(a, parts.single[a]) for a in incomplete]] if low else []
        c = cofactor_of([("complete", parts.complete), *shared])

    for it in range(iters):
        for ai, attr in enumerate(incomplete):
            with timing.time(scan_phase):
                delta = scan(attr)
            c_train = (c - delta).prune(tol=0.0) if low else c + delta
            with timing.time("iter.train"):
                model = fit(c_train, attr, prep, l2=l2)
            if model is None:
                continue
            s = attr_seed(seed, it, ai)
            with timing.time("iter.update"):
                # single[b] holds rows with `attr` missing iff b == attr (low)
                # or b != attr (high); overflow and `none` are touched only
                # on masked rows
                for j, b in enumerate(incomplete):
                    if (b == attr) == low and parts.count_of(b) != 0:
                        parts.single[b] = apply_imputation(
                            parts.single[b], model, attr, prep,
                            s if b == attr else s + 3 + j, noise, enrich,
                        )
                for name, extra in (("overflow", 1), ("none", 2)):
                    if parts.count_of(name) != 0:
                        setattr(parts, name, apply_imputation(
                            getattr(parts, name), model, attr, prep, s + extra,
                            noise, enrich,
                        ))
            if low:
                with timing.time(scan_phase):
                    c = c_train + scan(attr)

    return MiceResult(df=parts.union_all(), timing=timing, prep=prep)


def mice_low(df: DataFrame, schema: AttrSchema, incomplete: list[str], *,
             plan: FactorizedPlan | None = None, **opts) -> MiceResult:
    """Run Algorithm 2 with the low-missing-rate partitioning.

    With ``plan``, ``df`` is the plan's fact table and cofactors are
    evaluated over the join tree without materializing it.
    """
    return algorithm2(df, schema, incomplete, "low", plan=plan, **opts)
