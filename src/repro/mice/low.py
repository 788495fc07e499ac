"""MICE Algorithm 2 — computation sharing over missing/observed partitions.

One loop runs both of the paper's partitionings (``partition.py``):

* ``mode="low"`` — one global cofactor Triple ``C`` over the
  initially-imputed data (excluding the all-missing partition, which
  belongs to no training set) is computed once, before the loop. Per
  attribute the training cofactor is derived by ring subtraction,
  ``C_train = C − ΔC``, where ``ΔC`` covers only the rows with that
  attribute missing. After imputing, ``C`` is restored incrementally:
  ``C = C_train + ΔC'`` with ``ΔC'`` over the freshly imputed rows — the
  full-data scan never recurs.
* ``mode="high"`` — the complete partition contributes the same Triple to
  every training set, so only its cofactor is precomputed. Per attribute the
  training cofactor is ``C_complete`` plus the cofactor of the incomplete
  rows with that attribute observed; at high missing rates those are few.

The data is two checkpointed frames, ``complete`` (never rewritten) and
``missing``; the paper's partitions are predicates over ``missing``. Each
attribute step is one update and one scan, and costs one Spark job:

* the update is a lazy projection of ``missing`` (no job), with the seed
  Algorithm 1 uses for the same (iteration, attribute), so with noise on
  every variant draws the same noise for the same cell (``partition.py``
  says why);
* the scan is one ``cofactor_ring`` pass over ``missing`` with a predicate
  per triple: Low's ``ΔC'`` of this step fused with ``ΔC`` of the next,
  High's observed rows of the next step. It evaluates the pending update.
  The precomputed ``C`` (Low) or ``C_complete`` (High) is fused with the
  first step's scan, and the last step's ``ΔC'``, whose ``C`` is never
  read, is not computed. A round of ``iters`` iterations over ``m``
  attributes thus runs ``iters·m`` scans.

Between iterations ``missing`` is checkpointed lazily, so the next scan
materializes it and a plan never stacks more than ``m`` projections; a
single iteration checkpoints nothing. The returned frame carries the last
iteration's projections unevaluated.

A step that imputes nothing (the attribute has no missing value, or its
training set is empty so ``fit`` returns no model) rewrites nothing, scans
no ``ΔC'`` and leaves Low's ``C`` as it was. Counts are fixed at prepare
time (masks never change), so that check issues no Spark job.

With a ``FactorizedPlan`` (Section 6.3, Figure 6) the input is the fact
table of a normalized schema with missing values in fact columns only.
Cofactors come from the plan's fold, which pushes the ring SUM past the
joins, so the wide join is never materialized, and which returns one triple
per predicate from one job, as ``cofactor_ring`` does; only the rows being
imputed are enriched with dimension attributes, via broadcast joins. These
keep the fact's partitions and row order, so the enriched update stays a
lazy projection too.
"""
from __future__ import annotations

from functools import partial

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from repro.ring import cofactor_ring
from repro.ring.factorized import FactorizedPlan
from repro.ring.schema import AttrSchema
from .baseline import MiceResult
from .partition import n_missing, partition
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
    m = len(incomplete)
    nmiss = n_missing(incomplete)

    def step_rows(attr: str) -> Column:
        # rows taken out of C (low: `attr` missing, not in `none`, Alg. 2
        # l. 5) or added to C_complete (high: `attr` observed, not complete)
        mask = F.col(mask_col(attr))
        return mask & (nmiss < m) if low else ~mask & (nmiss > 0)

    # scan(frame, where=preds): the cofactor of each predicate's rows of
    # frame, in one pass
    scan = plan.cofactor if plan else partial(cofactor_ring, schema=schema)

    steps = [(it, ai, attr) for it in range(iters)
             for ai, attr in enumerate(incomplete)]
    with timing.time(pre_phase):
        # low: C over everything that can appear in a training set (Alg. 2
        # line 2); high: the complete part every training set shares. Both
        # fused with the first step's scan.
        c, delta = scan(parts.union_all(), where=[
            nmiss < m if low else nmiss == 0, step_rows(incomplete[0])])
    for k, (it, ai, attr) in enumerate(steps):
        c_train = (c - delta).prune(tol=0.0) if low else c + delta
        with timing.time("iter.train"):
            model = fit(c_train, attr, prep, l2=l2)
        updated = model is not None and parts.count_of(mask_col(attr)) != 0
        if updated:
            with timing.time("iter.update"):
                parts.missing = apply_imputation(
                    parts.missing, model, attr, prep, attr_seed(seed, it, ai),
                    noise, enrich,
                )
        if k + 1 == len(steps):
            break  # the last ΔC′ would restore a C that is never read
        if ai + 1 == m:
            # another iteration follows: cut the m stacked update projections
            # from the plan, materialized by the next scan
            parts.missing = parts.missing.localCheckpoint(eager=False)
        with timing.time(scan_phase):
            # low: ΔC′(attr) over the freshly imputed rows, fused with the
            # next step's ΔC (no ΔC′ when nothing was imputed: C stands as
            # it was); high: the next step's observed rows
            nxt = step_rows(steps[k + 1][2])
            *fresh, delta = scan(parts.missing, where=[step_rows(attr), nxt]
                                 if low and updated else [nxt])
        if fresh:
            c = c_train + fresh[0]

    return MiceResult(df=parts.union_all(), timing=timing, prep=prep)


def mice_low(df: DataFrame, schema: AttrSchema, incomplete: list[str], *,
             plan: FactorizedPlan | None = None, **opts) -> MiceResult:
    """Run Algorithm 2 with the low-missing-rate partitioning.

    With ``plan``, ``df`` is the plan's fact table and cofactors are
    evaluated over the join tree without materializing it.
    """
    return algorithm2(df, schema, incomplete, "low", plan=plan, **opts)
