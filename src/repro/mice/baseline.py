"""MICE Algorithm 1 with in-database models (paper's BASELINE variant).

Per incomplete attribute and iteration: compute the cofactor Triple over the
*observed* part from scratch (one ring pass over the filtered dataset),
train, impute the missing part (a lazy projection, evaluated by the next
scan). No partitioning, no sharing — the reference point the Low/High
variants are measured against.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame

from repro.ring import cofactor_ring
from repro.ring.schema import AttrSchema
from .prep import Prepared, mask_col, prepare
from .step import apply_imputation, attr_seed, fit
from .timing import TimingLog


@dataclass
class MiceResult:
    """Imputed dataset (masks and ``__rid`` retained) plus phase timings."""

    df: DataFrame
    timing: TimingLog
    prep: Prepared


def mice_baseline(
    df: DataFrame,
    schema: AttrSchema,
    incomplete: list[str],
    *,
    iters: int = 1,
    noise: bool = True,
    seed: int = 0,
    l2: float = 1e-3,
    timing: TimingLog | None = None,
) -> MiceResult:
    """Run Algorithm 1 for ``iters`` round-robin iterations."""
    timing = timing or TimingLog()
    with timing.time("preprocess.prepare"):
        prep = prepare(df, schema, incomplete)
    cur = prep.df
    for it in range(iters):
        if it:
            # the updates stay lazy projections; cut the plan once per
            # iteration, materialized by the next scan
            cur = cur.localCheckpoint(eager=False)
        for ai, attr in enumerate(incomplete):
            with timing.time("iter.cofactor"):
                observed = cur.filter(~cur[mask_col(attr)])
                triple = cofactor_ring(observed, schema)
            with timing.time("iter.train"):
                model = fit(triple, attr, prep, l2=l2)
            if model is None:
                continue
            with timing.time("iter.update"):
                cur = apply_imputation(
                    cur, model, attr, prep, attr_seed(seed, it, ai), noise
                )
    return MiceResult(df=cur, timing=timing, prep=prep)
