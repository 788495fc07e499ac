"""The benchmark's workloads: inputs built from a seed, one op, and its check.

Each workload builds its inputs in set-up, driver-side with pandas, and hands
the program only the generated Spark frames. ``op`` is one closed-loop
request; ``check`` validates that request's output against references that
set-up computed once, outside the timed region, raises ``CheckFailed``, and
returns the values it derived (imputation errors, the op's part timings).
Why each workload exists is recorded in ``perfbench/README.md``.
"""
from __future__ import annotations

import math
import time

import duckdb
import numpy as np
import pandas as pd
from pyspark.sql import functions as F

from repro.datasets import flight, inject_missing, retailer
from repro.datasets.plans import retailer_plan
from repro.mice import run_mice
from repro.models import train_lda, train_ridge
from repro.ring import cofactor_ring, lift_block

#: learn_join: Flight prejoined at 100k rows split into 50 input partitions,
#: so the ring scan pays one Python task per partition; Retailer inventory
#: fact at 50k rows with its four dimensions.
LEARN_FLIGHT_SF = 0.02
LEARN_FLIGHT_PARTITIONS = 50
LEARN_RETAILER_SF = 0.05

#: mice: Flight at 100k rows in one input partition, so each of an op's ~100
#: Spark jobs runs one task; MCAR on two continuous columns and the
#: categorical ``diverted``; one round of each variant per op, in this order,
#: at these missing rates.
MICE_SF = 0.02
MICE_PARTITIONS = 1
MICE_INCOMPLETE = ["airtime", "arr_delay", "diverted"]
MICE_RATES = {"low": 0.10, "high": 0.60, "baseline": 0.10}

#: rows per Arrow batch, i.e. per ``lift_block`` call inside a ring task
ARROW_BATCH = 10_000


class CheckFailed(Exception):
    """An op's output disagrees with the reference."""


def _close(a: float, b: float, rtol: float = 1e-9, atol: float = 1e-6) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def lift_rows_per_s(pdf: pd.DataFrame, schema, repeats: int = 3) -> float:
    """Rate of the lift kernel alone, called on the driver over Arrow-sized
    blocks of the workload's own rows (median of ``repeats`` passes)."""
    blocks = [pdf.iloc[i:i + ARROW_BATCH] for i in range(0, len(pdf), ARROW_BATCH)]
    rates = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for b in blocks:
            lift_block(b, schema)
        rates.append(len(pdf) / (time.perf_counter() - t0))
    return float(np.median(rates))


def _no_trace(fn, _name):
    return fn


class LearnJoin:
    """Cofactor ring over prejoined Flight, factorized cofactor over the
    Retailer snowflake, and the models each trains from one pass."""

    def build(self, spark, seed: int) -> None:
        fl = flight.generate(sf=LEARN_FLIGHT_SF, seed=seed)
        self.schema = fl.schema
        self.flight_pdf = fl.joined()[list(fl.schema.names)]
        self.flight_df = (
            spark.createDataFrame(self.flight_pdf)
            .repartition(LEARN_FLIGHT_PARTITIONS)
            .localCheckpoint(eager=True)
        )
        self.rt = retailer.generate(sf=LEARN_RETAILER_SF, seed=seed)
        self.fact = spark.createDataFrame(self.rt.tables["inventory"]).localCheckpoint(
            eager=True
        )
        self.plan = retailer_plan(spark, self.rt)

    def prepare_checks(self, spark) -> None:
        """DuckDB aggregates of the Flight frame; the lift of the prejoined
        Retailer table, in one block on the driver."""
        cont = list(self.schema.continuous)
        cols = ["count(*) AS n"] + [f"sum({c}) AS s_{i}" for i, c in enumerate(cont)]
        cols += [f"sum({a} * {b}) AS q_{i}_{j}" for i, a in enumerate(cont)
                 for j, b in enumerate(cont) if j >= i]
        con = duckdb.connect()
        try:
            con.register("flight", self.flight_pdf)
            row = con.execute(f"SELECT {', '.join(cols)} FROM flight").fetchdf().iloc[0]
            classes = con.execute(
                "SELECT diverted, count(*) AS n FROM flight GROUP BY diverted"
            ).fetchall()
        finally:
            con.close()
        self.flight_ref = {"n": float(row["n"]), "classes": {int(k): float(v) for k, v in classes}}
        for i, a in enumerate(cont):
            self.flight_ref[("s", a)] = float(row[f"s_{i}"])
            for j, b in enumerate(cont[i:], start=i):
                self.flight_ref[("q", a, b)] = float(row[f"q_{i}_{j}"])
        self.retailer_ref = lift_block(self.rt.joined()[list(self.rt.schema.names)],
                                       self.rt.schema)

    def cofactor_rows(self) -> int:
        return len(self.flight_pdf)

    def lift_frame(self):
        return self.flight_pdf, self.schema

    def op(self, wrap=_no_trace) -> dict:
        t0 = time.perf_counter()
        ft = wrap(cofactor_ring, "ring.cofactor_ring")(self.flight_df, self.schema)
        ridge = wrap(train_ridge, "models.train")(ft, "elapsed_time", l2=1e-3)
        lda = wrap(train_lda, "models.train")(ft, "diverted")
        t1 = time.perf_counter()
        rt = wrap(self.plan.cofactor, "ring.factorized.cofactor")(self.fact)
        ridge_rt = wrap(train_ridge, "models.train")(
            rt, "inventoryunits", l2=1e-3, categories=self.plan.categories
        )
        t2 = time.perf_counter()
        return {"flight": ft, "retailer": rt, "models": (ridge, lda, ridge_rt),
                "parts": {"flight_ring_s": t1 - t0, "retailer_factorized_s": t2 - t1}}

    def check(self, out: dict) -> dict:
        ft, ref = out["flight"], self.flight_ref
        bad = [] if _close(ft.n, ref["n"]) else ["n"]
        for key, want in ref.items():
            if isinstance(key, tuple):
                got = ft.sum_of(key[1]) if key[0] == "s" else ft.q_of(key[1], key[2])
                if not _close(got, want):
                    bad.append(key)
        got = ft.sum_of("diverted")
        if set(got) != set(ref["classes"]) or not all(
                _close(got[k], v) for k, v in ref["classes"].items()):
            bad.append("diverted classes")
        if bad:
            raise CheckFailed(f"flight triple disagrees with DuckDB on {bad[:5]}")
        if not out["retailer"].allclose(self.retailer_ref):
            raise CheckFailed("factorized Retailer triple != lift of the prejoined table")
        ridge, lda, ridge_rt = out["models"]
        for label, arr in (("flight ridge", ridge.theta), ("flight lda", lda.a),
                           ("retailer ridge", ridge_rt.theta)):
            if not np.all(np.isfinite(arr)):
                raise CheckFailed(f"{label} parameters are not finite")
        return out["parts"]


class MiceRounds:
    """One MICE round (``iters=1``, noise on) of each variant over Flight:
    Low at 10 % MCAR, High at 60 % MCAR, Baseline on Low's input."""

    def build(self, spark, seed: int) -> None:
        fl = flight.generate(sf=MICE_SF, seed=seed)
        self.schema = fl.schema
        self.seed = seed
        self.truth = fl.joined()
        self.inputs = {}  # rate -> (checkpointed frame, mask)
        for rate in sorted(set(MICE_RATES.values())):
            masked, mask = inject_missing(self.truth, MICE_INCOMPLETE, rate, "MCAR",
                                          seed=seed + 1)
            df = spark.createDataFrame(masked).coalesce(MICE_PARTITIONS)
            self.inputs[rate] = (df.localCheckpoint(eager=True), mask)

    def prepare_checks(self, spark) -> None:
        """``__rid`` per row of each input as ``prepare`` will assign it (the
        checkpoint fixes the input partitioning), and each attribute's spread."""
        fid = pd.Index(self.truth["flight_id"].to_numpy(), name="flight_id")
        self.truth = self.truth.set_axis(fid, axis=0).sort_index()
        self.std = {c: float(self.truth[c].std()) for c in MICE_INCOMPLETE
                    if not self.schema.is_cat(c)}
        self.masks, self.rids = {}, {}
        for rate, (df, mask) in self.inputs.items():
            rid = (df.select("flight_id", F.monotonically_increasing_id().alias("r"))
                   .toPandas().set_index("flight_id")["r"])
            self.masks[rate] = mask.set_axis(fid, axis=0).sort_index()
            self.rids[rate] = rid.reindex(self.truth.index).to_numpy()

    def cofactor_rows(self) -> int:
        """Rows all ``cofactor_ring`` calls of one op scan, from the masks."""
        rows = 0
        m = len(MICE_INCOMPLETE)
        for variant, rate in MICE_RATES.items():
            mask = self.masks[rate]
            nmiss = mask.sum(axis=1)
            if variant == "low":
                # global C over all but the all-missing rows, then ΔC before
                # and ΔC' after each update over that attribute's missing rows
                rows += int((nmiss < m).sum())
                rows += 2 * sum(int((mask[a] & (nmiss < m)).sum()) for a in MICE_INCOMPLETE)
            elif variant == "high":
                # complete part once, then per attribute its observed
                # incomplete rows
                rows += int((nmiss == 0).sum())
                rows += sum(int((~mask[a] & (nmiss >= 1)).sum()) for a in MICE_INCOMPLETE)
            else:
                rows += sum(int((~mask[a]).sum()) for a in MICE_INCOMPLETE)
        return rows

    def lift_frame(self):
        return self.truth[list(self.schema.names)], self.schema

    def op(self, wrap=_no_trace) -> dict:
        results, parts = {}, {}
        for variant, rate in MICE_RATES.items():
            t0 = time.perf_counter()
            results[variant] = wrap(run_mice, f"mice.{variant}.round")(
                self.inputs[rate][0], self.schema, MICE_INCOMPLETE, variant=variant,
                iters=1, noise=True, seed=self.seed)
            parts[f"{variant}_s"] = time.perf_counter() - t0
        return {"results": results, "parts": parts}

    def check(self, out: dict) -> dict:
        derived = dict(out["parts"])
        for variant, res in out["results"].items():
            rate = MICE_RATES[variant]
            errs = self._check_round(res, self.masks[rate], self.rids[rate], variant)
            derived.update({f"{k}.{variant}": v for k, v in errs.items()})
        return derived

    def _check_round(self, res, mask, rid, variant: str) -> dict:
        out = res.df.select("flight_id", "__rid", *MICE_INCOMPLETE).toPandas()
        if len(out) != len(self.truth):
            raise CheckFailed(f"{variant}: {len(out)} rows out, {len(self.truth)} in")
        out = out.set_index("flight_id").sort_index()
        if not out.index.equals(self.truth.index):
            raise CheckFailed(f"{variant}: set of rows changed")
        if not np.array_equal(out["__rid"].to_numpy(), rid):
            raise CheckFailed(f"{variant}: __rid values not preserved")
        derived = {}
        nrmse = []
        for c in MICE_INCOMPLETE:
            if out[c].isna().any():
                raise CheckFailed(f"{variant}: {c} still holds nulls")
            got = out[c].to_numpy(dtype=float)
            want = self.truth[c].to_numpy(dtype=float)
            m = mask[c].to_numpy()
            if not np.array_equal(got[~m], want[~m]):
                raise CheckFailed(f"{variant}: observed cells of {c} were rewritten")
            if self.schema.is_cat(c):
                derived["impute_cat_err"] = float(np.mean(got[m] != want[m]))
            else:
                nrmse.append(math.sqrt(np.mean((got[m] - want[m]) ** 2)) / self.std[c])
        derived["impute_nrmse"] = float(np.mean(nrmse))
        return derived


WORKLOADS = {"learn_join": LearnJoin, "mice": MiceRounds}
