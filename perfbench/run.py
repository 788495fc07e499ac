#!/usr/bin/env python3
"""Repository benchmark: one in-database learning task and MICE rounds.

    python3 perfbench/run.py --workload mice --seed 1 --seconds 1 --trace 0

Run from the root of a checkout. One client sends ops in a closed loop on a
pinned ``local[N]`` Spark, after set-up (Spark start, data build, untimed
warm-up ops). Every op's output is checked; a failure counts and the run goes
on. ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones (spans recorded from outside the program, see ``spans.py``).
Human-readable ``metric`` lines come first; the last line of standard output
is one JSON object. ``perfbench/README.md`` explains the workloads.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path
from statistics import median

from spans import Tracer, drain_listener_bus, self_seconds, spark_counts

ROOT = Path(__file__).resolve().parent.parent
CORES = min(4, os.cpu_count() or 1)
DRIVER_MEMORY = "2g"
WARMUP_OPS = 1
WORKLOAD_NAMES = ("learn_join", "mice")
#: span names of the MICE rounds in one ``mice`` op
ROUNDS = ("mice.low.round", "mice.high.round", "mice.baseline.round")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def configure_environment(tmp: Path) -> None:
    """Pin the Spark substrate before the JVM launches.

    Mirrors ``conftest.py`` (64 shuffle partitions, Arrow, no broadcast
    joins, loopback driver, no UI) and keeps every temporary file inside the
    checkout. ``src`` must be on ``PYTHONPATH`` for the Python workers, or
    every ``mapInPandas`` task fails to import ``repro``.
    """
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{CORES}]",
        f"--driver-memory {DRIVER_MEMORY}",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        f"--conf spark.local.dir={tmp}",
        f"--conf spark.driver.extraJavaOptions=-Djava.io.tmpdir={tmp}",
        "pyspark-shell",
    ])


def start_spark():
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.warehouse.dir", os.path.join(os.environ["TMPDIR"], "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop Spark, then the JVM it launched and its Python workers, and wait
    until each has exited."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    workers = process_groups()["workers"] if proc is not None else []
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    deadline = time.monotonic() + 30
    while workers and time.monotonic() < deadline:
        workers = [p for p in workers if running(p)]
        time.sleep(0.1)
    for pid in workers:  # outlived the JVM
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def _stat(pid: int) -> list[str] | None:
    """Fields of ``/proc/<pid>/stat`` after the command name, or None."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except (FileNotFoundError, ProcessLookupError):
        return None


def running(pid: int) -> bool:
    stat = _stat(pid)
    return stat is not None and stat[0] != "Z"  # a zombie has ended


def process_groups() -> dict[str, list[int]]:
    """Processes of the run: this one (the Spark driver's Python side), the
    JVM it launched, and the JVM's descendants (the Python workers)."""
    from pyspark import SparkContext

    jvm = SparkContext._gateway.proc.pid
    parent = {}
    for d in Path("/proc").iterdir():
        stat = _stat(int(d.name)) if d.name.isdigit() else None
        if stat is not None:
            parent[int(d.name)] = int(stat[1])
    workers, todo = [], [jvm]
    while todo:
        pid = todo.pop()
        kids = [c for c, pp in parent.items() if pp == pid]
        workers += kids
        todo += kids
    return {"driver": [os.getpid()], "jvm": [jvm], "workers": workers}


def reset_peak_rss(pids: list[int]) -> None:
    """Reset each process's peak resident set to its current size."""
    for pid in pids:
        try:
            Path(f"/proc/{pid}/clear_refs").write_text("5")
        except FileNotFoundError:  # exited meanwhile
            pass


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of the processes' peak resident sets since the last reset."""
    kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except FileNotFoundError:  # exited meanwhile
            continue
        kb += sum(int(line.split()[1]) for line in status.splitlines()
                  if line.startswith("VmHWM:"))  # a zombie has no such line
    return kb / 1024


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    pct = int(100 * (n - 10) / n)
    return pct, statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def release_garbage(sc) -> None:
    """Collect garbage in Python and in the JVM between ops, untimed, so that
    Spark's cleaner frees the cached blocks of checkpoints that no live frame
    references (the last op's outputs) and every op starts from the same
    storage state. Without it the cache grew by ~150 MB per ``mice`` op."""
    gc.collect()
    sc._jvm.System.gc()
    time.sleep(0.5)  # the cleaner frees blocks on a thread of its own


def run_op(wl, tracer, op_id: int, traced: bool) -> dict:
    from workloads import CheckFailed

    rec = {"id": op_id, "traced": traced, "error": None, "derived": {}}
    with tracer.op(op_id) as group:
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.patched():
                    out = wl.op(tracer.wrap)
            else:
                out = wl.op()
        except Exception:  # an op that raises is a failed op; keep measuring
            out, rec["error"] = None, traceback.format_exc()
        t1 = time.perf_counter()
    rec.update(start=t0, end=t1, s=t1 - t0)
    if out is not None:
        try:
            rec["derived"] = wl.check(out)
        except CheckFailed as e:
            rec["error"] = f"check failed: {e}"
        except Exception:
            rec["error"] = "check raised:\n" + traceback.format_exc()
    out = None
    if rec["error"]:
        print(f"op {op_id} failed: {rec['error']}", file=sys.stderr)
    if traced:
        rec["spans"] = tracer.finish_op(op_id)
    else:
        drain_listener_bus(tracer.sc)
    rec["counts"] = spark_counts(tracer.sc, group)
    release_garbage(tracer.sc)
    return rec


#: quantities reported per span name; "calls" counts the spans
SPAN_METRICS = {
    "ring.cofactor_ring": ("calls", "s", "jobs", "tasks"),
    "ring.triple_sum": ("s",),
    "ring.factorized.cofactor": ("calls", "s", "jobs", "tasks"),
    "models.train": ("calls", "s"),
    "mice.prepare": ("s", "jobs"),
    "mice.partition": ("s", "jobs"),
    "mice.fit": ("s",),
    "mice.apply_imputation": ("calls", "s", "jobs"),
}


def layer_metrics(rec: dict, rows: int, lift_rate: float) -> dict:
    """Per-layer numbers of one traced op, named ``<module>.<entry>.<quantity>``."""
    spans = rec["spans"]
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)
    m = {}
    for i, q in enumerate(("jobs", "stages", "tasks", "tasks_failed")):
        m[f"spark.{q}"] = float(rec["counts"][i] + sum(getattr(s, q) for s in spans))
    for name, quantities in SPAN_METRICS.items():
        for q in quantities:
            m[f"{name}.{q}"] = float(len(by[name]) if q == "calls"
                                     else sum(getattr(s, q) for s in by[name]))
    ring = by["ring.cofactor_ring"]
    ring_s, ring_tasks = m["ring.cofactor_ring.s"], m["ring.cofactor_ring.tasks"]
    m["ring.cofactor_ring.rows_per_task"] = rows / ring_tasks if ring_tasks else 0.0
    m["ring.triple.pickle_bytes"] = (
        float(statistics.mean(s.pickle_bytes for s in ring)) if ring else 0.0
    )
    m["ring.lift_block.rows_per_s"] = lift_rate
    m["ring.bridge_s_per_task"] = (
        (ring_s - rows / lift_rate) / ring_tasks if ring_tasks else 0.0
    )
    for name in ROUNDS:
        m[f"{name}.s"] = sum(s.s for s in by[name])
    m["mice.self.s"] = self_seconds(rec["start"], rec["end"], spans, ROUNDS)
    return m


LAYER_UNITS = {"s": "s", "calls": "count", "jobs": "count", "stages": "count",
               "tasks": "count", "tasks_failed": "count", "rows_per_task": "rows",
               "pickle_bytes": "bytes", "rows_per_s": "rows/s",
               "bridge_s_per_task": "s", "overhead_frac": "ratio"}


def unit_of(metric: str) -> str:
    return LAYER_UNITS[metric.rsplit(".", 1)[-1]]


def print_ratios(wl_name: str, parts: dict) -> None:
    """Paper-shape ratios of one run's op parts, each printed with its base."""
    if wl_name == "learn_join":
        f, r = parts["flight_ring_s"], parts["retailer_factorized_s"]
        print(f"ratio T3 flight_ring / retailer_factorized = {f / r:.4f} "
              f"(base: medians of the learn_join parts {f:.4f} s / {r:.4f} s)")
    else:
        low, base = parts["low_s"], parts["baseline_s"]
        print(f"ratio T4 low / baseline = {low / base:.4f} "
              f"(base: medians of the mice rounds {low:.4f} s / {base:.4f} s)")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    configure_environment(tmp)

    # imports repro and pyspark, so only once the environment is pinned
    from workloads import WORKLOADS, lift_rows_per_s

    wl = WORKLOADS[args.workload]()
    t0 = time.perf_counter()
    spark = start_spark()
    try:
        spark_s = time.perf_counter() - t0
        wl.build(spark, args.seed)
        build_s = time.perf_counter() - t0 - spark_s
        # the references of the checks are the benchmark's own work
        t = time.perf_counter()
        wl.prepare_checks(spark)
        checks_s = time.perf_counter() - t
        tracer = Tracer(spark.sparkContext)
        for i in range(WARMUP_OPS):
            run_op(wl, tracer, -1 - i, traced=False)
        setup_s = time.perf_counter() - t0 - checks_s
        lift_rate = lift_rows_per_s(*wl.lift_frame()) if args.trace else 0.0
        groups = process_groups()
        reset_peak_rss([p for ps in groups.values() for p in ps])

        ops = []
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(ops) % 2 == 1
            ops.append(run_op(wl, tracer, len(ops), traced))
            kinds = {o["traced"] for o in ops}
            if (time.perf_counter() - start >= args.seconds
                    and len(kinds) == 1 + args.trace):
                break
        groups["workers"] = process_groups()["workers"]  # any started since
        peaks = {g: peak_rss_mb(ps) for g, ps in groups.items()}
    finally:
        stop_spark(spark)
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:  # another run is using it
            pass

    plain = [o for o in ops if not o["traced"]]
    times = [o["s"] for o in plain]
    failed = sum(1 for o in ops if o["error"])
    ok = [o for o in plain if not o["error"]]
    e2e = {
        "op_s_p50": (median(times), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peaks["driver"] + peaks["workers"], "MB"),
    }
    print(f"workload {args.workload} seed {args.seed} local[{CORES}] "
          f"ops {len(ops)} (traced {len(ops) - len(plain)}) failed {failed}")
    print(f"setup spark_start {spark_s:.4f} s, data build {build_s:.4f} s, "
          f"warm-up {setup_s - spark_s - build_s:.4f} s; check references {checks_s:.4f} s")
    print("peak resident MB since set-up: " + ", ".join(
        f"{g} {v:.1f} ({len(groups[g])} processes)" for g, v in peaks.items())
        + "; peak_rss_mb counts driver and workers")
    for k, (v, u) in e2e.items():
        print(f"metric {k} = {v:.6g} {u}")
    print(f"metric failed_frac = {failed / len(ops):.6g} ratio")
    tail = tail_percentile(times)
    print("metric op_s_tail = " + (f"{tail[1]:.6g} s at p{tail[0]} of {len(times)} ops"
                                   if tail else f"n/a ({len(times)} ops, needs 11)"))
    for q in sorted({k for o in ok for k in o["derived"] if k.startswith("impute_")}):
        print(f"metric {q} = {median([o['derived'][q] for o in ok]):.6g} ratio")
    print("op seconds " + " ".join(f"{t:.4f}" for t in times))
    ref = json.loads(Path(__file__).with_name("reference_counts.json").read_text())
    for i, q in enumerate(("jobs", "stages", "tasks")):
        print(f"count spark.{q} per op = {median([o['counts'][i] for o in plain]):g} "
              f"(seed {ref['seed']} on {ref['master']}: {ref['per_op'][args.workload][q]})")

    if ok:
        parts = {k: median([o["derived"][k] for o in ok])
                 for k in ok[0]["derived"] if k.endswith("_s")}
        for k, v in parts.items():
            print(f"part {k} p50 = {v:.6g} s")
        print_ratios(args.workload, parts)

    if args.trace:
        rows = wl.cofactor_rows()
        per_op = [layer_metrics(o, rows, lift_rate) for o in ops if o["traced"]]
        metrics = {k: {"value": median([p[k] for p in per_op]), "unit": unit_of(k)}
                   for k in per_op[0]}
        traced_p50 = median([o["s"] for o in ops if o["traced"]])
        metrics["trace.overhead_frac"] = {"value": traced_p50 / median(times) - 1,
                                          "unit": "ratio"}
        for k, v in metrics.items():
            print(f"layer {k} = {v['value']:.6g} {v['unit']}")
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
