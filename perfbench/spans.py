"""Spans around the public entry points of each layer, recorded from outside.

Nothing in the program is edited: a traced op rebinds the names that the
importing modules hold (``repro.mice.low.cofactor_ring`` and so on) to
wrappers that open a span, and restores them when the op ends. Each span
runs under its own Spark job group, so its job, stage and task counts are
deltas read from ``SparkContext.statusTracker()`` after the op.

An untraced op patches nothing and uses one job group for the whole op.
"""
from __future__ import annotations

import functools
import importlib
import pickle
import time
from contextlib import contextmanager
from dataclasses import dataclass

#: (importing module, bound name, span name). Each entry is a layer's public
#: entry point as one of the program's modules sees it.
ENTRY_POINTS = [
    *[(f"repro.mice.{v}", "cofactor_ring", "ring.cofactor_ring")
      for v in ("low", "high", "baseline")],
    ("repro.ring.spark_agg", "triple_sum", "ring.triple_sum"),
    *[(f"repro.mice.{v}", "prepare", "mice.prepare")
      for v in ("low", "high", "baseline")],
    *[(f"repro.mice.{v}", "partition", "mice.partition") for v in ("low", "high")],
    *[(f"repro.mice.{v}", name, f"mice.{name}")
      for v in ("low", "high", "baseline") for name in ("fit", "apply_imputation")],
    ("repro.mice.step", "train_stochastic", "models.train"),
    ("repro.mice.step", "train_lda", "models.train"),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    op: int
    parent: str | None
    group: str
    jobs: int = 0
    stages: int = 0
    tasks: int = 0
    tasks_failed: int = 0
    pickle_bytes: int = 0  # of the returned triple, for ring spans

    @property
    def s(self) -> float:
        return self.end - self.start


def spark_counts(sc, group: str) -> tuple[int, int, int, int]:
    """(jobs, stages run, tasks completed, tasks failed) of one job group.

    The status store is filled by Spark's listener bus, which runs behind
    the action that caused the event, so callers drain it first
    (``drain_listener_bus``).
    """
    st = sc.statusTracker()
    jobs = st.getJobIdsForGroup(group)
    stages = set()
    tasks = failed = 0
    for j in jobs:
        info = st.getJobInfo(j)
        for sid in info.stageIds if info else ():
            si = st.getStageInfo(sid)
            if si is None or sid in stages:
                continue
            if si.numCompletedTasks + si.numFailedTasks > 0:  # skipped otherwise
                stages.add(sid)
                tasks += si.numCompletedTasks
                failed += si.numFailedTasks
    return len(jobs), len(stages), tasks, failed


def drain_listener_bus(sc) -> None:
    sc._jsc.sc().listenerBus().waitUntilEmpty()


class Tracer:
    """Records spans of one op at a time; keeps every span in memory."""

    def __init__(self, sc) -> None:
        self.sc = sc
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op = -1
        self._n = 0
        self._op_group = ""

    def _group(self) -> str:
        self._n += 1
        return f"perfbench-{self._n}"

    @contextmanager
    def op(self, op_id: int):
        """Job group for one whole op; spans opened inside get their own."""
        self._op, self._op_group = op_id, self._group()
        self.sc.setJobGroup(self._op_group, f"op {op_id}")
        try:
            yield self._op_group
        finally:
            self.sc.setJobGroup("perfbench-idle", "between ops")

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, time.perf_counter(), 0.0, self._op,
                   parent.name if parent else None, self._group())
        self.sc.setJobGroup(rec.group, name)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()
            self.sc.setJobGroup(parent.group if parent else self._op_group,
                                parent.name if parent else f"op {self._op}")
            self.spans.append(rec)

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            if name == "ring.cofactor_ring":
                rec.pickle_bytes = len(pickle.dumps(out))
            return out
        return traced

    @contextmanager
    def patched(self):
        """Rebind every entry point in ``ENTRY_POINTS`` for the duration."""
        saved = []
        try:
            for mod_name, attr, span_name in ENTRY_POINTS:
                mod = importlib.import_module(mod_name)
                orig = getattr(mod, attr)
                saved.append((mod, attr, orig))
                setattr(mod, attr, self.wrap(orig, span_name))
            yield
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)

    def finish_op(self, op_id: int) -> list[Span]:
        """Fill the Spark deltas of the op's spans; return them."""
        drain_listener_bus(self.sc)
        spans = [s for s in self.spans if s.op == op_id]
        for s in spans:
            s.jobs, s.stages, s.tasks, s.tasks_failed = spark_counts(self.sc, s.group)
        return spans


def self_seconds(op_start: float, op_end: float, spans: list[Span],
                 rounds: tuple[str, ...]) -> float:
    """Op wall time not covered by any layer span (the loop's own time).

    Spans of one op run on one thread, so the layer spans directly under the
    op or under one of its ``rounds`` never overlap.
    """
    top = (None, *rounds)
    return (op_end - op_start) - sum(
        s.s for s in spans if s.name not in rounds and s.parent in top)
