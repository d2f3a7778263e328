"""Spans around the public calls of each ``repro`` layer, installed from here.

No source under ``src/`` knows about tracing: :class:`Instrumentation`
replaces the public methods and functions named in :data:`TRACED` with
wrappers that record a :class:`Span` (name, start, end, parent, phase) into
an in-memory :class:`Tracer`, and puts the originals back on ``restore()``.
Spans are written out only when the run ends.

Parent links follow the caller: a context variable holds the open span of
the current asyncio task or thread. The fit runs in the service's executor
thread, which does not inherit the loop's context, so the open
``worker.fit_and_publish`` span is also published on the tracer and fits
that start with no parent in another thread hang under it. A write's
``service.append_*`` span joins its batch's ``worker.step`` span through the
epoch its ticket resolves to.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

import numpy as np

_CURRENT: "contextvars.ContextVar[Optional[int]]" = contextvars.ContextVar(
    "perfbench_span", default=None
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: Optional[int]
    phase: str
    end: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span store. ``phase`` tags every span begun while it is set
    (``setup``, ``measure``, ``check``, ``recover``) so per-layer metrics can
    be taken from the measured window alone."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.phase = "setup"
        self.offloop_parent: Optional[int] = None
        self._ids = itertools.count(1)

    def begin(self, name: str) -> Span:
        parent = _CURRENT.get()
        if parent is None and threading.current_thread() is not threading.main_thread():
            parent = self.offloop_parent
        return Span(next(self._ids), name, time.perf_counter(), parent, self.phase)

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.spans.append(span)

    def select(self, name: str, phase: str = "measure") -> List[Span]:
        return [s for s in self.spans if s.name == name and s.phase == phase]

    def children(self) -> Dict[int, List[Span]]:
        out: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                out.setdefault(span.parent, []).append(span)
        return out

    def self_time(self, span: Span, children: Dict[int, List[Span]]) -> float:
        """The span's duration minus the part of it its children cover."""
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return span.duration - covered

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(
                    json.dumps(
                        {
                            "id": s.id,
                            "name": s.name,
                            "parent": s.parent,
                            "phase": s.phase,
                            "start": s.start,
                            "end": s.end,
                            **s.attrs,
                        },
                        default=str,
                    )
                    + "\n"
                )


def _traced_sync(tracer: Tracer, name: str, annotate=None, cpu: bool = False):
    def wrap(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.begin(name)
            token = _CURRENT.set(span.id)
            cpu0 = time.thread_time() if cpu else 0.0
            try:
                result = fn(*args, **kwargs)
            finally:
                _CURRENT.reset(token)
                if cpu:
                    span.attrs["cpu"] = time.thread_time() - cpu0
                tracer.end(span)
            if annotate is not None:
                annotate(span, args, result)
            return result

        return traced

    return wrap


def _traced_async(tracer: Tracer, name: str, annotate=None, offloop: bool = False):
    def wrap(fn: Callable) -> Callable:
        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            span = tracer.begin(name)
            token = _CURRENT.set(span.id)
            if offloop:
                tracer.offloop_parent = span.id
            try:
                result = await fn(*args, **kwargs)
            finally:
                _CURRENT.reset(token)
                tracer.end(span)
            if annotate is not None:
                annotate(span, args, result)
            return result

        return traced

    return wrap


def _ticket_epoch(span: Span, args, ticket) -> None:
    def resolved(fut) -> None:
        span.attrs["resolved"] = time.perf_counter()
        if not fut.cancelled() and fut.exception() is None:
            span.attrs["epoch"] = fut.result()

    ticket.add_done_callback(resolved)


def _step_epoch(span: Span, args, published) -> None:
    span.attrs["epoch"] = None if published is None else published.epoch


def _fit_stats(span: Span, args, result) -> None:
    span.attrs["iterations"] = result.iterations
    span.attrs["frontier"] = getattr(result, "frontier_size", None)


def _batch_size(span: Span, args, seq) -> None:
    span.attrs["writes"] = len(args[1])


def _frontier_size(span: Span, args, plan) -> None:
    span.attrs["frontier"] = None if plan is None else int(len(plan.frontier))


#: Layer -> the public calls wrapped in it: ``(span name, owner, attribute,
#: kind, annotate)``. ``owner`` is a dotted class or module path under
#: ``repro``; ``kind`` is ``sync``, ``sync_cpu`` (also records thread CPU
#: time), ``async`` or ``async_offloop`` (the span fits hang under).
TRACED = {
    "serving.service": [
        ("service.append_answer", "repro.serving.service.TruthService", "append_answer", "async", _ticket_epoch),
        ("service.append_claim", "repro.serving.service.TruthService", "append_claim", "async", _ticket_epoch),
        ("service.get_truth", "repro.serving.service.TruthService", "get_truth", "sync", None),
        ("service.get_truths", "repro.serving.service.TruthService", "get_truths", "sync", None),
        ("service.start", "repro.serving.service.TruthService", "start", "async", None),
    ],
    "serving.worker": [
        ("worker.step", "repro.serving.worker.EMWorker", "step", "async", _step_epoch),
        ("worker.fit_and_publish", "repro.serving.worker.EMWorker", "fit_and_publish", "async_offloop", None),
    ],
    "serving.journal": [
        ("journal.append_batch", "repro.serving.journal.WriteAheadJournal", "append_batch", "sync", _batch_size),
        ("journal.append_checkpoint", "repro.serving.journal.WriteAheadJournal", "append_checkpoint", "sync", None),
    ],
    "serving.snapshots": [
        ("snapshots.publish", "repro.serving.snapshots.SnapshotStore", "publish", "sync", None),
    ],
    "serving.recovery": [
        ("recovery.recover", "repro.serving.recovery", "recover", "async", None),
        ("recovery.rebuild_dataset", "repro.serving.recovery", "rebuild_dataset", "sync", None),
    ],
    "data.model": [
        ("model.add_record", "repro.data.model.TruthDiscoveryDataset", "add_record", "sync", None),
        ("model.add_answer", "repro.data.model.TruthDiscoveryDataset", "add_answer", "sync", None),
        ("model.columnar", "repro.data.model.TruthDiscoveryDataset", "columnar", "sync", None),
    ],
    "data.columnar": [
        ("columnar.extend", "repro.data.columnar.ColumnarAppender", "extend", "sync", None),
        ("columnar.incremental_frontier", "repro.data.columnar", "incremental_frontier", "sync", _frontier_size),
    ],
    "inference.tdh": [
        ("tdh.fit", "repro.inference.tdh.TDHModel", "fit", "sync_cpu", _fit_stats),
    ],
    "assignment.eai": [
        ("eai.assign", "repro.assignment.eai.EAIAssigner", "assign", "sync", None),
    ],
    "crowd": [
        ("crowd.answer", "repro.crowd.workers.SimulatedWorker", "answer", "sync", None),
    ],
    "eval": [
        ("eval.evaluate", "repro.eval.metrics", "evaluate", "sync", None),
    ],
}


def _resolve(owner: str):
    module_name, _, attr = owner.rpartition(".")
    module = sys.modules.get(owner)
    if module is not None:
        return module
    __import__(module_name)
    return getattr(sys.modules[module_name], attr)


class Instrumentation:
    """Installs the :data:`TRACED` wrappers; ``restore()`` removes them."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: List[Callable[[], None]] = []

    def install(self) -> "Instrumentation":
        for entries in TRACED.values():
            for name, owner, attr, kind, annotate in entries:
                if kind.startswith("async"):
                    wrap = _traced_async(
                        self.tracer, name, annotate, offloop=kind == "async_offloop"
                    )
                else:
                    wrap = _traced_sync(self.tracer, name, annotate, cpu=kind == "sync_cpu")
                target = _resolve(owner)
                if isinstance(target, type):
                    self._patch_method(target, attr, wrap)
                else:
                    self._patch_function(getattr(target, attr), wrap)
        return self

    def _patch_method(self, cls: type, attr: str, wrap) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(wrap(raw.__func__)))
        else:
            setattr(cls, attr, wrap(raw))
        self._undo.append(lambda: setattr(cls, attr, raw))

    def _patch_function(self, fn: Callable, wrap) -> None:
        # Callers bind module functions by name at import time, so every
        # ``repro`` module holding the function gets the wrapper.
        wrapped = wrap(fn)
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapped)
                    self._undo.append(
                        lambda module=module, key=key: setattr(module, key, fn)
                    )

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


def _mean(values: Iterable[float]) -> float:
    values = list(values)
    return float(np.mean(values)) if values else 0.0


def _median(values: Iterable[float]) -> float:
    values = list(values)
    return float(np.median(values)) if values else 0.0


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics derivable from the spans alone.

    Times are means per call over the measured window (means add up, so a
    caller's time splits exactly into its layers); ``recovery.*`` are means
    per recovery. A layer that did not run reports 0.
    """
    children = tracer.children()
    by_id = {s.id: s for s in tracer.spans}
    out: Dict[str, float] = {}

    reads = tracer.select("service.get_truth") + tracer.select("service.get_truths")
    out["service.read_call_us"] = _mean(s.duration for s in reads) * 1e6
    appends = tracer.select("service.append_answer") + tracer.select("service.append_claim")
    out["service.enqueue_wait_ms"] = _mean(s.duration for s in appends) * 1e3

    steps = [s for s in tracer.select("worker.step") if s.attrs.get("epoch") is not None]
    taken: Dict[int, float] = {}
    for step in steps:
        kids = children.get(step.id)
        if kids:
            taken[step.attrs["epoch"]] = min(k.start for k in kids)
    waits = [
        max(0.0, taken[s.attrs["epoch"]] - s.end)
        for s in appends
        if s.attrs.get("epoch") in taken
    ]
    out["worker.queue_wait_ms"] = _mean(waits) * 1e3
    batches = tracer.select("journal.append_batch")
    out["worker.batch_writes"] = _mean(s.attrs["writes"] for s in batches)

    fits = tracer.select("tdh.fit")
    worker_fits = [
        s for s in fits
        if s.parent in by_id and by_id[s.parent].name == "worker.fit_and_publish"
    ]
    wall = sum(s.duration for s in worker_fits)
    cpu = sum(s.attrs["cpu"] for s in worker_fits)
    out["worker.fit_wall_ms"] = _mean(s.duration for s in worker_fits) * 1e3
    out["worker.fit_cpu_ms"] = _mean(s.attrs["cpu"] for s in worker_fits) * 1e3
    out["worker.fit_wall_over_cpu"] = wall / cpu if cpu > 0 else 0.0

    out["journal.append_batch_ms"] = _mean(s.duration for s in batches) * 1e3
    out["journal.checkpoint_ms"] = (
        _mean(s.duration for s in tracer.select("journal.append_checkpoint")) * 1e3
    )
    out["snapshots.publish_us"] = (
        _mean(s.duration for s in tracer.select("snapshots.publish")) * 1e6
    )

    out["recovery.replay_s"] = _mean(
        s.duration for s in tracer.select("recovery.rebuild_dataset", phase="recover")
    )
    out["recovery.restart_fit_s"] = _mean(
        s.duration for s in tracer.select("tdh.fit", phase="recover")
    )

    applies = tracer.select("model.add_answer") + tracer.select("model.add_record")
    out["model.apply_us"] = _mean(s.duration for s in applies) * 1e6
    out["columnar.extend_ms"] = (
        _mean(s.duration for s in tracer.select("columnar.extend")) * 1e3
    )
    plans = tracer.select("columnar.incremental_frontier")
    out["columnar.frontier_plan_ms"] = _mean(s.duration for s in plans) * 1e3
    out["columnar.frontier_objects"] = _median(
        s.attrs["frontier"] for s in plans if s.attrs.get("frontier") is not None
    )
    out["columnar.incremental_frac"] = (
        sum(1 for s in fits if s.attrs.get("frontier") is not None) / len(fits)
        if fits
        else 0.0
    )
    out["tdh.fit_ms"] = _mean(tracer.self_time(s, children) for s in fits) * 1e3
    out["tdh.em_iterations"] = _mean(s.attrs["iterations"] for s in fits)
    out["eai.assign_ms"] = _mean(s.duration for s in tracer.select("eai.assign")) * 1e3
    out["crowd.answer_us"] = _mean(s.duration for s in tracer.select("crowd.answer")) * 1e6
    out["eval.evaluate_ms"] = (
        _mean(s.duration for s in tracer.select("eval.evaluate")) * 1e3
    )
    return out
