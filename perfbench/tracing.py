"""Spans for the traced run, recorded by the benchmark around layer calls.

The end-to-end run uses :class:`NullHooks`, which hands every layer
object through unchanged.  The traced run uses :class:`Recorder`: it
wraps the mapper passed to ``SystemScheduler``, ``evaluate_task`` as the
scheduler module sees it, the sweep evaluator and the ``ResultStore``,
keeps the spans in memory and writes them out when the run ends.  Counts
and timings the program already publishes (``PacketSim.phase_timings``,
``REGISTRY`` counters, ``StoreStats``) are read, not re-measured.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from functools import partial
from pathlib import Path
from typing import Dict, Iterator, List, Optional

import repro.core.scheduler as _scheduler
from repro.eval import ResultStore, evaluate_comm_case

#: The recorder of the traced round in progress.  The sweep evaluator
#: must be a module-level function without closure cells (the store
#: rejects anything else as a cache-key identity), so it finds its
#: recorder here instead of capturing it.
_ACTIVE: Optional["Recorder"] = None


def traced_comm_case(case):
    """``evaluate_comm_case`` inside a ``net.vectorized.comm`` span."""
    with _ACTIVE.span("net.vectorized.comm"):
        return evaluate_comm_case(case)


class NullHooks:
    """Layer objects passed through unchanged: the end-to-end run."""

    profile = False
    store_cls = ResultStore
    evaluator = staticmethod(evaluate_comm_case)

    def span(self, name: str):
        return nullcontext()

    def mapper(self, mapper):
        return mapper

    def installed(self):
        return nullcontext()


class _TracedMapper:
    def __init__(self, mapper, recorder: "Recorder") -> None:
        self._mapper = mapper
        self._recorder = recorder

    def map_task(self, task_id, model, plan, free):
        with self._recorder.span("core.mapping.map_task"):
            placement = self._mapper.map_task(task_id, model, plan, free)
        self._recorder.count("core.mapping.calls")
        if placement is None:
            self._recorder.count("core.mapping.rejects")
        return placement


class TracedStore(ResultStore):
    """A ``ResultStore`` whose reads and writes run inside spans."""

    def __init__(self, root, *, recorder: "Recorder") -> None:
        super().__init__(root)
        self._recorder = recorder

    def probe(self, key):
        with self._recorder.span("eval.store.get"):
            return super().probe(key)

    def get(self, key, case):
        with self._recorder.span("eval.store.get"):
            return super().get(key, case)

    def put(self, key, result):
        with self._recorder.span("eval.store.put"):
            return super().put(key, result)


class Recorder(NullHooks):
    """In-memory spans: ``[name, start, end, parent index, item key]``."""

    profile = True
    evaluator = staticmethod(traced_comm_case)

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        #: scaled / raw seconds of each traced item, by item key.
        self.factors: Dict[object, float] = {}
        self.item_key: object = None
        self._stack: List[int] = []
        self.store_cls = partial(TracedStore, recorder=self)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = [name, time.perf_counter(), 0.0,
                  self._stack[-1] if self._stack else -1, self.item_key]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def mapper(self, mapper):
        return _TracedMapper(mapper, self)

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Route the scheduler's ``evaluate_task`` and the sweep
        evaluator through this recorder for one traced round."""
        global _ACTIVE
        original = _scheduler.evaluate_task

        def evaluate_task(*args, **kwargs):
            with self.span("net.perf.evaluate_task"):
                return original(*args, **kwargs)

        _scheduler.evaluate_task = evaluate_task
        _ACTIVE = self
        try:
            yield
        finally:
            _scheduler.evaluate_task = original
            _ACTIVE = None

    def run_item(self, key, fn):
        """Run one traced item under an ``item`` root span."""
        self.item_key = key
        try:
            with self.span("item"):
                return fn()
        finally:
            self.item_key = None

    def layer_seconds(self) -> Dict[str, Dict[str, float]]:
        """Scaled total and self seconds per span name.

        Self time is a span's duration minus its children's.  Spans
        outside items (set-up) are scaled by the factor stored under the
        key they were recorded with.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _key in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"total": 0.0, "self": 0.0}
        )
        for i, (name, start, end, _parent, key) in enumerate(self.spans):
            factor = self.factors.get(key, 1.0)
            out[name]["total"] += (end - start) * factor
            out[name]["self"] += (end - start - child[i]) * factor
        return out

    def write(self, path: Path) -> None:
        """Write the spans out as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, key) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start,
                    "dur_s": end - start, "parent": parent,
                    "item": None if key is None else str(key),
                }) + "\n")
