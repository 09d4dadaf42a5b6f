"""Span recording for the traced run, and the per-layer ledger built from it.

Spans are kept in memory and written out once, at the end of a run (or,
for forked sweep workers, when the worker exits).  A span records its
name, start and end (``perf_counter_ns``, which is CLOCK_MONOTONIC and so
comparable across processes), its parent span, the op it belongs to (a
trial, file analysis or session) and the thread that recorded it.
Calls too frequent for one span each (``Detector.apply`` runs once per
event) are recorded as aggregates: one total and call count per parent.

A layer's self time is a span's duration minus what its child spans and
aggregates cover.  Unattributed time is the part of an op's measured
interval that no span of that op covers.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: span name -> layer (the repo's modules); aggregates use the same map
LAYER_OF = {
    "sweep": "analysis",
    "trial": "analysis",
    "merge": "analysis",
    "sim.build": "sim",
    "runtime.run": "sim",
    "runtime.gc": "runtime",
    "core.apply": "core",
    "core.init": "core",
    "core.run_batch": "core",
    "trace.decode": "trace",
    "obs.coverage": "obs",
    "net.connect": "net",
    "net.send_events": "net",
    "net.close": "net",
    "net.encode": "net",
    "net.decode": "net",
    "net.spool": "net",
    "net.shard_rt": "net",
    "net.finalize": "net",
    "net.open": "net",
}
LAYERS = ("sim", "runtime", "core", "trace", "obs", "analysis", "net")

#: client calls that only contain other work: in ``stream-sessions`` they
#: count towards net self time but not towards attributed time, so the
#: unattributed share shows what no timed layer function explains
CONTAINERS = {"net.connect", "net.send_events", "net.close"}

_NULL = nullcontext()


class NullTracer:
    """The untraced run: spans cost one call and record nothing."""

    enabled = False
    fork_parent = fork_op = None

    def span(self, name: str, op=None):
        return _NULL

    def set_op(self, op) -> None:
        pass


class Tracer:
    """In-memory span store shared by every thread of one process."""

    enabled = True

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._threads = itertools.count(1)
        self.reset()

    def reset(self) -> None:
        """Forget everything (a forked worker starts from an empty store)."""
        self.pid = os.getpid()
        self.spans: List[Tuple] = []
        self.aggs: List[Tuple] = []
        self._local = threading.local()
        #: parent span id and op handed across a fork (the open sweep)
        self.fork_parent: Optional[str] = None
        self.fork_op = None

    def _thread(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.key = f"{self.pid}.{next(self._threads)}"
            local.op = None
        return local

    def set_op(self, op) -> None:
        self._thread().op = op

    @contextmanager
    def span(self, name: str, op=None):
        local = self._thread()
        sid = f"{self.pid}.{next(self._ids)}"
        parent = local.stack[-1] if local.stack else self.fork_parent
        if op is None:
            op = local.op
        local.stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield sid
        finally:
            end = time.perf_counter_ns()
            local.stack.pop()
            self.spans.append((sid, parent, name, start, end, op, local.key))

    def aggregate(self, parent: Optional[str], name: str, total_ns: int,
                  calls: int) -> None:
        self.aggs.append((parent, name, total_ns, calls, self._thread().op))

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans, "aggs": self.aggs}))

    def load(self, paths: Iterable[Path]) -> None:
        for path in paths:
            doc = json.loads(path.read_text())
            self.spans.extend(tuple(s) for s in doc["spans"])
            self.aggs.extend(tuple(a) for a in doc["aggs"])


def union_ns(intervals: Sequence[Tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    covered = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered


class Ledger:
    """Per-layer numbers computed from one traced run's spans."""

    def __init__(self, tracer: Tracer) -> None:
        self.spans = tracer.spans
        self.aggs = tracer.aggs
        children: Dict[str, list] = {}
        for sid, parent, name, start, end, op, key in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        agg_ns: Dict[str, int] = {}
        for parent, name, total, calls, op in self.aggs:
            agg_ns[parent] = agg_ns.get(parent, 0) + total
        #: span id -> time its children cover; children running in
        #: parallel (sweep workers) count once, as a union
        self.child_ns = {
            sid: union_ns(children.get(sid, ()), start, end) + agg_ns.get(sid, 0)
            for sid, parent, name, start, end, op, key in self.spans
        }

    def named(self, name: str) -> List[Tuple]:
        return [s for s in self.spans if s[2] == name]

    def total_ms(self, name: str) -> float:
        return sum(s[4] - s[3] for s in self.named(name)) / 1e6

    def agg_ms(self, name: str) -> float:
        return sum(a[2] for a in self.aggs if a[1] == name) / 1e6

    def agg_calls(self, name: str) -> int:
        return sum(a[3] for a in self.aggs if a[1] == name)

    def self_ms(self, name: str) -> float:
        return sum(
            s[4] - s[3] - self.child_ns.get(s[0], 0) for s in self.named(name)
        ) / 1e6

    def layer_self_ms(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for sid, parent, name, start, end, op, key in self.spans:
            out[LAYER_OF[name]] += (end - start - self.child_ns.get(sid, 0)) / 1e6
        for parent, name, total, calls, op in self.aggs:
            out[LAYER_OF[name]] += total / 1e6
        return out

    def unattributed_ms(self, ops: Dict, skip: Iterable[str] = ()) -> float:
        """Measured op time no span of that op covers.

        ``ops`` maps an op id to its measured ``(start, end)`` interval;
        spans named in ``skip`` do not count as cover.
        """
        skip = set(skip)
        by_op: Dict = {}
        for sid, parent, name, start, end, op, key in self.spans:
            if name not in skip:
                by_op.setdefault(op, []).append((start, end))
        missing = 0
        for op, (lo, hi) in ops.items():
            missing += hi - lo - union_ns(by_op.get(op, ()), lo, hi)
        return missing / 1e6


def adopt_thread_ops(tracer: Tracer) -> None:
    """Give a thread's op-less spans the op its other spans carry.

    A server connection thread serves exactly one session, but it decodes
    the HELLO before the session is known.
    """
    op_of_thread: Dict[str, object] = {}
    for span in tracer.spans:
        if span[5] is not None:
            op_of_thread.setdefault(span[6], span[5])
    tracer.spans = [
        s if s[5] is not None else s[:5] + (op_of_thread.get(s[6]),) + s[6:]
        for s in tracer.spans
    ]


def wrap(tracer: Tracer, owner, attr: str, name: str, undo: list,
         op_arg: Optional[int] = None, tag_thread: bool = False) -> None:
    """Replace ``owner.attr`` with a version that records a span.

    ``op_arg`` names the positional argument holding the op id (the
    session name of a shard call); with ``tag_thread`` that op also
    becomes the calling thread's op for spans recorded after it.
    """
    orig = getattr(owner, attr)

    def traced(*args, **kwargs):
        op = args[op_arg] if op_arg is not None else None
        if tag_thread and op is not None:
            tracer.set_op(op)
        with tracer.span(name, op=op):
            return orig(*args, **kwargs)

    undo.append((owner, attr, orig))
    setattr(owner, attr, traced)


def unwrap(undo: list) -> None:
    while undo:
        owner, attr, orig = undo.pop()
        setattr(owner, attr, orig)
