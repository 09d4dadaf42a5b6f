"""The measured half of one benchmark run (a fresh process per run).

``run.py`` generates the inputs and the references, then starts this
script, so that the program under test runs in a process of its own and
``peak_rss_mb`` covers it and its children only.  The timed loops call
the program's public functions; their outputs are checked against the
references between timed intervals, never inside one.

    python3 perfbench/measure.py --workload W --seed N --workdir DIR \
        --seconds S --trace 0|1 --out result.json
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import resource
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List

import inputs
from hostprobe import HostProbe
from ledger import (
    CONTAINERS,
    Ledger,
    NullTracer,
    Tracer,
    adopt_thread_ops,
    union_ns,
    unwrap,
    wrap,
)

pc = time.perf_counter_ns

#: sweep fan-out and connection count, sized for a two-core machine
JOBS = 2
CONNECTIONS = 2
#: merges timed per sweep (close_ms_p50 of matrix-fig3)
MERGE_REPEATS = 20
#: passes of the in-process SessionHost replay (shard.* metrics)
SHARD_REPLAYS = 3


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def load_reference(args):
    # written by run.py in this run, so unpickling it is safe
    with open(Path(args.workdir) / f"reference-{args.workload}.pkl", "rb") as fh:
        return pickle.load(fh)


def per_pass(values: Dict[str, float], passes: float) -> Dict[str, float]:
    return {name: value / passes for name, value in values.items()}


def layer_metrics(ledger: Ledger, passes: float) -> Dict[str, float]:
    return {
        f"layer.{layer}.self_ms": ms / passes
        for layer, ms in ledger.layer_self_ms().items()
    }


# -- matrix-fig3 -----------------------------------------------------------------


def trace_matrix(tracer: Tracer, workdir: Path, undo: list) -> None:
    """Record trial internals inside the forked sweep workers."""
    from repro.analysis import parallel, supervisor

    run_trial = supervisor.run_trial_task
    worker_main = supervisor._worker_main

    def traced_trial(task):
        op = (f"{tracer.fork_op}|{task.workload}|{task.detector}|"
              f"{task.rate}|{task.seed}")
        tracer.set_op(op)
        with tracer.span("trial", op=op):
            return run_trial(task)

    def traced_worker(conn, plan):
        parent, op = tracer.fork_parent, tracer.fork_op
        tracer.reset()
        tracer.fork_parent, tracer.fork_op = parent, op
        try:
            worker_main(conn, plan)
        finally:
            tracer.dump(workdir / f"spans-{os.getpid()}.json")

    class TracedRuntime(parallel.Runtime):
        """Times ``Runtime.run``, its GCs, and every ``Detector.apply``."""

        def __init__(self, program, detector, *args, **kwargs):
            applies = self._applies = [0, 0]
            self._gcs = [0, 0]
            apply = detector.apply

            def timed_apply(event):
                start = pc()
                apply(event)
                applies[0] += pc() - start
                applies[1] += 1

            detector.apply = timed_apply
            super().__init__(program, detector, *args, **kwargs)

        def _gc(self):
            before = self._applies[0]
            start = pc()
            super()._gc()
            self._gcs[0] += pc() - start - (self._applies[0] - before)
            self._gcs[1] += 1

        def run(self):
            with tracer.span("runtime.run") as sid:
                try:
                    return super().run()
                finally:
                    tracer.aggregate(sid, "core.apply", *self._applies)
                    tracer.aggregate(sid, "runtime.gc", *self._gcs)

    for owner, attr, value in (
        (supervisor, "run_trial_task", traced_trial),
        (supervisor, "_worker_main", traced_worker),
        (parallel, "Runtime", TracedRuntime),
    ):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)
    wrap(tracer, parallel, "build_program", "sim.build", undo)


def matrix_fig3(args, tracer) -> Dict:
    from repro.analysis.parallel import matrix_coverage, matrix_report, run_matrix

    workdir = Path(args.workdir)
    tasks = inputs.matrix_tasks(args.seed)
    ref = load_reference(args)
    undo: list = []
    if tracer.enabled:
        trace_matrix(tracer, workdir, undo)
    ops: Dict[str, tuple] = {}
    trial_ms: List[float] = []
    merge_ms: List[float] = []
    events = failed = 0
    counts = {"runtime.gc_count": 0, "runtime.sampling_periods": 0,
              "core.footprint_words": 0}
    budget = args.seconds * 1e9
    measured = 0
    while measured < budget:
        op = f"sweep{len(ops)}"
        start = pc()
        with tracer.span("sweep", op=op) as sid:
            tracer.fork_parent, tracer.fork_op = sid, op
            results = run_matrix(tasks, jobs=JOBS)
            tracer.fork_parent = tracer.fork_op = None
        merge_start = pc()
        with tracer.span("merge", op=op):
            report = matrix_report(tasks, results)
            coverage = matrix_coverage(tasks, results)
        end = pc()
        ops[op] = (start, end)
        measured += end - start
        merge_ms.append((end - merge_start) / 1e6)
        # a sweep has one merge; time a few more, outside the measured
        # interval, so that close_ms_p50 is a median of enough samples
        for _ in range(MERGE_REPEATS - 1):
            again = pc()
            matrix_report(tasks, results)
            matrix_coverage(tasks, results)
            merge_ms.append((pc() - again) / 1e6)
        # checks: every trial equals the jobs=1 reference, and the merged
        # documents are byte-identical to it
        same_docs = (json.dumps(report, sort_keys=True) == ref["report"]
                     and json.dumps(coverage, sort_keys=True) == ref["coverage"])
        for got, want in zip(results, ref["results"]):
            if not same_docs or got != want:
                failed += 1
        failed += abs(len(tasks) - len(results))
        for stats in results:
            events += stats.events
            trial_ms.append(stats.perf.elapsed_ns / 1e6)
            counts["runtime.gc_count"] += stats.metrics["gc_count"]
            counts["runtime.sampling_periods"] += stats.metrics["sampling_periods"]
            counts["core.footprint_words"] += stats.metrics["footprint_words_final"]
        del results, report, coverage
        gc.collect()
    unwrap(undo)
    sweeps = len(ops)
    out = {
        "ops": sweeps * len(tasks),
        "failed": failed,
        "events": events,
        "wall_s": measured / 1e9,
        "op_ms": trial_ms,
        "close_ms": merge_ms,
        "passes": sweeps,
        "counts": per_pass(counts, sweeps),
    }
    if tracer.enabled:
        tracer.load(sorted(workdir.glob("spans-*.json")))
        out["layers"] = matrix_layers(Ledger(tracer), ops, measured)
    return out


def matrix_layers(ledger: Ledger, ops: Dict, measured_ns: int) -> Dict:
    sweeps = len(ops)
    trials = ledger.named("trial")
    by_sweep: Dict[str, list] = {}
    for span in trials:
        by_sweep.setdefault(span[1], []).append((span[3], span[4]))
    dispatch = sum(
        s[4] - s[3] - union_ns(by_sweep.get(s[0], ()), s[3], s[4])
        for s in ledger.named("sweep")
    )
    streams = {(op.split("|")[0], op.split("|")[1], op.split("|")[4])
               for op in (s[5] for s in trials)}
    # the sim share of a PACER trial: building the program plus running
    # it, less the detector (core.apply) and GC/sampling (runtime.gc)
    pacer = {s[5] for s in trials if s[5].split("|")[2] == "pacer"}
    pacer_trial = sum(s[4] - s[3] for s in trials if s[5] in pacer)
    pacer_sim = sum(
        s[4] - s[3] - ledger.child_ns.get(s[0], 0)
        for s in ledger.spans
        if s[5] in pacer and s[2] in ("sim.build", "runtime.run")
    )
    unattributed = ledger.unattributed_ms(ops)
    metrics = {
        "sim.build_ms": ledger.total_ms("sim.build") / sweeps,
        "sim.run_self_ms": ledger.self_ms("runtime.run") / sweeps,
        "sim.streams": len(trials) / sweeps,
        "sim.distinct_streams": len(streams) / sweeps,
        "runtime.gc_ms": ledger.agg_ms("runtime.gc") / sweeps,
        "core.apply_ms": ledger.agg_ms("core.apply") / sweeps,
        "core.apply_calls": ledger.agg_calls("core.apply") / sweeps,
        "analysis.merge_ms": ledger.total_ms("merge") / sweeps,
        "analysis.dispatch_ms": dispatch / 1e6 / sweeps,
        "share.sim_of_pacer_trial": 100.0 * pacer_sim / pacer_trial,
        "unattributed_ms": unattributed / sweeps,
        "unattributed_pct": 100.0 * unattributed * 1e6 / measured_ns,
    }
    metrics.update(layer_metrics(ledger, sweeps))
    return metrics


# -- analyze-replay --------------------------------------------------------------


def analyze_replay(args, tracer) -> Dict:
    from repro.obs.quality import build_coverage
    from repro.trace.binio import load_trace_columns

    workdir = Path(args.workdir)
    factories = inputs.detector_factories()
    ref = load_reference(args)
    files = [(workdir / name, name, det) for name, det in inputs.TRACE_JOBS]
    ops: Dict[str, tuple] = {}
    op_ms: List[float] = []
    close_ms: List[float] = []
    events = failed = 0
    counts = {"trace.bytes": 0, "core.batches": 0, "core.footprint_words": 0}
    budget = args.seconds * 1e9
    measured = 0
    passes = 0
    while measured < budget:
        pass_op = pass_close = 0
        for path, name, det in files:
            op = f"pass{passes}|{name}"
            tracer.set_op(op)
            start = pc()
            with tracer.span("core.init"):
                detector = factories[det]()
            with tracer.span("trace.decode"):
                columns = load_trace_columns(path)
            close = pc()
            with tracer.span("core.run_batch"):
                detector.run_batch(columns)
            with tracer.span("obs.coverage"):
                build_coverage(
                    source="analyze",
                    detector=detector.name,
                    counters=detector.counters.snapshot(),
                    races=detector.races,
                    events=detector.perf.events,
                )
            end = pc()
            ops[op] = (start, end)
            measured += end - start
            pass_op += end - start
            pass_close += end - close
            events += detector.perf.events
            if detector.races != ref[name]:
                failed += 1
            counts["trace.bytes"] += path.stat().st_size
            counts["core.batches"] += detector.perf.batches
            counts["core.footprint_words"] += detector.footprint_words()
        passes += 1
        # the eight files differ in cost, so a per-file median would sit
        # in the gap between two files; latency is averaged over a pass
        op_ms.append(pass_op / len(files) / 1e6)
        close_ms.append(pass_close / len(files) / 1e6)
        # detectors hold reference cycles; collect them between passes, as
        # separate `repro analyze` processes would, so that no full
        # collection lands inside a timed op and peak RSS does not depend
        # on when the interpreter last ran one
        gc.collect()
    out = {
        "ops": len(ops),
        "failed": failed,
        "events": events,
        "wall_s": measured / 1e9,
        "op_ms": op_ms,
        "close_ms": close_ms,
        "passes": passes,
        "counts": per_pass(counts, passes),
    }
    if tracer.enabled:
        ledger = Ledger(tracer)
        unattributed = ledger.unattributed_ms(ops)
        metrics = {
            "trace.decode_ms": ledger.total_ms("trace.decode") / passes,
            "core.run_batch_ms": ledger.total_ms("core.run_batch") / passes,
            "obs.coverage_ms": ledger.total_ms("obs.coverage") / passes,
            "unattributed_ms": unattributed / passes,
            "unattributed_pct": 100.0 * unattributed * 1e6 / measured,
        }
        metrics.update(layer_metrics(ledger, passes))
        out["layers"] = metrics
    return out


# -- stream-sessions -------------------------------------------------------------


def load_traces(workdir: Path) -> Dict[str, list]:
    from repro.trace.binio import loads_binary

    return {
        name: list(loads_binary((workdir / name).read_bytes()).events)
        for name, _ in inputs.TRACE_JOBS
    }


def trace_stream(tracer: Tracer, undo: list, spool_bytes: list) -> None:
    from repro.net import client, server
    from repro.net.shard import ShardPool

    for module in (client, server):
        wrap(tracer, module, "encode_message", "net.encode", undo)
        wrap(tracer, module, "decode_message", "net.decode", undo)
    wrap(tracer, ShardPool, "open_session", "net.open", undo, op_arg=1,
         tag_thread=True)
    wrap(tracer, ShardPool, "apply", "net.shard_rt", undo, op_arg=1,
         tag_thread=True)
    wrap(tracer, ShardPool, "finalize", "net.finalize", undo, op_arg=1,
         tag_thread=True)
    dumps = server.dumps_binary

    def spool_encode(events):
        with tracer.span("net.spool"):
            payload = dumps(events)
        spool_bytes[0] += len(payload)
        return payload

    undo.append((server, "dumps_binary", dumps))
    server.dumps_binary = spool_encode


def shard_replay(traces: Dict[str, list]) -> Dict[str, float]:
    """Drive a SessionHost in-process with the chunks one pass streams."""
    from repro.net.client import DEFAULT_CHUNK_SIZE
    from repro.net.shard import SessionHost

    apply_ms, finalize_ms = [], []
    for rep in range(SHARD_REPLAYS):
        applied = finalized = 0
        for name, det in inputs.TRACE_JOBS:
            events = traces[name]
            host = SessionHost(f"replay{rep}-{name}", det)
            start = pc()
            for pos in range(0, len(events), DEFAULT_CHUNK_SIZE):
                host.apply(events[pos:pos + DEFAULT_CHUNK_SIZE])
            mid = pc()
            host.finalize_doc()
            applied += mid - start
            finalized += pc() - mid
        apply_ms.append(applied / 1e6)
        finalize_ms.append(finalized / 1e6)
    return {"shard.apply_ms": statistics.median(apply_ms),
            "shard.finalize_ms": statistics.median(finalize_ms)}


def stream_sessions(args, tracer) -> Dict:
    from repro.net.resilient import ResilientClient
    from repro.net.server import TelemetryServer

    workdir = Path(args.workdir)
    ref = load_reference(args)
    traces = load_traces(workdir)
    undo: list = []
    spool_bytes = [0]
    if tracer.enabled:
        trace_stream(tracer, undo, spool_bytes)
    lock = threading.Lock()
    sessions: List[tuple] = []
    errors: List[str] = []
    jobs = inputs.TRACE_JOBS
    server = TelemetryServer(inputs.server_config(workdir / "spool-run"))
    server.start()

    def connection(c: int, deadline: int) -> None:
        i = 0
        while pc() < deadline:
            # each connection alternates fasttrack and pacer sessions; the
            # two connections start half a pass apart
            name, det = jobs[(i + c * len(jobs) // 2) % len(jobs)]
            session = f"c{c}-s{i}"
            i += 1
            tracer.set_op(session)
            try:
                start = pc()
                client = ResilientClient(server.address, session, detector=det)
                with tracer.span("net.connect"):
                    client.connect()
                with tracer.span("net.send_events"):
                    client.send_events(traces[name])
                close = pc()
                with tracer.span("net.close"):
                    summary = client.close()
                end = pc()
            except Exception as exc:  # a failed session is a failed op
                with lock:
                    errors.append(f"{session}: {type(exc).__name__}: {exc}")
                continue
            got = {key: summary.get(key) for key in ref[name]}
            with lock:
                sessions.append((session, start, close, end, got == ref[name],
                                 summary.get("events", 0),
                                 client.credit_waits, client.retry_count))

    try:
        start = pc()
        deadline = start + int(args.seconds * 1e9)
        threads = [threading.Thread(target=connection, args=(c, deadline))
                   for c in range(CONNECTIONS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = pc() - start
    finally:
        unwrap(undo)
        server.stop()
    for line in errors:
        print(f"stream-sessions: {line}", file=sys.stderr)
    ops = len(sessions) + len(errors)
    passes = ops / len(jobs)
    out = {
        "ops": ops,
        "failed": len(errors) + sum(1 for s in sessions if not s[4]),
        "events": sum(s[5] for s in sessions),
        "wall_s": wall / 1e9,
        "op_ms": [(s[3] - s[1]) / 1e6 for s in sessions],
        "close_ms": [(s[3] - s[2]) / 1e6 for s in sessions],
        "passes": passes,
        "counts": per_pass({"net.credit_waits": sum(s[6] for s in sessions),
                            "net.retries": sum(s[7] for s in sessions)}, passes),
    }
    if tracer.enabled:
        adopt_thread_ops(tracer)
        ledger = Ledger(tracer)
        measured = {s[0]: (s[1], s[3]) for s in sessions}
        unattributed = ledger.unattributed_ms(measured, skip=CONTAINERS)
        metrics = {
            "net.encode_ms": ledger.total_ms("net.encode") / passes,
            "net.decode_ms": ledger.total_ms("net.decode") / passes,
            "net.spool_ms": ledger.total_ms("net.spool") / passes,
            "net.spool_bytes": spool_bytes[0] / passes,
            "net.shard_rt_ms": ledger.total_ms("net.shard_rt") / passes,
            "net.finalize_ms": ledger.total_ms("net.finalize") / passes,
            "unattributed_ms": unattributed / passes,
            "unattributed_pct": 100.0 * unattributed * 1e6
            / sum(s[3] - s[1] for s in sessions),
        }
        metrics.update(layer_metrics(ledger, passes))
        metrics.update(shard_replay(traces))
        out["layers"] = metrics
    return out


WORKLOADS = {
    "matrix-fig3": matrix_fig3,
    "analyze-replay": analyze_replay,
    "stream-sessions": stream_sessions,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    inputs.require_source()
    tracer = Tracer() if args.trace else NullTracer()
    # the host scale of this run's timings (see hostprobe.py)
    with HostProbe() as probe:
        result = WORKLOADS[args.workload](args, tracer)
    result["host_scale"] = probe.scale()
    result["peak_rss_mb"] = peak_rss_mb()
    if tracer.enabled:
        tracer.dump(Path(args.out).with_suffix(".spans.json"))
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
