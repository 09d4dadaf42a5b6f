"""Core-operation complexity: the O(1) vs O(n) claims, measured.

The paper's complexity arguments (§2-3) reduce to a few primitive costs:

* epoch comparison (`c@t ⪯ C`) and version-epoch checks are O(1) in the
  thread count;
* vector-clock joins, deep copies, and read-map checks in shared mode
  are O(n);
* PACER's non-sampling access fast path is O(1) and tiny.

This bench times the primitives directly at several thread counts and
asserts the scaling split: O(n) operations grow with n, O(1) operations
do not (within generous noise bounds).

A second section measures the batched event dispatch (``run_batch``)
against scalar ``run`` on recorded traces.  Running this file directly
with ``--smoke`` executes a fast version of just that comparison and
exits non-zero if batched dispatch is ever slower than scalar — the CI
throughput gate.
"""

import sys
import time

import pytest

from _common import marked_trace, print_banner
from repro.analysis import render_table
from repro.bench import (
    BATCH_CONFIGS,
    PACKED_SPEEDUP_TARGET,
    _best_rate,
    backend_comparison,
    emit_json as _emit_json,
    interleaved_speedup,
)
from repro.core.backend import BACKENDS
from repro.core.clocks import Epoch, VectorClock, epoch_leq_vc
from repro.core.pacer import PacerDetector
from repro.detectors import FastTrackDetector
from repro.obs import RunObserver
from repro.obs.provenance import FlightRecorder
from repro.trace.batch import encode_batch

THREAD_COUNTS = [8, 64, 512]
REPS = 20_000


def _time_op(fn, reps=REPS):
    start = time.perf_counter()
    for _ in range(reps):
        fn()
    return (time.perf_counter() - start) / reps


def _clock(n):
    return VectorClock(list(range(1, n + 1)))


def measure(n):
    a, b = _clock(n), _clock(n)
    epoch = Epoch(n // 2, n // 2)
    out = {}
    out["epoch_leq (O(1))"] = _time_op(lambda: epoch_leq_vc(epoch, a))
    out["vc_leq (O(n))"] = _time_op(lambda: a.leq(b), reps=REPS // 4)
    out["vc_join (O(n))"] = _time_op(lambda: a.join(b), reps=REPS // 4)
    out["vc_copy (O(n))"] = _time_op(lambda: a.copy(), reps=REPS // 4)

    pacer = PacerDetector(sampling=False)
    for tid in range(n):
        pacer._thread_meta(tid)
    out["pacer fast path (O(1))"] = _time_op(lambda: pacer.read(0, 12345))
    return out


@pytest.mark.benchmark(group="core-ops")
def test_core_operation_scaling(benchmark):
    data = benchmark.pedantic(
        lambda: {n: measure(n) for n in THREAD_COUNTS}, rounds=1, iterations=1
    )
    print_banner("Core operation costs vs thread count (ns/op)")
    ops = list(data[THREAD_COUNTS[0]])
    rows = [
        [op] + [f"{data[n][op] * 1e9:.0f}" for n in THREAD_COUNTS] for op in ops
    ]
    print(render_table(["operation"] + [f"n={n}" for n in THREAD_COUNTS], rows))

    small, large = THREAD_COUNTS[0], THREAD_COUNTS[-1]
    for op in ops:
        growth = data[large][op] / data[small][op]
        if "O(n)" in op:
            # element-count-dependent: measurably grows over 64x threads
            # (constants dominate C-level copies, so the bar is modest)
            assert growth > 3.0, (op, growth)
        else:
            # constant-time: essentially flat over 64x threads
            assert growth < 3.0, (op, growth)


# -- batched event dispatch vs scalar -----------------------------------------
#
# BATCH_CONFIGS and the backend machinery live in repro.bench (shared
# with the ``repro bench`` CLI command); this module keeps the pytest
# wrappers and the CI gate entry points.


def batched_speedups(size=0.7, repeats=3, backend=None):
    """[(label, n_events, encode ns/ev, scalar ev/s, batched ev/s, speedup), ...]

    Each engine is timed on its native input: scalar ``run`` over the
    :class:`Event` list, batched ``run_batch`` over the pre-built
    columnar :class:`EventBatch`.  Encoding is a one-time trace-loading
    cost (like parsing events from a file), reported in its own column.
    ``backend`` picks the state representation (None = session default).
    """
    rows = []
    for label, factory, build in BATCH_CONFIGS:
        events = build(size)
        start = time.perf_counter_ns()
        encoded = encode_batch(events)
        encode_ns = (time.perf_counter_ns() - start) / max(1, len(events))

        def scalar():
            det = factory(backend=backend)
            det.run(events)
            return det.perf.events_per_sec

        def batched():
            det = factory(backend=backend)
            det.run_batch(encoded)
            return det.perf.events_per_sec

        s = _best_rate(scalar, repeats)
        b = _best_rate(batched, repeats)
        rows.append((label, len(events), encode_ns, s, b, b / s))
    return rows


def _print_speedups(rows):
    print(render_table(
        ["detector", "events", "encode ns/ev", "scalar ev/s",
         "batched ev/s", "speedup"],
        [[label, n, f"{e:.0f}", f"{s:,.0f}", f"{b:,.0f}", f"{sp:.2f}x"]
         for label, n, e, s, b, sp in rows],
    ))


@pytest.mark.benchmark(group="batched-dispatch")
def test_batched_dispatch_throughput(benchmark):
    rows = benchmark.pedantic(batched_speedups, rounds=1, iterations=1)
    print_banner("Batched dispatch vs scalar (replay throughput)")
    _print_speedups(rows)
    # the full-size runs show ~2x; the hard gate here is direction only
    # (single-core CI boxes are too noisy for a sharp ratio assert)
    for row in rows:
        label, speedup = row[0], row[-1]
        assert speedup > 1.0, (label, speedup)


def smoke() -> int:
    """Fast CI gate: batched dispatch must not be slower than scalar."""
    rows = batched_speedups(size=0.3, repeats=2)
    print_banner("Batched dispatch smoke gate")
    _print_speedups(rows)
    slower = [row[0] for row in rows if row[-1] <= 1.0]
    if slower:
        print(f"FAIL: batched dispatch slower than scalar for {slower}")
        return 1
    print("OK: batched dispatch >= scalar for every detector")
    return 0


# -- state-backend comparison ---------------------------------------------------
#
# PACKED_SPEEDUP_TARGET and ``backend_comparison`` are imported from
# repro.bench; the sharp ratio is measured locally into BENCH_core.json
# (interleaved methodology), CI re-runs direction-only (see state_gate).

#: workload for the memory gate (the paper's largest space case)
MEMORY_GATE_WORKLOAD = "eclipse"


def _print_backends(rows):
    print(render_table(
        ["detector", "backend", "events", "scalar ev/s", "batched ev/s",
         "footprint words"],
        [[label, backend, n, f"{s:,.0f}", f"{b:,.0f}", f"{fp:,}"]
         for label, backend, n, s, b, fp in rows],
    ))


def emit_json(path, size=0.7, repeats=3) -> int:
    """Write BENCH_core.json (see :func:`repro.bench.emit_json`)."""
    print_banner("State backends: batched replay throughput")
    return _emit_json(path, size=size, repeats=repeats)


def state_gate() -> int:
    """CI gate for the packed backend: space parity and direction.

    * memory: packed's footprint may not exceed the object backend's on
      the eclipse workload (identical by construction; the gate pins it);
    * throughput: packed batched replay must beat object batched replay
      on the layout-bound fasttrack config, measured interleaved
      (direction only — CI boxes are too noisy for the sharp 1.5x
      target, which BENCH_core.json documents from a quiet machine).
    """
    events = marked_trace(MEMORY_GATE_WORKLOAD, 0.10, size=0.5)
    encoded = encode_batch(events)
    print_banner("Packed-backend state gate (eclipse footprint + direction)")
    failures = []
    for label, factory in (
        ("fasttrack", FastTrackDetector),
        ("pacer r=10%", PacerDetector),
    ):
        footprints = {}
        for backend in BACKENDS:
            det = factory(backend=backend)
            det.run_batch(encoded)
            footprints[backend] = det.footprint_words()
        print(f"{label}: " + ", ".join(
            f"{b}={footprints[b]:,} words" for b in BACKENDS))
        if footprints["packed"] > footprints["object"]:
            failures.append(f"{label} packed footprint")
    speedup, _ = interleaved_speedup("packed", size=0.5, rounds=3)
    print(f"packed vs object batched replay (fasttrack, interleaved): "
          f"{speedup:.2f}x")
    if speedup <= 1.0:
        failures.append("fasttrack packed batched throughput")
    if failures:
        print(f"FAIL: packed backend regressed on {failures}")
        return 1
    print("OK: packed footprint <= object on eclipse; batched replay "
          "faster than object on fasttrack")
    return 0


# -- observability-disabled overhead ------------------------------------------


def obs_disabled_overhead(size=0.5, repeats=3):
    """[(label, n_events, baseline ev/s, run_batch ev/s, ratio), ...]

    ``baseline`` drives ``apply_batch`` directly — the batched hot loop
    with no observer hooks at all, i.e. the pre-observability shape of
    ``run_batch``.  ``run_batch`` with no observer attached must stay
    within a few percent of it: its only additions are one
    ``observer is None`` check per batch and the perf accounting.
    """
    rows = []
    for label, factory, build in BATCH_CONFIGS:
        events = build(size)
        encoded = encode_batch(events)

        def baseline(factory=factory):
            det = factory()
            start = time.perf_counter_ns()
            det.apply_batch(encoded)
            return len(events) * 1e9 / max(1, time.perf_counter_ns() - start)

        def disabled(factory=factory):
            det = factory()  # observer slot stays None
            det.run_batch(encoded)
            return det.perf.events_per_sec

        base = _best_rate(baseline, repeats)
        dis = _best_rate(disabled, repeats)
        rows.append((label, len(events), base, dis, dis / base))
    return rows


def _print_obs_overhead(rows):
    print(render_table(
        ["detector", "events", "baseline ev/s", "run_batch ev/s", "ratio"],
        [[label, n, f"{base:,.0f}", f"{dis:,.0f}", f"{ratio:.3f}"]
         for label, n, base, dis, ratio in rows],
    ))


#: run_batch with no observer must keep >= 95% of the raw loop's rate
OBS_GATE_RATIO = 0.95


def obs_gate() -> int:
    """CI gate: disabled observability costs < 5% replay throughput."""
    rows = obs_disabled_overhead(size=0.3, repeats=3)
    print_banner("Observability-disabled throughput gate")
    _print_obs_overhead(rows)
    slow = [label for label, _, _, _, ratio in rows if ratio < OBS_GATE_RATIO]
    if slow:
        print(f"FAIL: disabled-observer run_batch below {OBS_GATE_RATIO:.0%} "
              f"of the uninstrumented loop for {slow}")
        return 1
    print(f"OK: disabled-observer run_batch within "
          f"{(1 - OBS_GATE_RATIO):.0%} of the uninstrumented loop")
    return 0


@pytest.mark.benchmark(group="obs-overhead")
def test_obs_disabled_overhead(benchmark):
    rows = benchmark.pedantic(obs_disabled_overhead, rounds=1, iterations=1)
    print_banner("Observability-disabled overhead (replay throughput)")
    _print_obs_overhead(rows)
    for label, _, _, _, ratio in rows:
        assert ratio >= OBS_GATE_RATIO, (label, ratio)


# -- flight-recorder overhead -------------------------------------------------


def recorder_overhead(size=0.5, rounds=5):
    """[(label, n_events, plain ev/s, recorded ev/s, ratio), ...]

    ``run_batch`` with an observer carrying a
    :class:`~repro.obs.provenance.FlightRecorder` (what ``--report-out``
    and every telemetry shard attach) against ``run_batch`` with no
    observer.  Both take the batched path; the ratio is what provenance
    costs.  Runs alternate, and the ratio is the median of per-round
    ratios (see :mod:`repro.bench` on interleaving).
    """
    rows = []
    for label, factory, build in BATCH_CONFIGS:
        events = build(size)
        encoded = encode_batch(events)

        def plain(factory=factory):
            det = factory()
            det.run_batch(encoded)
            return det.perf.events_per_sec

        def recorded(factory=factory):
            det = factory()
            RunObserver(recorder=FlightRecorder()).attach(det)
            det.run_batch(encoded)
            return det.perf.events_per_sec

        pairs = [(plain(), recorded()) for _ in range(rounds)]
        ratio = sorted(r / p for p, r in pairs)[rounds // 2]
        rows.append((label, len(events), max(p for p, _ in pairs),
                     max(r for _, r in pairs), ratio))
    return rows


#: advisory: a recorder-attached run_batch should keep >= 40% of the
#: plain batched rate (CI reports the ratio without failing on it)
RECORDER_GATE_RATIO = 0.4


def recorder_gate() -> int:
    """Advisory gate: what a flight recorder costs batched replay."""
    rows = recorder_overhead(size=0.3)
    print_banner("Flight-recorder overhead gate (advisory)")
    print(render_table(
        ["detector", "events", "plain ev/s", "recorded ev/s", "ratio"],
        [[label, n, f"{p:,.0f}", f"{r:,.0f}", f"{ratio:.3f}"]
         for label, n, p, r, ratio in rows],
    ))
    slow = [label for label, _, _, _, ratio in rows if ratio < RECORDER_GATE_RATIO]
    if slow:
        print(f"FAIL: recorder-attached run_batch below {RECORDER_GATE_RATIO:.0%} "
              f"of plain run_batch for {slow}")
        return 1
    print(f"OK: recorder-attached run_batch keeps >= {RECORDER_GATE_RATIO:.0%} "
          f"of plain run_batch")
    return 0


if __name__ == "__main__":
    argv = sys.argv[1:]
    known = {"--smoke", "--obs-gate", "--recorder-gate", "--state-gate",
             "--emit-json"}
    if known & set(argv):
        code = 0
        if "--smoke" in argv:
            code = smoke() or code
        if "--obs-gate" in argv:
            code = obs_gate() or code
        if "--recorder-gate" in argv:
            code = recorder_gate() or code
        if "--state-gate" in argv:
            code = state_gate() or code
        if "--emit-json" in argv:
            at = argv.index("--emit-json")
            path = (argv[at + 1] if at + 1 < len(argv)
                    and not argv[at + 1].startswith("--") else "BENCH_core.json")
            code = emit_json(path) or code
        sys.exit(code)
    print("usage: bench_core_operations.py --smoke | --obs-gate | "
          "--recorder-gate | --state-gate | --emit-json [PATH] "
          "(or run under pytest)")
    sys.exit(2)
