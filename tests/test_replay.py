"""Record once, replay many: the runtime over a recorded event stream.

A :class:`~repro.sim.scheduler.Recording` captures one scheduler run —
events, scheduler totals and observer hooks — and :class:`Runtime`
replays it under any detector and controller.  These tests pin that
replay is *exactly* the live run: the golden digests below were taken
from the simulate-per-trial runtime, and cover what ``CoreStats``
equality does not (``metrics`` is ``compare=False``) and what a
:class:`~repro.obs.RunObserver` sees (thread spans, phases, GC and
clock-jump instants, timeline and Perfetto bytes).
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import weakref

import pytest

from repro.analysis import parallel
from repro.analysis.parallel import (
    TrialTask,
    expand_matrix,
    run_matrix,
    run_trial_task,
    stream_key,
)
from repro.analysis.supervisor import _affinity_pick
from repro.core.backend import BACKENDS
from repro.core.pacer import PacerDetector
from repro.core.sampling import BiasCorrectedController
from repro.detectors import FastTrackDetector
from repro.obs import RunObserver
from repro.sim.program import (
    Acquire,
    Fork,
    Join,
    Program,
    Read,
    Release,
    Wait,
    Write,
)
from repro.sim.runtime import Runtime, RuntimeConfig
from repro.sim.scheduler import DeadlockError, record, run_program
from repro.sim.workloads import WORKLOADS, build_program

# -- golden: CoreStats including metrics ------------------------------------------


def golden_tasks(backend):
    return expand_matrix(
        ["micro", "pseudojbb"],
        ["fasttrack", "pacer"],
        [0.1, 0.5],
        [1, 2],
        scale=0.15,
        backend=backend,
    )


def stats_digest(results) -> str:
    """SHA-256 over every deterministic field of each trial, metrics too."""
    h = hashlib.sha256()
    for stats in results:
        doc = [
            stats.workload,
            stats.detector,
            stats.rate,
            stats.seed,
            stats.events,
            stats.races,
            [list(sig) for sig in stats.race_sigs],
            [list(key) for key in stats.distinct_keys],
            repr(stats.effective_rate),
            sorted(stats.counters.items()),
            sorted(stats.metrics.items()),
        ]
        h.update(json.dumps(doc, sort_keys=True).encode())
    return h.hexdigest()


#: taken from the simulate-per-trial runtime, before record/replay
#: existed; every state backend yields the same digest
GOLDEN_MATRIX = "35aaf82ddd10061c333fd93c4c8d3c295322349549acc099df68997734ce06e3"


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("backend", BACKENDS)
def test_matrix_golden_digest(backend, jobs):
    results = run_matrix(golden_tasks(backend), jobs=jobs)
    assert stats_digest(results) == GOLDEN_MATRIX


# -- golden: what a RunObserver sees ---------------------------------------------

L = 7
DATA = 100


def timed_wait_program() -> Program:
    """Threads that all block in timed waits, so the scheduler's clock
    jumps between bursts of accesses that drive nursery GCs."""

    def sleeper(k):
        def body(tid):
            for _ in range(20):
                yield Write(DATA + k, site=10 + k)
                yield Read(DATA, site=30)
            yield Acquire(L)
            yield Wait(L, timeout=50 + 40 * k)
            yield Read(DATA, site=20)
            yield Release(L)
            for _ in range(20):
                yield Write(DATA + k, site=40 + k)

        return body

    def main(tid):
        kids = []
        for k in range(3):
            kids.append((yield Fork(sleeper(k))))
        yield Acquire(L + 1)
        yield Wait(L + 1, timeout=500)
        yield Release(L + 1)
        yield Write(DATA, site=1)
        for child in kids:
            yield Join(child)

    return Program(main)


def observed_run(seed: int):
    observer = RunObserver(sample_every=8)
    runtime = Runtime(
        timed_wait_program(),
        PacerDetector(),
        controller=BiasCorrectedController(0.5, rng=random.Random(seed)),
        config=RuntimeConfig(nursery_bytes=64, track_memory=True),
        seed=seed,
        observer=observer,
    )
    runtime.run()
    return runtime, observer


def observer_digest(runtime, observer) -> str:
    h = hashlib.sha256()
    h.update(json.dumps([
        observer.thread_spans,
        observer.phase_spans,
        observer.instants,
        runtime.gc_log,
        [list(s.__dict__.values()) for s in runtime.snapshots],
        observer.registry.snapshot(),
    ], sort_keys=True).encode())
    h.update(observer.timeline_jsonl().encode())
    h.update(json.dumps(observer.trace_events(), sort_keys=True).encode())
    return h.hexdigest()


#: taken from the simulate-per-trial runtime, before record/replay existed
GOLDEN_OBSERVER = {
    0: "719467958d0eacde119cbca66bf44f9cc5d42b313b9deb754eed052752be0afb",
    1: "40dc883731715ef704af694ea6f882823f05b4d7ebea8f5cb9111008b3332887",
    2: "29612ec68e73559cdf7257f3463f2bccb8549af72325d3bb720212b6763a7b53",
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_OBSERVER))
def test_observer_golden_digest(seed):
    runtime, observer = observed_run(seed)
    kinds = [name for name, _, _ in observer.instants]
    # the program exercises both instant sources, interleaved
    assert "gc" in kinds and "timed-wait clock jump" in kinds
    assert observer_digest(runtime, observer) == GOLDEN_OBSERVER[seed]


# -- replay semantics --------------------------------------------------------------


def pacer_result(recording_or_program, seed=3):
    detector = PacerDetector()
    runtime = Runtime(
        recording_or_program,
        detector,
        controller=BiasCorrectedController(0.25, rng=random.Random(seed)),
        config=RuntimeConfig(nursery_bytes=512),
        seed=seed,
    )
    runtime.run()
    return (
        [race.index for race in detector.races],
        detector.counters.snapshot(),
        runtime.gc_log,
        runtime.snapshots,
        runtime.effective_sampling_rate,
        runtime.context_switches,
        runtime.scheduler_steps,
    )


def fasttrack_result(recording_or_program, seed=3):
    detector = FastTrackDetector()
    runtime = Runtime(recording_or_program, detector, seed=seed)
    runtime.run()
    return [race.index for race in detector.races], detector.counters.snapshot()


def test_one_recording_replays_like_fresh_recordings():
    """Replaying one recording under two detectors gives what two fresh
    runs give: a replay never mutates the recording it reads."""
    spec = WORKLOADS["micro"].scaled(0.3)
    recording = record(build_program(spec, trial_seed=3), 3)
    before = (recording.events, recording.hooks)
    fresh_pacer = pacer_result(build_program(spec, trial_seed=3))
    fresh_ft = fasttrack_result(build_program(spec, trial_seed=3))
    assert pacer_result(recording) == fresh_pacer
    assert fasttrack_result(recording) == fresh_ft
    assert pacer_result(recording) == fresh_pacer
    assert (recording.events, recording.hooks) == before


def test_run_program_is_the_recorded_stream():
    spec = WORKLOADS["pseudojbb"].scaled(0.1)
    recording = record(build_program(spec, trial_seed=2), 2)
    trace = run_program(build_program(spec, trial_seed=2), seed=2)
    assert tuple(trace.events) == recording.events
    assert recording.threads_started == spec.threads_total


def test_deadlock_propagates_out_of_runtime_run():
    def main(tid):
        yield Acquire(L)
        yield Wait(L)  # nobody ever notifies

    runtime = Runtime(Program(main), FastTrackDetector())
    with pytest.raises(DeadlockError):
        runtime.run()


# -- the per-process recording slot -----------------------------------------------


def test_a_process_holds_at_most_one_recording(monkeypatch):
    """Each simulation starts with no recording alive (the old one is
    dropped first), and each trial leaves exactly one behind."""
    real_record = parallel.record
    made = []
    alive_at_record = []

    def alive() -> int:
        gc.collect()
        return sum(1 for ref in made if ref() is not None)

    def tracking_record(program, seed):
        alive_at_record.append(alive())
        recording = real_record(program, seed)
        made.append(weakref.ref(recording))
        return recording

    monkeypatch.setattr(parallel, "record", tracking_record)
    parallel._release_recording()
    tasks = expand_matrix(["micro", "xalan"], ["fasttrack", "pacer"],
                          [0.5], [1, 2], scale=0.1)
    for task in tasks + tasks[::-1]:
        run_trial_task(task)
        assert alive() == 1
    assert alive_at_record and set(alive_at_record) == {0}
    parallel._release_recording()
    assert alive() == 0


def test_sequential_matrix_simulates_each_stream_once(monkeypatch):
    real_record = parallel.record
    recorded = []

    def counting_record(program, seed):
        recorded.append(seed)
        return real_record(program, seed)

    monkeypatch.setattr(parallel, "record", counting_record)
    # rates interleave the streams in task order: each stream recurs
    tasks = expand_matrix(["micro", "xalan"], ["fasttrack", "pacer"],
                          [0.1, 0.5], [1, 2], scale=0.1)
    results = run_matrix(tasks, jobs=1)
    assert len(recorded) == len({stream_key(t) for t in tasks}) == 4
    assert [(s.workload, s.detector, s.rate, s.seed) for s in results] == [
        (t.workload, t.detector, t.rate, t.seed) for t in tasks
    ]
    assert parallel._held is None  # released on return


def test_affinity_pick_rule():
    tasks = [
        TrialTask("micro", "pacer", 0.1, 1),  # 0: stream A
        TrialTask("micro", "pacer", 0.1, 2),  # 1: stream B
        TrialTask("micro", "pacer", 0.5, 1),  # 2: stream A
        TrialTask("micro", "pacer", 0.5, 2),  # 3: stream B
        TrialTask("micro", "pacer", 0.5, 3),  # 4: stream C
    ]
    a, b, c = (stream_key(tasks[i]) for i in (0, 1, 4))
    pending = [(0.0, i, 1) for i in (1, 2, 3, 4)]

    def pick(held, others, now=1.0, queue=pending):
        pos = _affinity_pick(queue, tasks, now, held, others)
        return None if pos is None else queue[pos][1]

    assert pick(a, {b}) == 2  # the held stream first
    assert pick(None, {b}) == 2  # then a stream no other worker holds
    assert pick(c, {a, b}) == 4
    assert pick(None, {a, b, c}) == 1  # then the lowest index
    backing_off = [(5.0, 2, 2), (0.0, 3, 1)]
    assert pick(a, set(), queue=backing_off) == 3  # only ready tasks count
    assert pick(a, set(), now=0.0, queue=[(5.0, 2, 2)]) is None


# -- expand_matrix -----------------------------------------------------------------


def test_expand_matrix_accepts_one_shot_iterables():
    def gen(values):
        yield from values

    want = expand_matrix(["micro"], ["fasttrack", "pacer"], [0.1, 0.5], [1, 2, 3])
    got = expand_matrix(
        gen(["micro"]), gen(["fasttrack", "pacer"]), gen([0.1, 0.5]), gen([1, 2, 3])
    )
    assert got == want
    assert len(got) == 9
