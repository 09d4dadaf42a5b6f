"""Crash-isolated shard supervisor for the experiment matrix.

The original runner handed shards to ``Pool.imap_unordered`` and hoped:
one segfaulted worker or one wedged trial aborted the whole campaign,
and a silently dropped task surfaced only as an index in an exception.
This supervisor replaces the bare pool with explicit worker management
built for multi-hour §5 matrices:

* **Crash isolation** — each worker is its own process driven over a
  duplex pipe; a worker that dies (any exit, any signal) costs exactly
  the one in-flight trial, which is retried on a respawned worker.
* **Wall-clock timeouts** — a trial that exceeds ``task_timeout`` gets
  its worker killed and is retried; a hang never stalls the campaign.
* **Bounded retries, deterministic backoff** — a failed trial is
  rescheduled up to ``max_attempts`` times with delay
  ``min(cap, base·2^(attempt-1))``; the backoff schedule is a pure
  function of the attempt number, never of randomness.
* **Poison-task quarantine** — a trial that fails on every attempt is
  excluded from the results, recorded in a structured quarantine
  section (task identity + full failure history), and *never aborts the
  run*.  With ``quarantine=False`` the same condition instead raises
  :class:`MatrixIncompleteError` naming each dropped trial's
  (workload, detector, rate, seed) — the strict mode ``run_matrix``
  uses, where silent loss must be loud.
* **Result integrity** — every completed trial is checked against its
  task's identity (workload/detector/rate/seed); a corrupted result is
  treated as one more failure and retried, not merged.
* **Stream affinity** — a worker keeps the recording of the last event
  stream it ran (:func:`~repro.analysis.parallel.stream_key`), so an
  idle worker takes the lowest-index ready task of the stream it holds;
  failing that, of a stream no other worker holds; failing that, the
  lowest-index ready task.  Dispatch order never changes a result.

Because every trial is a pure function of its :class:`TrialTask`,
retried and reordered completions reassemble — by task index — into the
*exact same* ``CoreStats`` list a failure-free sequential run produces;
the determinism regressions extend the existing ``--jobs`` pins to
crash/hang/retry schedules via the deterministic fault injector
(:mod:`repro.util.faults`).

Retry/timeout/quarantine accounting lands in a
:class:`~repro.obs.metrics.MetricsRegistry` (``supervisor_*`` series)
carried on the :class:`SupervisorOutcome`, and surfaces in the
quarantine report document (``repro/quarantine/v1``).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from multiprocessing import get_context
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.stats import CoreStats
from ..obs.metrics import MetricsRegistry
from ..util.faults import FaultPlan, execute_fault
from .parallel import TrialTask, run_trial_task, stream_key, task_seed

__all__ = [
    "QUARANTINE_SCHEMA",
    "FailureRecord",
    "MatrixIncompleteError",
    "PipeWorker",
    "QuarantineRecord",
    "SupervisorConfig",
    "SupervisorOutcome",
    "backoff_delay",
    "run_supervised",
]

QUARANTINE_SCHEMA = "repro/quarantine/v1"

#: failure kinds a supervisor can observe (and a fault plan can inject)
FAILURE_KINDS = ("crash", "timeout", "raise", "corrupt-result")


class MatrixIncompleteError(RuntimeError):
    """Strict mode: tasks were dropped after exhausting their retries."""

    def __init__(self, records: Sequence["QuarantineRecord"]) -> None:
        self.records = list(records)
        names = ", ".join(
            f"(workload={r.workload!r}, detector={r.detector!r}, "
            f"rate={r.rate}, seed={r.seed})"
            for r in self.records
        )
        super().__init__(
            f"matrix dropped {len(self.records)} task(s) after retries: {names}"
        )


@dataclass(frozen=True)
class SupervisorConfig:
    """Knobs for one supervised run; defaults suit CI-scale matrices."""

    jobs: int = 1
    #: per-trial wall-clock budget in seconds; None disables the timeout
    task_timeout: Optional[float] = 300.0
    #: total tries per task (first run + retries)
    max_attempts: int = 3
    #: deterministic backoff: min(cap, base * 2**(attempt-1)) seconds
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    #: True: exhausted tasks are quarantined and reported; False: they
    #: raise :class:`MatrixIncompleteError` naming each dropped trial
    quarantine: bool = True
    #: deterministic fault plan shipped to every worker (tests/chaos CI)
    fault_plan: Optional[FaultPlan] = None


def backoff_delay(attempt: int, base: float, cap: float) -> float:
    """Delay before retry number ``attempt+1`` — pure, no jitter."""
    if base <= 0:
        return 0.0
    return min(cap, base * (2.0 ** (attempt - 1)))


@dataclass(frozen=True)
class FailureRecord:
    """One observed failure of one attempt."""

    kind: str  # one of FAILURE_KINDS
    attempt: int
    detail: str
    exitcode: Optional[int] = None

    def to_doc(self) -> Dict[str, object]:
        doc: Dict[str, object] = {
            "kind": self.kind,
            "attempt": self.attempt,
            "detail": self.detail,
        }
        if self.exitcode is not None:
            doc["exitcode"] = self.exitcode
        return doc


@dataclass(frozen=True)
class QuarantineRecord:
    """A poison task: its identity plus the full failure history."""

    index: int
    workload: str
    detector: str
    rate: Optional[float]
    seed: int
    attempts: int
    failures: Tuple[FailureRecord, ...]

    @classmethod
    def for_task(
        cls, index: int, task: TrialTask, failures: Sequence[FailureRecord]
    ) -> "QuarantineRecord":
        return cls(
            index=index,
            workload=task.workload,
            detector=task.detector,
            rate=task.rate,
            seed=task.seed,
            attempts=len(failures),
            failures=tuple(failures),
        )

    def to_doc(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "workload": self.workload,
            "detector": self.detector,
            "rate": self.rate,
            "seed": self.seed,
            "attempts": self.attempts,
            "failures": [f.to_doc() for f in self.failures],
        }


@dataclass
class SupervisorOutcome:
    """Everything a supervised run produced, surviving and not."""

    #: per-task results in task order; None exactly at quarantined indices
    results: List[Optional[CoreStats]]
    quarantine: List[QuarantineRecord]
    #: supervisor_* retry/timeout/quarantine counters
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)

    @property
    def completed(self) -> int:
        return sum(1 for r in self.results if r is not None)

    def surviving_pairs(
        self, tasks: Sequence[TrialTask]
    ) -> List[Tuple[TrialTask, CoreStats]]:
        """(task, stats) for every completed trial, in task order."""
        return [
            (task, stats)
            for task, stats in zip(tasks, self.results)
            if stats is not None
        ]

    def quarantine_doc(self) -> Dict[str, object]:
        """The structured quarantine section (``repro/quarantine/v1``)."""
        return {
            "schema": QUARANTINE_SCHEMA,
            "total_tasks": len(self.results),
            "completed": self.completed,
            "quarantined": [
                r.to_doc() for r in sorted(self.quarantine, key=lambda r: r.index)
            ],
            "counters": self.registry.snapshot()["counters"],
        }


# -- worker side ---------------------------------------------------------------


def _run_with_faults(
    index: int, attempt: int, task: TrialTask, plan: Optional[FaultPlan]
) -> CoreStats:
    """One trial, with the fault plan consulted first.

    ``crash``/``hang``/``raise`` faults actuate *before* the trial (the
    work is lost, exactly like a real mid-trial death as far as the
    supervisor can see); ``corrupt`` runs the trial then damages the
    result's identity so the supervisor's integrity check must catch it.
    """
    rule = None
    if plan is not None:
        rule = plan.match(index, task_seed(task), attempt)
    if rule is not None and rule.kind != "corrupt":
        execute_fault(rule)
    stats = run_trial_task(task)
    if rule is not None and rule.kind == "corrupt":
        stats = replace(stats, seed=stats.seed ^ 0x5EED)
    return stats


def _worker_main(conn, plan: Optional[FaultPlan]) -> None:
    """Worker loop: run trials off the pipe until told to stop."""
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):  # pragma: no cover - parent vanished
            return
        if msg[0] == "stop":
            return
        _, index, attempt, task = msg
        try:
            stats = _run_with_faults(index, attempt, task, plan)
        except Exception as exc:
            conn.send(("fail", index, attempt, f"{type(exc).__name__}: {exc}"))
        else:
            conn.send(("ok", index, attempt, stats))


# -- parent side ---------------------------------------------------------------


class PipeWorker:
    """One long-lived worker process driven over a duplex pipe.

    The crash-isolation primitive shared by the supervisor and the
    telemetry shard tier (:mod:`repro.net.shard`): a daemon process
    running ``main(conn, *args)``, where ``main`` loops on ``conn.recv()``
    until it receives ``("stop",)``.  The parent talks over ``conn`` and
    owns the lifecycle — :meth:`stop` for a graceful shutdown,
    :meth:`kill` when the worker is wedged or mid-task, :meth:`exitcode`
    to learn how a dead worker died.
    """

    def __init__(self, ctx, main: Callable, args: Tuple = ()) -> None:
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=main, args=(child_conn,) + tuple(args), daemon=True
        )
        self.process.start()
        child_conn.close()

    def alive(self) -> bool:
        return self.process.is_alive()

    def exitcode(self) -> Optional[int]:
        self.process.join(timeout=5.0)
        return self.process.exitcode

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=5.0)
        self.conn.close()

    def stop(self) -> None:
        """Graceful shutdown of an idle worker."""
        try:
            self.conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=5.0)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.kill()
            self.process.join(timeout=5.0)
        self.conn.close()


class _Worker(PipeWorker):
    """A :class:`PipeWorker` running trials, plus in-flight bookkeeping."""

    def __init__(self, ctx, plan: Optional[FaultPlan]) -> None:
        super().__init__(ctx, _worker_main, (plan,))
        #: (index, attempt, deadline) while a trial is in flight
        self.busy: Optional[Tuple[int, int, float]] = None
        #: stream key of the last trial sent here (the recording it holds)
        self.stream: Optional[Tuple] = None

    def dispatch(
        self, index: int, attempt: int, task: TrialTask, timeout: Optional[float]
    ) -> None:
        deadline = float("inf") if not timeout else time.monotonic() + timeout
        self.conn.send(("run", index, attempt, task))
        self.busy = (index, attempt, deadline)
        self.stream = stream_key(task)


def _affinity_pick(
    pending: List[Tuple[float, int, int]],
    tasks: Sequence[TrialTask],
    now: float,
    held: Optional[Tuple],
    others: set,
) -> Optional[int]:
    """Position in ``pending`` of the ready task a worker holding stream
    ``held`` takes next, given the streams ``others`` hold; None when no
    task is ready."""
    best = None
    for pos, (ready_at, index, _) in enumerate(pending):
        if ready_at > now:
            continue
        key = stream_key(tasks[index])
        rank = (0 if key == held else 1 if key not in others else 2, index)
        if best is None or rank < best[0]:
            best = (rank, pos)
    return None if best is None else best[1]


def _identity_ok(task: TrialTask, stats: CoreStats) -> bool:
    return (
        stats.workload == task.workload
        and stats.detector == task.detector
        and stats.rate == task.rate
        and stats.seed == task.seed
    )


def run_supervised(
    tasks: Sequence[TrialTask],
    config: SupervisorConfig = SupervisorConfig(),
    completed: Optional[Dict[int, CoreStats]] = None,
    on_result: Optional[Callable[[int, CoreStats], None]] = None,
) -> SupervisorOutcome:
    """Run the matrix under full supervision.

    ``completed`` pre-fills results for task indices a checkpoint
    journal already holds (those trials are never scheduled);
    ``on_result`` fires once per *newly* completed trial, in completion
    order — the checkpoint journal appends from it.
    """
    results: List[Optional[CoreStats]] = [None] * len(tasks)
    if completed:
        for index, stats in completed.items():
            if not 0 <= index < len(tasks):
                raise ValueError(f"completed index {index} outside matrix")
            results[index] = stats
    registry = MetricsRegistry()
    failures: Dict[int, List[FailureRecord]] = {}
    quarantine: List[QuarantineRecord] = []

    # (ready_time, index, attempt); entries still backing off wait in place
    pending: List[Tuple[float, int, int]] = [
        (0.0, index, 1) for index in range(len(tasks)) if results[index] is None
    ]
    outcome = SupervisorOutcome(results, quarantine, registry)
    if not pending:
        return outcome

    def note_failure(
        index: int, attempt: int, kind: str, detail: str, exitcode: Optional[int] = None
    ) -> None:
        failures.setdefault(index, []).append(
            FailureRecord(kind, attempt, detail, exitcode)
        )
        registry.counter("supervisor_failures_total", kind=kind).inc()
        if kind == "timeout":
            registry.counter("supervisor_timeouts_total").inc()
        if attempt < config.max_attempts:
            registry.counter("supervisor_retries_total").inc()
            delay = backoff_delay(attempt, config.backoff_base, config.backoff_cap)
            pending.append((time.monotonic() + delay, index, attempt + 1))
        else:
            registry.counter("supervisor_quarantined_total").inc()
            quarantine.append(
                QuarantineRecord.for_task(index, tasks[index], failures[index])
            )

    ctx = get_context("spawn" if os.name == "nt" else "fork")
    n_workers = max(1, min(config.jobs, len(pending)))
    workers: List[_Worker] = [
        _Worker(ctx, config.fault_plan) for _ in range(n_workers)
    ]

    from multiprocessing.connection import wait as connection_wait

    try:
        while pending or any(w.busy is not None for w in workers):
            now = time.monotonic()
            # hand ready tasks to idle workers, with stream affinity
            for slot, worker in enumerate(workers):
                if worker.busy is not None:
                    continue
                others = {w.stream for w in workers if w is not worker}
                pos = _affinity_pick(pending, tasks, now, worker.stream, others)
                if pos is None:
                    break  # nothing ready; the rest are backing off
                _, index, attempt = pending.pop(pos)
                try:
                    worker.dispatch(index, attempt, tasks[index], config.task_timeout)
                except (BrokenPipeError, OSError):
                    # worker died while idle (not this task's fault):
                    # respawn and requeue without charging an attempt
                    registry.counter("supervisor_worker_restarts_total").inc()
                    worker.kill()
                    workers[slot] = _Worker(ctx, config.fault_plan)
                    pending.append((now, index, attempt))

            busy = [w for w in workers if w.busy is not None]
            if not busy:
                if pending:
                    ready_at = min(entry[0] for entry in pending)
                    time.sleep(max(0.0, min(0.5, ready_at - time.monotonic())))
                continue

            # wake on the first completion, death, or deadline
            next_deadline = min(w.busy[2] for w in busy)
            wait_for = max(0.01, min(1.0, next_deadline - time.monotonic()))
            ready = connection_wait([w.conn for w in busy], timeout=wait_for)

            for slot, worker in enumerate(workers):
                if worker.busy is None:
                    continue
                index, attempt, deadline = worker.busy
                if worker.conn in ready:
                    try:
                        msg = worker.conn.recv()
                    except (EOFError, OSError):
                        # worker process died mid-trial
                        exitcode = worker.exitcode()
                        note_failure(
                            index, attempt, "crash",
                            f"worker exited with code {exitcode} while running "
                            f"task {index} (attempt {attempt})",
                            exitcode=exitcode,
                        )
                        registry.counter("supervisor_worker_restarts_total").inc()
                        worker.kill()
                        workers[slot] = _Worker(ctx, config.fault_plan)
                        continue
                    kind, msg_index, msg_attempt = msg[0], msg[1], msg[2]
                    if (msg_index, msg_attempt) != (index, attempt):
                        # stale reply from before a kill; should be impossible
                        continue  # pragma: no cover
                    worker.busy = None
                    if kind == "ok":
                        stats = msg[3]
                        if not _identity_ok(tasks[index], stats):
                            note_failure(
                                index, attempt, "corrupt-result",
                                f"result identity mismatch: got "
                                f"({stats.workload!r}, {stats.detector!r}, "
                                f"{stats.rate}, {stats.seed}), want "
                                f"({tasks[index].workload!r}, "
                                f"{tasks[index].detector!r}, "
                                f"{tasks[index].rate}, {tasks[index].seed})",
                            )
                        else:
                            results[index] = stats
                            registry.counter("supervisor_tasks_completed_total").inc()
                            if on_result is not None:
                                on_result(index, stats)
                    else:  # ("fail", index, attempt, detail)
                        note_failure(index, attempt, "raise", msg[3])
                elif time.monotonic() > deadline:
                    note_failure(
                        index, attempt, "timeout",
                        f"task {index} exceeded its {config.task_timeout}s "
                        f"wall-clock budget (attempt {attempt})",
                    )
                    registry.counter("supervisor_worker_restarts_total").inc()
                    worker.kill()
                    workers[slot] = _Worker(ctx, config.fault_plan)
    finally:
        for worker in workers:
            if worker.busy is not None:
                worker.kill()
            else:
                worker.stop()

    if not config.quarantine and quarantine:
        raise MatrixIncompleteError(sorted(quarantine, key=lambda r: r.index))
    return outcome
