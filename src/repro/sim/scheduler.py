"""Preemptive, seeded scheduler: runs a :class:`~repro.sim.program.Program`
and emits trace events.

The scheduler is the simulator's "hardware": it interleaves thread
generators one operation at a time, choosing the next thread pseudo-
randomly (with a configurable *stickiness* that models timeslices — a
thread tends to keep running for a geometric number of steps, which
produces realistic access locality), and enforces blocking semantics:

* ``Acquire`` blocks while another thread holds the lock (reentrancy is
  allowed, and only the outermost acquire/release emit trace events,
  matching Java monitor semantics);
* ``Join`` blocks until the target thread's generator is exhausted;
* ``Wait``/``Notify`` implement Java monitor wait sets, including
  ``wait(timeout)``: a timed waiter leaves the wait set when its
  deadline (in scheduler steps) passes, and a notify can only ever be
  consumed by a thread still waiting — never by one that timed out.

Determinism: a given (program, seed) pair always yields the same trace,
so one run can be kept as a :class:`Recording` — the events, the
scheduler's totals and its observer hooks — and replayed under any
number of detector configurations (see :class:`~repro.sim.runtime.Runtime`).
Deadlock (no runnable thread while unfinished threads remain and no
timed wait is pending) raises :class:`DeadlockError` rather than
hanging.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional, Set, Tuple

from ..trace.events import (
    ACQUIRE,
    ALLOC,
    Event,
    FORK,
    JOIN,
    METHOD_ENTER,
    METHOD_EXIT,
    READ,
    RELEASE,
    VOL_READ,
    VOL_WRITE,
    WRITE,
)
from ..trace.trace import Trace
from .program import (
    Acquire,
    Alloc,
    Enter,
    Exit,
    Fork,
    Join,
    Notify,
    NotifyAll,
    Op,
    Program,
    Read,
    Release,
    VolRead,
    VolWrite,
    Wait,
    Work,
    Write,
)

__all__ = ["Scheduler", "DeadlockError", "Recording", "record", "run_program"]

RUNNABLE = "runnable"
BLOCKED_LOCK = "blocked-lock"
BLOCKED_JOIN = "blocked-join"
BLOCKED_WAIT = "blocked-wait"
FINISHED = "finished"


class DeadlockError(RuntimeError):
    """All live threads are blocked; the program cannot make progress."""


@dataclass(frozen=True)
class _Reacquire(Op):
    """Internal op: reacquire a monitor after wait() at a saved depth."""

    lock: int
    depth: int


@dataclass
class _ThreadState:
    tid: int
    gen: Generator[Op, Optional[int], None]
    status: str = RUNNABLE
    pending: Optional[Op] = None  # op that blocked and must be retried
    send_value: Optional[int] = None  # value to send into the generator
    waiting_for: int = -1
    start_step: int = 0  # scheduler step at spawn (observability spans)


class Scheduler:
    """Executes a program, emitting events to a sink callback.

    ``sink`` receives each :class:`~repro.trace.events.Event` as it is
    produced.  ``work_hook``, if given, receives the ``units`` of every
    :class:`~repro.sim.program.Work` op (pure computation emits no
    event but still represents program cost).
    """

    def __init__(
        self,
        program: Program,
        seed: int = 0,
        stickiness: float = 0.85,
        sink: Optional[Callable[[Event], None]] = None,
        work_hook: Optional[Callable[[int], None]] = None,
        max_steps: int = 50_000_000,
        observer=None,
    ) -> None:
        self._rng = random.Random(seed)
        self.stickiness = stickiness
        self.sink = sink or (lambda event: None)
        self.work_hook = work_hook
        self.max_steps = max_steps
        #: optional :class:`repro.obs.RunObserver`; receives per-thread
        #: lifetime spans and timed-wait clock jumps.  Never consulted in
        #: the per-step hot path beyond thread finish/spawn events.
        self.observer = observer
        self.context_switches = 0
        self._threads: Dict[int, _ThreadState] = {}
        self._runnable_set: Set[int] = set()
        self._unfinished = 0
        self._next_tid = 0
        self._lock_holder: Dict[int, int] = {}
        self._lock_depth: Dict[int, int] = {}
        self._lock_waiters: Dict[int, List[int]] = {}
        self._wait_sets: Dict[int, List[int]] = {}  # wait()ing threads
        self._wait_deadlines: Dict[int, tuple] = {}  # tid -> (step, lock)
        self._joiners: Dict[int, List[int]] = {}
        self._current: Optional[int] = None
        self.steps = 0
        self.threads_started = 0
        self.max_live = 0
        for body in program.roots:
            self._spawn(body)

    # -- thread management ------------------------------------------------

    def _spawn(self, body) -> int:
        tid = self._next_tid
        self._next_tid += 1
        state = _ThreadState(tid=tid, gen=body(tid), start_step=self.steps)
        self._threads[tid] = state
        self._runnable_set.add(tid)
        self._unfinished += 1
        self.threads_started += 1
        self.max_live = max(self.max_live, self._unfinished)
        return tid

    def _finish(self, state: _ThreadState) -> None:
        state.status = FINISHED
        self._unfinished -= 1
        if self.observer is not None:
            self.observer.on_thread_span(state.tid, state.start_step, self.steps)
        for waiter_tid in self._joiners.pop(state.tid, []):
            waiter = self._threads[waiter_tid]
            waiter.status = RUNNABLE
            self._runnable_set.add(waiter_tid)

    # -- the scheduling loop ------------------------------------------------

    def run(self) -> None:
        """Run until every thread finishes (or deadlock / step limit)."""
        while True:
            if self._wait_deadlines:
                self._expire_timed_waits()
            runnable = self._runnable_set
            if not runnable:
                if self._unfinished == 0:
                    if self.observer is not None:
                        self.observer.on_phase("scheduler", 0, self.steps)
                    return
                if self._wait_deadlines:
                    # every thread is blocked but a timed wait is still
                    # pending: advance the clock to its deadline rather
                    # than reporting a spurious deadlock
                    earliest = min(d for d, _ in self._wait_deadlines.values())
                    self.steps = max(self.steps, earliest)
                    if self.observer is not None:
                        self.observer.on_clock_jump(self.steps)
                    continue
                raise DeadlockError(
                    "no runnable threads; blocked: "
                    + ", ".join(
                        f"t{t.tid}({t.status})"
                        for t in self._threads.values()
                        if t.status not in (FINISHED, RUNNABLE)
                    )
                )
            if (
                self._current in runnable
                and len(runnable) > 1
                and self._rng.random() < self.stickiness
            ):
                tid = self._current
            else:
                tid = self._rng.choice(tuple(runnable))
            if tid != self._current:
                self.context_switches += 1
            self._current = tid
            self._step(self._threads[tid])
            self.steps += 1
            if self.steps > self.max_steps:
                raise RuntimeError(f"exceeded max_steps={self.max_steps}")

    def _step(self, state: _ThreadState) -> None:
        op = state.pending
        if op is None:
            try:
                op = state.gen.send(state.send_value)
            except StopIteration:
                self._runnable_set.discard(state.tid)
                self._finish(state)
                return
            state.send_value = None
        else:
            state.pending = None
        self._apply(state, op)

    # -- op semantics ----------------------------------------------------------

    def _apply(self, state: _ThreadState, op: Op) -> None:
        tid = state.tid
        if type(op) is Read:
            self.sink(Event(READ, tid, op.var, op.site))
        elif type(op) is Write:
            self.sink(Event(WRITE, tid, op.var, op.site))
        elif type(op) is Acquire:
            holder = self._lock_holder.get(op.lock)
            if holder is not None and holder != tid:
                state.status = BLOCKED_LOCK
                state.pending = op  # retry when the lock frees up
                self._runnable_set.discard(tid)
                self._lock_waiters.setdefault(op.lock, []).append(tid)
                return
            self._lock_holder[op.lock] = tid
            depth = self._lock_depth.get(op.lock, 0) + 1
            self._lock_depth[op.lock] = depth
            if depth == 1:  # only the outermost acquire is a sync action
                self.sink(Event(ACQUIRE, tid, op.lock))
        elif type(op) is Release:
            if self._lock_holder.get(op.lock) != tid:
                raise RuntimeError(f"t{tid} releases lock {op.lock} it does not hold")
            depth = self._lock_depth[op.lock] - 1
            if depth == 0:
                self.sink(Event(RELEASE, tid, op.lock))
                del self._lock_holder[op.lock]
                del self._lock_depth[op.lock]
                self._wake_lock_waiters(op.lock)
            else:
                self._lock_depth[op.lock] = depth
        elif type(op) is Fork:
            child = self._spawn(op.body)
            self.sink(Event(FORK, tid, child))
            state.send_value = child
        elif type(op) is Join:
            target = self._threads.get(op.tid)
            if target is None:
                raise RuntimeError(f"t{tid} joins unknown thread {op.tid}")
            if target.status != FINISHED:
                state.status = BLOCKED_JOIN
                state.waiting_for = op.tid
                state.pending = op
                self._runnable_set.discard(tid)
                self._joiners.setdefault(op.tid, []).append(tid)
                return
            self.sink(Event(JOIN, tid, op.tid))
        elif type(op) is VolRead:
            self.sink(Event(VOL_READ, tid, op.vol))
        elif type(op) is VolWrite:
            self.sink(Event(VOL_WRITE, tid, op.vol))
        elif type(op) is Enter:
            self.sink(Event(METHOD_ENTER, tid, op.method))
        elif type(op) is Exit:
            self.sink(Event(METHOD_EXIT, tid, op.method))
        elif type(op) is Wait:
            if self._lock_holder.get(op.lock) != tid:
                raise RuntimeError(f"t{tid} waits on lock {op.lock} it does not hold")
            depth = self._lock_depth.pop(op.lock)
            del self._lock_holder[op.lock]
            self.sink(Event(RELEASE, tid, op.lock))  # wait releases the monitor
            state.status = BLOCKED_WAIT
            state.pending = _Reacquire(op.lock, depth)
            self._runnable_set.discard(tid)
            self._wait_sets.setdefault(op.lock, []).append(tid)
            if op.timeout is not None:
                self._wait_deadlines[tid] = (self.steps + op.timeout, op.lock)
            self._wake_lock_waiters(op.lock)
        elif type(op) is Notify:
            if self._lock_holder.get(op.lock) != tid:
                raise RuntimeError(f"t{tid} notifies lock {op.lock} it does not hold")
            waiters = self._wait_sets.get(op.lock)
            if waiters:
                self._notify_one(op.lock, waiters)
        elif type(op) is NotifyAll:
            if self._lock_holder.get(op.lock) != tid:
                raise RuntimeError(f"t{tid} notifies lock {op.lock} it does not hold")
            waiters = self._wait_sets.get(op.lock)
            while waiters:
                self._notify_one(op.lock, waiters)
        elif type(op) is _Reacquire:
            holder = self._lock_holder.get(op.lock)
            if holder is not None and holder != tid:
                state.status = BLOCKED_LOCK
                state.pending = op
                self._runnable_set.discard(tid)
                self._lock_waiters.setdefault(op.lock, []).append(tid)
                return
            self._lock_holder[op.lock] = tid
            self._lock_depth[op.lock] = op.depth
            self.sink(Event(ACQUIRE, tid, op.lock))  # wait reacquires it
        elif type(op) is Alloc:
            self.sink(Event(ALLOC, tid, op.nbytes, op.live_delta))
        elif type(op) is Work:
            if self.work_hook is not None:
                self.work_hook(op.units)
        else:
            raise TypeError(f"unknown op {op!r}")

    def _notify_one(self, lock: int, waiters: List[int]) -> None:
        """Move one wait()er to the monitor's entry queue."""
        waiter_tid = waiters.pop(self._rng.randrange(len(waiters)))
        # claim the waiter's pending timeout: once notified it must not
        # *also* fire its deadline later (double wake), and conversely a
        # waiter that already timed out has left `waiters`, so a notify
        # can never be consumed by a dead entry (lost wakeup)
        self._wait_deadlines.pop(waiter_tid, None)
        waiter = self._threads[waiter_tid]
        waiter.status = BLOCKED_LOCK  # now competes for the monitor
        self._lock_waiters.setdefault(lock, []).append(waiter_tid)

    def _expire_timed_waits(self) -> None:
        """Remove waiters whose wait(timeout) deadline has passed.

        An expired waiter leaves the wait set immediately — before any
        subsequent notify is dispatched, so the notify goes to a thread
        that is actually still waiting — and proceeds to reacquire the
        monitor.  If the lock is free it becomes runnable right away;
        waking it only from :meth:`_wake_lock_waiters` would strand it
        until a release that may never come.
        """
        expired = [
            tid
            for tid, (deadline, _) in self._wait_deadlines.items()
            if deadline <= self.steps
        ]
        for tid in expired:
            _, lock = self._wait_deadlines.pop(tid)
            waiters = self._wait_sets.get(lock)
            if not waiters or tid not in waiters:
                continue  # already claimed by a notify
            waiters.remove(tid)
            state = self._threads[tid]
            if self._lock_holder.get(lock) is None:
                state.status = RUNNABLE
                self._runnable_set.add(tid)
            else:
                state.status = BLOCKED_LOCK
                self._lock_waiters.setdefault(lock, []).append(tid)

    def _wake_lock_waiters(self, lock: int) -> None:
        for waiter_tid in self._lock_waiters.pop(lock, []):
            waiter = self._threads[waiter_tid]
            if waiter.status == BLOCKED_LOCK:
                waiter.status = RUNNABLE
                self._runnable_set.add(waiter_tid)


@dataclass(frozen=True)
class Recording:
    """One complete scheduler run, replayable without re-simulating.

    ``hooks`` holds each scheduler observer call (``on_thread_span``,
    ``on_clock_jump``, ``on_phase``) as ``(position, name, args)``, where
    ``position`` is the number of events emitted before the hook fired.
    Every field is immutable, so one recording can be replayed any
    number of times.
    """

    events: Tuple[Event, ...]
    threads_started: int
    context_switches: int
    steps: int
    max_live: int
    hooks: Tuple[Tuple[int, str, tuple], ...]

    def replay_hooks(self, observer) -> None:
        """Fire every recorded hook into ``observer``, in order."""
        for _, name, args in self.hooks:
            getattr(observer, name)(*args)


class _HookLog:
    """Scheduler observer that notes each hook with its event position."""

    def __init__(self, events: List[Event]) -> None:
        self._events = events
        self.hooks: List[Tuple[int, str, tuple]] = []

    def on_thread_span(self, *args: int) -> None:
        self.hooks.append((len(self._events), "on_thread_span", args))

    def on_clock_jump(self, *args: int) -> None:
        self.hooks.append((len(self._events), "on_clock_jump", args))

    def on_phase(self, *args) -> None:
        self.hooks.append((len(self._events), "on_phase", args))


def record(program: Program, seed: int = 0, **kwargs) -> Recording:
    """Run a program to completion and keep everything a replay needs.

    ``kwargs`` go to :class:`Scheduler` (``stickiness``, ``max_steps``,
    ``work_hook``).
    """
    events: List[Event] = []
    log = _HookLog(events)
    scheduler = Scheduler(
        program, seed=seed, sink=events.append, observer=log, **kwargs
    )
    scheduler.run()
    return Recording(
        events=tuple(events),
        threads_started=scheduler.threads_started,
        context_switches=scheduler.context_switches,
        steps=scheduler.steps,
        max_live=scheduler.max_live,
        hooks=tuple(log.hooks),
    )


def run_program(program: Program, seed: int = 0, observer=None, **kwargs) -> Trace:
    """Convenience: run a program and collect the full trace."""
    recording = record(program, seed, **kwargs)
    if observer is not None:
        recording.replay_hooks(observer)
    return Trace(recording.events)
