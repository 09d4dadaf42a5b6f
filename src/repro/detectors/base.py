"""Detector framework: the common interface and race reports.

Every detector consumes the event alphabet of Appendix A through either
the typed methods (:meth:`Detector.read`, :meth:`Detector.acquire`, ...)
or :meth:`Detector.apply`, which dispatches a :class:`~repro.trace.events.Event`.
Detectors report races by appending :class:`Race` records and keep
analyzing (real tools do not stop at the first race; the formal
semantics' "stuck" state corresponds to the first report).

Every detector resolves its state backend through
:func:`~repro.core.backend.resolve_backend`: ``object`` (the
paper-shaped reference) or ``packed`` (the default fast engine).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple, Union

from ..core.backend import resolve_backend
from ..core.stats import OpCounters, PerfCounters
from ..trace.batch import DEFAULT_BATCH_SIZE, EventBatch, iter_batches
from ..trace.events import (
    ACQUIRE,
    ALLOC,
    Event,
    FORK,
    ID_TO_KIND,
    JOIN,
    METHOD_ENTER,
    METHOD_EXIT,
    READ,
    RELEASE,
    SBEGIN,
    SEND,
    VOL_READ,
    VOL_WRITE,
    WRITE,
)

__all__ = ["Race", "SiteId", "Detector", "NullDetector", "distinct_races"]

#: Race kinds: first access kind followed by second access kind.
WRITE_WRITE = "ww"
WRITE_READ = "wr"
READ_WRITE = "rw"

#: A program site: synthetic workloads use stable integer ids, while the
#: live frontend (:mod:`repro.live`) records real ``file:line`` strings.
#: Sites are only stored, compared, and rendered — never arithmetic — so
#: both representations flow through every detector and backend.
SiteId = Union[int, str]


@dataclass(frozen=True)
class Race:
    """A reported data race.

    The *first* access is the older one (recorded in metadata); the
    *second* is the access whose analysis detected the race.  ``distinct``
    identity — "each pair of program references" in the paper — is the
    ``(first_site, second_site)`` pair (see :func:`distinct_races`).
    """

    var: int
    kind: str  # one of "ww", "wr", "rw"
    first_tid: int
    first_clock: int
    first_site: SiteId
    second_tid: int
    second_site: SiteId
    index: int = -1  # trace position of the second access, if known
    first_index: int = -1  # trace position of the first access, if known

    @property
    def distinct_key(self) -> Tuple[SiteId, SiteId]:
        """Static identity of the race: the pair of program sites."""
        return (self.first_site, self.second_site)

    def __str__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"race[{self.kind}] var={self.var} "
            f"t{self.first_tid}@site{self.first_site} vs "
            f"t{self.second_tid}@site{self.second_site}"
        )


def distinct_races(races: Iterable[Race]) -> Set[Tuple[SiteId, SiteId]]:
    """The set of static (site-pair) races in a report list."""
    return {r.distinct_key for r in races}


class Detector:
    """Base class for all dynamic race detectors.

    Subclasses implement the typed event methods.  The base class
    provides race collection, counters, dispatch, and bookkeeping of
    which threads exist (thread 0 is implicitly the main thread).
    """

    #: human-readable name used in tables and benchmark output
    name = "abstract"

    def __init__(self, backend: Optional[str] = None) -> None:
        #: resolved state-backend name ("object" or "packed"); detectors
        #: with epoch-compressible per-variable state (FASTTRACK, PACER)
        #: switch storage layouts on it, the rest carry it as a label
        self.backend_name = resolve_backend(backend)
        self.races: List[Race] = []
        self.counters = OpCounters()
        self.perf = PerfCounters()
        #: optional :class:`repro.obs.RunObserver`; every instrumentation
        #: site guards on ``observer is None`` so the disabled path costs
        #: exactly one branch
        self.observer = None
        self._events_seen = 0
        self._threads: Set[int] = set()
        self._dispatch: Dict[str, Callable[[Event], None]] = {
            READ: self._ev_read,
            WRITE: self._ev_write,
            ACQUIRE: self._ev_acquire,
            RELEASE: self._ev_release,
            FORK: self._ev_fork,
            JOIN: self._ev_join,
            VOL_READ: self._ev_vol_read,
            VOL_WRITE: self._ev_vol_write,
            SBEGIN: self._ev_sbegin,
            SEND: self._ev_send,
            METHOD_ENTER: self._ev_method_enter,
            METHOD_EXIT: self._ev_method_exit,
            ALLOC: self._ev_ignore,
        }
        # the same handlers, indexed by the canonical kind id — the
        # default batched loop dispatches through this list
        self._dispatch_by_id: List[Callable[[Event], None]] = [
            self._dispatch[kind] for kind in ID_TO_KIND
        ]

    # -- public API --------------------------------------------------------

    def apply(self, event: Event) -> None:
        """Dispatch one trace event to the typed handler."""
        self._events_seen += 1
        handler = self._dispatch.get(event.kind)
        if handler is None:
            raise ValueError(f"unknown event kind: {event.kind!r}")
        handler(event)

    def run(self, events: Iterable[Event]) -> List[Race]:
        """Analyze a whole trace; returns the accumulated race list."""
        obs = self.observer
        if obs is not None and getattr(obs, "recorder", None) is not None:
            return self._run_provenance(iter_batches(events), obs)
        start = time.perf_counter_ns()
        count = 0
        if obs is None:
            for event in events:
                self.apply(event)
                count += 1
        else:
            cadence = obs.sample_every
            for event in events:
                self.apply(event)
                count += 1
                if count % cadence == 0:
                    obs.on_events(self, self._events_seen)
        self.perf.elapsed_ns += time.perf_counter_ns() - start
        self.perf.events += count
        return self.races

    def run_batch(
        self,
        events: Iterable[Event],
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> List[Race]:
        """Analyze a whole trace through the batched fast path.

        Behavior-identical to :meth:`run` — same races, counters, and
        metadata — but events flow as columnar :class:`EventBatch` chunks
        through :meth:`apply_batch`, which hot detectors override with an
        inlined loop.  ``events`` may be any event iterable or an already
        encoded :class:`EventBatch`.
        """
        obs = self.observer
        if obs is not None and getattr(obs, "recorder", None) is not None:
            return self._run_provenance(iter_batches(events, batch_size), obs)
        start = time.perf_counter_ns()
        count = 0
        batches = 0
        max_batch = 0
        batch_start = start
        for batch in iter_batches(events, batch_size):
            first_vt = self._events_seen
            self.apply_batch(batch)
            n = len(batch)
            count += n
            batches += 1
            if n > max_batch:
                max_batch = n
            if obs is not None:
                now = time.perf_counter_ns()
                obs.on_batch(self, first_vt, n, now - batch_start)
                batch_start = time.perf_counter_ns()
        perf = self.perf
        perf.elapsed_ns += time.perf_counter_ns() - start
        perf.events += count
        perf.batches += batches
        if max_batch > perf.max_batch:
            perf.max_batch = max_batch
        return self.races

    def _run_provenance(self, batches: Iterable[EventBatch], obs) -> List[Race]:
        """Batched replay with flight recording and report-time capture.

        The one loop :meth:`run` and :meth:`run_batch` share when the
        observer carries a :class:`~repro.obs.provenance.FlightRecorder`,
        so provenance is identical across dispatch modes.  Each slice is
        analyzed by :meth:`apply_batch`; the races it appended — through
        :meth:`report` or the engine kernels' ``races_append`` — get
        their contexts rebuilt as of their report time
        (``obs.on_batch_races``), and only then is the slice recorded.

        It keeps :meth:`run`'s observer contract, so metrics, timelines
        and reports do not depend on the dispatch mode or batch size:
        ``on_events`` fires at the same call-relative multiples of
        ``sample_every`` (slices are split there), and there is no
        ``on_batch`` and no batch accounting in ``perf``.
        """
        rec = obs.recorder
        start = time.perf_counter_ns()
        count = 0
        cadence = obs.sample_every
        races = self.races
        for batch in batches:
            n = len(batch)
            pos = 0
            while pos < n:
                stop = min(n, pos + cadence - count % cadence)
                part = batch if stop - pos == n else batch.slice(pos, stop)
                first = self._events_seen
                known = len(races)
                self.apply_batch(part)
                if len(races) > known:
                    obs.on_batch_races(self, races[known:], first, part)
                rec.record_batch(first, part)
                count += stop - pos
                pos = stop
                if count % cadence == 0:
                    obs.on_events(self, self._events_seen)
        self.perf.elapsed_ns += time.perf_counter_ns() - start
        self.perf.events += count
        return races

    def apply_batch(self, batch: EventBatch) -> None:
        """Process one encoded batch.

        The base implementation decodes each record and dispatches it
        exactly like :meth:`apply` (so every detector supports batches);
        FASTTRACK and PACER override it with inlined hot loops.
        """
        dispatch = self._dispatch_by_id
        id_to_kind = ID_TO_KIND
        seen = self._events_seen
        kinds, tids, targets, sites = batch.to_list_columns()
        for kid, tid, target, site in zip(kinds, tids, targets, sites):
            seen += 1
            self._events_seen = seen
            dispatch[kid](Event(id_to_kind[kid], tid, target, site))

    @property
    def distinct_races(self) -> Set[Tuple[SiteId, SiteId]]:
        """Static site-pair identities of all reported races."""
        return distinct_races(self.races)

    @property
    def n_threads(self) -> int:
        """Number of threads observed so far (at least 1)."""
        return max(len(self._threads), 1)

    def footprint_words(self) -> int:
        """Live metadata footprint in words; subclasses refine this."""
        return 0

    @property
    def tracked_variables(self) -> int:
        """Number of variables with live metadata; subclasses refine this."""
        return 0

    def max_clock_entries(self) -> int:
        """Largest live vector clock, in entries; subclasses refine this."""
        return 0

    def obs_sample(self) -> Dict[str, int]:
        """One observability probe of live analysis state.

        Called by :class:`repro.obs.RunObserver` at probe boundaries —
        never per event — so subclasses may do O(live metadata) work
        here.  All values must be deterministic functions of the trace.
        """
        words = self.footprint_words()
        return {
            "footprint_words": words,
            "meta_bytes": words * 4,
            "live_vars": self.tracked_variables,
            "vc_max": self.max_clock_entries(),
            "races": len(self.races),
            "threads": len(self._threads),
        }

    # -- typed events (subclass responsibilities) ---------------------------

    def read(self, tid: int, var: int, site: SiteId = 0) -> None:
        raise NotImplementedError

    def write(self, tid: int, var: int, site: SiteId = 0) -> None:
        raise NotImplementedError

    def acquire(self, tid: int, lock: int) -> None:
        raise NotImplementedError

    def release(self, tid: int, lock: int) -> None:
        raise NotImplementedError

    def fork(self, tid: int, child: int) -> None:
        raise NotImplementedError

    def join(self, tid: int, child: int) -> None:
        raise NotImplementedError

    def vol_read(self, tid: int, vol: int) -> None:
        raise NotImplementedError

    def vol_write(self, tid: int, vol: int) -> None:
        raise NotImplementedError

    def begin_sampling(self) -> None:
        """Enter a global sampling period (analysis no-op for always-on
        detectors; the observer still records the square wave)."""
        obs = self.observer
        if obs is not None:
            obs.on_sampling(True, self._events_seen)

    def end_sampling(self) -> None:
        """Leave a global sampling period (analysis no-op for always-on
        detectors; the observer still records the square wave)."""
        obs = self.observer
        if obs is not None:
            obs.on_sampling(False, self._events_seen)

    def method_enter(self, tid: int, method: int) -> None:
        """Method-entry hook (used by LiteRace; default no-op)."""

    def method_exit(self, tid: int, method: int) -> None:
        """Method-exit hook (used by LiteRace; default no-op)."""

    # -- race reporting helper ----------------------------------------------

    @property
    def now(self) -> int:
        """Index of the event currently being analyzed."""
        return self._events_seen - 1

    def report(
        self,
        var: int,
        kind: str,
        first_tid: int,
        first_clock: int,
        first_site: SiteId,
        second_tid: int,
        second_site: SiteId,
        first_index: int = -1,
    ) -> None:
        """Record a race report; analysis continues afterwards."""
        self.races.append(
            Race(
                var=var,
                kind=kind,
                first_tid=first_tid,
                first_clock=first_clock,
                first_site=first_site,
                second_tid=second_tid,
                second_site=second_site,
                index=self._events_seen - 1,
                first_index=first_index,
            )
        )

    # -- internal trampolines -------------------------------------------------

    def _note_thread(self, tid: int) -> None:
        self._threads.add(tid)

    def _ev_read(self, e: Event) -> None:
        self._note_thread(e.tid)
        self.read(e.tid, e.target, e.site)

    def _ev_write(self, e: Event) -> None:
        self._note_thread(e.tid)
        self.write(e.tid, e.target, e.site)

    def _ev_acquire(self, e: Event) -> None:
        self._note_thread(e.tid)
        self.acquire(e.tid, e.target)

    def _ev_release(self, e: Event) -> None:
        self._note_thread(e.tid)
        self.release(e.tid, e.target)

    def _ev_fork(self, e: Event) -> None:
        self._note_thread(e.tid)
        self._note_thread(e.target)
        self.fork(e.tid, e.target)

    def _ev_join(self, e: Event) -> None:
        self._note_thread(e.tid)
        self.join(e.tid, e.target)

    def _ev_vol_read(self, e: Event) -> None:
        self._note_thread(e.tid)
        self.vol_read(e.tid, e.target)

    def _ev_vol_write(self, e: Event) -> None:
        self._note_thread(e.tid)
        self.vol_write(e.tid, e.target)

    def _ev_sbegin(self, _e: Event) -> None:
        self.begin_sampling()

    def _ev_send(self, _e: Event) -> None:
        self.end_sampling()

    def _ev_method_enter(self, e: Event) -> None:
        self.method_enter(e.tid, e.target)

    def _ev_method_exit(self, e: Event) -> None:
        self.method_exit(e.tid, e.target)

    def _ev_ignore(self, _e: Event) -> None:
        pass


class NullDetector(Detector):
    """A detector that analyzes nothing.

    Stands in for the uninstrumented baseline configuration in the
    overhead and space benchmarks ("Base" in Figures 7-10).
    """

    name = "none"

    def read(self, tid: int, var: int, site: int = 0) -> None:
        pass

    def write(self, tid: int, var: int, site: int = 0) -> None:
        pass

    def acquire(self, tid: int, lock: int) -> None:
        pass

    def release(self, tid: int, lock: int) -> None:
        pass

    def fork(self, tid: int, child: int) -> None:
        pass

    def join(self, tid: int, child: int) -> None:
        pass

    def vol_read(self, tid: int, vol: int) -> None:
        pass

    def vol_write(self, tid: int, vol: int) -> None:
        pass
