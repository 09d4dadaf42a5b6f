"""The run observer: virtual-time probes, timelines, and span collection.

A :class:`RunObserver` is the one object the rest of the stack talks to.
Attach it to a detector (and optionally a runtime/scheduler) and it

* records the **sampling square wave** — every ``sbegin``/``send``
  transition with its virtual time (event index);
* drives **probes**: at a fixed virtual-time cadence (and at every GC
  boundary in live runs) it samples the detector's live analysis state —
  metadata footprint, live-variable count, vector-clock sizes,
  races-so-far, cost-class operation counts — into an append-only
  timeline;
* collects **spans**: per-batch dispatch slices (with wall nanoseconds
  in their args), scheduler thread lifetimes, and named phases;
* owns a :class:`~repro.obs.metrics.MetricsRegistry` that finalization
  fills with the run's deterministic operation accounting.

Cost discipline: every instrumented hot path guards with a single
``observer is None`` branch, and nothing here runs per event — probes
fire per batch / per GC, sampling marks per period transition.  With no
observer attached the instrumentation is one predictable branch.  Race
provenance is opt-in: when a
:class:`~repro.obs.provenance.FlightRecorder` is attached via
``RunObserver(recorder=...)``, the detector run loops record each
analyzed batch into bounded per-thread rings and
:meth:`RunObserver.on_batch_races` rebuilds each reported race's context
as of its report time — still the batched execution path, and never a
cost on the disabled path.

Determinism: probes are driven by *virtual* time only, so
:meth:`timeline_jsonl` is byte-identical across repeated runs, ``--jobs``
values, and machines.  Wall-clock measurements appear exclusively in
Perfetto span args (see :mod:`repro.obs.perfetto`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .metrics import MetricsRegistry
from .perfetto import (
    PID_DETECTOR,
    PID_SCHEDULER,
    TID_DISPATCH,
    TID_PHASES,
    TID_SAMPLING,
    counter_event,
    instant_event,
    process_metadata,
    race_flow_events,
    span_event,
    validate_chrome_trace,
    write_chrome_trace,
)

__all__ = ["RunObserver"]

#: default virtual-time distance between probes (= one default batch)
DEFAULT_SAMPLE_EVERY = 4096

#: timeline fields exported as Perfetto counter tracks, in track order
COUNTER_TRACKS = (
    "footprint_words",
    "live_vars",
    "races",
    "sampling",
    "reads_slow",
    "writes_slow",
    "joins_slow",
)


class RunObserver:
    """Collects probes, spans, and metrics for one detector run."""

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        sample_every: int = DEFAULT_SAMPLE_EVERY,
        recorder=None,
    ) -> None:
        if sample_every <= 0:
            raise ValueError(f"sample_every must be positive, got {sample_every}")
        self.registry = registry if registry is not None else MetricsRegistry()
        self.sample_every = sample_every
        #: optional :class:`repro.obs.provenance.FlightRecorder`; when set,
        #: ``Detector.run``/``run_batch`` record every analyzed batch and
        #: call :meth:`on_batch_races` for the race reports it appended
        self.recorder = recorder
        #: flight-recorder context per race report, parallel to the
        #: detector's race list (empty dicts when no recorder is attached)
        self.race_contexts: List[Dict] = []
        #: the detector's race list at finalize time — feeds the Perfetto
        #: race-arrow flow events in :meth:`trace_events`
        self.final_races: List = []
        self.timeline: List[Dict[str, int]] = []
        #: (virtual time, entering) sampling transitions, in order
        self.sampling_marks: List[Tuple[int, bool]] = []
        #: (first vt, n events, wall ns) per dispatched batch
        self.batch_slices: List[Tuple[int, int, int]] = []
        #: (tid, first step, last step) per finished simulated thread
        self.thread_spans: List[Tuple[int, int, int]] = []
        #: (name, begin vt, end vt) phases (replay, scheduler run, ...)
        self.phase_spans: List[Tuple[str, int, int]] = []
        #: (name, ts, pid) instant pulses (GCs, timed-wait clock jumps)
        self.instants: List[Tuple[str, int, int]] = []
        self._sampling = False
        self._next_probe = 0
        self._final_vt = 0
        self._finalized = False
        #: (final vt, events seen, races) at the last finalize; a repeat
        #: call with identical state is a no-op (no duplicate probe)
        self._finalized_state: Optional[Tuple[int, int, int]] = None

    # -- attachment ---------------------------------------------------------

    def attach(self, detector) -> "RunObserver":
        """Point a detector's observer slot at this observer."""
        detector.observer = self
        return self

    # -- hooks (called by instrumented components) --------------------------

    def on_sampling(self, entering: bool, vt: int) -> None:
        """A global sampling period begins (or ends) at virtual time vt."""
        vt = max(vt, 0)
        if entering == self._sampling:
            return  # redundant transition (e.g. repeated sbegin)
        self._sampling = entering
        self.sampling_marks.append((vt, entering))
        if entering:
            self.registry.counter("sampling_periods").inc()

    def on_batch(self, detector, vt_start: int, n_events: int, wall_ns: int) -> None:
        """One columnar batch was dispatched; probe at the batch boundary."""
        self.batch_slices.append((max(vt_start, 0), n_events, wall_ns))
        self.registry.histogram("batch_events").observe(n_events)
        self.maybe_probe(detector, vt_start + n_events)

    def on_events(self, detector, vt: int) -> None:
        """Scalar-dispatch progress hook (same cadence as batches)."""
        self.maybe_probe(detector, vt)

    def on_race(self, detector, race) -> None:
        """A race report was just appended; capture its flight-recorder
        context while the surrounding events are still in the rings."""
        rec = self.recorder
        self.race_contexts.append(rec.capture(race) if rec is not None else {})

    def on_batch_races(self, detector, races, first: int, batch) -> None:
        """Races reported while ``batch`` (first event at trace position
        ``first``) was analyzed; capture their flight-recorder contexts
        before the recorder records the batch."""
        self.race_contexts.extend(self.recorder.capture_batch(races, first, batch))

    def on_gc(self, detector, vt: int) -> None:
        """A nursery collection: the live path's natural probe boundary."""
        self.registry.counter("gc_count").inc()
        self.instants.append(("gc", vt, PID_DETECTOR))
        self.probe(detector, vt)

    def on_phase(self, name: str, begin: int, end: int) -> None:
        self.phase_spans.append((name, begin, end))

    def on_thread_span(self, tid: int, begin_step: int, end_step: int) -> None:
        self.thread_spans.append((tid, begin_step, end_step))

    def on_clock_jump(self, step: int) -> None:
        """The scheduler advanced its clock to a timed-wait deadline."""
        self.registry.counter("scheduler_clock_jumps").inc()
        self.instants.append(("timed-wait clock jump", step, PID_SCHEDULER))

    # -- probes -------------------------------------------------------------

    def maybe_probe(self, detector, vt: int) -> None:
        """Probe if virtual time has crossed the sampling cadence."""
        if vt >= self._next_probe:
            self.probe(detector, vt)

    def probe(self, detector, vt: int) -> None:
        """Sample detector state into one timeline record at time vt."""
        vt = max(vt, 0)
        self._next_probe = vt + self.sample_every
        if vt > self._final_vt:
            self._final_vt = vt
        record = dict(detector.obs_sample())
        record["vt"] = vt
        record["sampling"] = 1 if self._sampling else 0
        c = detector.counters
        record["reads_fast"] = c.reads_fast_sampling + c.reads_fast_nonsampling
        record["reads_slow"] = c.reads_slow_sampling + c.reads_slow_nonsampling
        record["writes_fast"] = c.writes_fast_sampling + c.writes_fast_nonsampling
        record["writes_slow"] = c.writes_slow_sampling + c.writes_slow_nonsampling
        record["joins_fast"] = c.joins_fast
        record["joins_slow"] = c.joins_slow
        self.timeline.append(record)
        reg = self.registry
        for name in ("footprint_words", "live_vars", "vc_max", "races", "threads"):
            if name in record:
                reg.gauge(name).set(record[name])

    def finalize(self, detector, vt: Optional[int] = None) -> None:
        """Close the run: final probe plus registry totals.

        Idempotent *and re-entrant*: every total is written as an
        absolute value (not an increment), so calling finalize twice in
        a row changes nothing, and calling it again after *more* events
        arrived — the telemetry server finalizes at every disconnect,
        then again after a session resumes — refreshes the totals
        instead of double-counting them.  Only a finalize that observes
        new detector state emits another timeline probe.
        """
        final_vt = vt if vt is not None else max(self._final_vt, detector.perf.events)
        state = (final_vt, detector._events_seen, len(detector.races))
        if self._finalized and self._finalized_state == state:
            return
        self._finalized = True
        self._finalized_state = state
        self.final_races = list(detector.races)
        self.probe(detector, final_vt)
        reg = self.registry
        reg.count_many("ops", detector.counters.snapshot(), "op")
        # label the run with its state representation so space/throughput
        # series from different backends never get silently mixed
        reg.counter(
            "detector_runs",
            detector=detector.name,
            backend=getattr(detector, "backend_name", "object"),
        ).value = 1
        # live runs pump Detector.apply directly, leaving perf.events at
        # zero — virtual time is the event count there
        reg.counter("events").value = detector.perf.events or final_vt
        reg.counter("races").value = len(detector.races)
        reg.counter("distinct_races").value = len(detector.distinct_races)
        reg.counter("batches").value = detector.perf.batches

    @property
    def final_vt(self) -> int:
        return self._final_vt

    # -- timeline output ----------------------------------------------------

    def timeline_jsonl(self) -> str:
        """The timeline as deterministic JSONL (sorted keys, compact)."""
        import json

        return "".join(
            json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"
            for rec in self.timeline
        )

    def write_timeline(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.timeline_jsonl())

    def write_metrics(self, path) -> None:
        self.registry.write_json(path)

    # -- Perfetto output ----------------------------------------------------

    def sampling_periods(self) -> List[Tuple[int, int]]:
        """Closed (begin vt, end vt) sampling intervals; open periods end
        at the final virtual time."""
        periods: List[Tuple[int, int]] = []
        open_at: Optional[int] = None
        for vt, entering in self.sampling_marks:
            if entering and open_at is None:
                open_at = vt
            elif not entering and open_at is not None:
                periods.append((open_at, vt))
                open_at = None
        if open_at is not None:
            periods.append((open_at, max(self._final_vt, open_at)))
        return periods

    def trace_events(self) -> List[Dict]:
        """The full run as trace-event dicts (see :mod:`.perfetto`)."""
        events = process_metadata()
        for name, begin, end in self.phase_spans:
            events.append(
                span_event(name, begin, end - begin, PID_DETECTOR, TID_PHASES,
                           cat="phase")
            )
        for begin, end in self.sampling_periods():
            events.append(
                span_event("sampling period", begin, end - begin,
                           PID_DETECTOR, TID_SAMPLING, cat="sampling")
            )
        for vt, n, wall_ns in self.batch_slices:
            events.append(
                span_event(
                    "batch", vt, n, PID_DETECTOR, TID_DISPATCH, cat="dispatch",
                    args={
                        "events": n,
                        "wall_ns": wall_ns,
                        "ns_per_event": round(wall_ns / n, 2) if n else 0.0,
                    },
                )
            )
            if n:
                events.append(
                    counter_event("wall_ns_per_event", vt, round(wall_ns / n, 2))
                )
        for record in self.timeline:
            ts = record["vt"]
            for name in COUNTER_TRACKS:
                if name in record:
                    events.append(counter_event(name, ts, record[name]))
        for tid, begin, end in self.thread_spans:
            events.append(
                span_event(f"t{tid}", begin, end - begin, PID_SCHEDULER, tid,
                           cat="thread")
            )
        for name, ts, pid in self.instants:
            events.append(instant_event(name, ts, pid))
        if self.final_races:
            events.extend(race_flow_events(self.final_races))
        return events

    def write_trace(self, path) -> None:
        events = self.trace_events()
        problems = validate_chrome_trace({"traceEvents": events})
        if problems:  # pragma: no cover - defensive; tests pin validity
            raise ValueError(f"invalid trace export: {problems[:3]}")
        write_chrome_trace(path, events)
