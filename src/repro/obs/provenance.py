"""Race provenance: flight recorder and happens-before witnesses.

PACER's qualitative claim is that each sampled race arrives with "the
ability to report the racy accesses" — a report a developer can act on,
not just a ``(var, site, site)`` triple.  This module supplies the two
evidence sources behind ``repro.obs.reports``:

* :class:`FlightRecorder` — a bounded per-thread ring buffer of recent
  events (accesses *and* sync operations, with their sites and virtual
  times).  Recording is entirely absent when no recorder is attached:
  the detectors' hot paths keep their single ``observer is None``
  branch.  With one attached, :meth:`Detector.run`/``run_batch`` still
  analyze columnar batches: after each batch,
  :meth:`FlightRecorder.record_batch` moves each thread's last ``window``
  events of the batch into its ring, and
  :meth:`FlightRecorder.capture_batch` rebuilds the context of every race
  the batch reported from the rings as they stood before the batch plus
  the batch itself — exactly what :meth:`FlightRecorder.capture` would
  have cut out of per-event rings at report time.

* :class:`SyncIndex` + :func:`extract_witness` — reconstructs the
  vector-clock evidence for a reported race: the release-like operations
  the first thread performed between the two accesses, the acquire-like
  operations the second thread performed, and whether any of them form a
  happens-before edge.  A race report is *believable* when no such edge
  exists (``"no-release"`` or ``"sync-gap"``); an edge found
  (``"ordering-edge"``) flags the report as suspicious — precise
  detectors never produce one.  The witness also attributes the report
  to PACER's sampling square wave: which sampling period contained each
  access, which explains both why a race *was* caught and (via
  ``repro explain``'s discard attribution) why a non-sampled shortest
  race was not.

A :class:`SyncIndex` built :meth:`~SyncIndex.from_trace` is exact; one
built :meth:`~SyncIndex.from_recorder` sees only the recorder's bounded
sync window and says so in the witness (``"source": "flight-recorder"``).
Everything here is a deterministic function of the event sequence —
reports built from either state backend and either dispatch mode are
byte-identical, which the determinism tests pin.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from itertools import compress, groupby
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from ..trace.batch import EventBatch
from ..trace.events import (
    ACQUIRE,
    FORK,
    ID_TO_KIND,
    JOIN,
    KIND_TO_ID,
    RELEASE,
    SBEGIN,
    SEND,
    SYNC_KINDS,
    VOL_READ,
    VOL_WRITE,
)

__all__ = [
    "DEFAULT_WINDOW",
    "FlightRecorder",
    "SyncIndex",
    "SyncIndexBuilder",
    "extract_witness",
]

#: default per-thread ring capacity (events kept around each access)
DEFAULT_WINDOW = 64

#: default per-thread sync-operation log capacity (sync ops are ~3% of a
#: trace, so this window spans far more virtual time than the event ring)
DEFAULT_SYNC_WINDOW = 256

#: operations that can *send* a happens-before edge (release semantics)
RELEASE_LIKE = frozenset((RELEASE, VOL_WRITE, FORK))

#: operations that can *receive* a happens-before edge (acquire semantics)
ACQUIRE_LIKE = frozenset((ACQUIRE, VOL_READ, JOIN))

#: release kind -> the acquire kind that completes its edge on the same
#: object (fork/join pair on thread ids and are matched separately)
_PAIRED = {RELEASE: ACQUIRE, VOL_WRITE: VOL_READ}

_SBEGIN_ID = KIND_TO_ID[SBEGIN]
_SEND_ID = KIND_TO_ID[SEND]

#: kind-id byte -> 1 for sync operations and sampling marks, 0 otherwise;
#: a translated kind column finds a batch's (rare) sync events with
#: ``bytes.find`` instead of a per-event Python test
_SYNC_OR_MARK_TABLE = bytes(
    1 if b < len(ID_TO_KIND) and (ID_TO_KIND[b] in SYNC_KINDS
                                  or b in (_SBEGIN_ID, _SEND_ID)) else 0
    for b in range(256)
)

#: kind-id byte -> 0 for sampling marks, 1 otherwise (ring selector)
_NOT_MARK_TABLE = bytes(0 if b in (_SBEGIN_ID, _SEND_ID) else 1 for b in range(256))


def _index_sync(
    first: int,
    kinds: Sequence[int],
    tids: Sequence[int],
    targets: Sequence[int],
    marks: List[Tuple[int, bool]],
    logs: Dict,
    new_log: Callable,
) -> int:
    """Fold one batch's sync operations and sampling transitions in.

    Appends each sync operation, in trace order, to its thread's log
    (created by ``new_log``) and each ``sbegin``/``send`` transition to
    ``marks`` (redundant transitions dropped).  Returns the number of
    sampling-mark events in the batch.
    """
    n_marks = 0
    mask = bytes(kinds).translate(_SYNC_OR_MARK_TABLE)
    i = mask.find(1)
    while i >= 0:
        kid = kinds[i]
        if kid == _SBEGIN_ID or kid == _SEND_ID:
            n_marks += 1
            entering = kid == _SBEGIN_ID
            if not marks or marks[-1][1] != entering:
                marks.append((first + i, entering))
        else:
            tid = tids[i]
            log = logs.get(tid)
            if log is None:
                log = logs[tid] = new_log()
            log.append((first + i, ID_TO_KIND[kid], targets[i]))
        i = mask.find(1, i + 1)
    return n_marks


def _positions_by_thread(kinds: Sequence[int], tids: Sequence[int],
                         has_marks: bool) -> Dict[int, List[int]]:
    """Batch positions of each thread's events, in trace order.

    Sampling marks belong to no thread and are left out.  A stable sort
    of the positions by thread id does the grouping, so no Python code
    runs per event.
    """
    positions = range(len(kinds))
    if has_marks:
        positions = compress(positions, bytes(kinds).translate(_NOT_MARK_TABLE))
    tid_of = tids.__getitem__
    return {
        tid: list(group)
        for tid, group in groupby(sorted(positions, key=tid_of), key=tid_of)
    }


class FlightRecorder:
    """Bounded per-thread ring buffers of recent events.

    :meth:`record_batch` feeds a whole analyzed batch at once (the
    detector run loops); :meth:`record` feeds one event (the live
    monitor, which sees events one at a time).  Sync operations are
    additionally kept in a longer per-thread side log so witnesses can
    reach back further than the access window, and ``sbegin``/``send``
    transitions land in ``sampling_marks`` for sampling attribution.
    """

    __slots__ = (
        "window",
        "sync_window",
        "context_before",
        "context_after",
        "sampling_marks",
        "events_recorded",
        "_rings",
        "_sync",
    )

    def __init__(
        self,
        window: int = DEFAULT_WINDOW,
        sync_window: int = DEFAULT_SYNC_WINDOW,
        context_before: int = 8,
        context_after: int = 4,
    ) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = window
        self.sync_window = max(sync_window, window)
        self.context_before = context_before
        self.context_after = context_after
        #: (virtual time, entering) sampling transitions, deduplicated
        self.sampling_marks: List[Tuple[int, bool]] = []
        self.events_recorded = 0
        self._rings: Dict[int, Deque[Tuple[int, str, int, int]]] = {}
        self._sync: Dict[int, Deque[Tuple[int, str, int]]] = {}

    # -- recording (hot path) -----------------------------------------------

    def record(self, index: int, kind: str, tid: int, target, site) -> None:
        """Record one event about to be analyzed at trace position ``index``."""
        if kind == SBEGIN or kind == SEND:
            entering = kind == SBEGIN
            marks = self.sampling_marks
            if not marks or marks[-1][1] != entering:
                marks.append((index, entering))
            return
        ring = self._rings.get(tid)
        if ring is None:
            ring = self._rings[tid] = deque(maxlen=self.window)
        ring.append((index, kind, target, site))
        if kind in SYNC_KINDS:
            log = self._sync.get(tid)
            if log is None:
                log = self._sync[tid] = deque(maxlen=self.sync_window)
            log.append((index, kind, target))
        self.events_recorded += 1

    def record_batch(self, first: int, batch: EventBatch) -> None:
        """Record a batch whose first event sits at trace position ``first``.

        Equivalent to :meth:`record` on every event in order: the sync
        logs and sampling marks take every sync operation and transition
        (found through the translated kind column), and each thread's
        ring takes that thread's last ``window`` events of the batch.
        No Python code runs per event: threads are grouped by
        :func:`_positions_by_thread` and ring rows are built by ``map``.
        """
        kinds, tids, targets, sites = batch.to_list_columns()
        n = len(kinds)
        if not n:
            return
        n_marks = _index_sync(
            first, kinds, tids, targets, self.sampling_marks, self._sync,
            lambda: deque(maxlen=self.sync_window),
        )
        window = self.window
        rings = self._rings
        for tid, own in _positions_by_thread(kinds, tids, n_marks > 0).items():
            tail = own[-window:]
            ring = rings.get(tid)
            if ring is None:
                ring = rings[tid] = deque(maxlen=window)
            ring.extend(zip(
                map(first.__add__, tail),
                map(ID_TO_KIND.__getitem__, map(kinds.__getitem__, tail)),
                map(targets.__getitem__, tail),
                map(sites.__getitem__, tail),
            ))
        self.events_recorded += n - n_marks

    # -- capture (report time) ----------------------------------------------

    def _context(self, tid: int, pivot: int, ring=None) -> Dict:
        """Events around trace position ``pivot`` held in tid's ring
        (the recorder's own ring unless ``ring`` is given)."""
        if ring is None:
            ring = self._rings.get(tid)
        before: List[Tuple[int, str, int, int]] = []
        after: List[Tuple[int, str, int, int]] = []
        if ring:
            for row in ring:
                if row[0] <= pivot:
                    before.append(row)
                elif len(after) < self.context_after:
                    after.append(row)
        keep = self.context_before + 1  # the access itself plus its prefix
        return {
            "tid": tid,
            "events": [
                {"vt": index, "kind": kind, "target": target, "site": site}
                for index, kind, target, site in before[-keep:] + after
            ],
            "complete": bool(before) and before[-1][0] == pivot,
        }

    def capture(self, race) -> Dict:
        """Flight-recorder context for both accesses of a reported race.

        Called from ``RunObserver.on_race`` immediately after the racing
        (second) access was analyzed, so the second context is always
        complete; the first access may have aged out of its thread's
        ring, in which case its ``complete`` flag is False and the
        nearest surviving events are returned instead.
        """
        second = self._context(race.second_tid, race.index)
        first: Optional[Dict] = None
        if race.first_index >= 0:
            first = self._context(race.first_tid, race.first_index)
        return {"first": first, "second": second, "window": self.window}

    def capture_batch(
        self, races: Sequence, first: int, batch: EventBatch
    ) -> List[Dict]:
        """:meth:`capture` for races reported while ``batch`` was analyzed.

        Called after the batch was analyzed but *before*
        :meth:`record_batch` records it: each race's report time is its
        second access, ``race.index``, so a thread's ring as it stood
        then is its current ring extended by its batch events up to that
        position, cut to the last ``window`` events.
        """
        kinds, tids, targets, sites = batch.to_list_columns()
        kb = bytes(kinds)
        by_thread = _positions_by_thread(
            kinds, tids, kb.count(_SBEGIN_ID) + kb.count(_SEND_ID) > 0
        )
        window = self.window

        def ring_at(tid: int, now: int) -> List[Tuple[int, str, int, int]]:
            own = by_thread.get(tid, ())
            cut = bisect_right(own, now - first)
            ring = [
                (first + i, ID_TO_KIND[kinds[i]], targets[i], sites[i])
                for i in own[max(cut - window, 0):cut]
            ]
            older = window - len(ring)
            held = self._rings.get(tid)
            if older > 0 and held:
                ring = list(held)[-older:] + ring
            return ring

        out: List[Dict] = []
        for race in races:
            now = race.index
            second = self._context(
                race.second_tid, race.index, ring_at(race.second_tid, now)
            )
            first_ctx: Optional[Dict] = None
            if race.first_index >= 0:
                first_ctx = self._context(
                    race.first_tid, race.first_index,
                    ring_at(race.first_tid, now),
                )
            out.append({"first": first_ctx, "second": second, "window": window})
        return out


class SyncIndex:
    """Per-thread synchronization operations plus the sampling square wave.

    The witness substrate: built either from a full in-memory trace
    (exact) or from a :class:`FlightRecorder`'s bounded sync logs.
    """

    def __init__(
        self,
        sync_by_tid: Dict[int, List[Tuple[int, str, int]]],
        sampling_marks: List[Tuple[int, bool]],
        source: str,
        complete: bool,
    ) -> None:
        self._sync = sync_by_tid
        self.sampling_marks = list(sampling_marks)
        self.source = source
        self.complete = complete

    @classmethod
    def from_trace(cls, events) -> "SyncIndex":
        """Exact index over a full event sequence."""
        builder = SyncIndexBuilder()
        builder.add_batch(0, EventBatch.from_events(list(events)))
        return builder.build()

    @classmethod
    def from_builder(cls, builder: "SyncIndexBuilder") -> "SyncIndex":
        """Exact index accumulated incrementally (streaming ingestion)."""
        return builder.build()

    @classmethod
    def from_recorder(cls, recorder: FlightRecorder) -> "SyncIndex":
        """Bounded index over a flight recorder's sync logs."""
        sync = {tid: list(log) for tid, log in recorder._sync.items()}
        return cls(
            sync, recorder.sampling_marks, source="flight-recorder", complete=False
        )

    # -- sync queries --------------------------------------------------------

    def releases_between(self, tid: int, lo: int, hi: int) -> List[Tuple[int, str, int]]:
        """Release-like ops by ``tid`` with virtual time in ``(lo, hi)``."""
        return [
            op
            for op in self._sync.get(tid, ())
            if lo < op[0] < hi and op[1] in RELEASE_LIKE
        ]

    def acquires_between(self, tid: int, lo: int, hi: int) -> List[Tuple[int, str, int]]:
        """Acquire-like ops by ``tid`` with virtual time in ``(lo, hi)``."""
        return [
            op
            for op in self._sync.get(tid, ())
            if lo < op[0] < hi and op[1] in ACQUIRE_LIKE
        ]

    # -- sampling attribution ------------------------------------------------

    def periods(self) -> List[Tuple[int, Optional[int]]]:
        """Sampling periods as (begin vt, end vt) pairs; a period still
        open at the end of the trace has end ``None``."""
        out: List[Tuple[int, Optional[int]]] = []
        open_at: Optional[int] = None
        for vt, entering in self.sampling_marks:
            if entering and open_at is None:
                open_at = vt
            elif not entering and open_at is not None:
                out.append((open_at, vt))
                open_at = None
        if open_at is not None:
            out.append((open_at, None))
        return out

    def period_of(self, index: int) -> Optional[int]:
        """Ordinal (0-based) of the sampling period containing ``index``."""
        if index < 0:
            return None
        for ordinal, (begin, end) in enumerate(self.periods()):
            if begin <= index and (end is None or index < end):
                return ordinal
        return None


class SyncIndexBuilder:
    """Incrementally accumulate an *exact* :class:`SyncIndex`.

    The streaming ingestion path (``repro.net.shard``) sees a session's
    events chunk by chunk and cannot keep the full trace, but it can
    afford this builder: sync operations are a few percent of a trace,
    so holding all of them stays far below holding every access.  Feed
    every batch with the *global* trace position of its first event,
    then :meth:`build`.  The result is indistinguishable from
    :meth:`SyncIndex.from_trace` over the concatenated trace — which is
    what makes streamed race reports byte-identical to offline ones.
    """

    __slots__ = ("_sync", "_marks", "events_indexed")

    def __init__(self) -> None:
        self._sync: Dict[int, List[Tuple[int, str, int]]] = {}
        self._marks: List[Tuple[int, bool]] = []
        self.events_indexed = 0

    def add_batch(self, start: int, batch: EventBatch) -> int:
        """Index a batch whose first event sits at position ``start``;
        returns the position one past the batch's last event."""
        kinds, tids, targets, _sites = batch.to_list_columns()
        _index_sync(start, kinds, tids, targets, self._marks, self._sync, list)
        self.events_indexed += len(kinds)
        return start + len(kinds)

    def build(self) -> SyncIndex:
        """Snapshot the accumulated state as an exact index."""
        return SyncIndex(
            {tid: list(ops) for tid, ops in self._sync.items()},
            self._marks,
            source="trace",
            complete=True,
        )


def _op_dicts(ops: List[Tuple[int, str, int]], cap: int = 6) -> List[Dict]:
    return [{"vt": vt, "kind": kind, "target": target} for vt, kind, target in ops[:cap]]


def extract_witness(race, sync: SyncIndex) -> Dict:
    """Happens-before evidence for one reported race.

    Looks for a single release→acquire edge between the two accesses:
    a release-like operation by the first thread after its access,
    matched with an acquire-like operation on the same object by the
    second thread before the report.  Three verdicts:

    * ``"no-release"`` — the first thread performed no release-like
      operation in the window: no happens-before path can exist, the
      strongest possible confirmation.
    * ``"sync-gap"`` — both threads synchronized, but on disjoint
      objects; no single edge connects the accesses.  (A multi-hop path
      through a third thread is not searched; FASTTRACK's vector clocks
      already rule one out for precise detectors.)
    * ``"ordering-edge"`` — a connecting edge *was* found, so the
      accesses are ordered and the report is suspect (imprecise
      detectors, or clocks frozen by PACER's non-sampling rules).
    """
    i, j = race.first_index, race.index
    a, b = race.first_tid, race.second_tid
    lo = i if i >= 0 else -1
    rels = sync.releases_between(a, lo, j)
    acqs = sync.acquires_between(b, lo, j)

    edge: Optional[Dict] = None
    for k, rkind, rtarget in rels:
        if rkind == FORK and rtarget == b:
            # fork(a -> b) after the first access orders it before all of b
            edge = {"kind": "fork", "target": rtarget, "release_vt": k,
                    "acquire_vt": k}
            break
        want = _PAIRED.get(rkind)
        if want is None:
            continue
        for m, akind, atarget in acqs:
            if m > k and akind == want and atarget == rtarget:
                edge = {"kind": f"{rkind}->{akind}", "target": rtarget,
                        "release_vt": k, "acquire_vt": m}
                break
        if edge is not None:
            break
    if edge is None:
        for m, akind, atarget in acqs:
            if akind == JOIN and atarget == a:
                # join(b <- a): everything a did before terminating — the
                # first access included — happens before the report
                edge = {"kind": "join", "target": a, "release_vt": m,
                        "acquire_vt": m}
                break

    if edge is not None:
        verdict = "ordering-edge"
        summary = (
            f"suspicious: {edge['kind']} on {edge['target']} "
            f"(vt {edge['release_vt']}->{edge['acquire_vt']}) orders the "
            f"accesses; a precise detector would not report this pair"
        )
    elif not rels:
        verdict = "no-release"
        summary = (
            f"t{a} performed no release/fork/volatile-write between the racy "
            f"access (vt {i}) and the report (vt {j}): no happens-before "
            f"edge was possible"
        )
    else:
        verdict = "sync-gap"
        rel_objs = sorted({t for _, _, t in rels})
        acq_objs = sorted({t for _, _, t in acqs})
        acq_desc = f"acquired {acq_objs}" if acq_objs else "acquired nothing"
        summary = (
            f"sync gap: t{a} released {rel_objs} but t{b} {acq_desc} "
            f"between vt {i} and vt {j} — no common object connects the "
            f"accesses"
        )

    sampling: Optional[Dict] = None
    if sync.sampling_marks:
        sampling = {
            "first_period": sync.period_of(i),
            "second_period": sync.period_of(j),
            "n_periods": len(sync.periods()),
        }

    return {
        "verdict": verdict,
        "summary": summary,
        "source": sync.source,
        "complete": sync.complete,
        "releases_after_first": _op_dicts(rels),
        "acquires_before_second": _op_dicts(acqs),
        "edge": edge,
        "sampling": sampling,
    }
