"""Compact binary trace serialization.

Paper-scale traces run to 10⁹ events; the text format
(:mod:`repro.trace.textio`) is convenient but ~20 bytes/event.  This
format packs each event into a varint-coded record (~3-6 bytes typical),
with a small header and — since version 2 — an integrity trailer:

    magic  b"PACR"    4 bytes
    version           1 byte
    event count       varint
    events            kind-id varint, tid+1 varint, target varint, site varint
    crc32 trailer     4 bytes little-endian (version >= 2 only)

The trailer is CRC32 over every preceding byte, so a flipped bit or a
silently shortened file is caught even when the damage still parses as
well-formed varints.  Version 1 files (no trailer) remain readable;
writers emit version 2 by default.

Kind ids are the canonical numbering in
:data:`repro.trace.events.KIND_TO_ID`.  ``sbegin``/``send`` encode only
their kind id.  The format round-trips exactly; truncated or corrupt
input raises :class:`~repro.trace.trace.TraceFormatError` with a message
naming the precise failure (bad magic, unsupported version, truncated
varint at a byte offset, trailing bytes, or a CRC32 mismatch) rather
than yielding garbage events.  ``repro verify-trace`` exposes the same
checks as a CLI command via :func:`describe_binary`.
"""

from __future__ import annotations

import zlib
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from .events import Event, ID_TO_KIND, KIND_TO_ID, SBEGIN, SEND
from .trace import Trace, TraceFormatError

__all__ = [
    "dump_trace_binary",
    "load_trace_binary",
    "dumps_binary",
    "loads_binary",
    "loads_binary_columns",
    "load_trace_columns",
    "describe_binary",
    "check_binary",
]

MAGIC = b"PACR"
#: newest format version, what ``dumps_binary`` emits by default
VERSION = 2
#: the legacy checksum-free format; still readable, never written unless asked
VERSION_1 = 1
SUPPORTED_VERSIONS = (VERSION_1, VERSION)

_CRC_BYTES = 4

_N_KINDS = len(ID_TO_KIND)
_SBEGIN_ID = KIND_TO_ID[SBEGIN]
_SEND_ID = KIND_TO_ID[SEND]

# historical aliases from when the numbering lived in this module
_KIND_TO_ID = KIND_TO_ID
_ID_TO_KIND = ID_TO_KIND


def _write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise ValueError(f"varint cannot encode negative value {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_varint(data: bytes, pos: int, end: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= end:
            raise TraceFormatError(f"truncated varint at byte {pos}")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise TraceFormatError(f"varint longer than 64 bits at byte {pos}")


def dumps_binary(events: Iterable[Event], version: int = VERSION) -> bytes:
    """Serialize events to the binary format (version 2 by default).

    ``version=1`` writes the legacy trailer-free layout — kept for
    compatibility tests and for producing fixtures older readers accept.
    """
    if version not in SUPPORTED_VERSIONS:
        raise ValueError(f"cannot write version {version} (supported: {SUPPORTED_VERSIONS})")
    events = list(events)
    out = bytearray()
    out += MAGIC
    out.append(version)
    _write_varint(out, len(events))
    for e in events:
        kind_id = KIND_TO_ID.get(e.kind)
        if kind_id is None:
            raise ValueError(f"unknown event kind {e.kind!r}")
        _write_varint(out, kind_id)
        if e.kind in (SBEGIN, SEND):
            continue
        if e.tid < -1:
            raise ValueError(f"cannot encode tid {e.tid}")
        if e.target < 0:
            raise ValueError(f"cannot encode negative target {e.target}")
        # tids are >= 0 for thread actions; alloc's site may carry a
        # signed live-delta, zig-zag encode it
        _write_varint(out, e.tid + 1)
        _write_varint(out, e.target)
        _write_varint(out, (e.site << 1) ^ (e.site >> 63))  # zig-zag
    if version >= 2:
        out += zlib.crc32(bytes(out)).to_bytes(_CRC_BYTES, "little")
    return bytes(out)


def _parse_header(data: bytes) -> Tuple[int, int, int]:
    """Validate magic/version/trailer bounds; return (version, pos, end).

    ``pos`` is the offset of the event-count varint, ``end`` the offset
    one past the last event byte (the CRC trailer, if any, lies beyond).
    """
    if data[:4] != MAGIC:
        raise TraceFormatError("not a PACR binary trace (bad magic)")
    if len(data) < 5:
        raise TraceFormatError("truncated header")
    version = data[4]
    if version not in SUPPORTED_VERSIONS:
        raise TraceFormatError(f"unsupported version {version}")
    end = len(data)
    if version >= 2:
        if len(data) < 5 + 1 + _CRC_BYTES:
            raise TraceFormatError(
                f"truncated trailer: v{version} trace needs a {_CRC_BYTES}-byte "
                f"CRC32 after the events, got {len(data)} bytes total"
            )
        end -= _CRC_BYTES
    return version, 5, end


def _check_crc(data: bytes) -> int:
    """Verify a v2+ trailer; return the stored CRC32."""
    stored = int.from_bytes(data[-_CRC_BYTES:], "little")
    computed = zlib.crc32(data[:-_CRC_BYTES])
    if stored != computed:
        raise TraceFormatError(
            f"CRC32 mismatch: stored 0x{stored:08x}, computed 0x{computed:08x} "
            f"(trace is corrupt or truncated)"
        )
    return stored


def _parse_count(data) -> Tuple[int, int, int, int]:
    """Header plus event count; return (version, count, pos, end).

    ``pos`` is the offset of the first event record.
    """
    version, pos, end = _parse_header(data)
    try:
        count, pos = _read_varint(data, pos, end)
    except TraceFormatError as exc:
        raise TraceFormatError(f"bad event count: {exc}") from None
    if count > end - pos:
        # every event record is at least one byte, so a count beyond the
        # remaining payload is corrupt — reject before looping over it
        raise TraceFormatError(
            f"event count {count} exceeds remaining payload ({end - pos} bytes)"
        )
    return version, count, pos, end


def check_binary(data) -> int:
    """The checks that need no event decode; returns the event count.

    Magic, version, the event-count varint and its bound, and (v2+) the
    CRC32 trailer — with :func:`loads_binary`'s messages.  The event
    records themselves are not parsed: a payload that passes may still
    fail to decode (the telemetry front tier forwards such payloads and
    leaves the record grammar to the shard that decodes them).
    """
    version, count, _, _ = _parse_count(data)
    if version >= 2:
        _check_crc(data)
    return count


def loads_binary(data: bytes, validate: bool = True) -> Trace:
    """Parse the binary format into a :class:`Trace`.

    Raises :class:`TraceFormatError` on any structural problem and (when
    ``validate`` is on) :class:`~repro.trace.trace.TraceError` if the
    decoded events are not a feasible trace.
    """
    version, count, pos, end = _parse_count(data)
    events: List[Event] = []
    for _ in range(count):
        kind_id, pos = _read_varint(data, pos, end)
        if kind_id >= _N_KINDS:
            raise TraceFormatError(f"unknown kind id {kind_id} at byte {pos}")
        if kind_id == _SBEGIN_ID or kind_id == _SEND_ID:
            events.append(Event(ID_TO_KIND[kind_id], -1, 0, 0))
            continue
        tid_plus, pos = _read_varint(data, pos, end)
        target, pos = _read_varint(data, pos, end)
        zigzag, pos = _read_varint(data, pos, end)
        site = (zigzag >> 1) ^ -(zigzag & 1)
        events.append(Event(ID_TO_KIND[kind_id], tid_plus - 1, target, site))
    if pos != end:
        raise TraceFormatError(f"{end - pos} trailing bytes after events")
    if version >= 2:
        _check_crc(data)
    trace = Trace(events)
    if validate:
        trace.validate()
    return trace


# -- columnar (zero-copy) reader ---------------------------------------------
#
# ``loads_binary_columns`` decodes the same wire format straight into an
# :class:`~repro.trace.batch.EventBatch` whose columns are NumPy arrays,
# skipping per-event ``Event`` construction entirely — the feed for
# ``analyze --batch``.  The decode is vectorized (one pass
# of array ops over the whole payload, no per-varint Python), and
# ``load_trace_columns`` maps the file with ``mmap`` so the raw bytes
# are never copied into the interpreter heap.
#
# Correctness contract: on *any* anomaly — bad magic, truncated varint,
# CRC mismatch, structural disagreement, oversized values — the column
# reader delegates to :func:`loads_binary`, so corrupt input produces
# byte-identical :class:`TraceFormatError` messages in the scalar
# reader's checking order.  The fast path returns only when a fully
# clean vectorized decode agrees with the format's sequential grammar.

def _columns_fallback(data, validate: bool):
    """Decode via the scalar reader (exact errors), then columnize."""
    from .batch import encode_batch

    trace = loads_binary(bytes(data), validate=validate)
    return encode_batch(trace.events)


def loads_binary_columns(data, validate: bool = False):
    """Parse a binary trace into a columnar :class:`EventBatch`.

    Accepts any bytes-like object (``bytes``, ``memoryview``, ``mmap``).
    Structural integrity — magic, version, varint well-formedness, event
    count, CRC32 trailer — is always enforced, with the same exceptions
    as :func:`loads_binary`.  Trace *feasibility* validation needs
    materialized events, so it is off by default here; pass
    ``validate=True`` to pay for it (the scalar path is used then).

    Requires numpy for the vectorized path; without it the scalar reader
    is used transparently.
    """
    from .batch import EventBatch

    if validate:
        return _columns_fallback(data, validate)
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - exercised via gating tests
        return _columns_fallback(data, validate)

    view = memoryview(data)
    try:
        version, pos, end = _parse_header(view)
        count, pos = _read_varint(view, pos, end)
    except TraceFormatError:
        return _columns_fallback(data, validate)
    if version >= 2 and zlib.crc32(view[:-_CRC_BYTES]) != int.from_bytes(
        view[-_CRC_BYTES:], "little"
    ):
        # scalar reader decides whether a structural error outranks the
        # CRC mismatch, keeping the error order identical
        return _columns_fallback(data, validate)
    if count == 0:
        if pos != end:
            return _columns_fallback(data, validate)
        return EventBatch([], [], [], [])
    if pos >= end or count > end - pos:
        return _columns_fallback(data, validate)

    b = np.frombuffer(view, dtype=np.uint8, count=end - pos, offset=pos)
    term = (b & 0x80) == 0
    if not term[-1]:  # payload ends mid-varint
        return _columns_fallback(data, validate)
    nb = len(b)
    starts = np.empty(nb, dtype=bool)
    starts[0] = True
    starts[1:] = term[:-1]
    gid = np.cumsum(starts) - 1  # varint index owning each byte
    spos = np.flatnonzero(starts)
    k = np.arange(nb, dtype=np.int64) - spos[gid]
    if int(k.max()) > 4:
        # values >= 2^35 (or varints longer than the 64-bit limit):
        # rare enough that the scalar reader both decodes and errors them
        return _columns_fallback(data, validate)
    vals = (b & 0x7F).astype(np.int64) << (7 * k)
    cs = np.cumsum(vals)
    tpos = np.flatnonzero(term)
    V = cs[tpos] - cs[spos] + vals[spos]  # all varint values, in order
    M = len(V)

    # Recover record boundaries.  The grammar is sequential — a record
    # is 1 varint for sbegin/send, 4 otherwise — but only the *values*
    # 8/9 at record starts matter, so walk just the candidate positions:
    # between consecutive one-varint markers every record is 4 long.
    markers: List[int] = []
    cur = 0
    cand = np.flatnonzero((V == _SBEGIN_ID) | (V == _SEND_ID))
    for c in cand.tolist():
        if c >= cur and (c - cur) % 4 == 0:
            markers.append(c)
            cur = c + 1
    if (M - cur) % 4:
        return _columns_fallback(data, validate)
    n_records = len(markers) + (M - len(markers)) // 4
    if n_records != count:
        return _columns_fallback(data, validate)

    if markers:
        parts = []
        prev = 0
        for m in markers:
            parts.append(np.arange(prev, m, 4, dtype=np.int64))
            parts.append(np.array([m], dtype=np.int64))
            prev = m + 1  # a marker record is exactly one varint
        parts.append(np.arange(prev, M, 4, dtype=np.int64))
        rs = np.concatenate(parts)
    else:
        rs = np.arange(0, M, 4, dtype=np.int64)

    kinds = V[rs]
    if int(kinds.max()) >= _N_KINDS:
        return _columns_fallback(data, validate)
    ismk = (kinds == _SBEGIN_ID) | (kinds == _SEND_ID)
    lim = M - 1
    tids = np.where(ismk, -1, V[np.minimum(rs + 1, lim)] - 1)
    targets = np.where(ismk, 0, V[np.minimum(rs + 2, lim)])
    z = V[np.minimum(rs + 3, lim)]
    sites = np.where(ismk, 0, (z >> 1) ^ -(z & 1))
    return EventBatch.from_columns(
        kinds.astype(np.uint8), tids, targets, sites
    )


def load_trace_columns(path: Union[str, Path], validate: bool = False):
    """Read a binary trace file into a columnar :class:`EventBatch`.

    The file is ``mmap``-ed read-only and decoded in place — the raw
    bytes are never copied into the Python heap; only the four decoded
    integer columns are materialized.  Error behavior and the
    ``validate`` switch match :func:`loads_binary_columns`.
    """
    import mmap

    with open(Path(path), "rb") as fh:
        size = fh.seek(0, 2)
        if size == 0:
            # mmap rejects empty files; the scalar reader owns the error
            return _columns_fallback(b"", validate)
        mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        try:
            try:
                return loads_binary_columns(mm, validate=validate)
            except TraceFormatError:
                # the traceback pins buffer views into the map; copy out
                # and re-raise from plain bytes so the map can close
                data = bytes(mm)
        finally:
            try:
                mm.close()
            except BufferError:  # pragma: no cover - freed by the GC then
                pass
    return _columns_fallback(data, validate)


def describe_binary(data: bytes, validate: bool = False) -> Dict[str, object]:
    """Fully check a binary trace and report what was found.

    Runs every structural check :func:`loads_binary` runs (plus trace
    feasibility when ``validate`` is set) and returns a summary dict —
    the engine behind ``repro verify-trace``.  Raises
    :class:`TraceFormatError` on the first integrity problem.
    """
    version, _, _ = _parse_header(data)
    trace = loads_binary(data, validate=validate)
    crc: Optional[str] = None
    if version >= 2:
        crc = f"0x{int.from_bytes(data[-_CRC_BYTES:], 'little'):08x}"
    return {
        "format": "binary",
        "version": version,
        "events": len(trace),
        "bytes": len(data),
        "crc32": crc,
        "checksummed": version >= 2,
    }


def dump_trace_binary(
    events: Iterable[Event], path: Union[str, Path], version: int = VERSION
) -> None:
    """Write events to ``path`` in the binary format."""
    Path(path).write_bytes(dumps_binary(events, version=version))


def load_trace_binary(path: Union[str, Path], validate: bool = True) -> Trace:
    """Read a binary trace written by :func:`dump_trace_binary`."""
    return loads_binary(Path(path).read_bytes(), validate=validate)
