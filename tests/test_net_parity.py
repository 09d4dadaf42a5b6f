"""Differential parity: streaming detection ≡ offline ``repro analyze``.

The telemetry server's whole claim is that moving detection behind a
wire changes *nothing* about the analysis: a workload streamed through
the server in arbitrary chunks — through real worker processes, across
disconnect/resume, even across an injected worker crash — must yield
byte-identical races, counters, and ``repro/race-report/v1`` documents
to running the same events through a detector in one process.  "Modulo
session metadata" means exactly one field: ``source`` says
``"telemetry"`` instead of ``"analyze"``.

Pinned on both state backends (``object`` and ``packed``) and for
both an always-on detector (FASTTRACK) and the sampling one (PACER).
"""

from __future__ import annotations

import json

import pytest

from repro.cli import DETECTORS
from repro.core.backend import BACKENDS as AVAILABLE_BACKENDS
from repro.net import ServerConfig, TelemetryClient, TelemetryServer
from repro.obs import RunObserver, SyncIndex
from repro.obs.provenance import DEFAULT_WINDOW, FlightRecorder
from repro.obs.reports import build_report, validate_report
from repro.trace.generator import GeneratorConfig, random_trace

BACKENDS = list(AVAILABLE_BACKENDS)
DETECTOR_NAMES = ["fasttrack", "pacer"]

#: racy seeded workload with sampling periods (exercises PACER's
#: proportionality bookkeeping through the wire too)
TRACE = random_trace(
    GeneratorConfig(length=600, sampling_period_prob=0.05, seed=0)
)
EVENTS = list(TRACE.events)


def offline_report(detector_name: str, backend: str):
    """The ``repro analyze --report-out`` pipeline, inline."""
    det = DETECTORS[detector_name](backend=backend)
    obs = RunObserver(recorder=FlightRecorder(window=DEFAULT_WINDOW))
    obs.attach(det)
    det.run(EVENTS)
    obs.finalize(det)
    doc = build_report(
        det.races,
        source="analyze",
        detector=det.name,
        backend=det.backend_name,
        rate=None,
        events=det.perf.events,
        contexts=obs.race_contexts,
        sync=SyncIndex.from_trace(TRACE),
        site_name=None,
    )
    return doc, det.counters.snapshot(), obs.registry.snapshot()


def streamed_report(detector_name: str, backend: str, **kwargs):
    """The same events pushed through a server session."""
    chunk_size = kwargs.pop("chunk_size", 37)  # odd: never batch-aligned
    config = ServerConfig(n_shards=2, **kwargs)
    with TelemetryServer(config) as server:
        client = TelemetryClient(
            server.address,
            "parity",
            detector=detector_name,
            backend=backend,
            chunk_size=chunk_size,
        )
        client.connect()
        client.send_events(EVENTS)
        summary = client.close()
        doc = server.session_doc("parity")
    return doc, summary


def canonical(report_doc: dict) -> str:
    """Deterministic JSON with the one legitimate difference removed."""
    doc = dict(report_doc)
    doc.pop("source")
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("detector_name", DETECTOR_NAMES)
def test_streamed_report_byte_identical(detector_name, backend):
    off_doc, off_counters, _ = offline_report(detector_name, backend)
    sdoc, summary = streamed_report(
        detector_name, backend, shard_mode="process"
    )
    streamed = sdoc["report"]
    assert streamed["source"] == "telemetry"
    assert off_doc["source"] == "analyze"
    assert canonical(streamed) == canonical(off_doc)
    assert not validate_report(streamed)
    # the operation counters — the paper's cost accounting — match too
    assert sdoc["counters"] == off_counters
    assert summary["events"] == len(EVENTS)
    assert summary["races"] == off_doc["dynamic_races"]
    assert summary["distinct_races"] == off_doc["distinct_races"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_parity_survives_chunking_choices(backend):
    """Chunk size is invisible: 1-event frames equal 500-event frames."""
    off_doc, _, _ = offline_report("fasttrack", backend)
    for chunk_size in (1, 193, 5000):
        sdoc, _ = streamed_report(
            "fasttrack", backend, shard_mode="inline", chunk_size=chunk_size
        )
        assert canonical(sdoc["report"]) == canonical(off_doc), chunk_size


@pytest.mark.parametrize("backend", BACKENDS)
def test_parity_survives_disconnect_and_resume(backend):
    """A mid-stream disconnect plus resume retransmit changes nothing."""
    off_doc, off_counters, _ = offline_report("fasttrack", backend)
    with TelemetryServer(ServerConfig(n_shards=2, shard_mode="process")) as server:
        client = TelemetryClient(
            server.address, "parity", detector="fasttrack",
            backend=backend, chunk_size=37,
        )
        client.connect()
        half = len(EVENTS) // 2
        client.send_events(EVENTS[:half])
        client.abort()  # dirty disconnect: no CLOSE, unacked state kept
        ack = client.reconnect()
        assert ack.resume_seq <= client.next_seq - 1
        client.send_events(EVENTS[half:])
        summary = client.close()
        sdoc = server.session_doc("parity")
    assert summary["events"] == len(EVENTS)  # exactly-once despite retransmit
    assert canonical(sdoc["report"]) == canonical(off_doc)
    assert sdoc["counters"] == off_counters


@pytest.mark.parametrize("backend", BACKENDS)
def test_parity_survives_worker_crash(backend):
    """A crashed shard worker is respawned and replayed: same report."""
    off_doc, off_counters, _ = offline_report("fasttrack", backend)
    with TelemetryServer(
        ServerConfig(
            n_shards=2,
            shard_mode="process",
            crash_plan={0: 3, 1: 3},  # whichever shard owns the session
        )
    ) as server:
        client = TelemetryClient(
            server.address, "parity", detector="fasttrack",
            backend=backend, chunk_size=37,
        )
        client.connect()
        client.send_events(EVENTS)
        client.close()
        sdoc = server.session_doc("parity")
        assert server.worker_restarts == 1
    assert canonical(sdoc["report"]) == canonical(off_doc)
    assert sdoc["counters"] == off_counters


def test_multi_session_merge_is_deterministic():
    """Independent sessions fold into one deterministic merged report."""
    docs = []
    for _ in range(2):
        with TelemetryServer(ServerConfig(n_shards=3, shard_mode="inline")) as server:
            for i, detector_name in enumerate(("fasttrack", "pacer", "eraser")):
                client = TelemetryClient(
                    server.address, f"s{i}", detector=detector_name,
                    chunk_size=53,
                )
                client.connect()
                client.send_events(EVENTS)
                client.close()
            doc = server.query_doc()
            docs.append(doc)
            assert [s["session"] for s in doc["sessions"]] == ["s0", "s1", "s2"]
            assert all(s["state"] == "closed" for s in doc["sessions"])
    merged0, merged1 = docs[0]["report"], docs[1]["report"]
    assert json.dumps(merged0, sort_keys=True) == json.dumps(merged1, sort_keys=True)
    assert merged0["events"] == 3 * len(EVENTS)
    assert not validate_report(merged0)


def test_metrics_match_offline_totals():
    """The per-session metrics snapshot carries the offline totals."""
    _, _, off_metrics = offline_report("fasttrack", "object")
    sdoc, _ = streamed_report("fasttrack", "object", shard_mode="inline")
    streamed = sdoc["metrics"]
    for key in ("counters", "gauges"):
        for name, value in off_metrics[key].items():
            assert streamed[key][name] == value, name


@pytest.mark.parametrize("backend", BACKENDS)
def test_resume_after_close_rebuilds_from_spool(backend):
    """CLOSE frees the session's shard state; resuming it (as a client
    that lost its CLOSE_ACK would) rebuilds it from the spool, and the
    report is still byte-identical to the offline run."""
    off_doc, off_counters, _ = offline_report("fasttrack", backend)
    with TelemetryServer(ServerConfig(n_shards=2, shard_mode="process")) as server:
        client = TelemetryClient(
            server.address, "parity", detector="fasttrack",
            backend=backend, chunk_size=37,
        )
        client.connect()
        client.send_events(EVENTS)
        first = client.close()
        again = TelemetryClient(
            server.address, "parity", detector="fasttrack",
            backend=backend, chunk_size=37,
        )
        ack = again.connect(resume=True)
        assert ack.resume_seq == -(-len(EVENTS) // 37)
        reopened = server.session_doc("parity")
        again.next_seq = ack.resume_seq + 1
        second = again.close()
        sdoc = server.session_doc("parity")
    assert first == second
    assert second["events"] == len(EVENTS)
    for doc in (reopened, sdoc):
        assert canonical(doc["report"]) == canonical(off_doc)
        assert doc["counters"] == off_counters


def hosted(server) -> list:
    """Sessions whose detector state the (inline) shards hold."""
    return sorted(
        name for shard in server._pool._inline for name in shard.table.hosts
    )


def test_closed_sessions_free_their_shard_state():
    """After N closed sessions, each shard holds only open sessions; a
    resume of a closed one rebuilds it, and its next CLOSE frees it."""
    with TelemetryServer(ServerConfig(n_shards=2, shard_mode="inline")) as server:
        open_client = TelemetryClient(server.address, "still-open", chunk_size=97)
        open_client.connect()
        open_client.send_events(EVENTS[:200])
        open_client.drain()
        for i in range(6):
            client = TelemetryClient(
                server.address, f"done{i}",
                detector=("fasttrack", "pacer")[i % 2], chunk_size=97,
            )
            client.connect()
            client.send_events(EVENTS)
            assert client.close()["events"] == len(EVENTS)
        assert hosted(server) == ["still-open"]
        # closed sessions still answer from their final documents
        doc = server.query_doc()
        states = {s["session"]: s["state"] for s in doc["sessions"]}
        assert states.pop("still-open") == "attached"
        assert set(states.values()) == {"closed"}
        assert doc["report"]["events"] == 6 * len(EVENTS) + 200
        open_client.close()
        assert hosted(server) == []
        again = TelemetryClient(server.address, "done3", detector="pacer")
        ack = again.connect(resume=True)
        assert hosted(server) == ["done3"]
        again.next_seq = ack.resume_seq + 1
        assert again.close()["events"] == len(EVENTS)
        assert hosted(server) == []
