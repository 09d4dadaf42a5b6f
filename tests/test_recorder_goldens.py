"""Golden digests for every flight-recorder (provenance) pipeline.

A flight recorder changes what a run *reports* — race contexts,
witnesses, coverage — but must never change *how* the run is observed:
timeline probes, metrics snapshots and report bytes are fixed by the
event sequence alone.  The digests in ``data/recorder_goldens.json`` were
recorded with the per-event recording loop; the batch-native loop that
replaced it must reproduce every one of them.

Covered, for every detector in ``DETECTOR_FACTORIES`` on both state
backends (the CLI pipelines skip the ``none`` baseline, which
``analyze`` and ``explain`` do not offer), over two traces — a random
trace with sampling periods, and the ``micro`` workload with sampling
marks spliced in:

* ``analyze --report-out`` with ``--sample-every 7`` (so probes fall
  inside chunks), scalar and ``--batch`` at batch sizes 1, 37 and 512 —
  report, ``--metrics-out``, ``--coverage-out`` and timeline bytes;
* ``explain`` at the default window and at a 5-event window — report
  and Markdown bytes;
* a streamed session (:class:`~repro.net.shard.SessionHost`) fed in
  chunks of 1, 37 and 512 events — the full ``finalize_doc``.

Regenerate (only when a change is *meant* to alter these outputs)::

    PYTHONPATH=src python tests/test_recorder_goldens.py --write
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

import pytest

from repro import cli
from repro.analysis.parallel import DETECTOR_FACTORIES
from repro.core.backend import BACKENDS
from repro.detectors.literace import LiteRaceDetector
from repro.net.shard import SessionHost
from repro.sim.scheduler import run_program
from repro.sim.workloads import WORKLOADS, build_program
from repro.trace.binio import dump_trace_binary
from repro.trace.events import SBEGIN, SEND, Event
from repro.trace.generator import GeneratorConfig, random_trace

GOLDEN_PATH = Path(__file__).with_name("data") / "recorder_goldens.json"

CHUNKS = (1, 37, 512)
SAMPLE_EVERY = 7


def _micro_with_marks() -> List[Event]:
    """The micro workload with a sampling mark every 150 events."""
    spec = WORKLOADS["micro"].scaled(0.15)
    events = list(run_program(build_program(spec, 3), seed=3).events)
    out: List[Event] = []
    entering = True
    for index, event in enumerate(events):
        if index and index % 150 == 0:
            out.append(Event(SBEGIN if entering else SEND, -1, 0, 0))
            entering = not entering
        out.append(event)
    return out


TRACES: Dict[str, List[Event]] = {
    "random": list(
        random_trace(
            GeneratorConfig(
                length=1200, n_threads=5, sampling_period_prob=0.04, seed=11
            )
        ).events
    ),
    "micro": _micro_with_marks(),
}

MODES = (
    ["analyze"]
    + [f"analyze-batch{c}" for c in CHUNKS]
    + ["explain", "explain-w5"]
    + [f"stream{c}" for c in CHUNKS]
)

CASES = [
    f"{trace}/{det}/{backend}/{mode}"
    for trace in sorted(TRACES)
    for det in sorted(DETECTOR_FACTORIES)
    for backend in BACKENDS
    for mode in MODES
    # the CLI offers every detector but the "none" baseline
    if det in cli.DETECTORS or mode.startswith("stream")
]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _cli(argv: List[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0


@contextlib.contextmanager
def _seeded_literace():
    """LiteRace's burst sampler draws from an unseeded RNG by default;
    pin its seed so its outputs are a function of the trace alone."""
    seeded = functools.partial(LiteRaceDetector, seed=7)
    tables = (cli.DETECTORS, DETECTOR_FACTORIES)
    saved = [table["literace"] for table in tables]
    for table in tables:
        table["literace"] = seeded
    try:
        yield
    finally:
        for table, factory in zip(tables, saved):
            table["literace"] = factory


def run_case(case: str, workdir: Path) -> Dict[str, str]:
    """Run one pipeline and digest every byte it writes."""
    with _seeded_literace():
        return _run_case(case, workdir)


def _run_case(case: str, workdir: Path) -> Dict[str, str]:
    trace, det, backend, mode = case.split("/")
    events = TRACES[trace]
    path = workdir / f"{trace}.pacr"
    if not path.exists():
        dump_trace_binary(events, path)
    out = workdir / case.replace("/", "-")
    if mode.startswith("stream"):
        chunk = int(mode[len("stream"):])
        host = SessionHost("golden", det, backend=backend)
        for pos in range(0, len(events), chunk):
            host.apply(events[pos : pos + chunk])
        doc = host.finalize_doc()
        return {"doc": _digest(json.dumps(doc, sort_keys=True).encode())}
    if mode.startswith("explain"):
        argv = ["explain", str(path), "--detector", det,
                "--state-backend", backend,
                "--report-out", f"{out}.report.json",
                "--markdown-out", f"{out}.md"]
        if mode == "explain-w5":
            argv += ["--window", "5"]
        _cli(argv)
        return {
            "report": _digest(Path(f"{out}.report.json").read_bytes()),
            "markdown": _digest(Path(f"{out}.md").read_bytes()),
        }
    argv = ["analyze", str(path), "--detector", det,
            "--state-backend", backend,
            "--sample-every", str(SAMPLE_EVERY),
            "--report-out", f"{out}.report.json",
            "--metrics-out", f"{out}.metrics.json",
            "--coverage-out", f"{out}.coverage.json",
            "--timeline-out", f"{out}.timeline.jsonl"]
    if mode.startswith("analyze-batch"):
        argv += ["--batch", "--batch-size", mode[len("analyze-batch"):]]
    _cli(argv)
    return {
        kind: _digest(Path(f"{out}.{suffix}").read_bytes())
        for kind, suffix in (
            ("report", "report.json"),
            ("metrics", "metrics.json"),
            ("coverage", "coverage.json"),
            ("timeline", "timeline.jsonl"),
        )
    }


@pytest.fixture(scope="module")
def goldens() -> Dict[str, Dict[str, str]]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("goldens")


def test_goldens_cover_every_case(goldens):
    assert sorted(goldens) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_recorder_pipeline_matches_golden(case, goldens, workdir):
    assert run_case(case, workdir) == goldens[case]


def test_streamed_bytes_match_streamed_events():
    """A shard fed binio-v2 payload bytes ends byte-identical to one fed
    the same chunks as Event lists."""
    from repro.trace.binio import dumps_binary

    events = TRACES["random"]
    docs = []
    for as_bytes in (False, True):
        host = SessionHost("bytes", "pacer")
        for pos in range(0, len(events), 37):
            chunk = events[pos : pos + 37]
            host.apply(dumps_binary(chunk) if as_bytes else chunk)
        docs.append(json.dumps(host.finalize_doc(), sort_keys=True))
    assert docs[0] == docs[1]


def main(argv: List[str]) -> int:
    if argv != ["--write"]:
        print(__doc__)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        doc = {case: run_case(case, Path(tmp)) for case in CASES}
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(doc)} golden case(s) to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
