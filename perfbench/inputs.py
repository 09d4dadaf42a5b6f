"""Benchmark inputs: generated from the seed, pinned by SHA-256.

The simulator that records the input traces is part of the program under
test, so a change to it would silently change the workload.  Every input
set is therefore hashed and compared with ``digests.json``; a mismatch
fails the run.  Seeds map onto ``SLOTS`` pinned input sets
(``slot = seed % SLOTS``), so any seed has a pinned digest.

Regenerate the pins only when a change to the inputs is intended::

    python3 perfbench/inputs.py --pin
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"

#: number of distinct pinned input sets; ``--seed n`` uses set ``n % SLOTS``
SLOTS = 16

#: scale of every recorded program (the ROADMAP re-anchor size)
SCALE = 0.7

#: Figure-3 sweep: programs, PACER rates, and trial seeds per sweep
MATRIX_PROGRAMS = ("pseudojbb", "eclipse", "xalan")
MATRIX_DETECTORS = ("fasttrack", "pacer")
MATRIX_RATES = (0.01, 0.03, 0.10, 0.25)
MATRIX_SEEDS_PER_SLOT = 4

#: the four Table-2 programs, replayed offline and streamed as sessions
TRACE_PROGRAMS = ("eclipse", "hsqldb", "pseudojbb", "xalan")

#: events kept from the start of each recorded run.  A bounded window
#: keeps a streamed session short enough that one run holds well over a
#: hundred sessions, so the session p90 has ten or more samples beyond it.
TRACE_EVENTS = 8192

#: PACER inputs carry r=1% sampling marks; the period is chosen so that
#: a TRACE_EVENTS-long trace has ~100 periods, of which one is sampled
MARK_RATE = 0.01
MARK_PERIOD = 80

#: (file name, detector) pairs of one pass over the trace inputs
TRACE_JOBS: Tuple[Tuple[str, str], ...] = tuple(
    pair
    for program in TRACE_PROGRAMS
    for pair in ((f"{program}.plain.pacr", "fasttrack"),
                 (f"{program}.marked.pacr", "pacer"))
)


def require_source() -> None:
    """Put ``src/`` on the import path, or exit when it is missing."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src}/repro", file=sys.stderr)
        raise SystemExit(2)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def detector_factories() -> dict:
    """The two detectors the trace workloads run, by name."""
    from repro.core.pacer import PacerDetector
    from repro.detectors import FastTrackDetector

    return {"fasttrack": FastTrackDetector, "pacer": PacerDetector}


def server_config(spool_dir: Path):
    """The ``stream-sessions`` server: defaults, spooling into the checkout.

    Every session of a run stays registered, so the session cap must
    exceed the sessions one run opens.
    """
    from repro.net.server import ServerConfig

    return ServerConfig(max_sessions=1 << 20, spool_dir=str(spool_dir))


def slot_of(seed: int) -> int:
    return seed % SLOTS


def trial_seeds(seed: int) -> List[int]:
    base = 1 + MATRIX_SEEDS_PER_SLOT * slot_of(seed)
    return [base + i for i in range(MATRIX_SEEDS_PER_SLOT)]


def record(program: str, trial_seed: int) -> list:
    """One simulated run of a workload program (the recorded stream)."""
    from repro.sim.scheduler import Scheduler
    from repro.sim.workloads import WORKLOADS, build_program

    events: list = []
    spec = WORKLOADS[program].scaled(SCALE)
    Scheduler(build_program(spec, trial_seed), seed=trial_seed,
              sink=events.append).run()
    return events


def mark(base: list, rate: float = MARK_RATE, period: int = MARK_PERIOD) -> list:
    """Insert sampling-period markers, spaced as ``repro.bench.marked_trace``
    spaces them: a fraction ``rate`` of fixed-size periods, spread evenly.

    ``marked_trace`` marks a whole recorded run; the inputs here are a
    window of one, so the same rule is applied to the window.
    """
    from repro.trace.events import sbegin, send

    n_periods = max(1, (len(base) + period - 1) // period)
    want = max(1, round(rate * n_periods))
    step = n_periods / want
    sampled = {int(i * step) for i in range(want)}
    events: list = []
    sampling = False
    for i in range(n_periods):
        should = i in sampled
        if should != sampling:
            events.append(sbegin() if should else send())
            sampling = should
        events.extend(base[i * period:(i + 1) * period])
    if sampling:
        events.append(send())
    return events


def matrix_tasks(seed: int) -> list:
    from repro.analysis.parallel import expand_matrix

    return expand_matrix(MATRIX_PROGRAMS, MATRIX_DETECTORS, MATRIX_RATES,
                         trial_seeds(seed), scale=SCALE)


def matrix_digest(seed: int) -> str:
    """Digest of the sweep's inputs: the task list and every distinct
    event stream its trials simulate."""
    from repro.trace.binio import dumps_binary

    h = hashlib.sha256()
    for task in matrix_tasks(seed):
        h.update(repr(task).encode())
    for program in MATRIX_PROGRAMS:
        for trial_seed in trial_seeds(seed):
            h.update(dumps_binary(record(program, trial_seed)))
    return h.hexdigest()


def trace_files(seed: int) -> Dict[str, bytes]:
    """The binio-v2 input files of ``analyze-replay``/``stream-sessions``."""
    from repro.trace.binio import dumps_binary

    trial_seed = trial_seeds(seed)[0]
    files: Dict[str, bytes] = {}
    for program in TRACE_PROGRAMS:
        base = record(program, trial_seed)[:TRACE_EVENTS]
        files[f"{program}.plain.pacr"] = dumps_binary(base)
        files[f"{program}.marked.pacr"] = dumps_binary(mark(base))
    return files


def traces_digest(files: Dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode())
        h.update(files[name])
    return h.hexdigest()


def pinned(kind: str, seed: int) -> str:
    return json.loads(DIGESTS.read_text())[kind][slot_of(seed)]


class InputMismatch(RuntimeError):
    """Generated inputs differ from the pinned digest."""


def check(kind: str, seed: int, digest: str) -> None:
    want = pinned(kind, seed)
    if digest != want:
        raise InputMismatch(
            f"{kind} inputs for seed {seed} (slot {slot_of(seed)}) hash to "
            f"{digest}, pinned {want}: the generator or simulator changed"
        )


def prepare(workload: str, seed: int, workdir: Path) -> None:
    """Generate and verify one workload's inputs into ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "matrix-fig3":
        check("matrix-fig3", seed, matrix_digest(seed))
        return
    files = trace_files(seed)
    check("traces", seed, traces_digest(files))
    for name, data in files.items():
        (workdir / name).write_bytes(data)


def pin() -> None:
    doc = {
        "slots": SLOTS,
        "matrix-fig3": [matrix_digest(s) for s in range(SLOTS)],
        "traces": [traces_digest(trace_files(s)) for s in range(SLOTS)],
    }
    DIGESTS.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"pinned {SLOTS} input sets in {DIGESTS}")


if __name__ == "__main__":
    require_source()
    if sys.argv[1:] != ["--pin"]:
        print("usage: python3 perfbench/inputs.py --pin", file=sys.stderr)
        raise SystemExit(2)
    pin()
