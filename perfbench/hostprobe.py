"""Host-speed probe: scales the benchmark's timings to a reference host.

The benchmark runs on a few vCPUs of a shared host.  For seconds to
minutes at a time, other tenants make work on those vCPUs take up to
about 1.7 times as long, through shared cores and caches rather than by
descheduling them, so CPU time slows as much as wall time does.  Raw
timings then measure the host's load as much as the program.

While the measured work runs, a background thread runs a fixed
pure-Python loop, which uses none of the program's code, every
``PROBE_EVERY_S`` and times each run in thread CPU time.  The host's
*scale* is the mean probe time over ``PROBE_REF_NS``, the probe's time on
the reference host (an otherwise idle 2.1 GHz Xeon vCPU).  Dividing a
timing by the scale gives the time the work would take on the reference
host.  A slower program still reads slower by the same share, since the
probe does not change with it.
"""

from __future__ import annotations

import statistics
import threading
import time
from typing import List

#: thread CPU time of one probe run on the reference host
PROBE_REF_NS = 2_500_000
#: pause between probe runs; a run takes about 3% of one vCPU
PROBE_EVERY_S = 0.1
#: probe loop iterations (about PROBE_REF_NS on the reference host)
PROBE_ITERATIONS = 12_000


def _probe() -> int:
    table: dict = {}
    acc = 0
    for i in range(PROBE_ITERATIONS):
        key = i & 511
        table[key] = table.get(key, 0) + i
        acc += len(str(i)) ^ key
    return acc


def probe_ns() -> int:
    """Thread CPU time of one probe run, now."""
    start = time.thread_time_ns()
    _probe()
    return time.thread_time_ns() - start


class HostProbe:
    """Probes the host in a background thread for the span of a ``with``."""

    def __init__(self) -> None:
        self.samples_ns: List[int] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="host-probe",
                                        daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(PROBE_EVERY_S):
            self.samples_ns.append(probe_ns())

    def __enter__(self) -> "HostProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        if not self.samples_ns:  # work shorter than one probe interval
            self.samples_ns.append(probe_ns())

    def scale(self) -> float:
        """Mean probe time over the reference host's: above 1 is slower."""
        return statistics.fmean(self.samples_ns) / PROBE_REF_NS
