"""Set-up probe: readies one pipeline in a fresh interpreter.

Prints the ``perf_counter_ns`` (CLOCK_MONOTONIC) instant at which the
pipeline could take its first input; ``run.py`` subtracts the instant it
started this process.  For the batch workloads that is when their modules
are imported; for ``stream-sessions`` it is when a server with its two
shard processes has acknowledged a first HELLO.

    python3 perfbench/setup_probe.py WORKLOAD WORKDIR
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import inputs


def ready_ns(workload: str, workdir: Path) -> int:
    inputs.require_source()
    if workload == "matrix-fig3":
        import repro.analysis.parallel  # noqa: F401
        import repro.analysis.supervisor  # noqa: F401

        return time.perf_counter_ns()
    if workload == "analyze-replay":
        import repro.core.pacer  # noqa: F401
        import repro.detectors  # noqa: F401
        import repro.obs.quality  # noqa: F401
        import repro.trace.binio  # noqa: F401

        return time.perf_counter_ns()
    from repro.net.resilient import ResilientClient
    from repro.net.server import TelemetryServer

    server = TelemetryServer(inputs.server_config(workdir / "spool-setup"))
    server.start()
    try:
        client = ResilientClient(server.address, "probe")
        client.connect()
        ready = time.perf_counter_ns()
        client.close()
    finally:
        server.stop()
    return ready


if __name__ == "__main__":
    print(ready_ns(sys.argv[1], Path(sys.argv[2])))
