"""End-to-end benchmark of the PACER reproduction's three pipelines.

    python3 perfbench/run.py --workload matrix-fig3 --seed 1 --seconds 30 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``matrix-fig3``     Figure-3 sweep through ``run_matrix(jobs=2)`` plus
                      ``matrix_report``/``matrix_coverage``;
* ``analyze-replay``  ``load_trace_columns`` + ``Detector.run_batch`` (+ the
                      coverage document) over binio-v2 trace files;
* ``stream-sessions`` two closed-loop connections streaming sessions to an
                      in-process ``TelemetryServer`` with two process shards.

The run generates the inputs from ``--seed`` and checks them against the
pinned digests, computes the reference outputs (untimed), measures for
``--seconds`` in a fresh process, and prints one line per metric followed
by a JSON summary as the last line.  ``--trace 0`` reports the end-to-end
metrics, with timings scaled to a reference host (see ``hostprobe.py``);
``--trace 1`` makes an untraced and a traced run and reports the per-layer
ledger, unattributed time and tracing overhead, as measured.  Exits
non-zero without a summary when the program source is missing or an input
digest does not match.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import inputs
import measure
from hostprobe import HostProbe

HERE = inputs.HERE
ROOT = inputs.ROOT
WORKLOADS = tuple(measure.WORKLOADS)

#: set-ups per run, half before and half after the measured run, so that
#: they sample the host at two moments; ``setup_s`` is their median
SETUP_REPEATS = 8

#: where a traced run leaves its spans
SPANS = HERE / "_spans"

#: a measuring process may take this long beyond its ``--seconds``
CHILD_SLACK_S = 60


def spec() -> Dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> Dict[str, str]:
    """The environment of the program under test: its defaults, not the
    caller's ``REPRO_*`` overrides (state backend, job count)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


# -- references (untimed, outside set-up) ---------------------------------------


def matrix_reference(seed: int) -> Dict:
    from repro.analysis.parallel import matrix_coverage, matrix_report, run_matrix

    tasks = inputs.matrix_tasks(seed)
    results = run_matrix(tasks, jobs=1)
    return {
        "results": results,
        "report": json.dumps(matrix_report(tasks, results), sort_keys=True),
        "coverage": json.dumps(matrix_coverage(tasks, results), sort_keys=True),
    }


def scalar_races(workdir: Path) -> Dict[str, list]:
    """Races of each input file on the ``object`` backend, scalar loop."""
    from repro.trace.binio import loads_binary

    factories = inputs.detector_factories()
    refs = {}
    for name, det in inputs.TRACE_JOBS:
        detector = factories[det](backend="object")
        detector.run(loads_binary((workdir / name).read_bytes()).events)
        refs[name] = detector.races
    return refs


def session_summaries(workdir: Path) -> Dict[str, Dict]:
    """What a session's CLOSE_ACK summary must say: offline analysis of
    the same trace."""
    from repro.trace.binio import load_trace_columns

    factories = inputs.detector_factories()
    refs = {}
    for name, det in inputs.TRACE_JOBS:
        detector = factories[det]()
        detector.run_batch(load_trace_columns(workdir / name))
        refs[name] = {
            "events": detector.perf.events,
            "races": len(detector.races),
            "distinct_races": len(detector.distinct_races),
        }
    return refs


def write_reference(workload: str, seed: int, workdir: Path) -> None:
    if workload == "matrix-fig3":
        ref = matrix_reference(seed)
    elif workload == "analyze-replay":
        ref = scalar_races(workdir)
    else:
        ref = session_summaries(workdir)
    with open(workdir / f"reference-{workload}.pkl", "wb") as fh:
        pickle.dump(ref, fh)


# -- measuring ------------------------------------------------------------------


def setup_samples(workload: str, workdir: Path, first: int,
                  count: int) -> List[float]:
    """Times from starting a fresh interpreter until the pipeline could
    take its first input (see ``setup_probe.py``), scaled to the reference
    host (see ``hostprobe.py``)."""
    samples = []
    with HostProbe() as probe:
        for i in range(first, first + count):
            start = time.perf_counter_ns()
            proc = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), workload,
                 str(workdir / f"setup{i}")],
                env=child_env(), check=True, capture_output=True, text=True,
                timeout=CHILD_SLACK_S,
            )
            samples.append((int(proc.stdout.split()[-1]) - start) / 1e9)
    return [sample / probe.scale() for sample in samples]


def run_measured(workload: str, seed: int, workdir: Path, seconds: float,
                 traced: bool) -> Dict:
    out = workdir / f"{workload}-{int(traced)}.json"
    subprocess.run(
        [sys.executable, str(HERE / "measure.py"), "--workload", workload,
         "--seed", str(seed), "--workdir", str(workdir),
         "--seconds", str(seconds), "--trace", str(int(traced)),
         "--out", str(out)],
        env=child_env(), check=True, stdout=sys.stderr,
        timeout=seconds + CHILD_SLACK_S,
    )
    return json.loads(out.read_text())


def events_per_s(result: Dict) -> float:
    """Events per second of measured time, as measured (not scaled)."""
    return result["events"] / result["wall_s"]


def end_to_end(setups: List[float], result: Dict) -> Dict[str, float]:
    """The end-to-end metrics, with timings scaled to the reference host
    (see ``hostprobe.py``)."""
    scale = result["host_scale"]
    op_ms = result["op_ms"]
    return {
        "setup_s": statistics.median(setups),
        "events_per_s": events_per_s(result) * scale,
        "peak_rss_mb": result["peak_rss_mb"],
        "op_ms_mean": statistics.fmean(op_ms) / scale,
        "op_ms_p90": statistics.quantiles(op_ms, n=10)[8] / scale,
    }


def per_layer(workload: str, seed: int, workdir: Path, seconds: float,
              base: Dict, runs: list) -> Dict[str, float]:
    traced = run_measured(workload, seed, workdir, seconds, traced=True)
    runs.append(traced)
    spans = SPANS / f"{workload}-{seed}.json"
    spans.parent.mkdir(exist_ok=True)
    shutil.move(workdir / f"{workload}-1.spans.json", spans)
    print(f"{workload} spans written to {spans.relative_to(ROOT)}")
    metrics = dict(traced["counts"])
    metrics.update(traced["layers"])
    metrics["close_ms_p50"] = statistics.median(base["close_ms"])
    untraced_eps = events_per_s(base)
    metrics["tracing.events_per_s"] = events_per_s(traced)
    metrics["tracing.overhead_pct"] = (
        100.0 * (untraced_eps - events_per_s(traced)) / untraced_eps
    )
    if workload == "stream-sessions":
        # same input files, so the ratio is the service's overhead
        write_reference("analyze-replay", seed, workdir)
        replay = run_measured("analyze-replay", seed, workdir, seconds,
                              traced=False)
        runs.append(replay)
        metrics["share.replay_over_stream"] = events_per_s(replay) / untraced_eps
    return metrics


def report(workload: str, runs: list, metrics: Dict[str, float],
           names: Dict[str, str]) -> None:
    """Print one line per metric, then the JSON summary (last line).

    Ops and failures are summed over every measured run of this
    invocation; the sample count is the untraced run's.
    """
    full = {}
    for name, unit in names.items():
        value = float(metrics.get(name, 0.0))
        full[name] = {"value": value, "unit": unit}
        print(f"{workload} {name} {value:.6g} {unit}")
    base = runs[0]
    samples = len(base["op_ms"])
    print(f"{workload} op_ms samples {samples} "
          f"({samples - int(samples * 0.9)} beyond p90)")
    scale = base["host_scale"]
    print(f"{workload} op_ms_p50 {statistics.median(base['op_ms']) / scale:.6g} ms")
    print(f"{workload} host scale {scale:.4f}; as measured: "
          f"events_per_s {events_per_s(base):.6g}, op_ms_mean "
          f"{statistics.fmean(base['op_ms']):.6g} ms")
    print(f"{workload} close_ms_p50 "
          f"{statistics.median(base['close_ms']) / scale:.6g} ms"
          f" (of {len(base['close_ms'])})")
    ops = sum(run["ops"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    print(f"{workload} ops {ops} count")
    print(f"{workload} failed_ops {failed} count")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ops,
        "failed": failed,
        "metrics": full,
    }))


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    inputs.require_source()
    bench = spec()
    workdir = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        try:
            inputs.prepare(args.workload, args.seed, workdir)
        except inputs.InputMismatch as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        write_reference(args.workload, args.seed, workdir)
        half = SETUP_REPEATS // 2
        if not args.trace:
            setups = setup_samples(args.workload, workdir, 0, half)
        base = run_measured(args.workload, args.seed, workdir, args.seconds,
                            traced=False)
        runs = [base]
        if args.trace:
            metrics = per_layer(args.workload, args.seed, workdir,
                                args.seconds, base, runs)
            names = {m["name"]: m["unit"] for m in bench["per_layer"]}
        else:
            setups += setup_samples(args.workload, workdir, half,
                                    SETUP_REPEATS - half)
            metrics = end_to_end(setups, base)
            names = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        report(args.workload, runs, metrics, names)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
