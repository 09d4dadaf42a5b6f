"""Smoke test of the benchmark itself (about two minutes).

    python3 -m pytest perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json prints with its unit on
every workload, traced and untraced, and that a deliberately wrong
reference output is counted as a failed op.
"""

from __future__ import annotations

import io
import json
import pickle
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

import inputs
import run

SEED = 3

inputs.require_source()


def metric_units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in run.spec()[section]}


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(inputs.HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=inputs.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0
    assert summary["attempted"] >= 1
    units = metric_units("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in summary["metrics"].items()} == units
    for name, unit in units.items():
        assert any(line.startswith(f"{workload} {name} ") and
                   line.endswith(f" {unit}") for line in lines), name
    for name in ("ops", "failed_ops", "op_ms_p50", "close_ms_p50"):
        assert any(line.startswith(f"{workload} {name} ") for line in lines)
    if not trace:
        assert all(m["value"] > 0 for m in summary["metrics"].values())


def corrupt(workload: str, ref):
    """Make one reference output wrong."""
    if workload == "matrix-fig3":
        ref["report"] = ref["report"].replace('"races"', '"racez"', 1)
    elif workload == "analyze-replay":
        name = max(ref, key=lambda n: len(ref[n]))
        ref[name] = ref[name][1:]
    else:
        ref["xalan.plain.pacr"]["races"] += 1
    return ref


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_wrong_reference_counts_as_failed_op(workload, tmp_path):
    inputs.prepare(workload, SEED, tmp_path)
    run.write_reference(workload, SEED, tmp_path)
    path = tmp_path / f"reference-{workload}.pkl"
    ref = pickle.loads(path.read_bytes())
    path.write_bytes(pickle.dumps(corrupt(workload, ref)))
    result = run.run_measured(workload, SEED, tmp_path, 1, traced=False)
    assert 0 < result["failed"] <= result["ops"]
    out = io.StringIO()
    with redirect_stdout(out):
        run.report(workload, [result], {}, metric_units("end_to_end"))
    summary = json.loads(out.getvalue().strip().splitlines()[-1])
    assert summary["correct"] is False
    assert summary["failed"] == result["failed"]


def test_changed_input_fails_the_run(monkeypatch, tmp_path):
    monkeypatch.setattr(inputs, "pinned", lambda kind, seed: "0" * 64)
    with pytest.raises(inputs.InputMismatch):
        inputs.prepare("analyze-replay", SEED, tmp_path)


def test_union_counts_overlap_once():
    from ledger import union_ns

    assert union_ns([(0, 10), (5, 15), (20, 30)], 0, 25) == 20
    assert union_ns([], 0, 10) == 0
