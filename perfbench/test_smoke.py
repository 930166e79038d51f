"""Smoke test of the benchmark at tiny sizes.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.IndexSpec(
    "tiny",
    n=300,
    planted=50,
    d=16,
    singles=20,
    pilot_trials=500,
    lab=workloads.LabSpec(c_list=(2.0, 5.0), d=8, trials=1000, threshold_samples=10_000),
)


def _declared(kind: str) -> dict[str, str]:
    bench = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


@pytest.fixture()
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "OUT", tmp_path)
    monkeypatch.setattr(workloads, "SETUP_REPS", 2)
    monkeypatch.setattr(workloads, "MIN_CYCLES", 2)
    monkeypatch.setattr(workloads, "MIN_QUERY_SAMPLES", 30)
    return tmp_path


def test_declared_metrics_match_the_code():
    bench = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert _declared("end_to_end") == workloads.END_TO_END_UNITS
    assert _declared("per_layer") == workloads.PER_LAYER_UNITS


def test_untraced_then_traced_run(out_dir):
    plain = workloads.run_index(TINY, seed=3, seconds=0.0)
    assert {k: unit for k, (_, unit) in plain.metrics.items()} == _declared("end_to_end")
    assert all(value > 0 for value, _ in plain.metrics.values())
    assert plain.ops.attempted > 0 and plain.ops.failed == 0, plain.ops.problems
    assert plain.notes["cycles"] == 2  # two cycles give the 30 single queries asked for
    assert plain.notes["query_samples"] == 2 * TINY.singles

    lplsh = workloads.load_lplsh()
    tracer = tracing.Tracer()
    traced = workloads.run_index(TINY, seed=3, seconds=0.0, tracer=tracer)
    assert {k: unit for k, (_, unit) in traced.metrics.items()} == _declared("per_layer")
    assert traced.ops.failed == 0, traced.ops.problems
    assert traced.digests == plain.digests
    assert tracer.absent == []
    assert tracer.summary().outlasting_children() == 0
    assert traced.metrics["lattice.hash_batch.calls"][0] > 0
    assert traced.metrics["util.crc64.bytes"][0] > 0
    assert "seed 3" in traced.notes["trace_overhead"]
    # wrappers are gone again
    assert not hasattr(lplsh.index.hash_batch, "__wrapped__")
    assert not hasattr(lplsh.LshIndex.query_batch, "__wrapped__")


def test_absent_target_is_reported(monkeypatch):
    workloads.load_lplsh()
    monkeypatch.setattr(
        tracing, "EXTRA_TARGETS", tracing.EXTRA_TARGETS + (("collisions", "_removed_kernel", "gone", False),)
    )
    tracer = tracing.Tracer().install()
    tracer.uninstall()
    assert tracer.absent == ["gone"]


def test_refuses_to_run_without_the_library(tmp_path):
    root = workloads.ROOT
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(root / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    bench = json.loads((root / "BENCHMARK.json").read_text())
    args = bench["command"] + ["--workload", bench["workloads"][0]["name"], "--seed", "1", "--seconds", "1"]
    proc = subprocess.run(args + ["--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
