"""The benchmark's span tracer still finds every library name it patches.

`perfbench/tracing.py` wraps public functions and a fixed list of methods
and private kernels by name; a rename in `src/` would leave them untraced.
The benchmark's own smoke test sits outside the default test paths, so
this guard loads the tracer by path and checks its targets here.
"""

import importlib.util
from pathlib import Path

import numpy as np

import lplsh.index
from lplsh import IndexParams, build, load_index, save_index
from lplsh.util import derive_rng

from conftest import cheap_scheme

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_target_and_counts_checksum_bytes(tmp_path):
    pts = derive_rng(0, 9800).normal(size=(20, 4))
    index = build(pts, cheap_scheme(), IndexParams(k=1, l=2, seed=3))
    path = str(tmp_path / "idx.lplsh")
    tracer = load_tracing().Tracer().install()
    try:
        assert tracer.absent == []
        lplsh.index.save_index(index, path)
        loaded = lplsh.index.load_index(path)
    finally:
        tracer.uninstall()
    # one save and one load each checksum the whole file but its trailer once
    file_size = (tmp_path / "idx.lplsh").stat().st_size
    assert tracer.counts.get("util.crc64.bytes", 0) == 2 * (file_size - 8)
    assert np.array_equal(loaded.points, index.points)
    assert lplsh.index.save_index is save_index and lplsh.index.load_index is load_index


def test_query_records_key_and_function_spans():
    pts = derive_rng(0, 9801).normal(size=(20, 4))
    index = build(pts, cheap_scheme(), IndexParams(k=2, l=3, seed=4))
    tracer = load_tracing().Tracer().install()
    try:
        result = index.query(pts[0])
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary.count("index.query_keys") == 1
    assert summary.count("index.functions", under="index.query_keys") == 1
    assert result.answer is not None and result.answer[0] == 0


def test_build_and_query_hash_through_hash_batch():
    # both paths run through the one kernel, so the benchmark's hash_batch metrics measure both
    pts = derive_rng(0, 9802).normal(size=(20, 4))
    queries = pts[:3] + 0.01
    scheme = cheap_scheme()
    k, l = 2, 3
    tracer = load_tracing().Tracer().install()
    try:
        assert tracer.absent == []
        index = lplsh.index.build(pts, scheme, IndexParams(k=k, l=l, seed=5))
        index.query_batch(queries)
    finally:
        tracer.uninstall()
    assert tracer.counts["lattice.hash_batch.points"] == 20 * k * l + 3 * k * l
