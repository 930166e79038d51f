"""The benchmark's span tracer still finds every library name it patches.

`perfbench/tracing.py` wraps public functions and a fixed list of methods
and private kernels by name; a rename in `src/` would leave them untraced.
The benchmark's own smoke test sits outside the default test paths, so
this guard loads the tracer by path and checks its targets here.
"""

import importlib.util
import sys
import threading
from pathlib import Path

import numpy as np

import lplsh.index
import lplsh.lattice
import lplsh.stable
import lplsh.util
from lplsh import IndexParams, StableParams, build, load_index, save_index
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


def test_threaded_hashing_keeps_the_span_stack(monkeypatch):
    # the tracer keeps one span stack per process, so a worker that called a
    # traced function (derive_rng through ShiftedLatticeSet._draw, say) would
    # end a span while another was open; rows scan past the prefix, so the
    # calling thread does draw from shift_block after the workers
    monkeypatch.setattr(lplsh.lattice, "_WORKER_ROWS", 32)
    monkeypatch.setattr(lplsh.util, "_cpus", lambda: 3)
    monkeypatch.setattr(lplsh.util, "_MAX_WORKERS", 3)
    check_span_stack(monkeypatch, n=200, m=40, k=2, l=6)


def test_split_query_batch_keeps_the_span_stack(monkeypatch):
    # the real row bounds on two CPUs: the build (2**14 rows) stays on the
    # calling thread and the batch (one group of 64 queries, 2**15 rows) splits
    monkeypatch.setattr(lplsh.util, "_cpus", lambda: 2)
    check_span_stack(monkeypatch, n=40, m=64, k=4, l=128)


def check_span_stack(monkeypatch, n, m, k, l):
    """Build n points and query m under the tracer: hashing ran on several threads, and every span began on the caller's."""
    threads = set()
    scan = lplsh.lattice._scan

    def recording(*args):
        threads.add(threading.get_ident())
        return scan(*args)

    monkeypatch.setattr(lplsh.lattice, "_scan", recording)
    data = derive_rng(0, 9803).normal(size=(max(n, m), 4))
    pts, queries = data[:n], data[:m] + 0.01
    tracer = load_tracing().Tracer()
    # every span must begin on the calling thread, whatever the interleaving
    begin, caller, off_thread = tracer.begin, threading.get_ident(), []

    def begin_on_caller(code):
        if threading.get_ident() != caller:
            off_thread.append(tracer.names[code])
        return begin(code)

    tracer.begin = begin_on_caller
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    tracer.install()
    try:
        index = lplsh.index.build(pts, cheap_scheme(delta=12.0, u=3000), IndexParams(k=k, l=l, seed=6))
        index.query_batch(queries)
    finally:
        tracer.uninstall()
        sys.setswitchinterval(interval)
    assert len(threads) > 1
    assert off_thread == []
    assert tracer.counts["lattice.hash_batch.points"] == n * k * l + m * k * l
    summary = tracer.summary()
    assert summary.outlasting_children() == 0
    assert summary.count("util.derive_rng", under="lattice.hash_batch") > 0


def recorded_transform_runs(monkeypatch):
    """The thread of every chunk run _cms_transform starts, in the order they start."""
    threads = []
    run = lplsh.stable._cms_run

    def recording(*args):
        threads.append(threading.get_ident())
        return run(*args)

    monkeypatch.setattr(lplsh.stable, "_cms_run", recording)
    return threads


def test_split_transform_runs_only_its_chunk_loop_off_the_calling_thread(monkeypatch):
    # three workers: the calling thread takes one run and a pool made for the
    # call the other two, which run only the private chunk loop, so no traced
    # span begins off the calling thread and no thread outlives the call
    monkeypatch.setattr(lplsh.util, "_cpus", lambda: 3)
    monkeypatch.setattr(lplsh.util, "_MAX_WORKERS", 3)
    threads = recorded_transform_runs(monkeypatch)
    tracer = load_tracing().Tracer()
    begin, caller, off_thread = tracer.begin, threading.get_ident(), []

    def begin_on_caller(code):
        if threading.get_ident() != caller:
            off_thread.append(tracer.names[code])
        return begin(code)

    tracer.begin = begin_on_caller
    before = threading.active_count()
    tracer.install()
    try:
        x = lplsh.stable.sample_stable(StableParams(1.5), derive_rng(0, 9804), size=(3, lplsh.stable._TRANSFORM_SHARE))
    finally:
        tracer.uninstall()
    assert threading.active_count() == before
    assert len(threads) == 3 and sum(ident != caller for ident in threads) == 2
    assert off_thread == []
    assert tracer.summary().count("stable.sample_stable") == 1
    assert x.shape == (3, lplsh.stable._TRANSFORM_SHARE)


def test_transform_on_one_cpu_starts_no_thread(monkeypatch):
    monkeypatch.setattr(lplsh.util, "_cpus", lambda: 1)
    threads = recorded_transform_runs(monkeypatch)
    started = []
    monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
    lplsh.stable.sample_stable(StableParams(1.5), derive_rng(0, 9805), size=4 * lplsh.stable._TRANSFORM_SHARE)
    assert threads == [threading.get_ident()]
    assert started == []

