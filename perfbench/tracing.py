"""Span tracing around the lplsh library, installed from outside it.

A traced run wraps every public function of the traced modules, plus a
few methods and private kernels named in EXTRA_TARGETS, and patches each
wrapper into every ``lplsh`` module attribute that held the original, so a
call is seen wherever the name is looked up (``lplsh.index.hash_batch`` as
well as ``lplsh.lattice.hash_batch``). The library itself is not changed.

Spans are kept in memory as flat integer arrays (name code, parent, start
and end in ns) and are only turned into metrics or written out when the run
ends. The benchmark's own stages are the root spans, so every library span
knows which stage caused it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

TRACED_MODULES = ("stable", "scheme", "lattice", "index", "geometry", "util", "collisions")

# (module, dotted attribute, span name, counters-only). Methods and private
# kernels the per-layer metrics need; module-level public functions are
# found by TRACED_MODULES. A counters-only target records its call count but
# no span, for calls too small to time without distorting them.
EXTRA_TARGETS = (
    ("index", "LshIndex.query_batch", "index.query_batch", False),
    ("index", "LshIndex.functions", "index.functions", False),
    ("index", "LshIndex._query_keys", "index.query_keys", False),
    ("index", "Buckets.get", "index.bucket_get", True),
    ("scheme", "HashFunction.project", "scheme.project", False),
    ("collisions", "_lattice_stage", "collisions.lattice_stage", False),
)


def _hash_batch_counts(args, out):
    u, _, probes = out
    return (
        ("lattice.hash_batch.points", u.size),
        ("lattice.hash_batch.probes", int(probes.sum())),
        ("lattice.hash_batch.fallbacks", u.size - np.count_nonzero(u)),
    )


def _crc64_counts(args, out):
    return (("util.crc64.bytes", len(args[0])),)


# Counters read from a call's arguments and result, by span name.
COUNTERS = {
    "lattice.hash_batch": _hash_batch_counts,
    "util.crc64": _crc64_counts,
}


class Tracer:
    """Collects spans and counters for one run; install() patches, uninstall() restores."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.name_code = array("q")
        self.parent = array("q")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self._stack: list[int] = []
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def _code(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
        return code

    def begin(self, code: int) -> int:
        sid = len(self.parent)
        self.name_code.append(code)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end_ns.append(-1)
        self._stack.append(sid)
        self.start_ns.append(time.perf_counter_ns())
        return sid

    def end(self, sid: int) -> None:
        self.end_ns[sid] = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {sid} ended while span {popped} was open")

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self.begin(self._code(name))
        try:
            yield
        finally:
            self.end(sid)

    # -- patching --------------------------------------------------------

    def _wrapper(self, name: str, fn, counters_only: bool):
        if counters_only:
            calls = self.calls
            calls[name] = 0

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        begin, end, code = self.begin, self.end, self._code(name)
        observe = COUNTERS.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = begin(code)
            try:
                out = fn(*args, **kwargs)
            finally:
                end(sid)
            if observe is not None:
                for key, value in observe(args, out):
                    counts[key] = counts.get(key, 0) + value
            return out

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> "Tracer":
        lplsh_modules = [m for key, m in sys.modules.items() if key == "lplsh" or key.startswith("lplsh.")]
        for short in TRACED_MODULES:
            try:
                module = importlib.import_module(f"lplsh.{short}")
            except ImportError:
                self.absent.append(f"lplsh.{short}")
                continue
            for attr, fn in sorted(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapped = self._wrapper(f"{short}.{attr}", fn, False)
                for mod in lplsh_modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, key, wrapped)
        for short, dotted, name, counters_only in EXTRA_TARGETS:
            module = sys.modules.get(f"lplsh.{short}")
            owner, _, attr = dotted.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            fn = holder.__dict__.get(attr) if holder is not None else None
            if fn is None:
                self.absent.append(name)
                continue
            wrapped = self._wrapper(name, fn, counters_only)
            if owner:
                self._patch(holder, attr, wrapped)
            else:
                for mod in lplsh_modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, key, wrapped)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as arrays: name code, parent index (-1 for roots), start and end in ns."""
        return {
            "name": np.frombuffer(self.name_code, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start_ns": np.frombuffer(self.start_ns, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end_ns, dtype=np.int64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.names, **self.arrays())


class SpanSummary:
    """Aggregates over recorded spans: busy time, self time and calls, by stage."""

    def __init__(self, names, name, parent, start_ns, end_ns):
        self.names = list(names)
        self.name = name
        self.parent = parent
        self.dur = (end_ns - start_ns) / 1e9
        self.start_ns = start_ns
        self.end_ns = end_ns
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=self.dur[has_parent], minlength=parent.size)
        self.self_s = self.dur - child
        root = np.arange(parent.size)
        up = parent.copy()
        while (up >= 0).any():
            root = np.where(up >= 0, up, root)
            up = np.where(up >= 0, parent[np.maximum(up, 0)], -1)
        self.root = root

    def _mask(self, name: str, stages: tuple[str, ...] | None = None, under: str | None = None) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self.name.size, dtype=bool)
        mask = self.name == self.names.index(name)
        if stages is not None:
            codes = [self.names.index(s) for s in stages if s in self.names]
            mask &= np.isin(self.name[self.root], codes)
        if under is not None:
            mask &= self.has_ancestor(under)
        return mask

    def has_ancestor(self, name: str) -> np.ndarray:
        out = np.zeros(self.name.size, dtype=bool)
        if name not in self.names:
            return out
        code = self.names.index(name)
        up = self.parent.copy()
        while (up >= 0).any():
            out |= (up >= 0) & (self.name[np.maximum(up, 0)] == code)
            up = np.where(up >= 0, self.parent[np.maximum(up, 0)], -1)
        return out

    def busy_s(self, name: str, **where) -> float:
        return float(self.dur[self._mask(name, **where)].sum())

    def self_time_s(self, name: str, **where) -> float:
        return float(self.self_s[self._mask(name, **where)].sum())

    def count(self, name: str, **where) -> int:
        return int(self._mask(name, **where).sum())

    def outlasting_children(self) -> int:
        """Spans that start before or end after their parent (must be 0)."""
        idx = np.flatnonzero(self.parent >= 0)
        par = self.parent[idx]
        bad = (self.start_ns[idx] < self.start_ns[par]) | (self.end_ns[idx] > self.end_ns[par])
        return int(bad.sum()) + int((self.end_ns < 0).sum())
