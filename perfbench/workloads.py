"""Workloads of the lplsh benchmark and the stages each run goes through.

Every workload runs the index pipeline on a planted instance in the shape
of acceptance test C10 (d=128, p=1.5, c=2, r=1, ``tuned_scheme``) at its own
n, plus the collision lab. Inputs come from the seed and are made before
any timer starts. The stages are

  setup           scheme derivation (threshold T), pilot collision estimates
                  and choose_k_l, as ``lplsh build`` sizes (k, L)
  build           build()
  reference       query_batch on the first built index, kept to compare against
  save / load     save_index to the run's own temp directory, load_index
  first_query     the first answer from the freshly loaded index
  single_queries  one query() at a time, closed loop, one client
  batch           one query_batch over all queries, warm
  lab             rho_sweep over c in {2, 3, 5} at d=32, then write_rho_csv
  check           exact-distance and equality checks, outside every timer

After set-up and the first build, an untraced run repeats cycles of build,
save, load, first query, a block of single queries, batch and two lab
sweeps until ``seconds`` have passed, so every stage is sampled several
times across the run. Each timing metric is the mean of its scaled
samples (below); set-up time is their median. A traced run does one
cycle, so its counts repeat exactly.

The host the benchmark was tuned on is shared: another tenant slows the
process by up to 1.6x, in phases from about a second to minutes long, and
the CPU time grows with the wall time, so no statistic of the samples alone
is steady. A fixed reference kernel (plain Python and numpy, no lplsh code)
is therefore timed after every timed stage and every SINGLES_PER_MARK
single queries, and each sample is scaled by REFERENCE_S over the mean
kernel time around it: the metric reads as seconds on the host at the
speed where the kernel takes REFERENCE_S. A change to lplsh cannot move
the kernel, so it moves the metric as much as the wall time. The host
flips between its two speeds within a stage's samples too, so a run
reports the mean of a stage's scaled samples, which moves smoothly with
the share of slow time; their median would jump between the speeds. The
unscaled means, every raw sample and the host factor are printed with
every run.

Each stage is a root span when the run is traced, so a library span knows
which stage caused it.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# relative tolerance of a returned distance against an exact recompute
DIST_RTOL = 1e-12

# the C10 shape shared by every workload
P, C, R = 1.5, 2.0, 1.0
SAFETY = 3.0
# The pilot estimates that size (k, L) draw from this fixed seed, not from
# the run's: with a pilot per seed, k sits on an integer boundary and flips
# between runs, which moves every timing and the recall with it.
PILOT_SEED = 0
# set-ups per run, each with the threshold memo emptied; the median is reported
SETUP_REPS = 5

# Seconds the reference kernel takes on the host at its quiet speed; every
# timed sample is scaled to that speed (see the module docstring).
REFERENCE_S = 0.020

_REF_SORT = np.linspace(0.0, 1.0, 100_000)[::-1].copy()
_REF_MAT = np.linspace(0.0, 1.0, 128 * 256).reshape(128, 256)
_REF_KEYS = [i * 7919 % 1_000_003 for i in range(25_000)]
_REF_DICT = {key: i for i, key in enumerate(_REF_KEYS)}


def reference_kernel() -> float:
    """Fixed work of the kinds lplsh does (interpreter loop, dict lookups,
    small and large numpy calls) in plain Python and numpy; returns its seconds."""
    t0 = time.perf_counter()
    s = 0
    for i in range(80_000):
        s += i * i % 7
    for _ in range(4):
        for key in _REF_KEYS:
            s += _REF_DICT[key]
    a = np.arange(64.0)
    for _ in range(2400):
        a = np.floor(a * 1.0001)
    for _ in range(4):
        np.sort(_REF_SORT)
    for _ in range(32):
        _REF_MAT.T @ _REF_MAT[:, :64]
    return time.perf_counter() - t0


class HostSpeed:
    """Reference-kernel samples taken between timed stages, to scale them by."""

    # kernel samples on each side of a stage that set its factor. The host
    # flips between a fast and a slow speed from one kernel sample to the
    # next, so the mean of several samples estimates the share of slow time
    # around a stage; a median would snap to one of the two speeds.
    WINDOW = 3

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.samples: list[float] = []
        self.mark()

    def mark(self) -> int:
        """Time the kernel once (REFERENCE_S when disabled); returns the sample's position."""
        self.samples.append(reference_kernel() if self.enabled else REFERENCE_S)
        return len(self.samples) - 1

    def factor(self, after: int) -> float:
        """Scale for a sample that ended before kernel sample `after`: REFERENCE_S
        over the mean kernel time around it."""
        return REFERENCE_S / statistics.fmean(self.samples[max(0, after - self.WINDOW) : after + self.WINDOW])


@dataclass(frozen=True)
class LabSpec:
    """rho_sweep settings; the scheme knobs are those of tuned_scheme."""

    c_list: tuple[float, ...] = (2.0, 3.0, 5.0)
    d: int = 32
    trials: int = 1_000
    threshold_samples: int = 1_000_000


@dataclass(frozen=True)
class IndexSpec:
    """One workload: a planted instance, the index pipeline over it, then the lab."""

    name: str
    n: int
    planted: int
    singles: int  # single queries per cycle
    d: int = 128
    pilot_trials: int = 4000
    lab: LabSpec = field(default_factory=LabSpec)


WORKLOADS = {
    # build- and persistence-heavy: the build, save and load of the larger index fill most of a cycle
    "planted-n1500": IndexSpec("planted-n1500", n=1500, planted=200, singles=50),
    # query-heavy: a small index and twice the queries, so single queries and batches fill most of a cycle
    "query-n1k": IndexSpec("query-n1k", n=1000, planted=400, singles=60),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "build_s": "s",
    "save_s": "s",
    "load_s": "s",
    "index_bytes": "B",
    "first_query_ms": "ms",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "batch_qps": "queries/s",
    "recall": "fraction",
    "rho_trials_per_s": "trials/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "lattice.hash_batch.s": "s",
    "lattice.hash_batch.calls": "count",
    "lattice.hash_batch.points": "count",
    "lattice.probes_needed_mean": "count",
    "lattice.fallback_rate": "fraction",
    "scheme.sample_hash.calls.build": "count",
    "scheme.sample_hash.calls.query": "count",
    "scheme.sample_hash.s": "s",
    "scheme.project.s": "s",
    "index.fingerprint_rows.s": "s",
    "index.build.self_s": "s",
    "index.query_batch.self_s": "s",
    "index.bucket_get.calls": "count",
    "index.candidates_per_query": "count",
    "index.tables_probed_per_query": "count",
    "geometry.lp_norm.s": "s",
    "index.buckets_per_table": "count",
    "index.bucket_size.max": "count",
    "index.bucket_size.p99": "count",
    "index.fingerprint_collisions": "count",
    "util.crc64.s": "s",
    "util.crc64.bytes": "B",
    "index.save.self_s": "s",
    "index.load.self_s": "s",
    "stable.compute_threshold.s": "s",
    "collisions.estimate_collision.s": "s",
    "collisions.estimate_collision.self_s": "s",
    "collisions.lattice_stage.s": "s",
    "stable.sample_stable.s": "s",
    "geometry.random_lp_direction.s": "s",
    "trace.spans": "count",
    "traced.build_s": "s",
    "traced.query_p50_ms": "ms",
    "traced.rho_trials_per_s": "trials/s",
}


QUERY_STAGES = ("reference", "first_query", "single_queries", "batch")

# a run measures at least this many cycles and single queries, whatever --seconds says
MIN_CYCLES = 3
MIN_QUERY_SAMPLES = 200
# single queries between two reference-kernel samples
SINGLES_PER_MARK = 10
# lab sweeps per cycle; one sweep takes about 0.2 s
LAB_SWEEPS = 2


def load_lplsh():
    """Import lplsh from this checkout's src/, never from an installed copy."""
    init = SRC / "lplsh" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init.relative_to(ROOT)} not found; run from the root of a checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    lplsh = importlib.import_module("lplsh")
    if Path(lplsh.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported lplsh from {lplsh.__file__}, not from this checkout")
    return lplsh


# -- set-up ---------------------------------------------------------------


def setup(spec: IndexSpec):
    """Scheme and (k, L) as `lplsh build` derives them; returns (scheme, shape, seconds).

    No ThresholdCache is passed, and the in-process threshold memo is
    emptied first, so T is computed every time.
    """
    lplsh = load_lplsh()
    memo = getattr(lplsh.stable, "_THRESHOLD_MEMO", None)
    if memo is not None:
        memo.clear()
    t0 = time.perf_counter()
    scheme = lplsh.tuned_scheme(C, P, r=R)
    rng = lplsh.util.derive_rng(PILOT_SEED, 41)
    near = lplsh.estimate_collision(scheme, spec.d, scheme.r, spec.pilot_trials, rng)
    far = lplsh.estimate_collision(scheme, spec.d, scheme.c * scheme.r, spec.pilot_trials, rng)
    shape = lplsh.choose_k_l(spec.n, near.p_hat, far.p_hat, safety=SAFETY)
    return scheme, shape, time.perf_counter() - t0


# -- bookkeeping ----------------------------------------------------------


class Ops:
    """Operations attempted and failed; a failure is a raise or a failed check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.tally([ok], what)

    def tally(self, oks, what: str) -> None:
        """One operation per entry of `oks`; False entries failed."""
        oks = list(oks)
        self.attempted += len(oks)
        bad = [i for i, ok in enumerate(oks) if not ok]
        self.failed += len(bad)
        if bad and len(self.problems) < 20:
            self.problems.append(f"{what}: {len(bad)} of {len(oks)} failed, first at {bad[0]}")


@dataclass
class RunResult:
    metrics: dict[str, tuple[float, str]]
    ops: Ops
    env: dict
    digests: dict[str, str]
    notes: dict[str, object]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def source_digest() -> str:
    """sha256 over the library sources, standing in for a commit in a plain checkout."""
    h = hashlib.sha256()
    for path in sorted((SRC / "lplsh").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'none' outside a clone."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def blas_threads() -> int | str:
    """Thread count reported by numpy's bundled OpenBLAS, if it can be found."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return "unknown"


def environment(seed: int, k: int, l: int) -> dict:
    return {
        "commit": git_commit(),
        "source_sha256": source_digest()[:16],
        "seed": seed,
        "k": k,
        "L": l,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
    }


def check_ledger(
    ops: Ops, key: dict, seed: int, digests: dict[str, str], typical: dict[str, float], traced: bool
) -> str | None:
    """Compare with earlier runs of the same sources and workload.

    Digests must repeat exactly across runs of the same seed. An untraced
    run is recorded with its typical (mean) stage times; a traced run,
    which takes one sample of each, returns its overhead against the latest
    untraced run of any seed, and names that seed.
    """
    path = OUT / "runs.jsonl"
    record_key = json.dumps(key, sort_keys=True)
    earlier = []
    if path.is_file():
        earlier = [rec for rec in map(json.loads, path.read_text().splitlines()) if rec["key"] == record_key]
    same_seed = [rec for rec in earlier if rec["seed"] == seed]
    if same_seed:
        for name, value in digests.items():
            ops.check(same_seed[0]["digests"][name] == value, f"{name} differs from an earlier run")
    if not traced:
        with open(path, "a", encoding="utf-8") as fh:
            record = {"key": record_key, "seed": seed, "digests": digests, "typical": typical}
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        return None
    if not earlier:
        return "no untraced run of this workload recorded yet"
    base = earlier[-1]
    overhead = ", ".join(f"{name} {typical[name] / base['typical'][name] - 1.0:+.1%}" for name in typical)
    return f"against the untraced run of seed {base['seed']}: {overhead}"


# -- the run ----------------------------------------------------------------


def _stage(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _distances_exact(lplsh, points, queries, qidx, answers, space) -> np.ndarray:
    """Per answer: True when absent or equal to an exact lp_norm recompute."""
    ok = np.ones(len(answers), dtype=bool)
    hit = [i for i, a in enumerate(answers) if a is not None]
    if hit:
        rows = np.array([answers[i][0] for i in hit], dtype=np.int64)
        got = np.array([answers[i][1] for i in hit])
        exact = np.asarray(lplsh.lp_norm(points[rows] - queries[np.asarray(qidx)[hit]], space))
        ok[hit] = np.abs(got - exact) <= DIST_RTOL * np.maximum(1.0, exact)
    return ok


def run_lab(lplsh, lab: LabSpec, p: float, seed: int, workdir: Path, ops: Ops):
    """rho_sweep plus its CSV; returns (pair trials, csv digest)."""
    rng = lplsh.util.derive_rng(seed, 51)
    reports = lplsh.rho_sweep(
        p,
        list(lab.c_list),
        lab.d,
        lab.trials,
        rng,
        profile="remark",
        knobs=lplsh.Knobs(kappa_w=1.8),
        overrides={"t": 3.0, "delta": 3.0, "delta_fail": 1e-3},
        derive_kwargs={"threshold_samples": lab.threshold_samples},
    )
    csv_path = workdir / "rho.csv"
    lplsh.write_rho_csv(reports, str(csv_path))
    ops.check(len(reports) == len(lab.c_list), "rho sweep row count")
    for rep in reports:
        ops.check(0.0 < rep.p2.p_hat < rep.p1.p_hat < 1.0, f"rho sweep c={rep.c}: need 0 < p2 < p1 < 1")
    return sum(rep.p1.trials + rep.p2.trials for rep in reports), _sha256(csv_path)


def run_index(spec: IndexSpec, seed: int, seconds: float, tracer=None) -> RunResult:
    """Run one workload; with a tracer, stages and library calls are recorded as spans."""
    lplsh = load_lplsh()
    ops = Ops()
    inst = lplsh.generate_planted(n=spec.n, d=spec.d, planted_count=spec.planted, p=P, r=R, c=C, seed=seed)
    points, queries = inst.points, inst.queries
    m = queries.shape[0]
    space = lplsh.LpSpace(P, spec.d)
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{spec.name}-", dir=OUT / "tmp"))
    index_path = workdir / "index.lplsh"
    host = HostSpeed(enabled=tracer is None)
    # per stage, every sample's seconds and the kernel sample taken right after it
    raw: dict[str, list[float]] = {}
    marks: dict[str, list[int]] = {}
    latencies, latency_marks, single, firsts, batches = [], [], [], [], []
    lab_trials, lab_digests = [], []

    def record(stage: str, seconds_taken: float) -> None:
        raw.setdefault(stage, []).append(seconds_taken)
        marks.setdefault(stage, []).append(host.mark())

    def timed(stage: str, fn):
        with _stage(tracer, stage):
            t0 = time.perf_counter()
            out = fn()
            took = time.perf_counter() - t0
        record(stage, took)
        return out

    def build_and_save():
        index = timed("build", lambda: lplsh.build(points, scheme, params))
        ops.check(True, "build")
        timed("save", lambda: lplsh.save_index(index, str(index_path)))
        ops.check(True, "save")
        return index

    def cycle(rebuild: bool) -> None:
        if rebuild:
            build_and_save()  # the built index is dropped at once: one index at a time
            gc.collect()
            ops.check(_sha256(index_path) == index_digest, "a rebuild saved other bytes")
        loaded = timed("load", lambda: lplsh.load_index(str(index_path)))
        ops.check(True, "load")
        firsts.append(timed("first_query", lambda: loaded.query(queries[0])).answer)
        # closed loop, one client, continuing through the queries in order;
        # the host's phases change within a block, so the kernel runs every
        # SINGLES_PER_MARK queries
        count = spec.singles if tracer is None else m
        with _stage(tracer, "single_queries"):
            for i in range(count):
                qi = len(single) % m
                t0 = time.perf_counter()
                res = loaded.query(queries[qi])
                latencies.append(time.perf_counter() - t0)
                single.append((qi, res.answer))
                if (i + 1) % SINGLES_PER_MARK == 0 or i + 1 == count:
                    latency_marks.extend([host.mark()] * (len(latencies) - len(latency_marks)))
        batches.append(timed("batch", lambda: loaded.query_batch(queries)))
        loaded = None
        gc.collect()
        for _ in range(LAB_SWEEPS):
            trials, digest = timed("lab", lambda: run_lab(lplsh, spec.lab, P, seed, workdir, ops))
            lab_digests.append(digest)
            lab_trials.append(trials)

    if tracer is not None:
        tracer.install()
    try:
        chosen = set()
        for _ in range(SETUP_REPS if tracer is None else 1):
            with _stage(tracer, "setup"):
                scheme, shape, took = setup(spec)
            record("setup", took)
            chosen.add((shape.k, shape.l, scheme.T))
        ops.check(len(chosen) == 1, "the repeated set-ups chose different (k, L, T)")
        params = lplsh.IndexParams(k=shape.k, l=shape.l, seed=seed)

        index = build_and_save()
        index_digest = _sha256(index_path)
        index_bytes = index_path.stat().st_size
        sizes = np.concatenate([np.diff(t.offsets) for t in index.tables])
        bucket_stats = {
            "index.buckets_per_table": float(np.mean([t.fps.size for t in index.tables])),
            "index.bucket_size.max": float(sizes.max()),
            "index.bucket_size.p99": float(np.percentile(sizes, 99)),
            "index.fingerprint_collisions": float(index.fingerprint_collisions),
        }
        with _stage(tracer, "reference"):
            reference = [r.answer for r in index.query_batch(queries)]
        index = None
        gc.collect()

        deadline = time.perf_counter() + seconds
        cycles = 0
        while True:
            cycle(rebuild=cycles > 0)  # the first cycle loads the index built above
            cycles += 1
            if tracer is not None:
                break
            if cycles >= MIN_CYCLES and len(latencies) >= MIN_QUERY_SAMPLES and time.perf_counter() >= deadline:
                break

        with _stage(tracer, "check"):
            # one operation per query answered; it fails on a wrong distance or
            # on an answer that differs from the built index's
            every = np.arange(m)
            ops.tally(_distances_exact(lplsh, points, queries, every, reference, space), "reference queries")
            exact = _distances_exact(lplsh, points, queries, [0] * len(firsts), firsts, space)
            ops.tally([ok and a == reference[0] for ok, a in zip(exact, firsts)], "first queries")
            qidx = [qi for qi, _ in single]
            answers = [a for _, a in single]
            exact = _distances_exact(lplsh, points, queries, qidx, answers, space)
            ops.tally([ok and a == reference[qi] for ok, a, qi in zip(exact, answers, qidx)], "single queries")
            for batch in batches:
                got = [r.answer for r in batch]
                exact = _distances_exact(lplsh, points, queries, every, got, space)
                ops.tally([ok and a == reference[qi] for ok, a, qi in zip(exact, got, every)], "batch queries")
            ops.check(len(set(lab_digests)) == 1, "the lab sweep is not repeatable")
            recall = sum(r.answer is not None and bool(r.in_contract) for r in batches[0]) / m
            digests = {"index_sha256": index_digest, "rho_csv_sha256": lab_digests[0]}
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    scaled = {stage: [x * host.factor(at) for x, at in zip(raw[stage], marks[stage])] for stage in raw}
    lat_ms = 1e3 * np.array([x * host.factor(at) for x, at in zip(latencies, latency_marks)])

    def mean(samples: dict[str, list[float]], stage: str) -> float:
        return statistics.fmean(samples[stage])

    trials = lab_trials[0]
    measured = {
        "setup_s": statistics.median(scaled["setup"]),
        "build_s": mean(scaled, "build"),
        "save_s": mean(scaled, "save"),
        "load_s": mean(scaled, "load"),
        "index_bytes": float(index_bytes),
        "first_query_ms": 1e3 * mean(scaled, "first_query"),
        "query_p50_ms": float(np.percentile(lat_ms, 50)),
        "query_p95_ms": float(np.percentile(lat_ms, 95)),
        "batch_qps": m / mean(scaled, "batch"),
        "recall": recall,
        "rho_trials_per_s": trials / mean(scaled, "lab"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # unscaled means: recorded for the tracing overhead, printed as notes
    typical = {
        "build_s": mean(raw, "build"),
        "query_p50_ms": float(np.percentile(np.array(latencies) * 1e3, 50)),
        "batch_s": mean(raw, "batch"),
        "lab_s_per_trial": mean(raw, "lab") / trials,
    }
    key = {"workload": spec.name, "spec": repr(spec), "source": source_digest()}
    overhead = check_ledger(ops, key, seed, digests, typical, traced=tracer is not None)
    notes = {
        "cycles": cycles,
        "query_samples": len(latencies),
        "host_factor": statistics.fmean(host.samples) / REFERENCE_S,
        "unscaled_mean_s": {stage: mean(raw, stage) for stage in raw},
        "samples_s": raw,
        "reference_kernel_s": host.samples,
        "unscaled_query_ms": {
            "p50": typical["query_p50_ms"],
            "p95": float(np.percentile(np.array(latencies) * 1e3, 95)),
        },
        "candidates_per_query": float(np.mean([r.candidates_examined for r in batches[0]])),
        "tables_probed_per_query": float(np.mean([r.tables_probed for r in batches[0]])),
        "bucket_stats": bucket_stats,
    }
    if overhead is not None:
        notes["trace_overhead"] = overhead
    if tracer is None:
        metrics = {name: (measured[name], unit) for name, unit in END_TO_END_UNITS.items()}
    else:
        metrics = per_layer_metrics(tracer, typical, notes)
    return RunResult(metrics, ops, environment(seed, shape.k, shape.l), digests, notes)


def per_layer_metrics(tracer, typical: dict, notes: dict) -> dict[str, tuple[float, str]]:
    """Per-layer numbers from the recorded spans and counters of a traced run."""
    s = tracer.summary()
    counts = tracer.counts
    points = counts.get("lattice.hash_batch.points", 0)
    values = {
        "lattice.hash_batch.s": s.busy_s("lattice.hash_batch"),
        "lattice.hash_batch.calls": s.count("lattice.hash_batch"),
        "lattice.hash_batch.points": points,
        "lattice.probes_needed_mean": counts.get("lattice.hash_batch.probes", 0) / points if points else 0.0,
        "lattice.fallback_rate": counts.get("lattice.hash_batch.fallbacks", 0) / points if points else 0.0,
        "scheme.sample_hash.calls.build": s.count("scheme.sample_hash", stages=("build",)),
        "scheme.sample_hash.calls.query": s.count("scheme.sample_hash", stages=QUERY_STAGES),
        "scheme.sample_hash.s": s.busy_s("scheme.sample_hash"),
        "scheme.project.s": s.busy_s("scheme.project"),
        "index.fingerprint_rows.s": s.busy_s("index.fingerprint_rows"),
        "index.build.self_s": s.self_time_s("index.build"),
        "index.query_batch.self_s": s.self_time_s("index.query_batch"),
        "index.bucket_get.calls": tracer.calls.get("index.bucket_get", 0),
        "index.candidates_per_query": notes["candidates_per_query"],
        "index.tables_probed_per_query": notes["tables_probed_per_query"],
        "geometry.lp_norm.s": s.busy_s("geometry.lp_norm", under="index.query_batch"),
        **notes["bucket_stats"],
        "util.crc64.s": s.busy_s("util.crc64"),
        "util.crc64.bytes": counts.get("util.crc64.bytes", 0),
        "index.save.self_s": s.self_time_s("index.save_index"),
        "index.load.self_s": s.self_time_s("index.load_index"),
        "stable.compute_threshold.s": s.busy_s("stable.compute_threshold"),
        "collisions.estimate_collision.s": s.busy_s("collisions.estimate_collision"),
        "collisions.estimate_collision.self_s": s.self_time_s("collisions.estimate_collision"),
        "collisions.lattice_stage.s": s.busy_s("collisions.lattice_stage"),
        "stable.sample_stable.s": s.busy_s("stable.sample_stable"),
        "geometry.random_lp_direction.s": s.busy_s("geometry.random_lp_direction"),
        "trace.spans": s.name.size,
        "traced.build_s": typical["build_s"],
        "traced.query_p50_ms": typical["query_p50_ms"],
        "traced.rho_trials_per_s": 1.0 / typical["lab_s_per_trial"],
    }
    return {name: (float(values[name]), unit) for name, unit in PER_LAYER_UNITS.items()}
