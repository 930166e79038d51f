"""Command-line surface: gen, build, query, bench, rho, verify.

Every randomized command takes an explicit --seed (no wall-clock defaults),
and every run echoes its effective configuration as sorted key=value lines,
so any output can be regenerated byte-for-byte from the printed config.
Options can also come from a flat key=value config file (--config);
explicit command-line flags win over file entries.

Exit codes: 0 success, 1 contract/parameter failure, 2 I/O or format error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from .collisions import rho_sweep, write_rho_csv
from .datasets import (
    TOOL_VERSION,
    config_lines,
    generate_planted,
    read_truth_csv,
    read_vectors,
    write_meta,
    write_truth_csv,
    write_vectors,
)
from .geometry import ContractViolation
from .index import IndexParams, LshIndex, _check_max_candidates, build, check_safety, choose_k_l, load_index, save_index
from .scheme import Knobs, derive_params
from .util import FormatError, derive_rng, wilson_interval
from .verify import format_report, run_checks

_CLI_THRESHOLD_SAMPLES = 1_000_000  # CLI default; the library default is 10x larger


def _ensure_parent(path: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)


def _load_config_file(path: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise FormatError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                cfg[key.strip()] = value.strip()
    except OSError as exc:
        raise FormatError(f"cannot read config file: {exc}") from None
    return cfg


def _coerce(raw: str, typ, name: str):
    try:
        return typ(raw)
    except ValueError:
        raise FormatError(f"config value for {name!r} is not a valid {typ.__name__}: {raw!r}") from None


class _Options:
    """Merged view over CLI flags and a config file; CLI wins."""

    def __init__(self, ns: argparse.Namespace):
        self.ns = ns
        self.cfg = _load_config_file(ns.config) if getattr(ns, "config", None) else {}
        unknown = sorted(set(self.cfg) - (set(vars(ns)) - {"command", "func", "config"}))
        if unknown:
            raise FormatError(f"{ns.config}: no option of this command reads {', '.join(unknown)}")
        self.effective: dict[str, object] = {}

    def get(self, name: str, typ, default=None, required: bool = False):
        value = getattr(self.ns, name, None)
        if value is None and name in self.cfg:
            value = _coerce(self.cfg[name], typ, name)
        if value is None:
            if required:
                raise ContractViolation(f"missing required option --{name.replace('_', '-')}")
            value = default
        if value is not None:
            self.effective[name] = value
        return value

    def overrides(self) -> dict[str, float]:
        items: list[str] = list(getattr(self.ns, "override", None) or [])
        if not items and "override" in self.cfg:
            items = [s for s in self.cfg["override"].replace(";", ",").split(",") if s]
        out = {}
        for item in items:
            if "=" not in item:
                raise FormatError(f"override must be key=value, got {item!r}")
            key, _, val = item.partition("=")
            out[key.strip()] = _coerce(val.strip(), float, key)
        if out:
            self.effective["override"] = ",".join(f"{k}={v:g}" for k, v in sorted(out.items()))
        return out


def _echo(effective: dict, extra: dict | None = None) -> None:
    merged = dict(effective)
    merged["version"] = TOOL_VERSION
    if extra:
        merged.update(extra)
    for line in config_lines(merged):
        print(line)


# -- gen -------------------------------------------------------------------


def cmd_gen(ns: argparse.Namespace) -> int:
    opts = _Options(ns)
    n = opts.get("n", int, required=True)
    d = opts.get("d", int, required=True)
    planted = opts.get("planted", int, required=True)
    p = opts.get("p", float, required=True)
    r = opts.get("r", float, 1.0)
    c = opts.get("c", float, required=True)
    seed = opts.get("seed", int, required=True)
    scale = opts.get("scale", float)
    fmt = opts.get("format", str, "fvecs")
    out = opts.get("out", str, required=True)
    if fmt not in ("fvecs", "csv"):
        raise ContractViolation(f"format must be fvecs or csv, got {fmt!r}")

    inst = generate_planted(n=n, d=d, planted_count=planted, p=p, r=r, c=c, seed=seed, scale=scale)
    ext = ".csv" if fmt == "csv" else ".fvecs"
    comments = tuple([f"lplsh {TOOL_VERSION}"] + config_lines(inst.config))
    data_path = out + ext
    query_path = out + ".queries" + ext
    truth_path = out + ".truth.csv"
    _ensure_parent(data_path)
    write_vectors(data_path, inst.points, comments)
    write_vectors(query_path, inst.queries, comments)
    write_truth_csv(truth_path, inst.truth_ids, inst.truth_dists, comments)
    write_meta(out + ".meta.json", inst.config)
    _echo(inst.config, {"data": data_path, "queries": query_path, "truth": truth_path})
    return 0


# -- build -----------------------------------------------------------------


def _auto_k_l(scheme, d: int, n: int, safety: float, pilot_trials: int, seed: int):
    from .collisions import estimate_collision

    rng = derive_rng(seed, 41)
    near = estimate_collision(scheme, d, scheme.r, pilot_trials, rng)
    far = estimate_collision(scheme, d, scheme.c * scheme.r, pilot_trials, rng)
    p1 = near.p_hat
    p2 = far.p_hat
    # keep the plug-in rates usable when the pilot saturates at 0 or 1
    if p2 <= 0.0:
        p2 = wilson_interval(far.collisions, far.trials)[1]
    if p1 >= 1.0:
        p1 = wilson_interval(near.collisions, near.trials)[0]
    if p1 <= p2:
        raise ContractViolation(
            f"pilot estimates not sensitive (p1={p1:.4f} <= p2={p2:.4f}); tune knobs before auto k/L"
        )
    shape = choose_k_l(n, p1, p2, safety)
    return shape, near, far


def _knobs(opts: _Options) -> Knobs:
    return Knobs(
        kappa_w=opts.get("kappa_w", float, 1.0),
        kappa_t=opts.get("kappa_t", float, 1.0),
        kappa_eps=opts.get("kappa_eps", float, 1.0),
    )


def _prepare_build(opts: _Options, queries: np.ndarray | None = None):
    """Dataset, scheme, index params and the auto-sizing pilot's estimates (empty for set k, L).

    Queries, when given, are checked against the data's dimension before
    any scheme work.
    """
    data_path = opts.get("data", str, required=True)
    seed = opts.get("seed", int, required=True)
    p = opts.get("p", float, required=True)
    c = opts.get("c", float, required=True)
    r = opts.get("r", float, 1.0)
    profile = opts.get("profile", str, "main")
    knobs = _knobs(opts)
    overrides = opts.overrides()
    threshold_samples = opts.get("threshold_samples", int, _CLI_THRESHOLD_SAMPLES)
    max_candidates = opts.get("max_candidates", int)
    safety = opts.get("safety", float, 3.0)
    pilot_trials = opts.get("pilot_trials", int, 4000)
    # the sizing flags are checked on every run, before the data or the scheme
    check_safety(safety)
    if pilot_trials < 1:
        raise ContractViolation(f"pilot_trials must be >= 1, got {pilot_trials}")

    points = read_vectors(data_path)
    if points.size == 0:
        raise ContractViolation(f"dataset {data_path} is empty")
    n, d = points.shape
    if queries is not None:
        _check_query_dim(queries, d)
    scheme = derive_params(
        c, p, profile=profile, knobs=knobs, overrides=overrides, r=r, threshold_samples=threshold_samples
    )
    k = opts.get("k", int)
    l = opts.get("l", int)
    auto: dict[str, object] = {}
    if k is None or l is None:
        shape, near, far = _auto_k_l(scheme, d, n, safety, pilot_trials, seed)
        k = k if k is not None else shape.k
        l = l if l is not None else shape.l
        auto = {
            "auto_p1_hat": near.p_hat,
            "auto_p2_hat": far.p_hat,
            "auto_rho_hat": shape.rho_hat,
            "auto_degraded": int(shape.degraded),
        }
    return points, scheme, IndexParams(k=k, l=l, seed=seed, max_candidates=max_candidates), auto


def cmd_build(ns: argparse.Namespace) -> int:
    opts = _Options(ns)
    out = opts.get("out", str, required=True)
    _ensure_parent(out)
    points, scheme, params, extra = _prepare_build(opts)
    n, d = points.shape

    start = time.perf_counter()
    index = build(points, scheme, params)
    elapsed = time.perf_counter() - start
    save_index(index, out)

    extra.update(
        {
            "n": n,
            "d": d,
            "k": params.k,
            "l": params.l,
            "seed": params.seed,
            "out": out,
            "avg_probes": index.avg_probes,
            "fallback_rate": index.fallback_rate,
            "fingerprint_collisions": index.fingerprint_collisions,
            "projection_flops": scheme.t * d,
            "lattice_probes_worst": scheme.lattice.num_shifts,
        }
    )
    _echo(dict(scheme.config_items()), extra)
    print(f"built {n} points in {elapsed:.2f}s", file=sys.stderr)
    return 0


# -- query and bench -------------------------------------------------------


def _result_rows(results) -> list[str]:
    rows = []
    for qi, res in enumerate(results):
        if res.answer is None:
            rows.append(f"{qi},-1,nan,0,{res.candidates_examined},{res.tables_probed}")
        else:
            aid, dist = res.answer
            rows.append(
                f"{qi},{aid},{format(dist, '.17g')},{int(bool(res.in_contract))},"
                f"{res.candidates_examined},{res.tables_probed}"
            )
    return rows


def _write_results(path: str, results, comments: tuple[str, ...]) -> None:
    _ensure_parent(path)
    with open(path, "w") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write("query_id,answer_id,distance,in_contract,candidates_examined,tables_probed\n")
        for row in _result_rows(results):
            fh.write(row + "\n")


def _summarize(results, truth) -> dict:
    summary: dict[str, object] = {
        "queries": len(results),
        "answered": sum(1 for r in results if r.answer is not None),
    }
    if results:
        summary["mean_candidates"] = float(np.mean([r.candidates_examined for r in results]))
    if truth is not None and results:
        in_contract = sum(1 for r in results if r.answer is not None and r.in_contract)
        summary["success_rate"] = in_contract / len(results)
    return summary


def _read_queries(opts: _Options):
    """Query path, query vectors, and the truth file's contents (None without --truth)."""
    queries_path = opts.get("queries", str, required=True)
    truth_path = opts.get("truth", str)
    queries = read_vectors(queries_path)
    truth = read_truth_csv(truth_path) if truth_path else None
    if truth is not None and truth[0].size != queries.shape[0]:
        raise ContractViolation(f"truth file {truth_path} has {truth[0].size} rows for {queries.shape[0]} queries")
    return queries_path, queries, truth


def _check_query_dim(queries: np.ndarray, d: int) -> None:
    if queries.size and (queries.ndim != 2 or queries.shape[1] != d):
        raise ContractViolation(
            f"query dimension {queries.shape[1] if queries.ndim == 2 else '?'} does not match index d={d}"
        )


def _answer_queries(index: LshIndex, queries, truth, max_candidates: int | None, out: str, head: list[str]):
    """Run the queries, write the results CSV under `head` and the scheme's config; (summary, query seconds)."""
    t0 = time.perf_counter()
    results = index.query_batch(queries, max_candidates) if queries.size else []
    query_s = time.perf_counter() - t0
    comments = tuple([f"lplsh {TOOL_VERSION}", *head] + config_lines(dict(index.scheme.config_items())))
    _write_results(out, results, comments)
    return _summarize(results, truth), query_s


def cmd_query(ns: argparse.Namespace) -> int:
    opts = _Options(ns)
    index_path = opts.get("index", str, required=True)
    out = opts.get("out", str, required=True)
    max_candidates = opts.get("max_candidates", int)
    _check_max_candidates(max_candidates)  # query_batch is skipped on an empty query file

    queries_path, queries, truth = _read_queries(opts)
    index = load_index(index_path)
    _check_query_dim(queries, index.d)
    head = [f"index={index_path}", f"queries={queries_path}"]
    summary, _ = _answer_queries(index, queries, truth, max_candidates, out, head)
    _echo(opts.effective, summary)
    return 0


def cmd_bench(ns: argparse.Namespace) -> int:
    opts = _Options(ns)
    out = opts.get("out", str, required=True)
    # read every input before the build, so a bad query or truth file fails fast
    queries_path, queries, truth = _read_queries(opts)
    points, scheme, params, auto = _prepare_build(opts, queries)
    n, d = points.shape

    t0 = time.perf_counter()
    index = build(points, scheme, params)
    build_s = time.perf_counter() - t0
    head = [f"data={opts.effective['data']}", f"queries={queries_path}", f"k={params.k}", f"l={params.l}"]
    summary, query_s = _answer_queries(index, queries, truth, params.max_candidates, out, head)
    summary.update({**auto, "k": params.k, "l": params.l, "n": n, "d": d})
    _echo(opts.effective, summary)
    per_query_ms = 1000.0 * query_s / max(1, summary["queries"])
    print(
        f"build {build_s:.2f}s  query {per_query_ms:.2f}ms/query  avg_probes {index.avg_probes:.1f}",
        file=sys.stderr,
    )
    return 0


# -- rho and verify ----------------------------------------------------------


def cmd_rho(ns: argparse.Namespace) -> int:
    opts = _Options(ns)
    p = opts.get("p", float, required=True)
    c_raw = opts.get("c_list", str, required=True)
    d = opts.get("d", int, 32)
    trials = opts.get("trials", int, 20_000)
    seed = opts.get("seed", int, required=True)
    out = opts.get("out", str, required=True)
    profile = opts.get("profile", str, "remark")
    budget = opts.get("budget", int, 10_000_000)
    threshold_samples = opts.get("threshold_samples", int, _CLI_THRESHOLD_SAMPLES)
    knobs = _knobs(opts)
    overrides = opts.overrides()
    try:
        c_list = [float(v) for v in c_raw.replace(";", ",").split(",") if v]
    except ValueError:
        raise FormatError(f"--c-list must be comma-separated reals, got {c_raw!r}") from None

    rng = derive_rng(seed, 51)
    reports = rho_sweep(
        p,
        c_list,
        d,
        trials,
        rng,
        profile=profile,
        knobs=knobs,
        overrides=overrides,
        budget=budget,
        derive_kwargs={"threshold_samples": threshold_samples},
    )
    comments = [f"lplsh {TOOL_VERSION}"] + config_lines(opts.effective)
    _ensure_parent(out)
    write_rho_csv(reports, out, header_comments=comments)
    _echo(opts.effective, {"rows": len(reports), "out": out})
    for rep in reports:
        print(
            f"c={rep.scheme.c:g} p1={rep.p1.p_hat:.4f} p2={rep.p2.p_hat:.5f} rho={rep.rho_hat:.4f}"
            + (" (upper bound)" if rep.rho_is_upper_bound else "")
        )
    return 0


def cmd_verify(ns: argparse.Namespace) -> int:
    opts = _Options(ns)
    level = opts.get("level", str, "quick")
    seed = opts.get("seed", int, 0)
    results = run_checks(level=level, seed=seed)
    print(format_report(results))
    return 0 if all(r.passed for r in results) else 1


# -- parser -----------------------------------------------------------------


def _add_knob_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--profile", choices=("main", "remark"), help="parameter profile")
    sp.add_argument("--kappa-w", dest="kappa_w", type=float, help="width knob")
    sp.add_argument("--kappa-t", dest="kappa_t", type=float, help="reduced-dimension knob")
    sp.add_argument("--kappa-eps", dest="kappa_eps", type=float, help="truncation knob")
    sp.add_argument(
        "--override", action="append", metavar="KEY=VAL",
        help="pin a derived value (w, t, eps, delta, delta_fail, u, u_max, threshold); repeatable",
    )
    sp.add_argument(
        "--threshold-samples", dest="threshold_samples", type=int,
        help=f"Monte Carlo samples for the scaling threshold (default {_CLI_THRESHOLD_SAMPLES})",
    )


def _add_build_flags(sp: argparse.ArgumentParser) -> None:
    """The dataset, table-shape and scheme flags that build and bench share."""
    sp.add_argument("--data", help="dataset path (.fvecs or .csv)")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--k", type=int, help="hashes per table (omit with --l for auto sizing)")
    sp.add_argument("--l", type=int, help="number of tables")
    sp.add_argument("--safety", type=float, help="table-count multiplier for auto sizing (default 3)")
    sp.add_argument("--pilot-trials", dest="pilot_trials", type=int, help="pilot collision trials for auto sizing")
    sp.add_argument("--max-candidates", dest="max_candidates", type=int)
    sp.add_argument("--p", type=float, help="norm exponent in (1, 2]")
    sp.add_argument("--c", type=float, help="approximation factor > 1")
    sp.add_argument("--r", type=float, help="near radius (default 1)")
    _add_knob_flags(sp)
    sp.add_argument("--config")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lplsh",
        description="Lattice-of-balls locality-sensitive hashing for l_p nearest neighbors",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen", help="generate a planted near-neighbor instance")
    sp.add_argument("--n", type=int, help="dataset size")
    sp.add_argument("--d", type=int, help="dimension")
    sp.add_argument("--planted", type=int, help="number of planted query/point pairs")
    sp.add_argument("--p", type=float)
    sp.add_argument("--r", type=float)
    sp.add_argument("--c", type=float)
    sp.add_argument("--scale", type=float, help="background sampling scale (default 6*c*r)")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--format", choices=("fvecs", "csv"))
    sp.add_argument("--out", help="output path prefix")
    sp.add_argument("--config")
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("build", help="build and save an index")
    sp.add_argument("--out", help="index output path")
    _add_build_flags(sp)
    sp.set_defaults(func=cmd_build)

    sp = sub.add_parser("query", help="query a saved index")
    sp.add_argument("--index")
    sp.add_argument("--queries")
    sp.add_argument("--truth")
    sp.add_argument("--out")
    sp.add_argument("--max-candidates", dest="max_candidates", type=int)
    sp.add_argument("--config")
    sp.set_defaults(func=cmd_query)

    sp = sub.add_parser("bench", help="timed build + query run")
    sp.add_argument("--queries")
    sp.add_argument("--truth")
    sp.add_argument("--out")
    _add_build_flags(sp)
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("rho", help="collision-probability sweep over c")
    sp.add_argument("--p", type=float)
    sp.add_argument("--c-list", dest="c_list", help="comma-separated approximation factors")
    sp.add_argument(
        "--d",
        type=int,
        help="dimension the rates stand for, >= 1 (default 32); the rates do not depend on it, since a "
        "p-stable projection of a pair's difference has one law in every d and the uniform lattice shifts "
        "make the hash blind to the base point, so each trial is drawn in R^t (the pilot of build and "
        "bench still projects pairs from R^d, keeping their (k, L))",
    )
    sp.add_argument("--trials", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--out")
    sp.add_argument("--budget", type=int, help="max far-pair trials per c, at least --trials")
    _add_knob_flags(sp)
    sp.add_argument("--config")
    sp.set_defaults(func=cmd_rho)

    sp = sub.add_parser("verify", help="run the property-check suites")
    sp.add_argument("--level", choices=("quick", "full"))
    sp.add_argument("--seed", type=int)
    sp.add_argument("--config")
    sp.set_defaults(func=cmd_verify)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    ns = ap.parse_args(argv)
    try:
        return ns.func(ns)
    except ContractViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
