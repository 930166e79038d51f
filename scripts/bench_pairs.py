"""Alternating benchmark pairs of two git refs, summarised as a BENCH_*.json record.

Usage, from anywhere inside the repository:

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD \
        --workloads query-n1k planted-n1500 --seeds 2021-2030 --seconds 40 \
        --claim batch_qps:query-n1k --traced query-n1k:2031 --out BENCH_20.json

Each ref is checked out in its own `git clone` under a temporary directory,
so both sides run from the same kind of tree; a tree copied file by file
reads a few percent slower than a clone. For every workload and seed it runs
the refs' own, unchanged `perfbench/run.py` once per side, back to back: the
parent first on odd seeds, the change first on even ones. From each run it
reads the result line (the last line of standard output) and the `digests`
and `env` lines, and from a traced run the tracer's health: its
`trace spans=... outlasting_children=...` line and any
`trace absent targets: ...` line.

Per metric it reports each side's median and quartiles (numpy's linear
percentiles), the relative change of the medians and the pairs the change
won (ties count for neither side), with the unit, direction and bound that
the change's BENCHMARK.json declares. A claim is met when the change wins at
least nine tenths of its pairs and its median is better than the parent's by
more than the parent's interquartile range. Against its bound every metric
is marked `regressed` when the change's median is worse than the parent's by
more than the bound times the parent's median, and `unresolved` when the
parent's interquartile range exceeds the bound times its median and not every
change run beats every parent run; both lists are printed per workload after
the claim line (a metric without a declared bound is marked neither, as
null). `--traced` adds one `--trace 1`
pair per workload:seed, reported metric by metric with each side's tracer
health. The output file is
rewritten after every pair, so an interrupted run leaves the pairs it
finished.

The arguments are checked before anything is cloned: an empty seed range, a
seed listed twice, a traced seed that is not an integer, a claimed workload
missing from `--workloads` and a claimed metric that the change's
BENCHMARK.json does not declare each exit 2.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
DIGESTS = ("index_sha256", "rho_csv_sha256")
WIN_SHARE = 0.9


def seed_range(text: str) -> list[int]:
    """'2021-2030' or '2021,2025' as a list of seeds; an empty range or a seed listed twice is an error."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        span = range(int(lo), int(hi or lo) + 1)
        if not span:
            raise argparse.ArgumentTypeError(f"empty seed range {part!r}")
        seeds += span
    repeated = sorted({seed for seed in seeds if seeds.count(seed) > 1})
    if repeated:
        # one seed run twice is one pair counted twice
        raise argparse.ArgumentTypeError(f"seeds listed more than once: {repeated}")
    return seeds


def pair(text: str) -> tuple[str, str]:
    """'a:b' as (a, b)."""
    a, sep, b = text.partition(":")
    if not (sep and a and b):
        raise argparse.ArgumentTypeError(f"expected NAME:VALUE, got {text!r}")
    return a, b


def traced_pair(text: str) -> tuple[str, int]:
    """'workload:seed' as (workload, seed)."""
    workload, seed = pair(text)
    return workload, int(seed)


def git(*args: str, cwd: str | Path | None = None) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True, text=True).stdout.strip()


def checkout(repo: str, ref: str, into: Path) -> str:
    """Clone repo into `into` at ref; returns the commit."""
    git("clone", "--quiet", "--no-checkout", repo, str(into))
    git("checkout", "--quiet", "--detach", ref, cwd=into)
    return git("rev-parse", "HEAD", cwd=into)


def trace_health(lines: list[str]) -> dict:
    """The tracer's span count, spans outlasting their parent and absent targets, from a traced run's lines.

    Raises when the spans line is missing, so a traced record never lacks it.
    """
    health: dict = {"absent_targets": []}
    for line in lines:
        if line.startswith("trace spans="):
            fields = dict(field.split("=", 1) for field in line.split()[1:])
            health["spans"] = int(fields["spans"])
            health["outlasting_children"] = int(fields["outlasting_children"])
        elif line.startswith("trace absent targets: "):
            health["absent_targets"] = line.split(": ", 1)[1].split(", ")
    if "spans" not in health:
        raise RuntimeError("a traced run printed no 'trace spans=' line")
    return health


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in `tree`: its metric values, failed and attempted counts, digests, environment
    and, when traced, the tracer's health."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    tagged = {line.split(" ", 1)[0]: line.split(" ", 1)[1] for line in lines if line.startswith(("digests ", "env "))}
    run = {
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
        "failed": result["failed"],
        "attempted": result["attempted"],
        "digests": json.loads(tagged["digests"]),
        "env": json.loads(tagged["env"]),
    }
    if trace:
        run["trace"] = trace_health(lines)
    return run


def run_pair(trees: dict[str, Path], workload: str, seed: int, seconds: float, trace: int) -> dict[str, dict]:
    """Both sides on one seed, the parent first on odd seeds."""
    order = SIDES if seed % 2 else SIDES[::-1]
    runs = {}
    for side in order:
        runs[side] = run_once(trees[side], workload, seed, seconds, trace)
        print(f"{workload} seed {seed} {side}: failed {runs[side]['failed']}", file=sys.stderr, flush=True)
    return runs


def same_digest(runs: dict[str, dict], name: str) -> bool:
    return runs["parent"]["digests"][name] == runs["change"]["digests"][name]


def better(a: float, b: float, direction: str) -> bool:
    """a reads strictly better than b."""
    return a < b if direction == "lower" else a > b


def verdicts(parent_runs: list[float], change_runs: list[float], direction: str, bound: float | None) -> dict:
    """`regressed` and `unresolved` of one metric against its bound, both relative to the parent's median.

    regressed: the change's median is worse by more than bound * |parent median|. unresolved: the parent's
    interquartile range exceeds bound * |parent median| and not every change run beats every parent run.
    Both are None without a bound.
    """
    if bound is None:
        return {"regressed": None, "unresolved": None}
    q1, median, q3 = np.percentile(parent_runs, [25, 50, 75])
    worse = np.median(change_runs) - median if direction == "lower" else median - np.median(change_runs)
    allowed = bound * abs(median)
    every_run_beats = all(better(c, p, direction) for c in change_runs for p in parent_runs)
    return {"regressed": bool(worse > allowed), "unresolved": bool(q3 - q1 > allowed and not every_run_beats)}


def summarise(pairs: list[dict[str, dict]], declared: dict[str, dict]) -> dict:
    """One workload's pairs: digests, failures and every metric's medians, quartiles and wins."""
    metrics = {}
    for name in pairs[0]["parent"]["metrics"]:
        decl = declared.get(name, {})
        direction = decl.get("better", "lower")
        runs = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        quart = {side: np.percentile(runs[side], [25, 50, 75]) for side in SIDES}
        parent_median, change_median = quart["parent"][1], quart["change"][1]
        metrics[name] = {
            "unit": decl.get("unit"),
            "better": direction,
            "parent_median": round(float(parent_median), 6),
            "parent_quartiles": [round(float(q), 6) for q in quart["parent"][::2]],
            "change_median": round(float(change_median), 6),
            "change_quartiles": [round(float(q), 6) for q in quart["change"][::2]],
            "relative_change": round(float((change_median - parent_median) / parent_median), 4)
            if parent_median
            else None,
            "change_wins": sum(better(c, p, direction) for p, c in zip(runs["parent"], runs["change"])),
            "bound": decl.get("bound"),
            **verdicts(runs["parent"], runs["change"], direction, decl.get("bound")),
            "parent_runs": runs["parent"],
            "change_runs": runs["change"],
        }
    return {
        "pairs": len(pairs),
        "seeds": [p["seed"] for p in pairs],
        "failed_ops": sum(p[side]["failed"] for p in pairs for side in SIDES),
        "attempted_ops": sum(p[side]["attempted"] for p in pairs for side in SIDES),
        **{f"{name}_equal": all(same_digest(p, name) for p in pairs) for name in DIGESTS},
        "metrics": metrics,
    }


def claim_result(metric: str, workload: str, summary: dict) -> dict:
    """The claim rule: wins in at least nine tenths of the pairs, medians apart by more than the parent's IQR."""
    entry = summary["metrics"][metric]
    iqr = entry["parent_quartiles"][1] - entry["parent_quartiles"][0]
    gain = entry["change_median"] - entry["parent_median"]
    if entry["better"] == "lower":
        gain = -gain
    return {
        "workload": workload,
        "parent_median": entry["parent_median"],
        "parent_iqr": round(iqr, 6),
        "change_median": entry["change_median"],
        "change_wins": entry["change_wins"],
        "pairs": summary["pairs"],
        "met": entry["change_wins"] >= WIN_SHARE * summary["pairs"] and gain > iqr,
    }


def verdict_lines(workloads: dict[str, dict]) -> list[str]:
    """Per workload, the metrics marked regressed and those marked unresolved ('none' for neither)."""
    lines = []
    for workload, summary in workloads.items():
        for mark in ("regressed", "unresolved"):
            names = [name for name, entry in summary["metrics"].items() if entry[mark]]
            lines.append(f"{mark} on {workload}: {', '.join(names) or 'none'}")
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git ref of the parent side")
    ap.add_argument("--change", required=True, help="git ref of the change side")
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", type=seed_range, required=True, help="e.g. 2021-2030")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--claim", type=pair, help="METRIC:WORKLOAD, the one claimed gain")
    ap.add_argument("--traced", type=traced_pair, action="append", default=[], help="WORKLOAD:SEED, one --trace 1 pair")
    ap.add_argument("--out", required=True, help="the JSON record to write")
    args = ap.parse_args(argv)
    if args.claim is not None and args.claim[1] not in args.workloads:
        ap.error(f"--claim workload {args.claim[1]!r} is not among --workloads")
    repo = git("rev-parse", "--show-toplevel")
    try:
        benchmark = json.loads(git("show", f"{args.change}:BENCHMARK.json", cwd=repo))
    except subprocess.CalledProcessError:
        ap.error(f"--change {args.change!r} has no BENCHMARK.json")
    declared = {m["name"]: m for m in benchmark["end_to_end"]}
    if args.claim is not None and args.claim[0] not in declared:
        ap.error(f"--claim metric {args.claim[0]!r} is not an end-to-end metric of the change's BENCHMARK.json")

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        commits = {side: checkout(repo, getattr(args, side), trees[side]) for side in SIDES}
        record: dict = {
            "commits": commits,
            "claimed": None if args.claim is None else dict(zip(("metric", "workload"), args.claim)),
            "command": f"python3 perfbench/run.py --workload <w> --seed <s> --seconds {args.seconds:g} --trace 0",
            "protocol": (
                f"{len(args.seeds)} pairs per workload, seeds {args.seeds[0]}-{args.seeds[-1]}, parent and change "
                "each run from a git clone, back to back, the side that runs first alternating with the seed's "
                "parity (odd: parent first); medians and quartiles (numpy linear percentiles) over the runs of "
                "each side; wins count pairs where the change reads better, ties for neither"
            ),
            "host": {},
            "claim_result": {},
            "workloads": {},
        }
        out = Path(args.out)
        for workload in args.workloads:
            pairs = []
            for seed in args.seeds:
                pairs.append({"seed": seed, **run_pair(trees, workload, seed, args.seconds, 0)})
                env = pairs[-1]["change"]["env"]
                record["host"] = {"vcpus": env["affinity_cpus"], **{k: env[k] for k in ("python", "numpy", "blas_threads")}}
                record["workloads"][workload] = summarise(pairs, declared)
                if args.claim is not None and args.claim[1] == workload:
                    metric = args.claim[0]
                    record["claim_result"][metric] = claim_result(metric, workload, record["workloads"][workload])
                out.write_text(json.dumps(record, indent=1) + "\n")
        traced: dict = {}
        for workload, seed in args.traced:
            runs = run_pair(trees, workload, seed, args.seconds, 1)
            traced.setdefault(workload, {})[seed] = {
                **{f"{name}_equal": same_digest(runs, name) for name in DIGESTS},
                "failed_ops": runs["parent"]["failed"] + runs["change"]["failed"],
                "trace": {side: runs[side]["trace"] for side in SIDES},
                "metrics": {
                    name: {side: runs[side]["metrics"].get(name) for side in SIDES}
                    for name in runs["parent"]["metrics"]
                },
            }
            record["per_layer"] = {"runs": "one --trace 1 pair per workload:seed listed, alternating as above", **traced}
            out.write_text(json.dumps(record, indent=1) + "\n")
    for metric, result in record["claim_result"].items():
        print(f"claim {metric} on {result['workload']}: {'met' if result['met'] else 'NOT met'} {result}")
    print("\n".join(verdict_lines(record["workloads"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
