"""lplsh benchmark: one workload run, printed as metrics plus a JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload planted-n1500 --seed 1 --seconds 40 --trace 0

--trace 0 measures the end-to-end metrics with no tracing installed.
--trace 1 runs the same stages with every traced library call recorded as
a span and prints the per-layer metrics instead; its spans are written to
.perfbench/trace-<workload>.npz. The last line of standard output is
{"correct", "attempted", "failed", "metrics"}; the lines before it name
every metric with its unit, the run environment and the output digests.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# One BLAS thread, set before numpy loads: the host has few cores, and a
# second thread would measure the scheduler as much as the program.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="least time the measured cycles run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workloads.load_lplsh()
    spec = workloads.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    result = workloads.run_index(spec, args.seed, args.seconds, tracer)

    for name, (value, unit) in result.metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    ops = result.ops
    print(f"failed_ops_ratio = {ops.failed / ops.attempted:.6g} fraction ({ops.failed} of {ops.attempted})")
    for problem in ops.problems:
        print(f"FAILED {problem}")
    print("env " + json.dumps(result.env, sort_keys=True))
    print("digests " + json.dumps(result.digests, sort_keys=True))
    print("notes " + json.dumps(result.notes, sort_keys=True))
    if tracer is not None:
        workloads.OUT.mkdir(parents=True, exist_ok=True)
        tracer.save(str(workloads.OUT / f"trace-{spec.name}.npz"))
        summary = tracer.summary()
        print(f"trace spans={summary.name.size} outlasting_children={summary.outlasting_children()}")
        if tracer.absent:
            print("trace absent targets: " + ", ".join(tracer.absent))
    print(
        json.dumps(
            {
                "correct": ops.failed == 0,
                "attempted": ops.attempted,
                "failed": ops.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result.metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
