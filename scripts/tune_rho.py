"""Knob grid search for the collision experiments.

For each (t, delta, kappa_w) combination, measures p1/p2 at c in {2, 5}
(p = 1.5, r = 1), reports rho, the implied auto table shape at n = 1e4,
the predicted retrieval success at safety 3, and a build-cost proxy
(tables * hashes * probes * t). Used to pin the tuned constants exported
by lplsh.collisions.

Usage: python3 scripts/tune_rho.py [--trials 4000] [--seed 0] [--out tune.csv]
"""

from __future__ import annotations

import argparse
import math
import sys

from lplsh.collisions import estimate_collision
from lplsh.geometry import LpSpace
from lplsh.index import choose_k_l
from lplsh.lattice import LatticeParams, ShiftedLatticeSet, covering_fraction
from lplsh.scheme import PROFILE_REMARK, Knobs, derive_params
from lplsh.util import derive_rng


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=4000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--n", type=int, default=10_000)
    ap.add_argument("--d", type=int, default=32)
    ap.add_argument("--out", default=None)
    ap.add_argument("--ts", default="3,4,5")
    ap.add_argument("--deltas", default="3,4")
    ap.add_argument("--kappas", default="1.2,1.5,1.8,2.2,2.7,3.3")
    args = ap.parse_args()

    rows = []
    header = (
        "t,delta,kappa_w,c,w,U,p1,p2,rho,probes,k,L,pred_success,cost_proxy"
    )
    print(header)
    for t in (int(v) for v in args.ts.split(",")):
        for delta in (float(v) for v in args.deltas.split(",")):
            # shifts sized for a 1e-3 miss budget, capped at 1e5
            for kappa_w in (float(v) for v in args.kappas.split(",")):
                per = {}
                for c in (2.0, 5.0):
                    scheme = derive_params(
                        c,
                        1.5,
                        profile=PROFILE_REMARK,
                        knobs=Knobs(kappa_w=kappa_w),
                        overrides={"t": float(t), "delta": delta, "delta_fail": 1e-3},
                        u_max=100_000,
                        threshold_samples=200_000,
                    )
                    rng = derive_rng(args.seed, t, int(delta), int(kappa_w * 10), int(c))
                    near = estimate_collision(scheme, args.d, 1.0, args.trials, rng)
                    far = estimate_collision(scheme, args.d, c, args.trials, rng)
                    p1, p2 = near.p_hat, far.p_hat
                    if not (0.0 < p2 < p1 < 1.0):
                        print(f"{t},{delta:g},{kappa_w:g},{c:g},{scheme.w:g},{scheme.num_shifts},"
                              f"{p1:.4f},{p2:.4f},nan,nan,nan,nan,nan,nan")
                        continue
                    rho = math.log(1 / p1) / math.log(1 / p2)
                    shape = choose_k_l(args.n, p1, p2, safety=3.0)
                    pred = 1.0 - (1.0 - p1**shape.k) ** shape.l
                    probes = 1.0 / max(2**-60, _coverage(t, delta, args.seed))
                    cost = shape.l * shape.k * probes * t
                    row = (
                        f"{t},{delta:g},{kappa_w:g},{c:g},{scheme.w:g},{scheme.num_shifts},"
                        f"{p1:.4f},{p2:.4f},{rho:.4f},{probes:.0f},{shape.k},{shape.l},"
                        f"{pred:.4f},{cost:.2e}"
                    )
                    print(row)
                    rows.append(row)
                    per[c] = rho
                if 2.0 in per and 5.0 in per and per[5.0] >= per[2.0]:
                    print(f"# WARNING rho ordering violated at t={t} delta={delta:g} kappa_w={kappa_w:g}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(header + "\n")
            fh.write("\n".join(rows) + "\n")
    return 0


_COVERAGE_CACHE: dict[tuple[int, float], float] = {}


def _coverage(t: int, delta: float, seed: int) -> float:
    """Measured single-lattice covered fraction; 1/probes proxy for scan cost."""
    key = (t, delta)
    if key not in _COVERAGE_CACHE:
        params = LatticeParams(w=1.0, t=t, num_shifts=1, delta=delta)
        frac = covering_fraction(
            ShiftedLatticeSet(params, seed), LpSpace(1.5, t), 40_000, derive_rng(seed, 99, t, int(delta))
        )
        _COVERAGE_CACHE[key] = frac
    return _COVERAGE_CACHE[key]


if __name__ == "__main__":
    sys.exit(main())
