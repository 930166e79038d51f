"""Pin Monte Carlo regression constants against exact stable-law oracles.

The sampler-independent side uses scipy's levy_stable (alpha = p, beta = 0,
scale 1), which has characteristic function exp(-|xi|^p) -- the same
convention as lplsh.stable -- so truncated moments, the scaling threshold,
and tail probabilities can be computed by numerical integration with no
shared code or randomness. The Monte Carlo side runs the library estimators
at 10^7 samples with fixed seeds. Both sets of numbers are printed as a
ready-to-paste block for tests/test_stable.py; rerun this script whenever
the sampler or the seed derivation changes.

Usage: python3 scripts/pin_oracles.py
"""

import math
import time

import numpy as np
from scipy import stats
from scipy.integrate import quad

from lplsh.stable import (
    TAIL_FIT_RANGE,
    TAIL_GRID_SIZE,
    StableParams,
    compute_threshold,
    fit_tail_constant,
    truncated_moment,
)
from lplsh.util import derive_rng

P = 1.5
T_DIM = 64
EPSILON = 0.25
M_PIN = T_DIM**EPSILON  # 2.8284...
N_MC = 10_000_000


def exact_truncated_moment(p: float, m: float) -> float:
    """E[min(|X|, M)^p] for symmetric p-stable X by quadrature."""
    dist = stats.levy_stable(p, 0.0)
    body, err = quad(lambda x: x**p * dist.pdf(x), 0.0, m, limit=200)
    assert err < 1e-7, f"quadrature error {err:.2e} too large"
    return 2.0 * body + m**p * 2.0 * dist.sf(m)


def main() -> None:
    dist = stats.levy_stable(P, 0.0)

    t0 = time.time()
    moment_exact = exact_truncated_moment(P, M_PIN)
    threshold_exact = T_DIM * moment_exact / 2.0

    grid = np.geomspace(*TAIL_FIT_RANGE, TAIL_GRID_SIZE)
    tail_exact = np.array([dist.sf(m) for m in grid])
    scaled_exact = P * grid**P * tail_exact
    a_exact = float(np.exp(np.mean(np.log(scaled_exact))))
    a_asymptote = P * math.gamma(P) * math.sin(math.pi * P / 2.0) / math.pi
    print(f"# oracle side ({time.time() - t0:.1f}s)")
    print(f"moment_exact     = {moment_exact:.6f}   (p={P}, M=64^0.25)")
    print(f"threshold_exact  = {threshold_exact:.6f}   (T = t*moment/2, t=64)")
    print(f"a_exact_fit      = {a_exact:.6f}   (flat fit of p*M^p*Pr[X>M] on exact tails)")
    print(f"a_asymptote      = {a_asymptote:.6f}   (p*Gamma(p)*sin(pi*p/2)/pi)")
    print(f"scaled_tail_ends = {scaled_exact[0]:.6f} .. {scaled_exact[-1]:.6f}"
          f"   (flatness {scaled_exact.max() / scaled_exact.min() - 1.0:.4f})")

    params = StableParams(P)
    t0 = time.time()
    mom = truncated_moment(params, M_PIN, n_samples=N_MC, rng=derive_rng(0, 201))
    z_mom = (mom.value - moment_exact) / mom.std_error
    print(f"\n# library side at {N_MC:.0e} samples ({time.time() - t0:.1f}s)")
    print(f"moment_mc        = {mom.value:.6f} +- {mom.std_error:.6f}   z={z_mom:+.2f}")

    t0 = time.time()
    thr = compute_threshold(T_DIM, EPSILON, params, n_samples=N_MC, seed=0)
    z_thr = (thr.value - threshold_exact) / (T_DIM / 2.0 * mom.std_error)
    print(f"threshold_mc     = {thr.value:.6f}   z={z_thr:+.2f}   ({time.time() - t0:.1f}s)")

    t0 = time.time()
    fit = fit_tail_constant(params, n_samples=N_MC, rng=derive_rng(0, 202))
    print(f"tail_fit_mc      = a_hat {fit.constants.a_hat:.6f}  b_hat {fit.constants.b_hat:.6f}"
          f"  flatness {fit.flatness:.4f}  n_tail {fit.constants.n_tail}   ({time.time() - t0:.1f}s)")

    print("\n# paste into tests (tests/test_stable.py)")
    print(f"MOMENT_ORACLE = {moment_exact:.6f}  # E[min(|X|, 64^0.25)^1.5], quadrature")
    print(f"THRESHOLD_ORACLE = {threshold_exact:.6f}  # T(t=64, eps=0.25, p=1.5)")
    print(f"TAIL_A_ORACLE = {a_exact:.6f}  # flat fit on exact tail probabilities")
    print(f"TAIL_FLATNESS_ORACLE = {scaled_exact.max() / scaled_exact.min() - 1.0:.4f}")


if __name__ == "__main__":
    main()
