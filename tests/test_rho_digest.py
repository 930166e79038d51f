"""Golden digest: the exact bytes of one rho CSV.

A small tuned sweep (p = 1.5, c in {2, 5}, d = 8, 300 trials per side)
is written with `write_rho_csv` and its sha256 compared with a recorded
value. Every column is pinned: the scheme's own values (w, t, eps, U,
saturated), the estimates, and the reference curves derived from c and p.
Any change to the lab's random stream, its estimators, or the row
arithmetic moves the digest. The digest was recorded with numpy 2.4
(OpenBLAS) on x86-64; another BLAS may round the projection differently.
"""

import hashlib

from lplsh import Knobs, rho_sweep, write_rho_csv
from lplsh.collisions import TUNED_DELTA, TUNED_DELTA_FAIL, TUNED_KAPPA_W, TUNED_T
from lplsh.util import derive_rng

TUNED_SWEEP_SHA256 = "28a894cf37a46916456be9fa1ada679a9cd704d6869fc6f297a78e1276a03667"


def test_tuned_sweep_csv_matches_golden_digest(tmp_path):
    reports = rho_sweep(
        1.5,
        [2.0, 5.0],
        d=8,
        trials=300,
        rng=derive_rng(0, 9431),
        profile="remark",
        knobs=Knobs(kappa_w=TUNED_KAPPA_W),
        overrides={"t": float(TUNED_T), "delta": float(TUNED_DELTA), "delta_fail": TUNED_DELTA_FAIL},
        derive_kwargs={"threshold_samples": 10_000},
    )
    path = tmp_path / "rho.csv"
    write_rho_csv(reports, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TUNED_SWEEP_SHA256
