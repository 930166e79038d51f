"""The maintenance scripts still run against the library they call.

`scripts/pin_oracles.py` prints the exact stable-law constants that
`tests/test_stable.py` pins, and `scripts/tune_rho.py` sweeps the knob grid
the tuned scheme was picked from. Both call library functions by keyword,
so each runs here on a small budget, loaded by path as the benchmark's
pair script is in `test_bench_pairs.py`.
"""

import importlib.util
import sys
from pathlib import Path

from test_stable import MOMENT_ORACLE, TAIL_A_ORACLE, TAIL_FLATNESS_ORACLE, THRESHOLD_ORACLE

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pin_oracles_prints_the_pinned_oracles(monkeypatch, capsys):
    pin_oracles = load_script("pin_oracles")
    # the oracle side is quadrature; only the library side reads N_MC
    monkeypatch.setattr(pin_oracles, "N_MC", 1_000_000)
    pin_oracles.main()
    printed = {}
    for line in capsys.readouterr().out.splitlines():
        name, sep, value = line.partition(" = ")
        if sep and name.endswith("_ORACLE"):
            printed[name] = float(value.split()[0])
    assert printed == {
        "MOMENT_ORACLE": MOMENT_ORACLE,
        "THRESHOLD_ORACLE": THRESHOLD_ORACLE,
        "TAIL_A_ORACLE": TAIL_A_ORACLE,
        "TAIL_FLATNESS_ORACLE": TAIL_FLATNESS_ORACLE,
    }


def test_tune_rho_runs_one_grid_cell(monkeypatch, capsys):
    tune_rho = load_script("tune_rho")
    argv = ["tune_rho.py", "--ts", "3", "--deltas", "3", "--kappas", "1.8", "--trials", "200"]
    monkeypatch.setattr(sys, "argv", argv)
    assert tune_rho.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,delta,kappa_w,c,w,U,p1,p2,rho,probes,k,L,pred_success,cost_proxy"
    rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    assert [row[:4] for row in rows] == [["3", "3", "1.8", "2"], ["3", "3", "1.8", "5"]]
    for row in rows:
        assert len(row) == 14
        assert 0.0 < float(row[7]) < float(row[6]) < 1.0
