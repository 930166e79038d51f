"""The benchmark-pairs script's regressed and unresolved marks, and its argument checks.

`scripts/bench_pairs.py` is a script, not a package module, so it is
loaded by path. A metric is regressed when the change's median is worse
than the parent's by more than the metric's bound times the parent's
median, and unresolved when the parent's interquartile range exceeds that
amount and not every change run beats every parent run. Bad arguments exit
2 before either side is cloned.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_PAIRS = ROOT / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "parent, change, direction, regressed",
    [
        ([10.0] * 10, [13.0] * 10, "lower", True),  # 30% slower against a 25% bound
        ([10.0] * 10, [12.0] * 10, "lower", False),  # 20% slower is inside it
        ([10.0] * 10, [7.0] * 10, "lower", False),
        ([100.0] * 10, [70.0] * 10, "higher", True),
        ([100.0] * 10, [80.0] * 10, "higher", False),
        ([100.0] * 10, [130.0] * 10, "higher", False),
    ],
)
def test_regressed_is_the_median_beyond_the_bound(bench_pairs, parent, change, direction, regressed):
    got = bench_pairs.verdicts(parent, change, direction, 0.25)
    assert got == {"regressed": regressed, "unresolved": False}


def test_unresolved_is_a_wide_parent_not_beaten_by_every_run(bench_pairs):
    # quartiles 8 and 12 about a median of 10: an IQR of 40% of the median
    parent = [6.0, 8.0, 10.0, 12.0, 14.0]
    assert bench_pairs.verdicts(parent, [9.0, 10.0, 11.0, 9.5, 10.5], "lower", 0.25)["unresolved"]
    assert not bench_pairs.verdicts(parent, [5.0, 5.5, 4.0, 5.9, 5.2], "lower", 0.25)["unresolved"]
    assert not bench_pairs.verdicts(parent, [9.0, 10.0, 11.0, 9.5, 10.5], "lower", 0.5)["unresolved"]
    assert bench_pairs.verdicts(parent, [9.0, 10.0, 11.0, 9.5, 10.5], "higher", 0.25)["unresolved"]
    assert not bench_pairs.verdicts(parent, [15.0, 16.0, 17.0, 15.5, 20.0], "higher", 0.25)["unresolved"]


def test_no_bound_marks_neither(bench_pairs):
    assert bench_pairs.verdicts([1.0, 2.0], [5.0, 6.0], "lower", None) == {"regressed": None, "unresolved": None}


def test_summary_marks_each_metric_and_lists_them_per_workload(bench_pairs):
    def run(build_s, recall):
        return {
            "metrics": {"build_s": build_s, "recall": recall, "undeclared": 1.0},
            "failed": 0,
            "attempted": 1,
            "digests": {"index_sha256": "a", "rho_csv_sha256": "b"},
        }

    pairs = [
        {"seed": seed, "parent": run(1.0, 0.9), "change": run(1.5, 0.9)} for seed in range(4)
    ]
    declared = {
        "build_s": {"better": "lower", "bound": 0.25, "unit": "s"},
        "recall": {"better": "higher", "bound": 0.2, "unit": "fraction"},
    }
    summary = bench_pairs.summarise(pairs, declared)
    metrics = summary["metrics"]
    assert (metrics["build_s"]["regressed"], metrics["build_s"]["unresolved"]) == (True, False)
    assert (metrics["recall"]["regressed"], metrics["recall"]["unresolved"]) == (False, False)
    assert metrics["undeclared"]["regressed"] is None
    assert bench_pairs.verdict_lines({"w": summary}) == ["regressed on w: build_s", "unresolved on w: none"]


class Cloned(Exception):
    """Raised in place of a clone: the arguments got past every check."""


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--seeds", "2030-2021"], "empty seed range '2030-2021'"),
        (["--seeds", "5,5"], "seeds listed more than once: [5]"),
        (["--seeds", "2021-2025,2023"], "seeds listed more than once: [2023]"),
        (["--seeds", "1-3", "--claim", "no_such_metric:query-n1k"], "--claim metric 'no_such_metric'"),
        (["--seeds", "1-3", "--claim", "rho_trials_per_s:planted-n1500"], "--claim workload 'planted-n1500'"),
        (["--seeds", "1-3", "--traced", "query-n1k:x"], "invalid traced_pair value: 'query-n1k:x'"),
    ],
    ids=["reversed-range", "repeated-seed", "overlapping-parts", "undeclared-metric", "unrun-workload", "traced-seed"],
)
def test_bad_arguments_exit_2_before_any_clone(bench_pairs, monkeypatch, capsys, tmp_path, extra, message):
    # git answers from the working tree, so the checks need no second ref
    def git(*args, cwd=None):
        if args == ("rev-parse", "--show-toplevel"):
            return str(ROOT)
        assert args == ("show", "HEAD:BENCHMARK.json")
        return (ROOT / "BENCHMARK.json").read_text()

    def checkout(repo, ref, into):
        raise Cloned

    monkeypatch.setattr(bench_pairs, "git", git)
    monkeypatch.setattr(bench_pairs, "checkout", checkout)
    argv = ["--parent", "HEAD~1", "--change", "HEAD", "--workloads", "query-n1k", "--out", str(tmp_path / "b.json")]
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv + extra)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    # the same call with good seeds and claim gets as far as the clone
    with pytest.raises(Cloned):
        bench_pairs.main(argv + ["--seeds", "1-3", "--claim", "rho_trials_per_s:query-n1k"])
    assert not (tmp_path / "b.json").exists()
