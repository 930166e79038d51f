"""End-to-end runs of the command-line surface via main(argv)."""

import struct
import time

import pytest

from lplsh import LpSpace, linear_scan_nn, load_index, read_vectors
from lplsh.cli import main
from lplsh.collisions import RHO_CSV_COLUMNS
from lplsh.datasets import read_truth_csv
from lplsh.stable import _THRESHOLD_MEMO
from lplsh.util import crc64

FAST_SCHEME = [
    "--p", "1.5", "--c", "2", "--profile", "remark", "--kappa-w", "1.8",
    "--override", "t=3", "--override", "delta=3", "--override", "delta_fail=0.001",
    "--threshold-samples", "10000",
]


def echo_map(captured: str) -> dict[str, str]:
    out = {}
    for line in captured.splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            out[key] = value
    return out


@pytest.fixture(scope="module")
def instance(tmp_path_factory):
    root = tmp_path_factory.mktemp("inst")
    prefix = str(root / "toy")
    code = main([
        "gen", "--n", "60", "--d", "5", "--planted", "6", "--p", "1.5",
        "--c", "2", "--seed", "3", "--out", prefix,
    ])
    assert code == 0
    return prefix


@pytest.fixture(scope="module")
def built_index(instance, tmp_path_factory):
    root = tmp_path_factory.mktemp("idx")
    out = str(root / "toy.lplsh")
    code = main([
        "build", "--data", instance + ".fvecs", "--out", out, "--seed", "7",
        "--k", "2", "--l", "3", *FAST_SCHEME,
    ])
    assert code == 0
    return out


class TestGen:
    def test_files_written(self, instance, tmp_path):
        for suffix in (".fvecs", ".queries.fvecs", ".truth.csv", ".meta.json"):
            assert (len(open(instance + suffix, "rb").read()) > 0)

    def test_truth_matches_linear_scan(self, instance):
        points = read_vectors(instance + ".fvecs")
        queries = read_vectors(instance + ".queries.fvecs")
        truth_ids, truth_dists = read_truth_csv(instance + ".truth.csv")
        space = LpSpace(1.5, 5)
        for qi in range(queries.shape[0]):
            nn_id, nn_dist = linear_scan_nn(points, queries[qi], space)
            assert nn_id == truth_ids[qi]
            # distances survive the f32 round trip of the fvecs format
            assert nn_dist == pytest.approx(truth_dists[qi], rel=1e-5)
            assert nn_dist == pytest.approx(1.0, rel=1e-5)

    def test_echo_and_meta_agree(self, tmp_path, capsys):
        prefix = str(tmp_path / "echo")
        assert main([
            "gen", "--n", "20", "--d", "3", "--planted", "2", "--p", "1.5",
            "--c", "2", "--seed", "1", "--out", prefix,
        ]) == 0
        echoed = echo_map(capsys.readouterr().out)
        assert echoed["n"] == "20"
        assert echoed["seed"] == "1"
        assert echoed["version"] == "0.1.0"
        assert echoed["data"] == prefix + ".fvecs"
        import json
        meta = json.loads(open(prefix + ".meta.json").read())
        assert meta["config"]["n"] == 20
        assert meta["tool"] == "lplsh"

    def test_deterministic_regeneration(self, tmp_path):
        a = str(tmp_path / "a")
        b = str(tmp_path / "b")
        args = ["gen", "--n", "25", "--d", "4", "--planted", "3", "--p", "1.5",
                "--c", "2", "--seed", "11", "--out"]
        assert main(args + [a]) == 0
        assert main(args + [b]) == 0
        assert open(a + ".fvecs", "rb").read() == open(b + ".fvecs", "rb").read()
        assert open(a + ".truth.csv").read() == open(b + ".truth.csv").read()

    def test_csv_format(self, tmp_path):
        prefix = str(tmp_path / "c")
        assert main([
            "gen", "--n", "10", "--d", "3", "--planted", "1", "--p", "1.5",
            "--c", "2", "--seed", "2", "--format", "csv", "--out", prefix,
        ]) == 0
        text = open(prefix + ".csv").read()
        assert text.startswith("# lplsh 0.1.0\n")
        assert read_vectors(prefix + ".csv").shape == (10, 3)

    def test_single_point_instance(self, tmp_path):
        prefix = str(tmp_path / "one")
        assert main([
            "gen", "--n", "1", "--d", "4", "--planted", "1", "--p", "1.5",
            "--c", "2", "--seed", "0", "--out", prefix,
        ]) == 0
        assert read_vectors(prefix + ".fvecs").shape == (1, 4)

    def test_missing_required_option(self, tmp_path, capsys):
        code = main(["gen", "--d", "3", "--planted", "1", "--p", "1.5",
                     "--c", "2", "--seed", "0", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "--n" in capsys.readouterr().err

    def test_nan_radius_rejected(self, tmp_path, capsys):
        prefix = tmp_path / "x"
        code = main(["gen", "--n", "20", "--d", "3", "--planted", "2", "--p", "1.5",
                     "--r", "nan", "--c", "2", "--seed", "0", "--out", str(prefix)])
        assert code == 1
        assert capsys.readouterr().err == "error: r must be > 0 and finite, got nan\n"
        assert not (tmp_path / "x.fvecs").exists()


class TestBuild:
    def test_echo_reports_derived_scheme(self, instance, tmp_path, capsys):
        out = str(tmp_path / "idx.lplsh")
        assert main([
            "build", "--data", instance + ".fvecs", "--out", out, "--seed", "5",
            "--k", "2", "--l", "3", *FAST_SCHEME,
        ]) == 0
        echoed = echo_map(capsys.readouterr().out)
        for key in ("w", "t", "eps", "T", "U", "saturated", "n", "d", "k", "l",
                    "avg_probes", "fallback_rate", "projection_flops"):
            assert key in echoed, key
        assert echoed["w"] == "3.6"
        assert echoed["t"] == "3"
        assert echoed["U"] == "6638"
        assert echoed["saturated"] == "0"
        index = load_index(out)
        assert index.n == 60

    def test_build_leaves_only_the_index_file(self, instance, built_index, tmp_path):
        # T comes from its seed alone: a build writes no side file, and a
        # stale threshold record beside the index does not change its bytes,
        # even when the in-process memo is empty
        fresh, stale = tmp_path / "fresh", tmp_path / "stale"
        stale.mkdir()
        (stale / "thresholds.jsonl").write_text(
            '{"version": 1, "p": 1.5, "t": 3, "eps": 0.9102392266268373, "n_samples": 10000, "seed": 0, "T": 123.0}\n'
        )
        for root in (fresh, stale):
            _THRESHOLD_MEMO.clear()
            assert main([
                "build", "--data", instance + ".fvecs", "--out", str(root / "toy.lplsh"), "--seed", "7",
                "--k", "2", "--l", "3", *FAST_SCHEME,
            ]) == 0
        assert [path.name for path in fresh.iterdir()] == ["toy.lplsh"]
        expected = open(built_index, "rb").read()
        assert (fresh / "toy.lplsh").read_bytes() == expected
        assert (stale / "toy.lplsh").read_bytes() == expected

    def test_config_key_no_option_reads_is_format_error(self, instance, tmp_path, capsys):
        cfg = tmp_path / "build.cfg"
        cfg.write_text("safty=0.5\nmax_candidate=1\nu_max=10\nseed=7\n")
        out = tmp_path / "idx.lplsh"
        code = main(["build", "--config", str(cfg), "--data", instance + ".fvecs", "--out", str(out),
                     "--k", "2", "--l", "3", *FAST_SCHEME])
        assert code == 2
        assert capsys.readouterr().err == (
            f"format error: {cfg}: no option of this command reads max_candidate, safty, u_max\n"
        )
        assert not out.exists()

    def test_auto_sizing(self, instance, tmp_path, capsys):
        out = str(tmp_path / "auto.lplsh")
        assert main([
            "build", "--data", instance + ".fvecs", "--out", out, "--seed", "5",
            "--safety", "1", "--pilot-trials", "600", *FAST_SCHEME,
        ]) == 0
        echoed = echo_map(capsys.readouterr().out)
        assert float(echoed["auto_p1_hat"]) > float(echoed["auto_p2_hat"])
        assert 0.0 < float(echoed["auto_rho_hat"]) < 1.0
        index = load_index(out)
        assert index.params.k == int(echoed["k"])
        assert index.params.l == int(echoed["l"])

    def test_infinite_safety_rejected(self, instance, tmp_path, monkeypatch, capsys):
        def no_pilot(*args, **kwargs):
            raise AssertionError("build ran the pilot before checking --safety")

        monkeypatch.setattr("lplsh.collisions.estimate_collision", no_pilot)
        out = tmp_path / "auto.lplsh"
        code = main(["build", "--data", instance + ".fvecs", "--out", str(out), "--seed", "5",
                     "--safety", "inf", "--pilot-trials", "600", *FAST_SCHEME])
        assert code == 1
        assert capsys.readouterr().err == "error: safety must be > 0 and finite, got inf\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,flags,name",
        [
            ("build", ["--k", "2", "--l", "3", "--safety", "nan"], "safety"),
            ("build", ["--pilot-trials", "0"], "pilot_trials"),
            ("bench", ["--k", "2", "--l", "3", "--pilot-trials", "-5"], "pilot_trials"),
        ],
        ids=["set-k-l-nan-safety", "zero-pilot-trials", "bench-negative-pilot-trials"],
    )
    def test_sizing_flags_checked_first(self, instance, tmp_path, monkeypatch, capsys, command, flags, name):
        # checked on every run, set (k, L) too, before a scheme is derived;
        # build reads no data first, while bench reads its queries first by design
        def no_work(*args, **kwargs):
            raise AssertionError("the sizing flags were not checked first")

        monkeypatch.setattr("lplsh.cli.derive_params", no_work)
        argv = [command, "--data", instance + ".fvecs", "--out", str(tmp_path / "out"), "--seed", "5",
                *flags, *FAST_SCHEME]
        if command == "bench":
            argv += ["--queries", instance + ".queries.fvecs"]
        else:
            monkeypatch.setattr("lplsh.cli.read_vectors", no_work)
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {name} must be")

    def test_missing_data_file(self, tmp_path, capsys):
        code = main(["build", "--data", str(tmp_path / "nope.fvecs"),
                     "--out", str(tmp_path / "x.lplsh"), "--seed", "1",
                     "--k", "1", "--l", "1", *FAST_SCHEME])
        assert code == 2

    def test_empty_dataset_rejected(self, tmp_path, capsys):
        data = tmp_path / "empty.csv"
        data.write_text("x0,x1\n")
        code = main(["build", "--data", str(data), "--out", str(tmp_path / "x.lplsh"),
                     "--seed", "1", "--k", "1", "--l", "1", *FAST_SCHEME])
        assert code == 1
        assert "empty" in capsys.readouterr().err

    def test_ragged_dataset_is_format_error(self, tmp_path, capsys):
        data = tmp_path / "ragged.csv"
        data.write_text("x0,x1\n1.0,2.0\n3.0\n")
        code = main(["build", "--data", str(data), "--out", str(tmp_path / "x.lplsh"),
                     "--seed", "1", "--k", "1", "--l", "1", *FAST_SCHEME])
        assert code == 2
        assert "ragged rows: data row 2 has width 1" in capsys.readouterr().err

    def test_candidate_budget_beyond_u4(self, instance, tmp_path, capsys):
        code = main(["build", "--data", instance + ".fvecs", "--out", str(tmp_path / "x.lplsh"),
                     "--seed", "1", "--k", "1", "--l", "1", "--max-candidates", "5000000000",
                     *FAST_SCHEME])
        assert code == 1
        assert "max_candidates" in capsys.readouterr().err

    def test_non_finite_data_rejected(self, tmp_path, capsys):
        data = tmp_path / "nan.csv"
        data.write_text("x0,x1\n0.0,1.0\nnan,2.0\n")
        code = main(["build", "--data", str(data), "--out", str(tmp_path / "x.lplsh"),
                     "--seed", "1", "--k", "1", "--l", "1", *FAST_SCHEME])
        assert code == 1
        assert "finite" in capsys.readouterr().err

    def test_bad_parameter(self, instance, tmp_path, capsys):
        code = main(["build", "--data", instance + ".fvecs",
                     "--out", str(tmp_path / "x.lplsh"), "--seed", "1",
                     "--k", "1", "--l", "1", "--p", "1.5", "--c", "1.0"])
        assert code == 1

    @pytest.mark.parametrize(("flags", "message"), [
        (["--r", "nan"], "r must be > 0 and finite, got nan"),
        (["--r", "inf"], "r must be > 0 and finite, got inf"),
        (["--c", "inf"], "c must be > 1 and finite, got inf"),
        (["--kappa-w", "inf"], "kappa_w must be > 0 and finite, got inf"),
        (["--override", "w=inf"], "derived w must be > 0 and finite, got inf"),
        (["--override", "delta=inf"], "delta must be >= 3 and finite, got inf"),
        (["--override", "threshold=nan"], "threshold must be > 0 and finite, got nan"),
        (["--override", "threshold=inf"], "threshold must be > 0 and finite, got inf"),
        (["--override", "threshold=0"], "threshold must be > 0 and finite, got 0.0"),
        (["--override", "threshold=-1"], "threshold must be > 0 and finite, got -1.0"),
    ])
    def test_non_finite_or_non_positive_value_rejected(self, instance, tmp_path, capsys, flags, message):
        out = tmp_path / "x.lplsh"
        code = main(["build", "--data", instance + ".fvecs", "--out", str(out), "--seed", "1",
                     "--k", "1", "--l", "1", *FAST_SCHEME, *flags])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_w_too_large_for_t_rejected(self, instance, tmp_path, capsys):
        # w**p overflows while t is derived from it (no t override here)
        out = tmp_path / "x.lplsh"
        code = main(["build", "--data", instance + ".fvecs", "--out", str(out), "--seed", "1",
                     "--k", "1", "--l", "1", "--p", "1.5", "--c", "2", "--override", "w=1e300"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: w=1e+300 is too large: t = ceil(kappa_t * w**p) overflows; override t\n"
        )
        assert not out.exists()


    def test_extreme_point_rejected(self, tmp_path, capsys):
        data = tmp_path / "far.csv"
        data.write_text("x0,x1\n0.0,1.0\n1e20,2.0\n")
        out = tmp_path / "x.lplsh"
        code = main(["build", "--data", str(data), "--out", str(out),
                     "--seed", "1", "--k", "1", "--l", "1", *FAST_SCHEME])
        assert code == 1
        assert "beyond the bound 2**32 * w" in capsys.readouterr().err
        assert not out.exists()


class TestQuery:
    def test_self_query_all_exact(self, instance, built_index, tmp_path, capsys):
        out = str(tmp_path / "res.csv")
        # every data point is its own nearest neighbor
        truth = tmp_path / "self.truth.csv"
        truth.write_text("query_id,answer_id,distance\n" + "".join(f"{i},{i},0.0\n" for i in range(60)))
        assert main([
            "query", "--index", built_index, "--queries", instance + ".fvecs",
            "--truth", str(truth), "--out", out,
            "--max-candidates", "60",
        ]) == 0
        echoed = echo_map(capsys.readouterr().out)
        assert echoed["queries"] == "60"
        assert echoed["answered"] == "60"
        assert echoed["success_rate"] == "1"
        rows = [line for line in open(out) if not line.startswith("#")][1:]
        assert len(rows) == 60
        for qi, row in enumerate(rows):
            fields = row.strip().split(",")
            assert int(fields[0]) == qi
            assert int(fields[1]) == qi
            assert float(fields[2]) == 0.0
            assert fields[3] == "1"

    def test_results_file_embeds_config(self, instance, built_index, tmp_path):
        out = str(tmp_path / "res.csv")
        assert main([
            "query", "--index", built_index, "--queries", instance + ".queries.fvecs",
            "--out", out,
        ]) == 0
        head = open(out).read()
        assert "# lplsh 0.1.0" in head
        assert "# w=3.6" in head
        assert "query_id,answer_id,distance,in_contract,candidates_examined,tables_probed" in head

    def test_empty_queries(self, built_index, tmp_path, capsys):
        queries = tmp_path / "none.csv"
        queries.write_text("x0,x1,x2,x3,x4\n")
        out = str(tmp_path / "res.csv")
        assert main(["query", "--index", built_index, "--queries", str(queries),
                     "--out", out]) == 0
        echoed = echo_map(capsys.readouterr().out)
        assert echoed["queries"] == "0"
        assert echoed["answered"] == "0"
        body = [line for line in open(out) if not line.startswith("#")]
        assert len(body) == 1  # header only

    def test_dimension_mismatch(self, built_index, tmp_path):
        queries = tmp_path / "bad.csv"
        queries.write_text("x0,x1\n0.0,0.0\n")
        code = main(["query", "--index", built_index, "--queries", str(queries),
                     "--out", str(tmp_path / "res.csv")])
        assert code == 1

    def test_extreme_query_rejected(self, built_index, tmp_path, capsys):
        queries = tmp_path / "far.csv"
        queries.write_text("x0,x1,x2,x3,x4\n0,0,0,0,0\n0,0,-1e20,0,0\n")
        out = tmp_path / "res.csv"
        code = main(["query", "--index", built_index, "--queries", str(queries), "--out", str(out)])
        assert code == 1
        assert "beyond the bound 2**32 * w" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["0", "-3"])
    def test_bad_max_candidates_rejected(self, instance, built_index, tmp_path, bad):
        no_rows = tmp_path / "none.csv"
        no_rows.write_text("x0,x1,x2,x3,x4\n")
        for queries in (instance + ".queries.fvecs", str(no_rows)):
            out = tmp_path / "res.csv"
            code = main(["query", "--index", built_index, "--queries", queries,
                         "--out", str(out), "--max-candidates", bad])
            assert code == 1
            assert not out.exists()

    def test_truth_rows_must_match_queries(self, instance, built_index, tmp_path, monkeypatch, capsys):
        def no_load(*args, **kwargs):
            raise AssertionError("query loaded the index before rejecting its truth file")

        monkeypatch.setattr("lplsh.cli.load_index", no_load)
        truth = tmp_path / "three.truth.csv"
        with open(instance + ".truth.csv") as fh:
            truth.write_text("".join(fh.readlines()[:-3]))
        out = tmp_path / "res.csv"
        code = main(["query", "--index", built_index, "--queries", instance + ".queries.fvecs",
                     "--truth", str(truth), "--out", str(out)])
        assert code == 1
        assert "3 rows for 6 queries" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("row", ["0,abc,1.0", "0,1,far"])
    def test_non_numeric_truth_row_is_format_error(self, instance, built_index, tmp_path, capsys, row):
        truth = tmp_path / "bad.truth.csv"
        truth.write_text(f"query_id,answer_id,distance\n{row}\n")
        code = main(["query", "--index", built_index, "--queries", instance + ".queries.fvecs",
                     "--truth", str(truth), "--out", str(tmp_path / "res.csv")])
        assert code == 2
        assert capsys.readouterr().err == f"format error: {truth}: bad truth row 0: {row!r}\n"

    @pytest.mark.parametrize(("at", "message"), [
        (struct.calcsize("<H2d"), "r must be > 0 and finite, got nan"),
        (struct.calcsize("<H3dIQIIQIdIdddQBB3d"), "threshold must be > 0 and finite, got nan"),
    ])
    def test_non_finite_header_value_is_format_error(self, built_index, tmp_path, capsys, at, message):
        # a checksum-valid index whose header holds NaN for r or for the threshold T
        with open(built_index, "rb") as fh:
            body = bytearray(fh.read()[:-8])
        at += len(b"LPLSH")
        body[at : at + 8] = struct.pack("<d", float("nan"))
        forged = tmp_path / "nan.lplsh"
        forged.write_bytes(bytes(body) + struct.pack("<Q", crc64(bytes(body))))
        queries = tmp_path / "none.csv"
        queries.write_text("x0,x1,x2,x3,x4\n")
        out = tmp_path / "res.csv"
        code = main(["query", "--index", str(forged), "--queries", str(queries), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"format error: invalid header value: {message}\n"
        assert not out.exists()

    def test_missing_index(self, tmp_path):
        code = main(["query", "--index", str(tmp_path / "no.lplsh"),
                     "--queries", str(tmp_path / "no.csv"), "--out", str(tmp_path / "r.csv")])
        assert code == 2

    def test_zero_dimension_index_is_format_error(self, built_index, tmp_path, capsys):
        # a checksum-valid index whose header says d = 0, without the points it no longer accounts for
        stored = load_index(built_index).points.astype("<f8").tobytes()
        with open(built_index, "rb") as fh:
            body = bytearray(fh.read()[:-8])
        d_at = len(b"LPLSH") + struct.calcsize("<H3d")
        body[d_at : d_at + 4] = struct.pack("<I", 0)
        at = body.index(stored)
        del body[at : at + len(stored)]
        forged = tmp_path / "d0.lplsh"
        forged.write_bytes(bytes(body) + struct.pack("<Q", crc64(bytes(body))))
        queries = tmp_path / "none.csv"
        queries.write_text("x0\n")
        out = tmp_path / "res.csv"
        code = main(["query", "--index", str(forged), "--queries", str(queries), "--out", str(out)])
        assert code == 2
        assert "invalid header value: d must be >= 1" in capsys.readouterr().err
        assert not out.exists()


class TestBench:
    def test_bench_runs(self, instance, tmp_path, capsys):
        out = str(tmp_path / "bench.csv")
        assert main([
            "bench", "--data", instance + ".fvecs", "--queries", instance + ".queries.fvecs",
            "--truth", instance + ".truth.csv", "--out", out, "--seed", "2",
            "--k", "1", "--l", "4", *FAST_SCHEME,
        ]) == 0
        captured = capsys.readouterr()
        echoed = echo_map(captured.out)
        assert echoed["queries"] == "6"
        assert "build" in captured.err and "query" in captured.err
        assert len(open(out).read()) > 0

    def test_same_rows_as_build_then_query(self, instance, tmp_path):
        # auto (k, L) so the pilot and the scheme derivation are shared too
        flags = ["--data", instance + ".fvecs", "--seed", "4", "--safety", "1",
                 "--pilot-trials", "300", *FAST_SCHEME]
        queries = ["--queries", instance + ".queries.fvecs"]
        index = str(tmp_path / "idx.lplsh")
        bench_out = str(tmp_path / "bench.csv")
        query_out = str(tmp_path / "query.csv")
        assert main(["bench", *flags, *queries, "--out", bench_out]) == 0
        assert main(["build", *flags, "--out", index]) == 0
        assert main(["query", "--index", index, *queries, "--out", query_out]) == 0

        def rows(path):
            return [line for line in open(path) if not line.startswith("#")]

        assert rows(bench_out) == rows(query_out)
        assert len(rows(bench_out)) == 7  # header and the six planted queries

    def test_echoes_the_auto_sizing_pilot(self, instance, tmp_path, capsys):
        # bench used to drop the pilot's estimates that build echoes for the same flags
        flags = ["--data", instance + ".fvecs", "--seed", "4", "--safety", "1",
                 "--pilot-trials", "300", *FAST_SCHEME]
        assert main(["bench", *flags, "--queries", instance + ".queries.fvecs",
                     "--out", str(tmp_path / "bench.csv")]) == 0
        bench = echo_map(capsys.readouterr().out)
        assert main(["build", *flags, "--out", str(tmp_path / "idx.lplsh")]) == 0
        built = echo_map(capsys.readouterr().out)
        keys = ("auto_p1_hat", "auto_p2_hat", "auto_rho_hat", "auto_degraded", "k", "l")
        assert [bench[key] for key in keys] == [built[key] for key in keys]

    @pytest.mark.parametrize(
        "queries_text, truth, code",
        [
            ("x0,x1,x2,x3,x4\n0,0,nan,0,0\n", None, 1),
            ("x0,x1\n0.0,0.0\n", None, 1),
            ("x0,x1,x2,x3,x4\n0,0,0,0,0\n", "missing", 2),
            ("x0,x1,x2,x3,x4\n0,0,0,0,0\n", "three-rows", 1),
        ],
        ids=["nan-query", "wrong-dimension", "missing-truth", "truth-rows-differ"],
    )
    def test_bad_inputs_rejected_before_build(self, instance, tmp_path, monkeypatch, queries_text, truth, code):
        def no_build(*args, **kwargs):
            raise AssertionError("bench built an index before rejecting its inputs")

        def no_scheme(*args, **kwargs):
            raise AssertionError("bench derived a scheme before rejecting its inputs")

        monkeypatch.setattr("lplsh.cli.build", no_build)
        monkeypatch.setattr("lplsh.cli.derive_params", no_scheme)
        queries = tmp_path / "q.csv"
        queries.write_text(queries_text)
        argv = ["bench", "--data", instance + ".fvecs", "--queries", str(queries),
                "--out", str(tmp_path / "bench.csv"), "--seed", "2", "--k", "1", "--l", "2", *FAST_SCHEME]
        if truth:
            truth_path = tmp_path / f"{truth}.truth.csv"
            if truth == "three-rows":
                truth_path.write_text("query_id,answer_id,distance\n0,1,1.0\n1,2,1.0\n2,3,1.0\n")
            argv += ["--truth", str(truth_path)]
        assert main(argv) == code


class TestRho:
    def test_sweep_csv(self, tmp_path, capsys):
        out = str(tmp_path / "rho.csv")
        assert main([
            "rho", "--p", "1.5", "--c-list", "2,5", "--d", "8", "--trials", "400",
            "--seed", "4", "--out", out, "--budget", "4000", "--profile", "remark",
            "--kappa-w", "1.8", "--override", "t=3", "--override", "delta=3",
            "--override", "delta_fail=0.01", "--threshold-samples", "10000",
        ]) == 0
        captured = capsys.readouterr().out
        echoed = echo_map(captured)
        assert echoed["rows"] == "2"
        assert "c=2 p1=" in captured
        lines = [line for line in open(out) if not line.startswith("#")]
        assert lines[0].strip() == ",".join(RHO_CSV_COLUMNS)
        assert len(lines) == 3

    def test_rerun_byte_identical(self, tmp_path):
        base = ["rho", "--p", "1.5", "--c-list", "2", "--d", "6", "--trials", "200",
                "--seed", "9", "--budget", "2000", "--profile", "remark",
                "--kappa-w", "1.8", "--override", "t=3", "--override", "delta=3",
                "--override", "delta_fail=0.01", "--threshold-samples", "10000", "--out"]
        path = str(tmp_path / "rho.csv")
        assert main(base + [path]) == 0
        first = open(path, "rb").read()
        assert main(base + [path]) == 0
        assert open(path, "rb").read() == first

    def test_config_file_merging(self, tmp_path, capsys):
        cfg = tmp_path / "rho.cfg"
        out = str(tmp_path / "rho.csv")
        cfg.write_text(
            "p=1.5\nc_list=2\nd=6\ntrials=200\nseed=4\nbudget=2000\n"
            "profile=remark\nkappa_w=1.8\noverride=t=3,delta=3,delta_fail=0.01\n"
            f"threshold_samples=10000\nout={out}\n"
        )
        assert main(["rho", "--config", str(cfg), "--trials", "100"]) == 0
        echoed = echo_map(capsys.readouterr().out)
        assert echoed["trials"] == "100"  # explicit flag wins over the file
        assert echoed["d"] == "6"

    def test_non_finite_c_rejected(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = main(["rho", "--p", "1.5", "--c-list", "inf", "--d", "6", "--trials", "200", "--seed", "0",
                     "--threshold-samples", "10000", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: c must be > 1 and finite, got inf\n"
        assert not out.exists()

    def test_dimension_below_one_rejected(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = main(["rho", "--p", "1.5", "--c-list", "2", "--d", "0", "--trials", "200", "--seed", "0",
                     "--threshold-samples", "10000", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: d must be >= 1, got 0\n"
        assert not out.exists()

    def test_budget_below_trials_rejected(self, tmp_path, capsys):
        # --budget 10 used to run 1000 far trials per c all the same
        out = tmp_path / "r.csv"
        code = main(["rho", "--p", "1.5", "--c-list", "2", "--trials", "1000", "--budget", "10", "--seed", "0",
                     "--threshold-samples", "10000", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: budget must be >= trials (1000), got 10\n"
        assert not out.exists()

    def test_invalid_c_list(self, tmp_path, capsys):
        code = main(["rho", "--p", "1.5", "--c-list", "2,x", "--seed", "0",
                     "--out", str(tmp_path / "r.csv")])
        assert code == 2

    def test_echo_allows_byte_reproduction(self, tmp_path, capsys):
        # regenerate from nothing but the echoed key=value lines
        out_a = str(tmp_path / "a.csv")
        assert main([
            "rho", "--p", "1.5", "--c-list", "2", "--d", "6", "--trials", "150",
            "--seed", "13", "--budget", "1500", "--profile", "remark",
            "--override", "t=3", "--override", "delta=3", "--override", "delta_fail=0.01",
            "--threshold-samples", "10000", "--out", out_a,
        ]) == 0
        echoed = echo_map(capsys.readouterr().out)
        out_b = str(tmp_path / "b.csv")
        argv = ["rho", "--out", out_b]
        for key in ("p", "c_list", "d", "trials", "seed", "budget", "profile", "threshold_samples"):
            argv += ["--" + key.replace("_", "-"), echoed[key]]
        for item in echoed["override"].split(","):
            argv += ["--override", item]
        assert main(argv) == 0
        a_body = [l for l in open(out_a) if not l.startswith("#")]
        b_body = [l for l in open(out_b) if not l.startswith("#")]
        assert a_body == b_body


class TestVerify:
    def test_quick_level_passes_within_budget(self, capsys):
        start = time.monotonic()
        code = main(["verify", "--level", "quick", "--seed", "0"])
        elapsed = time.monotonic() - start
        captured = capsys.readouterr().out
        assert code == 0
        assert elapsed < 60.0
        assert "ok 17/17 suites" in captured
        assert "FAIL" not in captured

    def test_bad_level_in_config_file_is_contract_error(self, tmp_path, capsys):
        cfg = tmp_path / "verify.cfg"
        cfg.write_text("level=bogus\n")
        assert main(["verify", "--config", str(cfg)]) == 1
        assert "level must be quick or full" in capsys.readouterr().err
