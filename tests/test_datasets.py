"""Vector file formats, ground-truth files, and planted instances."""

import json
import math

import numpy as np
import pytest

from lplsh import (
    ContractViolation,
    FormatError,
    LpSpace,
    generate_planted,
    lp_norm,
    read_fvecs,
    read_vectors,
    write_fvecs,
    write_vectors,
)
from lplsh.datasets import (
    TOOL_VERSION,
    config_lines,
    format_config_value,
    read_truth_csv,
    read_vectors_csv,
    write_meta,
    write_truth_csv,
    write_vectors_csv,
)


class TestFvecs:
    def test_roundtrip_is_f32_exact(self, rng, tmp_path):
        path = tmp_path / "vecs.fvecs"
        arr = rng.normal(size=(30, 7))
        write_fvecs(str(path), arr)
        back = read_fvecs(str(path))
        assert back.dtype == np.float64
        assert np.array_equal(back, arr.astype(np.float32).astype(np.float64))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.fvecs"
        path.write_bytes(b"")
        assert read_fvecs(str(path)).shape == (0, 0)

    def test_zero_rows(self, tmp_path):
        path = tmp_path / "zero.fvecs"
        write_fvecs(str(path), np.empty((0, 5)))
        assert read_fvecs(str(path)).shape == (0, 0)

    def test_rejects_non_matrix(self, tmp_path):
        with pytest.raises(ContractViolation):
            write_fvecs(str(tmp_path / "x.fvecs"), np.zeros(4))

    def test_bad_length(self, rng, tmp_path):
        path = tmp_path / "vecs.fvecs"
        write_fvecs(str(path), rng.normal(size=(3, 4)))
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(FormatError, match="multiple of 4"):
            read_fvecs(str(path))

    def test_bad_leading_dimension(self, tmp_path):
        path = tmp_path / "vecs.fvecs"
        path.write_bytes(np.array([0], dtype="<i4").tobytes())
        with pytest.raises(FormatError, match="dimension"):
            read_fvecs(str(path))

    def test_truncated_record(self, rng, tmp_path):
        path = tmp_path / "vecs.fvecs"
        write_fvecs(str(path), rng.normal(size=(3, 4)))
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FormatError, match="truncated"):
            read_fvecs(str(path))

    def test_inconsistent_dimensions(self, tmp_path):
        rec1 = np.array([2, 0, 0], dtype="<i4").tobytes()
        rec2 = np.array([1, 0, 1], dtype="<i4").tobytes()
        path = tmp_path / "vecs.fvecs"
        path.write_bytes(rec1 + rec2)
        with pytest.raises(FormatError, match="inconsistent"):
            read_fvecs(str(path))


class TestVectorsCsv:
    def test_roundtrip_with_comments(self, rng, tmp_path):
        path = tmp_path / "vecs.csv"
        arr = rng.normal(size=(12, 3))
        write_vectors_csv(str(path), arr, comments=("tool=lplsh", "n=12"))
        text = path.read_text()
        assert text.startswith("# tool=lplsh\n# n=12\nx0,x1,x2\n")
        assert np.array_equal(read_vectors_csv(str(path)), arr)

    def test_header_only(self, tmp_path):
        path = tmp_path / "vecs.csv"
        write_vectors_csv(str(path), np.empty((0, 4)))
        assert read_vectors_csv(str(path)).shape == (0, 4)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "vecs.csv"
        path.write_text("# only a comment\n")
        with pytest.raises(FormatError, match="header"):
            read_vectors_csv(str(path))

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "vecs.csv"
        path.write_text("x0,x1\n1.0,2.0,3.0\n4.0,5.0,6.0\n")
        with pytest.raises(FormatError, match="ragged"):
            read_vectors_csv(str(path))

    def test_rows_of_different_widths(self, tmp_path):
        path = tmp_path / "vecs.csv"
        path.write_text("x0,x1\n1.0,2.0\n# comment\n3.0,4.0,5.0\n6.0,7.0\n")
        with pytest.raises(FormatError, match="ragged rows: data row 2 has width 3, header width 2"):
            read_vectors_csv(str(path))

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "vecs.csv"
        path.write_text("x0,x1\n1.0,oops\n")
        with pytest.raises(FormatError):
            read_vectors_csv(str(path))

    def test_empty_field(self, tmp_path):
        path = tmp_path / "vecs.csv"
        path.write_text("x0,x1,x2\n1.0,,3.0\n")
        with pytest.raises(FormatError, match="non-numeric vector entry"):
            read_vectors_csv(str(path))

    def test_dispatch_by_extension(self, rng, tmp_path):
        arr = rng.normal(size=(5, 2)).astype(np.float32).astype(np.float64)
        csv_path = tmp_path / "v.csv"
        bin_path = tmp_path / "v.fvecs"
        write_vectors(str(csv_path), arr)
        write_vectors(str(bin_path), arr)
        assert csv_path.read_text().startswith("x0,x1\n")
        assert np.array_equal(read_vectors(str(csv_path)), arr)
        assert np.array_equal(read_vectors(str(bin_path)), arr)


class TestNonFiniteVectors:
    @pytest.mark.parametrize("suffix", [".csv", ".fvecs"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejected_on_read(self, tmp_path, suffix, bad):
        arr = np.ones((3, 2))
        arr[1, 0] = bad
        path = str(tmp_path / ("vecs" + suffix))
        write_vectors(path, arr)
        with pytest.raises(ContractViolation, match="finite"):
            read_vectors(path)


class TestTruthCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "truth.csv"
        ids = np.array([4, 0, 9], dtype=np.int64)
        dists = np.array([1.0, 0.25, 3.5])
        write_truth_csv(str(path), ids, dists, comments=("r=1",))
        back_ids, back_dists = read_truth_csv(str(path))
        assert np.array_equal(back_ids, ids)
        assert np.array_equal(back_dists, dists)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text("query,answer,dist\n0,1,2.0\n")
        with pytest.raises(FormatError, match="header"):
            read_truth_csv(str(path))

    def test_non_sequential_query_ids(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text("query_id,answer_id,distance\n1,4,2.0\n")
        with pytest.raises(FormatError, match="row"):
            read_truth_csv(str(path))

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text("query_id,answer_id,distance\n0,4\n")
        with pytest.raises(FormatError, match="row"):
            read_truth_csv(str(path))


class TestMeta:
    def test_meta_json(self, tmp_path):
        path = tmp_path / "x.meta.json"
        write_meta(str(path), {"n": 10, "r": 1.5, "seed": 3})
        payload = json.loads(path.read_text())
        assert payload["tool"] == "lplsh"
        assert payload["version"] == TOOL_VERSION
        assert payload["config"] == {"n": 10, "r": 1.5, "seed": 3}

    def test_config_lines_sorted_and_formatted(self):
        lines = config_lines({"b": 2.0, "a": True, "c": "main"})
        assert lines == ["a=1", "b=2", "c=main"]
        assert format_config_value(0.1234567890123456789) == "0.123456789012"


class TestGeneratePlanted:
    def test_planted_geometry(self):
        inst = generate_planted(n=400, d=8, planted_count=20, p=1.5, r=1.0, c=2.0, seed=5)
        space = LpSpace(1.5, 8)
        assert inst.points.shape == (400, 8)
        assert inst.queries.shape == (20, 8)
        assert np.allclose(inst.truth_dists, 1.0, atol=1e-9)
        for qi in range(20):
            dists = np.sort(np.asarray(lp_norm(inst.points - inst.queries[qi][None, :], space)))
            assert dists[0] == pytest.approx(1.0, abs=1e-9)
            assert dists[1] >= 2.0

    def test_truth_ids_point_to_planted_rows(self):
        inst = generate_planted(n=100, d=4, planted_count=7, p=1.5, r=0.5, c=2.0, seed=1)
        space = LpSpace(1.5, 4)
        for qi, pid in enumerate(inst.truth_ids):
            dist = float(np.asarray(lp_norm(inst.points[pid][None, :] - inst.queries[qi][None, :], space))[0])
            assert dist == pytest.approx(0.5, abs=1e-9)

    def test_deterministic(self):
        a = generate_planted(n=50, d=3, planted_count=5, p=1.5, r=1.0, c=2.0, seed=9)
        b = generate_planted(n=50, d=3, planted_count=5, p=1.5, r=1.0, c=2.0, seed=9)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.queries, b.queries)
        assert np.array_equal(a.truth_ids, b.truth_ids)
        other = generate_planted(n=50, d=3, planted_count=5, p=1.5, r=1.0, c=2.0, seed=10)
        assert not np.array_equal(a.points, other.points)

    def test_single_point(self):
        inst = generate_planted(n=1, d=4, planted_count=1, p=1.5, r=1.0, c=2.0, seed=0)
        assert inst.points.shape == (1, 4)
        assert inst.truth_ids[0] == 0
        assert inst.truth_dists[0] == pytest.approx(1.0, abs=1e-9)

    def test_no_planted_queries(self):
        inst = generate_planted(n=30, d=4, planted_count=0, p=1.5, r=1.0, c=2.0, seed=0)
        assert inst.points.shape == (30, 4)
        assert inst.queries.shape == (0, 4)
        assert inst.truth_ids.size == 0

    def test_infeasible_scale_raises(self):
        with pytest.raises(ContractViolation, match="separation"):
            generate_planted(n=10, d=2, planted_count=5, p=1.5, r=1.0, c=2.0, seed=0, scale=0.01)

    def test_validation(self):
        with pytest.raises(ContractViolation):
            generate_planted(n=0, d=4, planted_count=0, p=1.5, r=1.0, c=2.0, seed=0)
        with pytest.raises(ContractViolation):
            generate_planted(n=5, d=4, planted_count=6, p=1.5, r=1.0, c=2.0, seed=0)
        with pytest.raises(ContractViolation):
            generate_planted(n=5, d=4, planted_count=1, p=1.5, r=0.0, c=2.0, seed=0)
        with pytest.raises(ContractViolation):
            generate_planted(n=5, d=4, planted_count=1, p=1.5, r=1.0, c=1.0, seed=0)

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"r": math.nan}, "r must be > 0 and finite, got nan"),
            ({"r": math.inf}, "r must be > 0 and finite, got inf"),
            ({"c": math.nan}, "c must be > 1 and finite, got nan"),
            ({"c": math.inf}, "c must be > 1 and finite, got inf"),
            ({"scale": math.nan}, "scale must be > 0 and finite, got nan"),
            ({"scale": math.inf}, "scale must be > 0 and finite, got inf"),
            ({"scale": 0.0}, "scale must be > 0 and finite, got 0.0"),
        ],
        ids=["r-nan", "r-inf", "c-nan", "c-inf", "scale-nan", "scale-inf", "scale-zero"],
    )
    def test_non_finite_values_rejected_before_sampling(self, kwargs, message, monkeypatch):
        # r or c = nan ran 1000 placement attempts before failing as an
        # infeasible scale; r = inf warned inside numpy, then failed self-verification
        def no_sampling(*args, **kwargs):
            raise AssertionError("generate_planted drew a sample before checking its values")

        monkeypatch.setattr("lplsh.datasets.derive_rng", no_sampling)
        args = {"n": 20, "d": 3, "planted_count": 2, "p": 1.5, "r": 1.0, "c": 2.0, "seed": 4, **kwargs}
        with pytest.raises(ContractViolation) as info:
            generate_planted(**args)
        assert str(info.value) == message

    def test_config_keys(self):
        inst = generate_planted(n=20, d=3, planted_count=2, p=1.5, r=1.0, c=2.0, seed=4)
        assert set(inst.config) == {"n", "d", "planted", "p", "r", "c", "seed", "scale"}
        assert inst.config["scale"] == pytest.approx(12.0)
