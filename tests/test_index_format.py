"""Index file layout: the section-per-array save/load against a field-by-field reading of format v3.

`reference_save_bytes` and `reference_load_bytes` write and parse format
v3 one field and one table at a time, from `index.tables`: one
`struct.pack` per field group into a growing `bytearray`, zero bytes up to
an 8-byte offset before each section, each table's boundary bitmap row set
bit by bit, and mirrored `take(...)` calls on load. `save_index` must write
the same bytes, and `load_index` must return the same fields. The
truncation sweep cuts a saved file at every offset and re-seals the
checksum, so every bounds check of the loader is reached. Forged widths
and padding must be FormatErrors, which `lplsh query` reports with exit 2.
"""

import struct

import numpy as np
import pytest

from lplsh import ContractViolation, FormatError, IndexParams, build, derive_params, load_index, save_index, tuned_scheme
from lplsh.cli import main
from lplsh.datasets import write_fvecs
from lplsh.index import _OVERRIDE_FIELDS, _PROFILE_CODE, _PROFILE_NAME, MAGIC, FORMAT_VERSION, Buckets
from lplsh.lattice import LatticeParams
from lplsh.scheme import Knobs, SchemeParams
from lplsh.stable import Threshold
from lplsh.util import crc64, derive_rng

from conftest import cheap_scheme


def reference_header_bytes(index, version: int, widths: tuple[int, ...] = ()) -> bytearray:
    """The magic, the fixed header and the override records.

    Formats v1 and v2 write no widths; v3 writes the fingerprint and
    position widths, one byte each, before the override count.
    """
    scheme = index.scheme
    params = index.params
    buf = bytearray()
    buf += MAGIC
    buf += struct.pack("<H", version)
    buf += struct.pack("<3d", scheme.p, scheme.c, scheme.r)
    buf += struct.pack("<IQII", index.d, index.n, params.k, params.l)
    buf += struct.pack("<Q", params.seed)
    buf += struct.pack("<I", params.max_candidates or 0)
    buf += struct.pack(
        "<dIdddQBB",
        scheme.w,
        scheme.t,
        scheme.epsilon,
        scheme.lattice.delta,
        scheme.delta_fail,
        scheme.lattice.num_shifts,
        int(scheme.lattice.saturated),
        _PROFILE_CODE[scheme.profile],
    )
    buf += struct.pack("<3d", scheme.knobs.kappa_w, scheme.knobs.kappa_t, scheme.knobs.kappa_eps)
    buf += struct.pack("<dQQ", scheme.threshold.value, scheme.threshold.sample_count, scheme.threshold.seed)
    for width in widths:
        buf += struct.pack("<B", width)
    buf += struct.pack("<H", len(scheme.overrides))
    for name, value in scheme.overrides:
        raw = name.encode("ascii")
        buf += struct.pack("<B", len(raw)) + raw + struct.pack("<d", value)
    return buf


def position_width(n: int) -> int:
    return 2 if n < 2**16 else 4


def bitmap_row(table, n: int) -> bytearray:
    """A table's boundary bitmap row, set bit by bit: bit i (little bit order) where a bucket starts."""
    row = bytearray((n + 7) // 8)
    for start in table.offsets[:-1].tolist():
        row[start // 8] |= 1 << (start % 8)
    return row


def reference_save_bytes(index) -> bytes:
    width = position_width(index.n)
    buf = reference_header_bytes(index, FORMAT_VERSION, widths=(4, width))

    def section(data: bytes) -> None:
        while len(buf) % 8:
            buf.append(0)
        buf.extend(data)

    section(index.ids.astype("<i8").tobytes())
    section(np.ascontiguousarray(index.points, dtype="<f8").tobytes())
    section(b"".join(struct.pack("<Q", table.fps.size) for table in index.tables))
    section(b"".join(table.fps.astype("<u4").tobytes() for table in index.tables))
    section(b"".join(table.positions.astype(f"<u{width}").tobytes() for table in index.tables))
    section(b"".join(bitmap_row(table, index.n) for table in index.tables))
    buf += struct.pack("<Q", crc64(buf))
    return bytes(buf)


def v2_save_bytes(index) -> bytes:
    """A format v2 file: after the header's padding, ids, points, u8 counts, u8 fps, u4 positions and bitmap rows."""
    buf = reference_header_bytes(index, 2)
    while len(buf) % 8:
        buf += b"\x00"
    buf += index.ids.astype("<i8").tobytes()
    buf += np.ascontiguousarray(index.points, dtype="<f8").tobytes()
    for table in index.tables:
        buf += struct.pack("<Q", table.fps.size)
    for table in index.tables:
        buf += table.fps.astype("<u8").tobytes()
    for table in index.tables:
        buf += table.positions.astype("<u4").tobytes()
    for table in index.tables:
        buf += bitmap_row(table, index.n)
    buf += struct.pack("<Q", crc64(buf))
    return bytes(buf)


def v1_save_bytes(index) -> bytes:
    """A format v1 file: ids, points, then per table a <QQ (bucket count, entry total), u8 fps, u4 sizes, u4 positions."""
    buf = reference_header_bytes(index, 1)
    buf += index.ids.astype("<i8").tobytes()
    buf += np.ascontiguousarray(index.points, dtype="<f8").tobytes()
    for table in index.tables:
        buf += struct.pack("<QQ", table.fps.size, table.positions.size)
        buf += table.fps.astype("<u8").tobytes()
        buf += np.diff(table.offsets).astype("<u4").tobytes()
        buf += table.positions.astype("<u4").tobytes()
    buf += struct.pack("<Q", crc64(buf))
    return bytes(buf)


def reference_load_bytes(raw: bytes):
    """A field-by-field parse of the file's bytes; returns (scheme, params, points, ids, tables)."""
    if len(raw) < len(MAGIC) + 2 + 8:
        raise FormatError("file too short to be an index")
    if raw[: len(MAGIC)] != MAGIC:
        raise FormatError("bad magic; not an index file")
    (stored_crc,) = struct.unpack_from("<Q", raw, len(raw) - 8)
    if crc64(memoryview(raw)[:-8]) != stored_crc:
        raise FormatError("checksum mismatch; refusing to load")
    off = len(MAGIC)

    def take(fmt):
        nonlocal off
        size = struct.calcsize(fmt)
        if off + size > len(raw) - 8:
            raise FormatError("truncated header")
        vals = struct.unpack_from(fmt, raw, off)
        off += size
        return vals

    (version,) = take("<H")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version}")
    p, c, r = take("<3d")
    d, n, k, l = take("<IQII")
    (root_seed,) = take("<Q")
    (max_candidates,) = take("<I")
    w, t, eps, delta, delta_fail, num_shifts, saturated, profile_code = take("<dIdddQBB")
    kappa_w, kappa_t, kappa_eps = take("<3d")
    t_value, t_samples, t_seed = take("<dQQ")
    fp_width, pos_width = take("<BB")
    (n_overrides,) = take("<H")
    overrides = []
    for _ in range(n_overrides):
        (name_len,) = take("<B")
        if off + name_len > len(raw) - 8:
            raise FormatError("truncated override record")
        name = raw[off : off + name_len].decode("ascii", errors="replace")
        if name not in _OVERRIDE_FIELDS:
            raise FormatError(f"unknown override name {name!r}")
        off += name_len
        (value,) = take("<d")
        overrides.append((name, value))
    if d < 1:
        raise FormatError(f"invalid header value: d must be >= 1, got {d}")
    if fp_width != 4:
        raise FormatError(f"unsupported fingerprint width {fp_width}")
    if pos_width not in (2, 4):
        raise FormatError(f"unsupported position width {pos_width}")
    if pos_width != position_width(n):
        raise FormatError(f"position width {pos_width} does not match the point count {n}")

    def pad(after):
        """Step over the zero bytes that bring the offset to a multiple of 8."""
        nonlocal off
        while off % 8:
            if off >= len(raw) - 8:
                raise FormatError("truncated payload")
            if raw[off] != 0:
                raise FormatError(f"nonzero padding after the {after}")
            off += 1

    def take_array(dtype, count):
        nonlocal off
        size = np.dtype(dtype).itemsize * count
        if off + size > len(raw) - 8:
            raise FormatError("truncated payload")
        arr = np.frombuffer(raw, dtype=dtype, count=count, offset=off)
        off += size
        return arr

    pad("header")
    ids = take_array("<i8", n)
    pad("ids")
    points = take_array("<f8", n * d).reshape(n, d)
    pad("points")
    counts = [int(count) for count in take_array("<u8", l)]
    pad("bucket counts")
    fps = [take_array("<u4", count) for count in counts]
    pad("fingerprints")
    positions = [take_array(f"<u{pos_width}", n) for _ in range(l)]
    pad("positions")
    rows = [take_array("u1", (n + 7) // 8).tolist() for _ in range(l)]
    if off != len(raw) - 8:
        raise FormatError("trailing bytes after payload")
    tables = []
    for table_fps, count, table_positions, row in zip(fps, counts, positions, rows):
        starts = [i for i in range(8 * len(row)) if row[i // 8] >> (i % 8) & 1]
        if starts and starts[-1] >= n:
            raise FormatError("empty bucket: a boundary bit at or past the point count is set")
        if n and (not starts or starts[0] != 0):
            raise FormatError("table entry total differs from the point count")
        if len(starts) != count:
            raise FormatError("bucket counts disagree with entry total")
        if count > 1 and not (table_fps[1:] > table_fps[:-1]).all():
            raise FormatError("bucket fingerprints not strictly increasing")
        if n and int(table_positions.max()) >= n:
            raise FormatError("bucket position beyond the stored points")
        tables.append(Buckets(fps=table_fps, offsets=np.array(starts + [n], dtype=np.int64), positions=table_positions))
    if profile_code not in _PROFILE_NAME:
        raise FormatError(f"unknown profile code {profile_code}")
    threshold = Threshold(value=t_value, t=int(t), epsilon=eps, p=p, sample_count=int(t_samples), seed=int(t_seed))
    try:
        lattice = LatticeParams(
            w=w, t=int(t), num_shifts=int(num_shifts), delta=delta, delta_fail=delta_fail, saturated=bool(saturated)
        )
        scheme = SchemeParams(
            c=c, p=p, r=r, threshold=threshold, lattice=lattice,
            profile=_PROFILE_NAME[profile_code], knobs=Knobs(kappa_w=kappa_w, kappa_t=kappa_t, kappa_eps=kappa_eps),
            overrides=tuple(overrides),
        )
        params = IndexParams(k=int(k), l=int(l), seed=int(root_seed), max_candidates=int(max_candidates) or None)
    except ContractViolation as exc:
        raise FormatError(f"invalid header value: {exc}") from None
    return scheme, params, points, ids, tables


def main_profile_scheme():
    # the main profile with its derived t, eps and U; only the threshold is cheapened
    return derive_params(2.0, 1.5, overrides={"u_max": 64}, threshold_samples=10_000)


def indexed(scheme, n, d=5, k=2, l=3, seed=7, max_candidates=None):
    pts = derive_rng(0, 9700, n, d).normal(size=(n, d))
    return build(pts, scheme, IndexParams(k=k, l=l, seed=seed, max_candidates=max_candidates))


CASES = {
    "tuned-overrides": lambda: indexed(tuned_scheme(2.0, 1.5, threshold_samples=10_000), n=40),
    "pinned-w-u-budget": lambda: indexed(cheap_scheme(w=3.0, u=50), n=40, max_candidates=17),
    "main-profile": lambda: indexed(main_profile_scheme(), n=30, k=1, l=2, max_candidates=2**32 - 1),
    "empty": lambda: indexed(cheap_scheme(), n=0, d=3, k=1, l=1),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_save_and_load_match_reference(case, tmp_path):
    index = CASES[case]()
    path = tmp_path / "idx.lplsh"
    save_index(index, str(path))
    raw = path.read_bytes()
    assert raw == reference_save_bytes(index)

    scheme, params, points, ids, tables = reference_load_bytes(raw)
    loaded = load_index(str(path))
    assert loaded.scheme == scheme == index.scheme
    assert loaded.params == params == index.params
    for got, want in ((loaded.points, points), (loaded.ids, ids)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert len(loaded.tables) == len(tables)
    for got_table, want_table in zip(loaded.tables, tables):
        for got, want in zip(got_table, want_table):
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_every_truncation_is_a_format_error(tmp_path):
    # n = 20 leaves four padding bits in each of the three bitmap rows
    index = indexed(cheap_scheme(), n=20, k=2, l=3)
    path = tmp_path / "idx.lplsh"
    save_index(index, str(path))
    body = path.read_bytes()[:-8]
    cut_path = tmp_path / "cut.lplsh"
    loaded = []
    for cut in range(len(body)):
        part = body[:cut]
        cut_path.write_bytes(part + struct.pack("<Q", crc64(part)))
        try:
            load_index(str(cut_path))
        except FormatError:
            continue
        loaded.append(cut)
    assert len(body) > 1000
    assert loaded == []


def test_v1_file_is_refused_by_version(tmp_path):
    path = tmp_path / "v1.lplsh"
    path.write_bytes(v1_save_bytes(indexed(cheap_scheme(), n=20, k=2, l=3)))
    with pytest.raises(FormatError, match="^unsupported format version 1$"):
        load_index(str(path))


def test_v2_file_is_refused_by_version(tmp_path):
    path = tmp_path / "v2.lplsh"
    path.write_bytes(v2_save_bytes(indexed(cheap_scheme(), n=20, k=2, l=3)))
    with pytest.raises(FormatError, match="^unsupported format version 2$"):
        load_index(str(path))


@pytest.mark.parametrize(("n", "d", "k", "l", "dtype"), [(20, 5, 2, 3, np.uint16), (2**16, 1, 1, 1, np.uint32)])
def test_positions_roundtrip_at_each_width(n, d, k, l, dtype, tmp_path):
    index = indexed(cheap_scheme(), n=n, d=d, k=k, l=l)
    path = tmp_path / "idx.lplsh"
    save_index(index, str(path))
    assert path.read_bytes() == reference_save_bytes(index)
    loaded = load_index(str(path))
    for idx in (index, loaded):
        assert idx.flat.fps.dtype == np.uint32
        assert idx.flat.positions.dtype == dtype
    for got, want in zip(loaded.flat, index.flat):
        assert np.array_equal(got, want)
    queries = index.points[:: max(1, n // 50)] + 0.01
    assert loaded.query_batch(queries) == index.query_batch(queries)


# where the fingerprint width byte sits, the position width byte right after it
WIDTHS_AT = len(MAGIC) + struct.calcsize("<H3dIQIIQIdIdddQBB3ddQQ")


def forge_index():
    """An index whose file pads after both its fingerprints (55 of them) and its positions (3 * 21 u2)."""
    return indexed(cheap_scheme(), n=21, k=2, l=3, seed=8)


def padding_after(index, section: str) -> int:
    """The first padding byte after the fingerprints or the positions in index's file."""
    n, l = index.n, index.params.l
    head = len(reference_header_bytes(index, FORMAT_VERSION, widths=(4, 2)))
    fps_end = head + -head % 8 + 8 * n + 8 * n * index.d + 8 * l + 4 * index.flat.fps.size
    pos_end = fps_end + -fps_end % 8 + 2 * l * n
    end = fps_end if section == "fingerprints" else pos_end
    assert end % 8  # the section is followed by padding
    return end


# (offset of the forged byte, its value, the error)
FORGERIES = {
    "fingerprint-width": (lambda index: WIDTHS_AT, 8, "^unsupported fingerprint width 8$"),
    "position-width": (lambda index: WIDTHS_AT + 1, 3, "^unsupported position width 3$"),
    "position-width-for-n": (lambda index: WIDTHS_AT + 1, 4, "^position width 4 does not match the point count 21$"),
    "padding-after-fingerprints": (
        lambda index: padding_after(index, "fingerprints"),
        1,
        "^nonzero padding after the fingerprints$",
    ),
    "padding-after-positions": (
        lambda index: padding_after(index, "positions") + 1,
        0x80,
        "^nonzero padding after the positions$",
    ),
}


@pytest.mark.parametrize("forgery", sorted(FORGERIES))
def test_forged_layout_is_a_format_error(forgery, tmp_path):
    at, value, message = FORGERIES[forgery]
    index = forge_index()
    path = tmp_path / "idx.lplsh"
    save_index(index, str(path))
    body = bytearray(path.read_bytes()[:-8])
    body[at(index)] = value
    path.write_bytes(bytes(body) + struct.pack("<Q", crc64(bytes(body))))
    with pytest.raises(FormatError, match=message):
        load_index(str(path))
    queries = tmp_path / "q.fvecs"
    write_fvecs(str(queries), index.points[:3])
    assert main(["query", "--index", str(path), "--queries", str(queries), "--out", str(tmp_path / "out.csv")]) == 2
