"""Dataset I/O (fvecs, headered CSV) and planted near-neighbor instances.

A planted instance has, for each query, exactly one point at distance r and
every other point at distance >= c*r, so retrieval success is unambiguous.
Construction: queries are spread at pairwise separation 4*c*r, planted
points sit at exact distance r from their query, and background points are
radially pushed out of any query's c*r ball they land in. The separation
makes one push sufficient (a point at c*r from its nearest query is still
about 3*c*r from every other query).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .geometry import ContractViolation, LpSpace, lp_norm, random_lp_direction
from .util import FormatError, derive_rng

TOOL_VERSION = "0.1.0"

# relative margin past c*r for pushed background points; large enough to
# survive an f32 round trip through the fvecs format
_PUSH_MARGIN = 1e-4


def format_config_value(v) -> str:
    if isinstance(v, float):
        return format(v, ".12g")
    if isinstance(v, bool):
        return str(int(v))
    return str(v)


def config_lines(config: dict) -> list[str]:
    """Sorted key=value lines; the echo format for stdout and file comments."""
    return [f"{k}={format_config_value(config[k])}" for k in sorted(config)]


# -- fvecs ----------------------------------------------------------------


def write_fvecs(path: str, arr: np.ndarray) -> None:
    """Little-endian fvecs: per record an i32 dimension then d f32 values."""
    mat = np.ascontiguousarray(arr, dtype="<f4")
    if mat.ndim != 2:
        raise ContractViolation("fvecs payload must be 2-d")
    n, d = mat.shape
    rec = np.hstack([np.full((n, 1), d, dtype="<i4"), mat.view("<i4")])
    with open(path, "wb") as fh:
        fh.write(rec.tobytes())


def read_fvecs(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) == 0:
        return np.empty((0, 0), dtype=np.float64)
    if len(raw) % 4 != 0:
        raise FormatError(f"{path}: length {len(raw)} is not a multiple of 4")
    flat = np.frombuffer(raw, dtype="<i4")
    d = int(flat[0])
    if d < 1:
        raise FormatError(f"{path}: bad leading dimension {d}")
    if flat.size % (d + 1) != 0:
        raise FormatError(f"{path}: truncated record (dim {d})")
    rec = flat.reshape(-1, d + 1)
    if not (rec[:, 0] == d).all():
        raise FormatError(f"{path}: inconsistent per-record dimensions")
    return np.ascontiguousarray(rec[:, 1:]).view("<f4").astype(np.float64)


# -- headered CSV ---------------------------------------------------------


def write_vectors_csv(path: str, arr: np.ndarray, comments: tuple[str, ...] = ()) -> None:
    mat = np.asarray(arr, dtype=np.float64)
    if mat.ndim != 2:
        raise ContractViolation("csv payload must be 2-d")
    d = mat.shape[1]
    with open(path, "w") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(f"x{i}" for i in range(d)) + "\n")
        for row in mat:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")


def _csv_body(path: str) -> list[list[str]]:
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append(line.split(","))
    return rows


def read_vectors_csv(path: str) -> np.ndarray:
    rows = _csv_body(path)
    if not rows:
        raise FormatError(f"{path}: no header row")
    d = len(rows[0])
    body = rows[1:]
    for i, row in enumerate(body, 1):
        if len(row) != d:
            raise FormatError(f"{path}: ragged rows: data row {i} has width {len(row)}, header width {d}")
    if not body:
        return np.empty((0, d), dtype=np.float64)
    try:
        return np.array([[float(v) for v in row] for row in body], dtype=np.float64)
    except ValueError as exc:
        raise FormatError(f"{path}: non-numeric vector entry: {exc}") from None


def write_vectors(path: str, arr: np.ndarray, comments: tuple[str, ...] = ()) -> None:
    if path.endswith(".csv"):
        write_vectors_csv(path, arr, comments)
    else:
        write_fvecs(path, arr)


def read_vectors(path: str) -> np.ndarray:
    """Vectors from .csv or fvecs; a NaN or infinite entry is a contract violation."""
    mat = read_vectors_csv(path) if path.endswith(".csv") else read_fvecs(path)
    if not np.isfinite(mat).all():
        raise ContractViolation(f"{path}: vectors must be finite (no NaN or infinity)")
    return mat


# -- ground truth and metadata -------------------------------------------


def write_truth_csv(
    path: str, truth_ids: np.ndarray, truth_dists: np.ndarray, comments: tuple[str, ...] = ()
) -> None:
    with open(path, "w") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write("query_id,answer_id,distance\n")
        for qi, (pid, dist) in enumerate(zip(truth_ids, truth_dists)):
            fh.write(f"{qi},{int(pid)},{format(float(dist), '.17g')}\n")


def read_truth_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    rows = _csv_body(path)
    if not rows or rows[0] != ["query_id", "answer_id", "distance"]:
        raise FormatError(f"{path}: missing truth header")
    body = rows[1:]
    ids = np.empty(len(body), dtype=np.int64)
    dists = np.empty(len(body), dtype=np.float64)
    for i, row in enumerate(body):
        try:
            if len(row) != 3 or int(row[0]) != i:
                raise ValueError
            ids[i] = int(row[1])
            dists[i] = float(row[2])
        except (ValueError, OverflowError):
            raise FormatError(f"{path}: bad truth row {i}: {','.join(row)!r}") from None
    return ids, dists


def write_meta(path: str, config: dict) -> None:
    payload = {"tool": "lplsh", "version": TOOL_VERSION, "config": {k: config[k] for k in sorted(config)}}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- planted instances ----------------------------------------------------


@dataclass(frozen=True)
class PlantedInstance:
    points: np.ndarray  # (n, d)
    queries: np.ndarray  # (m, d)
    truth_ids: np.ndarray  # (m,) row index of each query's planted point
    truth_dists: np.ndarray  # (m,) re-measured planted distances (= r)
    config: dict


def _query_distance_matrix(points: np.ndarray, queries: np.ndarray, space: LpSpace) -> np.ndarray:
    """(n, m) distances, looping over queries to bound memory."""
    out = np.empty((points.shape[0], queries.shape[0]))
    for j in range(queries.shape[0]):
        out[:, j] = np.asarray(lp_norm(points - queries[j][None, :], space))
    return out


def generate_planted(
    n: int,
    d: int,
    planted_count: int,
    p: float,
    r: float,
    c: float,
    seed: int,
    scale: float | None = None,
) -> PlantedInstance:
    """Planted near-neighbor instance; deterministic in seed; self-verified."""
    if n < 1 or d < 1:
        raise ContractViolation(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    if not (0 <= planted_count <= n):
        raise ContractViolation(f"planted_count must be in [0, n], got {planted_count}")
    for name, value, low in (("r", r, 0), ("c", c, 1), ("scale", scale, 0)):
        if value is not None and not (low < value < math.inf):
            raise ContractViolation(f"{name} must be > {low} and finite, got {value}")
    space = LpSpace(p, d)
    rng = derive_rng(seed, 31)
    if scale is None:
        scale = 6.0 * c * r
    separation = 4.0 * c * r
    push_to = c * r * (1.0 + _PUSH_MARGIN)

    queries = np.empty((planted_count, d))
    placed = 0
    attempts = 0
    cap = max(200 * planted_count, 1000)
    while placed < planted_count:
        attempts += 1
        if attempts > cap:
            raise ContractViolation(
                f"could not place {planted_count} queries at separation {separation:.3g} "
                f"with sampling scale {scale:.3g}; c*r is too large for this scale/dimension"
            )
        cand = rng.normal(0.0, scale, size=d)
        if placed == 0 or np.asarray(lp_norm(queries[:placed] - cand[None, :], space)).min() >= separation:
            queries[placed] = cand
            placed += 1

    planted = queries + r * random_lp_direction(space, rng, size=planted_count) if planted_count else np.empty((0, d))

    n_bg = n - planted_count
    background = rng.normal(0.0, scale, size=(n_bg, d))
    if n_bg and planted_count:
        dmat = _query_distance_matrix(background, queries, space)
        nearest = np.argmin(dmat, axis=1)
        dmin = dmat[np.arange(n_bg), nearest]
        degenerate = dmin == 0.0
        if degenerate.any():
            idx = np.flatnonzero(degenerate)
            background[idx] = queries[nearest[idx]] + push_to * random_lp_direction(space, rng, size=idx.size)
            dmin[idx] = push_to
        inside = dmin < push_to
        if inside.any():
            anchor = queries[nearest[inside]]
            factor = (push_to / dmin[inside])[:, None]
            background[inside] = anchor + (background[inside] - anchor) * factor

    order = rng.permutation(n)
    points = np.concatenate([planted, background])[order]
    inverse = np.empty(n, dtype=np.int64)
    inverse[order] = np.arange(n, dtype=np.int64)
    truth_ids = inverse[:planted_count]

    # verification pass: each planted point is the unique point within c*r
    truth_dists = np.empty(planted_count)
    if planted_count:
        dmat = _query_distance_matrix(points, queries, space)
        for qi in range(planted_count):
            col = dmat[:, qi]
            best = int(np.argmin(col))
            if best != truth_ids[qi] or abs(col[best] - r) > 1e-9 * max(1.0, r):
                raise ContractViolation("planted instance failed self-verification (nearest point)")
            if int((col <= c * r).sum()) != 1:
                raise ContractViolation("planted instance failed self-verification (uniqueness within c*r)")
            truth_dists[qi] = col[best]

    config = {
        "n": n,
        "d": d,
        "planted": planted_count,
        "p": p,
        "r": r,
        "c": c,
        "seed": seed,
        "scale": scale,
    }
    return PlantedInstance(
        points=points,
        queries=queries,
        truth_ids=truth_ids,
        truth_dists=truth_dists,
        config=config,
    )
