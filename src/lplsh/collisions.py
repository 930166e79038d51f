"""Collision-probability laboratory.

Estimates the scheme's collision probabilities p1 (at distance r) and
p2 (at distance c*r) with a fresh hash function and a fresh pair per
trial, so the probability is over the hash family as in the sensitivity
definition. `estimate_collision` runs the full pipeline from a pair in R^d;
`estimate_rho` draws each trial's projected pair in R^t directly, which
has the same law; `estimate_collision_projected` holds one projected pair
fixed. All three are one trial loop, `_estimate`, fed different pairs. A
geometric route estimates the same quantity for a fixed projected pair
from ball-overlap volume ratios, giving an independent cross-check of the
lattice machinery.

Fallback hashes (no covering lattice) collide with each other and are
counted as collisions; the fallback rate is always reported separately.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .datasets import format_config_value
from .geometry import (
    BallSpec,
    ContractViolation,
    LpSpace,
    lp_distance,
    random_lp_direction,
    sample_in_ball,
)
from .lattice import SHIFT_CHUNK, LatticeParams, first_cover
from .scheme import PROFILE_REMARK, Knobs, SchemeParams, derive_params, sample_hash
from .stable import StableParams, sample_stable
from .util import binomial_se, wilson_interval

RHO_CSV_COLUMNS = (
    "c",
    "p",
    "profile",
    "w",
    "t",
    "eps",
    "U",
    "saturated",
    "p1_hat",
    "p1_lo",
    "p1_hi",
    "p2_hat",
    "p2_lo",
    "p2_hi",
    "rho_hat",
    "inv_c",
    "inv_cp",
    "lncsq_over_cp",
    "fallback_rate",
)

_ELEM_BUDGET = 4_000_000  # cap on the elements of one block of per-trial shifts
# pair trials per block of _estimate; the block size and the first shift chunks
# set the random stream: the pilot's, and so (k, L) and index bytes, and the lab's rho CSV
_PAIR_BLOCK = 2048
# first shift chunk per trial: estimate_collision (the pilot) and
# estimate_collision_projected keep 128; the R^t lab takes 8, because a point
# needs about 9 lattices at the tuned delta = 3 and a trial stops at its cover
_PILOT_CHUNK = 128
_LAB_CHUNK = 8
# estimate_rho's far estimate doubles its trials until it sees this many collisions
_MIN_FAR_COLLISIONS = 20

# Settings used by the sensitivity and rho experiments, picked by a grid
# sweep over (t, spacing, kappa_w) at p = 1.5 (scripts/tune_rho.py). The
# reduced dimension is pinned across c so the far-pair geometry (projected
# distance over ball radius) is identical for every c, which makes the
# orderings the experiments assert structural rather than incidental.
# t = 3 with spacing 3 keeps the per-lattice scan short (about 9 shifts
# on average) while the measured gap p1 - p2 stays wide at both c = 2
# and c = 5; delta_fail = 1e-3 puts the shift count at 6638.
TUNED_KAPPA_W = 1.8
TUNED_T = 3
TUNED_DELTA = 3
TUNED_DELTA_FAIL = 1e-3


def tuned_scheme(
    c: float,
    p: float,
    r: float = 1.0,
    threshold_samples: int = 1_000_000,
    threshold_seed: int = 0,
) -> SchemeParams:
    """Experiment scheme: linear-width profile with a pinned reduced dimension."""
    return derive_params(
        c,
        p,
        profile=PROFILE_REMARK,
        knobs=Knobs(kappa_w=TUNED_KAPPA_W),
        overrides={
            "t": float(TUNED_T),
            "delta": float(TUNED_DELTA),
            "delta_fail": TUNED_DELTA_FAIL,
        },
        r=r,
        threshold_samples=threshold_samples,
        threshold_seed=threshold_seed,
    )


@dataclass(frozen=True)
class CollisionEstimate:
    """Binomial estimate of a collision probability, kept as its counts."""

    distance: float
    trials: int
    collisions: int
    fallbacks: int

    @property
    def p_hat(self) -> float:
        return self.collisions / self.trials

    @property
    def ci95(self) -> tuple[float, float]:
        return wilson_interval(self.collisions, self.trials)

    @property
    def fallback_rate(self) -> float:
        return self.fallbacks / self.trials

    @property
    def std_error(self) -> float:
        return binomial_se(self.collisions, self.trials)


def _pair_block(
    space: LpSpace, distance: float, rng: np.random.Generator, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """`size` random pairs at exact l_p distance: a Gaussian base plus a scaled direction."""
    x = rng.standard_normal((size, space.dim))
    return x, x + distance * random_lp_direction(space, rng, size=size)


def _lattice_stage(
    xp: np.ndarray,
    yp: np.ndarray,
    params: LatticeParams,
    p: float,
    rng: np.random.Generator,
    first_chunk: int = _PILOT_CHUNK,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Hash projected pairs, one fresh shifted-lattice set per trial.

    Each trial's shifts are drawn only while that trial still needs them;
    x and y of one trial always see the same shifts. Returns
    (u_x, a_x, u_y, a_y) with u = 0 for fallback.

    Shifts are drawn in chunks of first_chunk, then x4 up to SHIFT_CHUNK,
    each capped at the element budget and at U, trial-major for the
    trials pending when the chunk starts; these sizes set the random
    stream. The scan tests a chunk in its own steps, so a draw returns
    at most the rest of the current chunk, and a trial stops being
    tested at its first cover. A chunk is drawn only once the scan has
    tested every shift before it, so the stream does not depend on the
    scan's steps (lattice.SCAN_BLOCKS).
    """
    t = xp.shape[1]
    size = first_chunk
    start = stop = 0
    chunk = chunk_rows = None

    def draw(lo: int, b: int, rows: np.ndarray) -> np.ndarray:
        nonlocal size, start, stop, chunk_rows, chunk
        if lo >= stop:
            n = min(size, params.num_shifts - lo, max(16, _ELEM_BUDGET // (rows.size * t)))
            # trial-major: the draw order sets the random stream
            chunk = rng.uniform(0.0, params.spacing, size=(rows.size, n, t))
            start, stop, chunk_rows = lo, lo + n, rows
            size = min(size * 4, SHIFT_CHUNK)
        part = chunk[:, lo - start : min(lo + b, stop) - start]
        if rows.size < chunk_rows.size:
            part = part[np.searchsorted(chunk_rows, rows)]
        # handed over as a (t, b, rows) view
        return part.T

    (ux, ax), (uy, ay) = first_cover((xp, yp), draw, params, p)
    return ux, ax, uy, ay


def _check_inputs(d: int, distance: float, trials: int) -> None:
    if trials < 1:
        raise ContractViolation(f"trials must be >= 1, got {trials}")
    if d < 1:
        raise ContractViolation(f"d must be >= 1, got {d}")
    if not (0.0 <= distance < math.inf):
        raise ContractViolation(f"distance must be >= 0 and finite, got {distance}")


def _check_budget(trials: int, budget: int) -> None:
    if budget < trials:
        raise ContractViolation(f"budget must be >= trials ({trials}), got {budget}")


def _estimate(
    params: LatticeParams,
    p: float,
    trials: int,
    rng: np.random.Generator,
    projected_pairs: Callable[[int], tuple[np.ndarray, np.ndarray]],
    first_chunk: int,
) -> tuple[int, int, int]:
    """The lab's one trial loop: `projected_pairs(b)` gives b pairs in R^t, each hashed under fresh shifts.

    Returns (collisions, fallbacks, covered collisions). A trial falls back
    when x or y does; a covered collision is one where neither did.
    """
    collisions = fallbacks = covered = 0
    for done in range(0, trials, _PAIR_BLOCK):
        xp, yp = projected_pairs(min(_PAIR_BLOCK, trials - done))
        ux, ax, uy, ay = _lattice_stage(xp, yp, params, p, rng, first_chunk)
        same = (ux == uy) & (ax == ay).all(axis=1)
        fall = (ux == 0) | (uy == 0)
        collisions += int(same.sum())
        fallbacks += int(fall.sum())
        covered += int((same & ~fall).sum())
    return collisions, fallbacks, covered


def estimate_collision(
    scheme: SchemeParams,
    d: int,
    distance: float,
    trials: int,
    rng: np.random.Generator,
) -> CollisionEstimate:
    """Collision probability over the family: fresh pair + fresh hash per trial.

    `distance` is in the original frame; pairs are rescaled by 1/r before
    hashing, matching the index pipeline. distance = 0 collides surely.
    Each trial draws a pair in R^d and a t x d p-stable matrix, as a hash
    function of the index does. The pilot that sizes (k, L) calls it, and
    tests hold estimate_rho's R^t draw to it.
    """
    _check_inputs(d, distance, trials)
    space = LpSpace(scheme.p, d)
    stable = StableParams(scheme.p)
    scale = scheme.T ** (-1.0 / scheme.p) / scheme.r

    def projected_pairs(b: int) -> tuple[np.ndarray, np.ndarray]:
        x, y = _pair_block(space, distance, rng, b)
        a = sample_stable(stable, rng, size=(b, scheme.t, d))
        return np.einsum("btd,bd->bt", a, x) * scale, np.einsum("btd,bd->bt", a, y) * scale

    collisions, fallbacks, _ = _estimate(scheme.lattice, scheme.p, trials, rng, projected_pairs, _PILOT_CHUNK)
    return CollisionEstimate(float(distance), trials, collisions, fallbacks)


def _estimate_in_projection(
    scheme: SchemeParams, distance: float, trials: int, rng: np.random.Generator
) -> CollisionEstimate:
    """estimate_collision's rates, drawn in R^t without a pair in R^d.

    By p-stability A(y - x) is distance * X in law, X a vector of t iid
    standard p-stable variates, whatever d and the direction of y - x. The
    iid uniform shifts make the lattice stage translation-invariant, so the
    base point only has to be some point: a uniform one of [0, spacing)^t.
    """
    stable = StableParams(scheme.p)
    gap = distance * scheme.T ** (-1.0 / scheme.p) / scheme.r

    def projected_pairs(b: int) -> tuple[np.ndarray, np.ndarray]:
        xp = rng.uniform(0.0, scheme.lattice.spacing, size=(b, scheme.t))
        return xp, xp + gap * sample_stable(stable, rng, size=(b, scheme.t))

    collisions, fallbacks, _ = _estimate(scheme.lattice, scheme.p, trials, rng, projected_pairs, _LAB_CHUNK)
    return CollisionEstimate(float(distance), trials, collisions, fallbacks)


def estimate_collision_projected(
    x_t: np.ndarray,
    y_t: np.ndarray,
    params: LatticeParams,
    space: LpSpace,
    trials: int,
    rng: np.random.Generator,
) -> CollisionEstimate:
    """Collision probability of a fixed projected pair over fresh lattice sets.

    The estimate is Pr[same ball | neither falls back], which is what the
    ball-overlap identity predicts: the record holds only the covered
    trials, as `trials`, and 0 fallbacks. It is undefined, and a
    ContractViolation, when every trial falls back.
    """
    xa = np.asarray(x_t, dtype=np.float64)
    ya = np.asarray(y_t, dtype=np.float64)
    if xa.shape != (params.t,) or ya.shape != (params.t,):
        raise ContractViolation(f"projected points must have shape ({params.t},)")
    if trials < 1:
        raise ContractViolation(f"trials must be >= 1, got {trials}")

    def projected_pairs(b: int) -> tuple[np.ndarray, np.ndarray]:
        return np.broadcast_to(xa, (b, params.t)), np.broadcast_to(ya, (b, params.t))

    _, fallbacks, covered = _estimate(params, space.p, trials, rng, projected_pairs, _PILOT_CHUNK)
    if fallbacks == trials:
        raise ContractViolation(
            f"no trial covered both points ({trials} trials, all fell back): "
            "the conditioned estimate is undefined"
        )
    return CollisionEstimate(float(lp_distance(xa, ya, space)), trials - fallbacks, covered, 0)


@dataclass(frozen=True)
class GeometricEstimate:
    """Ball-overlap collision estimate Vol(I)/Vol(U) for equal-radius balls."""

    value: float
    std_error: float
    q_hat: float
    trials: int
    method: str


def geometric_collision(
    x: np.ndarray,
    y: np.ndarray,
    w: float,
    space: LpSpace,
    trials: int,
    rng: np.random.Generator,
    method: str = "q_form",
) -> GeometricEstimate:
    """Vol(intersection)/Vol(union) for B(x, w) and B(y, w) by Monte Carlo.

    q_form samples the first ball and uses the equal-radius identity
    q/(2 - q) with q = Pr[z in B(y, w) | z uniform in B(x, w)]. union
    samples the union directly by double rejection (pick a ball, sample it,
    accept with probability 1/#covering balls) and reads off the
    intersection share.
    """
    if trials < 1:
        raise ContractViolation(f"trials must be >= 1, got {trials}")
    if not (0.0 < w < math.inf):
        raise ContractViolation(f"w must be > 0 and finite, got {w}")
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if method == "q_form":
        z = sample_in_ball(BallSpec(xa, w), space, rng, trials)
        q_hits = int((np.power(np.abs(z - ya[None, :]) / w, space.p).sum(axis=1) <= 1.0).sum())
        q_hat = q_hits / trials
        value = q_hat / (2.0 - q_hat)
        # delta method: d/dq [q/(2-q)] = 2/(2-q)^2
        se = 2.0 * binomial_se(q_hits, trials) / (2.0 - q_hat) ** 2
        return GeometricEstimate(value=value, std_error=se, q_hat=q_hat, trials=trials, method=method)
    if method == "union":
        pick_y = rng.uniform(size=trials) < 0.5
        centers = np.where(pick_y[:, None], ya[None, :], xa[None, :])
        dirs = random_lp_direction(space, rng, size=trials)
        radii = w * np.power(rng.uniform(size=trials), 1.0 / space.dim)
        z = centers + dirs * radii[:, None]
        other = np.where(pick_y[:, None], xa[None, :], ya[None, :])
        in_other = np.power(np.abs(z - other) / w, space.p).sum(axis=1) <= 1.0
        # z in both balls is sampled twice as often; thin by half to undo it
        accept = ~in_other | (rng.uniform(size=trials) < 0.5)
        n_acc = int(accept.sum())
        hits = int((in_other & accept).sum())
        if n_acc == 0:
            return GeometricEstimate(value=0.0, std_error=1.0, q_hat=0.0, trials=0, method=method)
        value = hits / n_acc
        return GeometricEstimate(
            value=value, std_error=binomial_se(hits, n_acc), q_hat=value, trials=n_acc, method=method
        )
    raise ContractViolation(f"unknown method {method!r}")


def rho_point_estimate(p1_hat: float, p2_hat: float) -> float:
    """ln(1/p1)/ln(1/p2); 1.0 when the estimates coincide."""
    if p1_hat == p2_hat:
        return 1.0
    if p1_hat <= 0.0 or p2_hat <= 0.0 or p1_hat >= 1.0 or p2_hat >= 1.0:
        return float("nan")
    return math.log(1.0 / p1_hat) / math.log(1.0 / p2_hat)


def rho_std(p1: CollisionEstimate, p2: CollisionEstimate) -> float:
    """Delta-method standard error of the rho point estimate."""
    if not (0.0 < p1.p_hat < 1.0 and 0.0 < p2.p_hat < 1.0):
        return float("nan")
    l1 = math.log(1.0 / p1.p_hat)
    l2 = math.log(1.0 / p2.p_hat)
    d1 = -1.0 / (p1.p_hat * l2)
    d2 = l1 / (p2.p_hat * l2 * l2)
    return math.sqrt((d1 * p1.std_error) ** 2 + (d2 * p2.std_error) ** 2)


@dataclass(frozen=True)
class RhoReport:
    """One row of the sensitivity experiment: rho of a scheme, against its reference curves."""

    scheme: SchemeParams
    p1: CollisionEstimate
    p2: CollisionEstimate
    rho_hat: float
    rho_se: float
    rho_is_upper_bound: bool

    @property
    def c(self) -> float:
        return self.scheme.c

    @property
    def fallback_rate(self) -> float:
        return max(self.p1.fallback_rate, self.p2.fallback_rate)


def estimate_rho(
    scheme: SchemeParams,
    d: int,
    trials: int,
    rng: np.random.Generator,
    budget: int = 10_000_000,
) -> RhoReport:
    """Estimate (p1, p2, rho) for a scheme.

    p1 is measured at distance r and p2 at distance c*r. The far estimate
    doubles its trial count until it has seen _MIN_FAR_COLLISIONS collisions
    or the budget of far trials, at least `trials`, is spent; if no far
    collision ever shows up, rho is reported as an upper bound through the
    Wilson upper limit of p2.

    The rates do not depend on d, and each trial is drawn in R^t: by
    p-stability the projected difference of a pair at distance s is s times
    t iid standard p-stable variates, and the uniform shifts make the
    lattice stage blind to the base point. d is still checked (d >= 1) as
    the dimension the rates stand for. The pilot that sizes (k, L) keeps
    estimate_collision's R^d pipeline and its first shift chunk of 128,
    where the lab starts at 8, because switching its stream would re-size
    indexes on noise alone: at pilot seed 0 the R^t draw read p1 0.4703
    against 0.4845 and moved (k, L) from (6, 163) to (6, 201) at n = 1500
    and from (6, 131) to (6, 159) at n = 1000; a first chunk of 8 alone
    moved them to (6, 162) and (6, 130).
    """
    far = scheme.c * scheme.r
    _check_inputs(d, far, trials)
    _check_budget(trials, budget)
    p1 = _estimate_in_projection(scheme, scheme.r, trials, rng)
    total = coll = fall = 0
    batch = trials
    while True:
        got = _estimate_in_projection(scheme, far, batch, rng)
        total += batch
        coll += got.collisions
        fall += got.fallbacks
        if coll >= _MIN_FAR_COLLISIONS or total >= budget:
            break
        batch = min(total, budget - total)
    p2 = CollisionEstimate(far, total, coll, fall)
    upper_only = coll == 0
    if upper_only:
        rho_hat = rho_point_estimate(p1.p_hat, p2.ci95[1])
        se = float("nan")
    else:
        rho_hat = rho_point_estimate(p1.p_hat, p2.p_hat)
        se = rho_std(p1, p2)
    return RhoReport(
        scheme=scheme,
        p1=p1,
        p2=p2,
        rho_hat=rho_hat,
        rho_se=se,
        rho_is_upper_bound=upper_only,
    )


def rho_sweep(
    p: float,
    c_list: list[float],
    d: int,
    trials: int,
    rng: np.random.Generator,
    profile: str = "main",
    knobs: Knobs = Knobs(),
    overrides: dict[str, float] | None = None,
    budget: int = 10_000_000,
    derive_kwargs: dict | None = None,
) -> list[RhoReport]:
    """One RhoReport per c, schemes derived with shared knobs/overrides.

    The rates do not depend on d (see estimate_rho); d >= 1 and
    budget >= trials are checked before any scheme is derived.
    """
    if not c_list:
        raise ContractViolation("c_list must be nonempty")
    if d < 1:
        raise ContractViolation(f"d must be >= 1, got {d}")
    _check_budget(trials, budget)
    reports = []
    for c in c_list:
        scheme = derive_params(c, p, profile=profile, knobs=knobs, overrides=overrides, **(derive_kwargs or {}))
        reports.append(estimate_rho(scheme, d, trials, rng, budget=budget))
    return reports


def rho_rows(reports: list[RhoReport]) -> list[dict[str, object]]:
    """Rows in the sweep CSV schema."""
    rows = []
    for rep in reports:
        scheme = rep.scheme
        logc = math.log(scheme.c)
        rows.append(
            {
                "c": scheme.c,
                "p": scheme.p,
                "profile": scheme.profile,
                "w": scheme.w,
                "t": scheme.t,
                "eps": scheme.epsilon,
                "U": scheme.num_shifts,
                "saturated": int(scheme.lattice.saturated),
                "p1_hat": rep.p1.p_hat,
                "p1_lo": rep.p1.ci95[0],
                "p1_hi": rep.p1.ci95[1],
                "p2_hat": rep.p2.p_hat,
                "p2_lo": rep.p2.ci95[0],
                "p2_hi": rep.p2.ci95[1],
                "rho_hat": rep.rho_hat,
                "inv_c": 1.0 / scheme.c,
                "inv_cp": 1.0 / scheme.c**scheme.p,
                "lncsq_over_cp": logc * logc / scheme.c**scheme.p,
                "fallback_rate": rep.fallback_rate,
            }
        )
    return rows


def write_rho_csv(reports: list[RhoReport], path: str, header_comments: list[str] | None = None) -> None:
    """Write the sweep as CSV: comment lines, then the exact schema columns."""
    lines = [f"# {c}" for c in (header_comments or [])]
    lines.append(",".join(RHO_CSV_COLUMNS))
    for row in rho_rows(reports):
        lines.append(",".join(format_config_value(row[col]) for col in RHO_CSV_COLUMNS))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass(frozen=True)
class EstimatorComparison:
    """Lattice-stage collision vs ball-overlap geometry at one projected pair."""

    projected_distance: float
    lattice: CollisionEstimate
    geometric: GeometricEstimate
    z_score: float


def compare_estimators(
    scheme: SchemeParams,
    d: int,
    distance: float,
    trials_lattice: int,
    trials_geom: int,
    rng: np.random.Generator,
) -> EstimatorComparison:
    """Cross-check the pipeline against ball-overlap volume at a matched pair.

    A pair at the given original-frame distance is projected once; the
    lattice-stage collision of that fixed projected pair (conditioned on
    non-fallback) is then compared with the overlap ratio of two radius-w
    balls at the realized projected distance.
    """
    _check_inputs(d, distance, trials_lattice)
    (x,), (y,) = _pair_block(LpSpace(scheme.p, d), distance, rng, 1)
    h = sample_hash(scheme, d, seed=int(rng.integers(0, 2**63 - 1)))
    xp = h.project(x / scheme.r)
    yp = h.project(y / scheme.r)
    space_t = scheme.space()
    lat = estimate_collision_projected(xp, yp, scheme.lattice, space_t, trials_lattice, rng)
    geo = geometric_collision(xp, yp, scheme.w, space_t, trials_geom, rng)
    spread = math.sqrt(lat.std_error**2 + geo.std_error**2)
    z = abs(lat.p_hat - geo.value) / spread if spread > 0 else 0.0
    return EstimatorComparison(
        projected_distance=float(lp_distance(xp, yp, space_t)),
        lattice=lat,
        geometric=geo,
        z_score=z,
    )
