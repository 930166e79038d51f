"""l_p geometry: norms, residual checks, directions, uniform ball sampling.

Everything reduces over the last axis, so the same functions serve single
vectors and stacked batches. Norms use the max-rescaled two-pass form to
stay stable for extreme magnitudes. No closed-form ball volume appears
anywhere; only volume ratios of the form alpha**t are used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ContractViolation(ValueError):
    """A caller broke a documented precondition."""


@dataclass(frozen=True)
class LpSpace:
    """Ambient space: exponent p in (1, 2] and dimension."""

    p: float
    dim: int

    def __post_init__(self) -> None:
        if not (1.0 < self.p <= 2.0):
            raise ContractViolation(f"p must lie in (1, 2], got {self.p}")
        if self.dim < 1:
            raise ContractViolation(f"dim must be >= 1, got {self.dim}")


@dataclass(frozen=True)
class BallSpec:
    """A ball B_p(center, radius); the space carries p."""

    center: np.ndarray
    radius: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.radius < math.inf):
            raise ContractViolation(f"radius must be >= 0 and finite, got {self.radius}")


def _check_last_dim(x: np.ndarray, space: LpSpace, name: str = "x") -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape[-1] != space.dim:
        raise ContractViolation(f"{name} has dimension {arr.shape[-1]}, space expects {space.dim}")
    return arr


def lp_norm(x: np.ndarray, space: LpSpace) -> float | np.ndarray:
    """Stable ||x||_p over the last axis: rescale by the max magnitude first."""
    arr = _check_last_dim(x, space)
    mags = np.abs(arr)
    m = mags.max(axis=-1)
    # an infinite m is not a scale (inf / inf is NaN): left unscaled, the row's norm comes out inf
    scale = np.where((m > 0.0) & (m < np.inf), m, 1.0)
    total = np.power(mags / scale[..., None], space.p).sum(axis=-1)
    out = scale * np.power(total, 1.0 / space.p)
    # only the zero vector maps to 0; a NaN entry makes m NaN and stays NaN
    out = np.where(m == 0.0, 0.0, out)
    return float(out) if out.ndim == 0 else out


def lp_distance(x: np.ndarray, y: np.ndarray, space: LpSpace) -> float | np.ndarray:
    return lp_norm(np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64), space)


def ball_volume_ratio(alpha: float, t: int) -> float:
    """Volume ratio of two concentric balls with radius ratio alpha in R^t."""
    if not alpha >= 0:
        raise ContractViolation(f"alpha must be >= 0, got {alpha}")
    if t < 1:
        raise ContractViolation(f"t must be >= 1, got {t}")
    return float(alpha) ** t


def _norm_p_pow(x: np.ndarray, space: LpSpace) -> np.ndarray:
    """||x||_p^p over the last axis (unscaled; fine for moderate inputs)."""
    return np.power(np.abs(x), space.p).sum(axis=-1)


def smoothness_residual(x: np.ndarray, y: np.ndarray, space: LpSpace) -> float | np.ndarray:
    """||(x+y)/2||_p^p + ||(x-y)/2||_p^p - (||x||_p^p + ||y||_p^p)/2.

    Nonnegative (up to float error) for every pair when 1 < p <= 2; this is
    the p-uniform smoothness of l_p rearranged so the deficit is explicit.
    """
    xa = _check_last_dim(x, space)
    ya = _check_last_dim(y, space, "y")
    mid = _norm_p_pow((xa + ya) / 2.0, space)
    half_diff = _norm_p_pow((xa - ya) / 2.0, space)
    base = (_norm_p_pow(xa, space) + _norm_p_pow(ya, space)) / 2.0
    out = mid + half_diff - base
    return float(out) if np.ndim(out) == 0 else out


def convexity_residual(x: np.ndarray, y: np.ndarray, space: LpSpace) -> float | np.ndarray:
    """(||x||_p^2 + ||y||_p^2)/2 - ||(x+y)/2||_p^2 - (p-1)||(x-y)/2||_p^2.

    Nonnegative (up to float error): 2-uniform convexity of l_p with
    constant p - 1 for 1 < p <= 2.
    """
    xa = _check_last_dim(x, space)
    ya = _check_last_dim(y, space, "y")
    nx = lp_norm(xa, space)
    ny = lp_norm(ya, space)
    nmid = lp_norm((xa + ya) / 2.0, space)
    ndiff = lp_norm((xa - ya) / 2.0, space)
    out = (np.square(nx) + np.square(ny)) / 2.0 - np.square(nmid) - (space.p - 1.0) * np.square(ndiff)
    return float(out) if np.ndim(out) == 0 else out


def sample_generalized_gaussian(p: float, rng: np.random.Generator, size=None) -> np.ndarray:
    """Draw coordinates with density proportional to exp(-|u|^p).

    |U|^p is Gamma(1/p, 1), so |U| = G**(1/p) with a random sign.
    """
    g = rng.gamma(1.0 / p, 1.0, size=size)
    signs = rng.integers(0, 2, size=size) * 2 - 1
    return np.power(g, 1.0 / p) * signs


def random_lp_direction(space: LpSpace, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Unit vector(s) on the l_p sphere: normalized generalized Gaussian."""
    shape = (space.dim,) if size is None else (size, space.dim)
    g = sample_generalized_gaussian(space.p, rng, size=shape)
    norms = lp_norm(g, space)
    return g / np.asarray(norms)[..., None]


def sample_in_ball(ball: BallSpec, space: LpSpace, rng: np.random.Generator, size: int) -> np.ndarray:
    """Uniform points in an l_p ball: cone-measure direction times radius U^(1/t)."""
    center = _check_last_dim(ball.center, space, "center")
    dirs = random_lp_direction(space, rng, size=size)
    radii = ball.radius * np.power(rng.uniform(0.0, 1.0, size=size), 1.0 / space.dim)
    return center[None, :] + dirs * radii[:, None]
