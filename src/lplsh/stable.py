"""Symmetric p-stable variates and the truncated-moment threshold.

Convention: the standard symmetric p-stable law here has characteristic
function exp(-|xi|^p). Under it, <a, x> with i.i.d. standard p-stable a is
distributed as ||x||_p * X, and p = 2 is the Gaussian with variance 2.

The projection threshold is T = t * E[min(|X|, t^eps)^p] / 2, estimated by
Monte Carlo (the truncated moment has no closed form we rely on). It is a
function of (p, t, eps, samples, seed) alone and is memoised in-process
only: each run recomputes it from its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .geometry import ContractViolation
from .util import _split, derive_rng, wilson_interval

DEFAULT_THRESHOLD_SAMPLES = 10_000_000
_SAMPLE_BLOCK = 2_000_000
# elements per step of _cms_transform, over all of its workers
_TRANSFORM_CHUNK = 1 << 16
# elements each worker of a split _cms_transform call takes at least: on a
# 2-CPU host two workers broke even at about 2^13 elements each, and this
# leaves a margin for the pool's start-up on a busy host
_TRANSFORM_SHARE = 1 << 15


@dataclass(frozen=True)
class StableParams:
    """Exponent of the symmetric stable law, restricted to (1, 2]."""

    p: float

    def __post_init__(self) -> None:
        if not (1.0 < self.p <= 2.0):
            raise ContractViolation(f"stable exponent must lie in (1, 2], got {self.p}")


def sample_stable(params: StableParams, rng: np.random.Generator, size=None) -> float | np.ndarray:
    """Chambers-Mallows-Stuck draw of standard symmetric p-stable variates.

    X = sin(pU) / cos(U)^(1/p) * (cos((1-p)U) / E)^((1-p)/p) with
    U ~ Uniform(-pi/2, pi/2) and E ~ Exp(1). The same formula covers p = 2,
    where it collapses to 2*sin(U)*sqrt(E) ~ N(0, 2).
    """
    u = rng.uniform(-np.pi / 2.0, np.pi / 2.0, size=size)
    e = rng.exponential(1.0, size=size)
    out = _cms_transform(params.p, u, e)
    return float(out) if size is None else out


def _cms_transform(p: float, u, e, out: np.ndarray | None = None) -> np.ndarray:
    """sample_stable's transform of angles u and Exp(1) draws e, elementwise, into out (u itself may be out).

    The flattened arrays are split into contiguous runs under util._split's
    worker policy, with at least _TRANSFORM_SHARE elements per worker, and
    each worker steps through its run _TRANSFORM_CHUNK // workers elements
    at a time, so the temporaries in flight stay bounded whatever the size.
    Every element gets the same arithmetic as in one pass over the whole
    array, so the split does not change a bit of the result.
    """
    u, e = np.asarray(u, dtype=np.float64), np.asarray(e, dtype=np.float64)
    if out is None:
        out = np.empty(u.shape)
    elif not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    flat_u, flat_e, flat_out = u.reshape(-1), e.reshape(-1), out.reshape(-1)
    _split(flat_u.size, flat_u.size // _TRANSFORM_SHARE, partial(_cms_run, p, flat_u, flat_e, flat_out))
    return out


def _cms_run(p: float, u: np.ndarray, e: np.ndarray, out: np.ndarray, lo: int, hi: int, workers: int) -> None:
    """_cms_transform's chunk loop over elements [lo, hi) of its flat arrays, for one of `workers` workers."""
    chunk = max(1, _TRANSFORM_CHUNK // workers)
    for start in range(lo, hi, chunk):
        stop = min(start + chunk, hi)
        a, x = u[start:stop], e[start:stop]
        out[start:stop] = (np.sin(p * a) / np.power(np.cos(a), 1.0 / p)) * np.power(
            np.cos((1.0 - p) * a) / x, (1.0 - p) / p
        )


@dataclass(frozen=True)
class MomentEstimate:
    value: float
    std_error: float
    m: float
    order: int
    n_samples: int


def truncated_moment(
    params: StableParams,
    m: float,
    order: int,
    n_samples: int,
    rng: np.random.Generator,
) -> MomentEstimate:
    """Monte Carlo estimate of E[min(|X|, M)^(order * p)].

    order = 1 gives the threshold moment, order = 2 its variance proxy.
    """
    if not (1.0 <= m < math.inf):
        raise ContractViolation(f"truncation level must be >= 1 and finite, got {m}")
    if order not in (1, 2):
        raise ContractViolation(f"order must be 1 or 2, got {order}")
    if n_samples < 10_000:
        raise ContractViolation(f"n_samples must be >= 10^4, got {n_samples}")
    power = order * params.p
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n_samples:
        block = min(_SAMPLE_BLOCK, n_samples - done)
        z = np.minimum(np.abs(sample_stable(params, rng, size=block)), m) ** power
        total += float(z.sum())
        total_sq += float(np.square(z).sum())
        done += block
    mean = total / n_samples
    var = max(total_sq / n_samples - mean * mean, 0.0)
    return MomentEstimate(
        value=mean,
        std_error=math.sqrt(var / n_samples),
        m=m,
        order=order,
        n_samples=n_samples,
    )


@dataclass(frozen=True)
class Threshold:
    """Projection threshold T = t * E[min(|X|, t^eps)^p] / 2 plus its provenance."""

    value: float
    t: int
    epsilon: float
    p: float
    sample_count: int
    seed: int

    def __post_init__(self) -> None:
        if not (0.0 < self.value < math.inf):
            raise ContractViolation(f"threshold must be > 0 and finite, got {self.value}")
        if not (0.0 < self.epsilon < 1.0):
            raise ContractViolation(f"epsilon must lie in (0, 1), got {self.epsilon}")


# In-process memo so repeated derivations inside one run do not resample.
_THRESHOLD_MEMO: dict[tuple, float] = {}


def compute_threshold(
    t: int,
    epsilon: float,
    params: StableParams,
    n_samples: int = DEFAULT_THRESHOLD_SAMPLES,
    seed: int = 0,
) -> Threshold:
    """T = t * E[min(|X|, t^eps)^p] / 2 by seeded Monte Carlo."""
    if t < 2:
        raise ContractViolation(f"t must be >= 2, got {t}")
    if not (0.0 < epsilon < 1.0):
        raise ContractViolation(f"epsilon must lie in (0, 1), got {epsilon}")
    key = (float(params.p), int(t), float(epsilon), int(n_samples), int(seed))
    value = _THRESHOLD_MEMO.get(key)
    if value is None:
        m = float(t) ** epsilon
        est = truncated_moment(params, max(m, 1.0), 1, n_samples, derive_rng(seed, 7, t))
        value = t * est.value / 2.0
    threshold = Threshold(value=value, t=t, epsilon=epsilon, p=params.p, sample_count=n_samples, seed=seed)
    _THRESHOLD_MEMO[key] = value
    return threshold


@dataclass(frozen=True)
class TailConstants:
    """Fitted constants for the tail sandwich a/(p M^p) -/+ b/(2 M^2).

    degenerate marks fits where the polynomial tail model does not apply
    (p = 2, or too few tail samples to resolve the range).
    """

    a_hat: float
    b_hat: float
    fit_range: tuple[float, float]
    degenerate: bool
    n_tail: int


@dataclass(frozen=True)
class TailFit:
    constants: TailConstants
    grid_m: np.ndarray
    tail_prob: np.ndarray
    tail_se: np.ndarray
    scaled: np.ndarray  # p * M^p * Pr[X > M] on the grid
    flatness: float  # (max - min) / min of `scaled`, nan when degenerate


def tail_probability_bounds(
    m: float | np.ndarray,
    params: StableParams,
    constants: TailConstants,
) -> tuple[np.ndarray, np.ndarray]:
    """Sandwich on Pr[X > M]: [a/(p M^p) - b/(2 M^2), 2^((p+1)/2) a/(p M^p) + b/(2 M^2)].

    Both sides are clamped to [0, 1]. Valid for M >= 1.
    """
    marr = np.asarray(m, dtype=np.float64)
    if not np.all(marr >= 1.0):
        raise ContractViolation("tail bounds require M >= 1")
    p = params.p
    lead = constants.a_hat / (p * np.power(marr, p))
    corr = constants.b_hat / (2.0 * np.square(marr))
    lower = np.clip(lead - corr, 0.0, 1.0)
    upper = np.clip(2.0 ** ((p + 1.0) / 2.0) * lead + corr, 0.0, 1.0)
    return lower, upper


def fit_tail_constant(
    params: StableParams,
    n_samples: int,
    rng: np.random.Generator,
    fit_range: tuple[float, float] = (10.0, 100.0),
    grid_size: int = 12,
    min_tail_count: int = 200,
) -> TailFit:
    """Fit the leading tail constant a_hat (and correction b_hat) empirically.

    a_hat is the flat fit of p * M^p * Pr[X > M] over a log grid on fit_range
    (least squares on the log scale). b_hat absorbs the worst sub-leading
    deficit, inflated by three binomial standard errors, so the empirical
    tail sits inside the resulting sandwich by construction; it is floored
    at zero. A fit with too few tail samples, or where the scaled tail is
    nowhere near flat (p = 2 decays super-polynomially), is marked degenerate.
    """
    if n_samples < 1_000_000:
        raise ContractViolation(f"tail fit needs n_samples >= 10^6, got {n_samples}")
    lo, hi = fit_range
    if not (1.0 <= lo < hi):
        raise ContractViolation(f"invalid fit range {fit_range}")
    grid = np.geomspace(lo, hi, grid_size)
    counts = np.zeros(grid_size, dtype=np.int64)
    done = 0
    while done < n_samples:
        block = min(_SAMPLE_BLOCK, n_samples - done)
        x = sample_stable(params, rng, size=block)
        # one-sided tail Pr[X > M]
        counts += (x[None, :] > grid[:, None]).sum(axis=1)
        done += block
    tail = counts / float(n_samples)
    se = np.sqrt(np.maximum(tail * (1.0 - tail), 1.0 / n_samples) / n_samples)
    n_tail = int(counts[0])
    p = params.p

    if np.any(counts == 0) or n_tail < min_tail_count:
        constants = TailConstants(
            a_hat=float("nan"), b_hat=0.0, fit_range=(lo, hi), degenerate=True, n_tail=n_tail
        )
        return TailFit(constants, grid, tail, se, np.full(grid_size, np.nan), float("nan"))

    scaled = p * np.power(grid, p) * tail
    flatness = float(scaled.max() / scaled.min() - 1.0)
    # Super-polynomial decay makes the scaled tail fall by orders of magnitude
    # across the range; the power-law model is then meaningless.
    degenerate = flatness > 1.0
    a_hat = float(np.exp(np.mean(np.log(scaled))))
    deficit = 2.0 * np.square(grid) * (a_hat / (p * np.power(grid, p)) - (tail - 3.0 * se))
    b_hat = float(max(0.0, deficit.max()))
    constants = TailConstants(a_hat=a_hat, b_hat=b_hat, fit_range=(lo, hi), degenerate=degenerate, n_tail=n_tail)
    return TailFit(constants, grid, tail, se, scaled, flatness)


@dataclass(frozen=True)
class ConcentrationReport:
    rate_low: float
    low_ci95: tuple[float, float]
    rate_high: float
    high_ci95: tuple[float, float]
    trials: int
    threshold: float
    high_factor: float


def validate_concentration(
    t: int,
    epsilon: float,
    params: StableParams,
    threshold: Threshold,
    trials: int,
    rng: np.random.Generator,
    x: np.ndarray | None = None,
) -> ConcentrationReport:
    """Empirical rates of ||Ax||_p^p straying below T or above 2^((4+p)/2) T / eps.

    A is a fresh t x d matrix of i.i.d. standard p-stable entries per trial
    and x a fixed unit vector. By p-stability the law of ||Ax||_p^p depends
    on x only through ||x||_p, so the default x is the 1-d unit vector,
    which reduces each trial to t i.i.d. stable draws.
    """
    if trials < 200:
        raise ContractViolation(f"trials must be >= 200, got {trials}")
    if not (0.0 < epsilon < 1.0):
        raise ContractViolation(f"epsilon must lie in (0, 1), got {epsilon}")
    p = params.p
    tval = threshold.value
    high_factor = 2.0 ** ((4.0 + p) / 2.0) / epsilon
    high_cut = high_factor * tval

    xa = np.ones(1) if x is None else np.asarray(x, dtype=np.float64)
    d = xa.shape[0]
    norm_pow = float(np.power(np.abs(xa), p).sum())
    sums = np.empty(trials)
    done = 0
    while done < trials:
        block = min(max(_SAMPLE_BLOCK // max(t * d, 1), 1), trials - done)
        a = sample_stable(params, rng, size=(block, t, d))
        proj = np.einsum("btd,d->bt", a, xa)
        sums[done : done + block] = np.power(np.abs(proj), p).sum(axis=1)
        done += block

    low_hits = int((sums < tval * norm_pow).sum())
    high_hits = int((sums > high_cut * norm_pow).sum())
    return ConcentrationReport(
        rate_low=low_hits / trials,
        low_ci95=wilson_interval(low_hits, trials),
        rate_high=high_hits / trials,
        high_ci95=wilson_interval(high_hits, trials),
        trials=trials,
        threshold=tval,
        high_factor=high_factor,
    )
