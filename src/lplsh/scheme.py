"""Hash-scheme assembly: parameter derivation and hash-function sampling.

A hash function is a p-stable projection A' = T^(-1/p) A from R^d to R^t
followed by the shifted ball-lattice hash in R^t. Parameters follow one of
two profiles for approximation factor c:

  main:   w = kappa_w * c * ln c,  t = ceil(kappa_t * w^p),
          eps = kappa_eps * ln(ln t) / ln t
  remark: w = kappa_w * c,         t = ceil(kappa_t * w^p),
          eps = kappa_eps / ln t

with covering failure budget delta_fail = exp(-t) by default. The main
profile needs c >= e for ln c >= 1; smaller c falls back to the remark
profile automatically. Any derived field can be overridden for desk-scale
experiments; overrides are recorded on the resulting params.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import ContractViolation, LpSpace
from .lattice import DEFAULT_U_MAX, LatticeParams, ShiftedLatticeSet, compute_num_shifts
from .stable import DEFAULT_THRESHOLD_SAMPLES, StableParams, Threshold, compute_threshold
from .util import derived_generators, derived_seeds
from . import stable as _stable

PROFILE_MAIN = "main"
PROFILE_REMARK = "remark"

# Sub-seed tags for the pieces of one hash function.
_TAG_PROJECTION = 1
_TAG_SHIFTS = 2

_OVERRIDE_FIELDS = ("w", "t", "eps", "delta", "delta_fail", "u", "u_max", "threshold")


@dataclass(frozen=True)
class Knobs:
    """Multipliers on the derived parameters, all 1 by default."""

    kappa_w: float = 1.0
    kappa_t: float = 1.0
    kappa_eps: float = 1.0

    def __post_init__(self) -> None:
        for name in ("kappa_w", "kappa_t", "kappa_eps"):
            if not (0.0 < getattr(self, name) < math.inf):
                raise ContractViolation(f"{name} must be > 0 and finite, got {getattr(self, name)}")


@dataclass(frozen=True)
class SchemeParams:
    """Fully derived scheme: everything eval needs, plus provenance.

    r is the inner radius the scheme is calibrated for (callers rescale
    inputs to the unit-radius frame before hashing). overrides records which
    fields were pinned by hand rather than derived. Each derived value has
    one owner: w, t, delta_fail and U live in lattice, epsilon and T in
    threshold, and the scheme reads them from there.
    """

    c: float
    p: float
    r: float
    threshold: Threshold
    lattice: LatticeParams
    profile: str
    knobs: Knobs = field(default_factory=Knobs)
    overrides: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if not (1.0 < self.c < math.inf):
            raise ContractViolation(f"c must be > 1 and finite, got {self.c}")
        if not (1.0 < self.p <= 2.0):
            raise ContractViolation(f"p must lie in (1, 2], got {self.p}")
        if not (0.0 < self.r < math.inf):
            raise ContractViolation(f"r must be > 0 and finite, got {self.r}")
        if self.t < 2:
            raise ContractViolation(f"t must be >= 2, got {self.t}")
        made_for = (self.threshold.t, self.threshold.p)
        if made_for != (self.t, self.p):
            raise ContractViolation(f"threshold is for (t, p) = {made_for}, the scheme has {(self.t, self.p)}")
        if self.profile not in (PROFILE_MAIN, PROFILE_REMARK):
            raise ContractViolation(f"unknown profile {self.profile!r}")

    @property
    def w(self) -> float:
        return self.lattice.w

    @property
    def t(self) -> int:
        return self.lattice.t

    @property
    def delta_fail(self) -> float:
        return self.lattice.delta_fail

    @property
    def epsilon(self) -> float:
        return self.threshold.epsilon

    @property
    def T(self) -> float:
        return self.threshold.value

    @property
    def num_shifts(self) -> int:
        return self.lattice.num_shifts

    def space(self) -> LpSpace:
        return LpSpace(self.p, self.t)

    def config_items(self) -> list[tuple[str, object]]:
        """Effective configuration, including every derived value."""
        return [
            ("c", self.c),
            ("p", self.p),
            ("r", self.r),
            ("profile", self.profile),
            ("kappa_w", self.knobs.kappa_w),
            ("kappa_t", self.knobs.kappa_t),
            ("kappa_eps", self.knobs.kappa_eps),
            ("w", self.w),
            ("t", self.t),
            ("eps", self.epsilon),
            ("delta", self.lattice.delta),
            ("delta_fail", self.delta_fail),
            ("U", self.lattice.num_shifts),
            ("saturated", self.lattice.saturated),
            ("T", self.threshold.value),
            ("threshold_samples", self.threshold.sample_count),
            ("threshold_seed", self.threshold.seed),
            ("overrides", ";".join(f"{k}={v}" for k, v in self.overrides) or "none"),
        ]


def derive_params(
    c: float,
    p: float,
    profile: str = PROFILE_MAIN,
    knobs: Knobs = Knobs(),
    overrides: dict[str, float] | None = None,
    r: float = 1.0,
    threshold_samples: int = DEFAULT_THRESHOLD_SAMPLES,
    threshold_seed: int = 0,
) -> SchemeParams:
    """Derive the full scheme for approximation factor c in l_p."""
    if not (1.0 < c < math.inf):
        raise ContractViolation(f"c must be > 1 and finite, got {c}")
    if profile not in (PROFILE_MAIN, PROFILE_REMARK):
        raise ContractViolation(f"unknown profile {profile!r}")
    ov = dict(overrides or {})
    for key in ov:
        if key not in _OVERRIDE_FIELDS:
            raise ContractViolation(f"unknown override {key!r}; allowed: {_OVERRIDE_FIELDS}")

    # ln c < 1 makes the main-profile width collapse below c; use remark there.
    if profile == PROFILE_MAIN and c < math.e:
        profile = PROFILE_REMARK

    u_max = _integral(ov, "u_max") if "u_max" in ov else DEFAULT_U_MAX
    delta = float(ov.get("delta", 4.0))

    w = float(ov.get("w", knobs.kappa_w * (c * math.log(c) if profile == PROFILE_MAIN else c)))
    if not (0.0 < w < math.inf):
        raise ContractViolation(f"derived w must be > 0 and finite, got {w}")
    if "t" in ov:
        t = _integral(ov, "t")
    else:
        try:
            t = math.ceil(knobs.kappa_t * w**p)
        except OverflowError:
            raise ContractViolation(f"w={w} is too large: t = ceil(kappa_t * w**p) overflows; override t") from None
    if t < 2:
        raise ContractViolation(f"derived t={t} < 2; increase kappa_t or override t")
    if "eps" in ov:
        epsilon = float(ov["eps"])
    elif profile == PROFILE_MAIN:
        epsilon = knobs.kappa_eps * math.log(math.log(t)) / math.log(t)
    else:
        epsilon = knobs.kappa_eps / math.log(t)
    if not (0.0 < epsilon < 1.0):
        raise ContractViolation(
            f"derived eps={epsilon:.4g} outside (0, 1) at t={t}; override eps or adjust knobs"
        )
    delta_fail = float(ov.get("delta_fail", math.exp(-t)))

    if "u" in ov:
        u, saturated = _integral(ov, "u"), False
        if u > u_max:
            u, saturated = u_max, True
    else:
        u, saturated = compute_num_shifts(t, p, delta, delta_fail, u_max=u_max)

    if "threshold" in ov:
        threshold = Threshold(
            value=float(ov["threshold"]), t=t, epsilon=epsilon, p=p, sample_count=0, seed=threshold_seed
        )
    else:
        threshold = compute_threshold(
            t, epsilon, StableParams(p), n_samples=threshold_samples, seed=threshold_seed
        )

    return SchemeParams(
        c=c,
        p=p,
        r=r,
        threshold=threshold,
        lattice=LatticeParams(w=w, t=t, num_shifts=u, delta=delta, delta_fail=delta_fail, saturated=saturated),
        profile=profile,
        knobs=knobs,
        overrides=tuple(sorted((k, float(v)) for k, v in ov.items())),
    )


def _integral(ov: dict[str, float], key: str) -> int:
    """An integer-valued override; a fraction, NaN or inf is refused rather than truncated."""
    value = float(ov[key])
    if not value.is_integer():
        raise ContractViolation(f"override {key} must be an integer, got {value}")
    return int(value)


def scale_to_unit(points: np.ndarray, r: float) -> np.ndarray:
    """Rescale so the target inner radius r becomes 1."""
    if not (0.0 < r < math.inf):
        raise ContractViolation(f"r must be > 0 and finite, got {r}")
    return np.asarray(points, dtype=np.float64) / r


@dataclass
class HashFunction:
    """One sampled hash: scaled projection plus a seeded lattice set.

    projection already includes the T^(-1/p) factor. Reproducible from
    (scheme, d, seed) alone; the matrix and shifts come from disjoint
    sub-seeds of seed. A point x hashes as
    hash_batch(h.project(x)[None], [h.lattices], scheme.space()); the
    record stays because compare_estimators projects its pairs with it.
    """

    scheme: SchemeParams
    d: int
    seed: int
    projection: np.ndarray
    lattices: ShiftedLatticeSet

    def project(self, x: np.ndarray) -> np.ndarray:
        """Points of R^d to R^t; stays a method because the benchmark's tracer times it by name."""
        xa = np.asarray(x, dtype=np.float64)
        if xa.shape[-1] != self.d:
            raise ContractViolation(f"input dimension {xa.shape[-1]} != {self.d}")
        return xa @ self.projection.T


def sample_hash(scheme: SchemeParams, d: int, seed: int) -> HashFunction:
    """Draw a hash function: A i.i.d. p-stable (t x d), A' = T^(-1/p) A."""
    projection, [lattices] = sample_stack(scheme, d, [seed])
    return HashFunction(scheme=scheme, d=d, seed=int(seed), projection=projection, lattices=lattices)


def sample_stack(scheme: SchemeParams, d: int, seeds) -> tuple[np.ndarray, list[ShiftedLatticeSet]]:
    """The hash functions of seeds (each in [0, 2**64)): their projections stacked, and their lattice sets.

    Function i owns projection rows [i * t, (i + 1) * t) and sets[i], the
    values sample_hash(scheme, d, seeds[i]) holds. One pass re-sets a
    Generator to each function's projection stream and draws its angles
    and Exp(1) draws, one transform turns them all into stable variates,
    and derived_seeds draws every lattice seed from the shift streams as
    array arithmetic.
    """
    if d < 1:
        raise ContractViolation(f"d must be >= 1, got {d}")
    t = scheme.t
    u = np.empty((len(seeds) * t, d))
    e = np.empty_like(u)
    for i, gen in enumerate(derived_generators(seeds, _TAG_PROJECTION)):
        u[i * t : (i + 1) * t] = gen.uniform(-np.pi / 2.0, np.pi / 2.0, size=(t, d))
        gen.standard_exponential(out=e[i * t : (i + 1) * t])
    projection = _stable._cms_transform(scheme.p, u, e, out=u)
    projection *= scheme.T ** (-1.0 / scheme.p)
    return projection, [ShiftedLatticeSet(scheme.lattice, seed) for seed in derived_seeds(seeds, _TAG_SHIFTS).tolist()]
