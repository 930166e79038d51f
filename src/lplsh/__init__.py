"""Locality-sensitive hashing for l_p nearest neighbors (1 < p <= 2).

The hash family projects points to a low dimension with a p-stable matrix
and assigns each projected point to the first of a sequence of randomly
shifted lattices of disjoint l_p balls that covers it. The package bundles
the hash family, a multi-table index, dataset tooling, and a Monte Carlo
laboratory that measures the family's collision probabilities.
"""

from .collisions import (
    CollisionEstimate,
    RhoReport,
    compare_estimators,
    estimate_collision,
    estimate_rho,
    geometric_collision,
    rho_sweep,
    tuned_scheme,
    write_rho_csv,
)
from .datasets import (
    PlantedInstance,
    generate_planted,
    read_fvecs,
    read_vectors,
    write_fvecs,
    write_vectors,
)
from .geometry import (
    BallSpec,
    ContractViolation,
    LpSpace,
    ball_volume_ratio,
    convexity_residual,
    lp_distance,
    lp_norm,
    random_lp_direction,
    sample_in_ball,
    smoothness_residual,
)
from .index import (
    IndexParams,
    LshIndex,
    QueryResult,
    build,
    choose_k_l,
    linear_scan_nn,
    load_index,
    save_index,
)
from .lattice import (
    LatticeParams,
    ShiftedLatticeSet,
    compute_num_shifts,
    covering_fraction,
    hash_batch,
    locate,
)
from .scheme import (
    PROFILE_MAIN,
    PROFILE_REMARK,
    HashFunction,
    Knobs,
    SchemeParams,
    derive_params,
    sample_hash,
    scale_to_unit,
)
from .stable import (
    StableParams,
    Threshold,
    compute_threshold,
    fit_tail_constant,
    sample_stable,
    tail_probability_bounds,
    truncated_moment,
    validate_concentration,
)
from .util import FormatError
from .verify import CheckResult, run_checks

__version__ = "0.1.0"

__all__ = [
    "BallSpec",
    "CheckResult",
    "CollisionEstimate",
    "ContractViolation",
    "FormatError",
    "HashFunction",
    "IndexParams",
    "Knobs",
    "LatticeParams",
    "LpSpace",
    "LshIndex",
    "PROFILE_MAIN",
    "PROFILE_REMARK",
    "PlantedInstance",
    "QueryResult",
    "RhoReport",
    "SchemeParams",
    "ShiftedLatticeSet",
    "StableParams",
    "Threshold",
    "ball_volume_ratio",
    "build",
    "choose_k_l",
    "compare_estimators",
    "compute_num_shifts",
    "compute_threshold",
    "convexity_residual",
    "covering_fraction",
    "derive_params",
    "estimate_collision",
    "estimate_rho",
    "fit_tail_constant",
    "generate_planted",
    "geometric_collision",
    "hash_batch",
    "linear_scan_nn",
    "load_index",
    "locate",
    "lp_distance",
    "lp_norm",
    "random_lp_direction",
    "read_fvecs",
    "read_vectors",
    "rho_sweep",
    "run_checks",
    "sample_hash",
    "sample_in_ball",
    "sample_stable",
    "save_index",
    "scale_to_unit",
    "smoothness_residual",
    "tail_probability_bounds",
    "truncated_moment",
    "tuned_scheme",
    "validate_concentration",
    "write_fvecs",
    "write_rho_csv",
    "write_vectors",
]
