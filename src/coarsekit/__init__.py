"""Desk-scale coarse geometry: word-metric windows, audited covers,
property-A certificates, coarse embeddings, and growth profiles."""

import os

# numpy loads OpenBLAS, which starts one worker thread per CPU unless told
# otherwise; coarsekit makes no BLAS call that a pool would speed up, and
# starting it made `import numpy` take 130 ms instead of 61 ms on a 2-vCPU
# host.  Set before the first import that loads numpy; a value already set
# wins, and child processes inherit it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import (
    AuditFailed,
    BallTooLarge,
    CoarseKitError,
    Infeasible,
    LebesgueTooSmall,
    PreconditionFailed,
    SubsequenceUnavailable,
    TooLarge,
    WindowTooSmall,
)
from .metric import INF, FiniteMetricSpace, lp_distance, point_label
from .groups import (
    GroupSpec,
    ball_elements,
    ball_space,
    cyclic_spec,
    distortion_profile,
    free_spec,
    group_from_token,
    heisenberg_center,
    heisenberg_spec,
    lamplighter_spec,
    log_log_slope,
    word_norm_table,
    wreath_spec,
    zn_spec,
)
from .covers import (
    Cover,
    PartitionOfUnity,
    ball_cover,
    brick_cover_zl,
    brick_families_zl,
    coordinate_interval_cover,
    eval_polynomial,
    extension_cover,
    extension_split,
    families_to_cover,
    interval_cover_z,
    partition_of_unity,
    shrink_to_irreducible,
    wreath_cover,
)
from .property_a import (
    PropertyAFamily,
    a_infinity_family,
    certificate,
    coarse_embedding,
    convert_down_to_1,
    convert_up,
    family_from_covers,
    variation_report,
)
from .dimension import (
    DimensionProfile,
    greedy_min_multiplicity,
    gromov_profile,
    growth_curve,
    independent_audit,
    oracle_min_multiplicity,
)

__version__ = "0.1.0"

__all__ = [
    "AuditFailed",
    "BallTooLarge",
    "CoarseKitError",
    "Cover",
    "DimensionProfile",
    "FiniteMetricSpace",
    "GroupSpec",
    "INF",
    "Infeasible",
    "LebesgueTooSmall",
    "PartitionOfUnity",
    "PreconditionFailed",
    "PropertyAFamily",
    "SubsequenceUnavailable",
    "TooLarge",
    "WindowTooSmall",
    "a_infinity_family",
    "ball_cover",
    "ball_elements",
    "ball_space",
    "cyclic_spec",
    "brick_cover_zl",
    "brick_families_zl",
    "certificate",
    "coarse_embedding",
    "convert_down_to_1",
    "convert_up",
    "coordinate_interval_cover",
    "distortion_profile",
    "eval_polynomial",
    "extension_cover",
    "extension_split",
    "families_to_cover",
    "family_from_covers",
    "free_spec",
    "greedy_min_multiplicity",
    "gromov_profile",
    "group_from_token",
    "growth_curve",
    "heisenberg_center",
    "heisenberg_spec",
    "independent_audit",
    "interval_cover_z",
    "lamplighter_spec",
    "log_log_slope",
    "lp_distance",
    "oracle_min_multiplicity",
    "partition_of_unity",
    "point_label",
    "shrink_to_irreducible",
    "variation_report",
    "word_norm_table",
    "wreath_cover",
    "wreath_spec",
    "zn_spec",
]
