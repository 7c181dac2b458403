"""Desk-scale coarse geometry: word-metric windows, audited covers,
property-A certificates, coarse embeddings, and growth profiles.

A public name is imported from its home module on first access, so
``import coarsekit`` (or ``coarsekit.cli``) loads no module it does not use.
"""

import importlib
import os

# numpy loads OpenBLAS, which starts one worker thread per CPU unless told
# otherwise; coarsekit makes no BLAS call that a pool would speed up, and
# starting it made `import numpy` take 130 ms instead of 61 ms on a 2-vCPU
# host.  Set before the first import that loads numpy; a value already set
# wins, and child processes inherit it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

# home module -> the public names it defines
_EXPORTS = {
    "errors": (
        "AuditFailed",
        "BallTooLarge",
        "CoarseKitError",
        "Infeasible",
        "LebesgueTooSmall",
        "PreconditionFailed",
        "SubsequenceUnavailable",
        "TooLarge",
        "WindowTooSmall",
    ),
    "metric": ("INF", "FiniteMetricSpace", "lp_distance", "point_label"),
    "groups": (
        "GroupSpec",
        "ball_elements",
        "ball_space",
        "cyclic_spec",
        "distortion_profile",
        "free_spec",
        "group_from_token",
        "heisenberg_center",
        "heisenberg_spec",
        "lamplighter_spec",
        "log_log_slope",
        "word_norm_table",
        "wreath_spec",
        "zn_spec",
    ),
    "covers": (
        "Cover",
        "PartitionOfUnity",
        "ball_cover",
        "brick_cover_zl",
        "brick_families_zl",
        "coordinate_interval_cover",
        "eval_polynomial",
        "extension_cover",
        "extension_split",
        "families_to_cover",
        "interval_cover_z",
        "partition_of_unity",
        "shrink_to_irreducible",
        "wreath_cover",
    ),
    "property_a": (
        "PropertyAFamily",
        "a_infinity_family",
        "certificate",
        "coarse_embedding",
        "convert_down_to_1",
        "convert_up",
        "family_from_covers",
        "variation_report",
    ),
    "dimension": (
        "DimensionProfile",
        "greedy_min_multiplicity",
        "gromov_profile",
        "growth_curve",
        "independent_audit",
        "oracle_min_multiplicity",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    """Import the home module of a public name on first use (PEP 562) and
    keep the value, so later lookups never come back here."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module("." + _HOME[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
