from .base import (
    Cover,
    PartitionOfUnity,
    audit_irreducible,
    ball_cover,
    brick_cover_zl,
    brick_families_zl,
    coordinate_interval_cover,
    families_to_cover,
    interval_cover_z,
    partition_of_unity,
    shrink_to_irreducible,
)
from .extension import extension_cover, extension_split, split_along, wreath_kernel_cover
from .wreath import eval_polynomial, wreath_cover, wreath_lamp_bricks

__all__ = [
    "Cover",
    "PartitionOfUnity",
    "audit_irreducible",
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
    "split_along",
    "wreath_cover",
    "wreath_kernel_cover",
    "wreath_lamp_bricks",
]
