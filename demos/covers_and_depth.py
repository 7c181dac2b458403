"""Covers, their measured depth, and the exact subset oracle.

Run as: python3 demos/covers_and_depth.py
"""

import numpy as np

from coarsekit import (
    Cover,
    ball_cover,
    ball_space,
    partition_of_unity,
    shrink_to_irreducible,
    zn_spec,
)
from coarsekit.metric import FiniteMetricSpace

print("== two overlapping intervals on a ten-point segment ==")
pts = list(range(10))
space = FiniteMetricSpace(pts, np.abs(np.subtract.outer(pts, pts)))
cover = Cover(space, np.array([[p < 6 for p in pts], [p >= 4 for p in pts]]), ["left", "right"])
print(f"  multiplicity      {cover.multiplicity()}")
print(f"  pointwise depth   {cover.pointwise_lebesgue()}   (worst max-distance to a complement)")
print(f"  exact at lam=2    {cover.exact_lebesgue_at_least(2)}")
print(f"  exact at lam=4    {cover.exact_lebesgue_at_least(4)}")
print(f"  uncovered witness {cover.find_uncovered_subset(4)}  (diameter 4, fits in neither)")

print()
print("== ball covers on a line window ==")
window = ball_space(zn_spec(1), 12)
balls = ball_cover(window, 4)
print(f"  lam=4: multiplicity {balls.multiplicity()}, depth {balls.pointwise_lebesgue()}")

pou, measured = partition_of_unity(balls)
print(f"  partition of unity: measured Lipschitz {measured:.4f}, "
      f"certified bound {pou.lipschitz_bound:.4f}")

print()
print("== shrinking to an irreducible core family ==")
shrunk = shrink_to_irreducible(balls, 3)
print(f"  kept {len(shrunk)} of {len(balls)} members, depth still {shrunk.pointwise_lebesgue()}")
for label, k in list(zip(shrunk.labels, shrunk.meta["private"]))[:4]:
    print(f"  member {label} owns private point {window.points[k]}")
