"""A coarse embedding of the line, growth profiles, and the wreath pipeline.

Run as: python3 demos/embedding_and_growth.py
"""

from coarsekit import (
    a_infinity_family,
    ball_space,
    coarse_embedding,
    extension_split,
    gromov_profile,
    growth_curve,
    lamplighter_spec,
    wreath_cover,
    zn_spec,
)

print("== embedding a line window into l_2 ==")
space = ball_space(zn_spec(1), 40)
family = a_infinity_family(space, [3, 7, 15, 28], p=2)
result = coarse_embedding(family, (0,), 4)
print("  levels picked:", [e["level"] for e in result.selected])
print(f"  audit: {result.audit['pairs_checked']} pairs checked, pass={result.audit['pass']}")
for t in (2, 8, 32):
    lo, hi = result.rho_lower(t), result.rho_upper(t)
    print(f"  distance {t:2d}: displacement trapped in [{lo:.3f}, {hi:.3f}]")

print()
print("== multiplicity growth under a diameter policy D = 4*lam ==")
profile = growth_curve("zn:2", [1, 2, 3], [0, 4], 8)
print(profile.to_csv())

print("== achieved diameter under a multiplicity cap ==")
profile = gromov_profile("zn:1", 2, [1, 2, 3, 4], 16)
for row in profile.rows:
    print(f"  lam={row['lambda']}: diameter {row['diam_budget']} with "
          f"{row['multiplicity']} colors (envelope {row['theoretical_envelope']})")

print()
print("== covering a lamplighter ball through quotient and kernel ==")
cover = wreath_cover(extension_split(lamplighter_spec(), 5), 1)
stats = cover.meta["conclusions"]
print(f"  window {stats['window_points']} points, {len(cover)} cover members")
print(f"  multiplicity {stats['multiplicity']} <= envelope {stats['envelope']}")
print(f"  depth {stats['lebesgue_safe']} on {stats['safe_points']} safe points")
