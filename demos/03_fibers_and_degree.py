"""Solving fibers f(x) = y and estimating the geometric degree.

Elimination runs exactly (targets become exact rationals), roots come from
companion matrices, and Newton polishes the results.  Seeded sampling of
fiber counts then estimates the geometric degree: the constant count a map
attains away from its nonproperness locus.
"""

import numpy as np

from polyproper import (
    PolyMap,
    PositiveDimensionalFiberError,
    fiber_count,
    geometric_degree,
    solve_fiber,
)
from polyproper.corpus import example_3_6_inverse, example_3_6_map

print("== a two-sheeted cover ==")
f = PolyMap.from_exprs(("x", "y"), ["x^2", "y"])
for sol in solve_fiber(f, (4, 5)):
    print("  solution:", sol.point, "residual:", f"{sol.residual:.1e}")
est = geometric_degree(f, seed=0)
print("geometric degree:", est.mu, "histogram:", est.histogram)

print()
print("== a blowdown: counts drop on the bad locus ==")
g = PolyMap.from_exprs(("x", "y"), ["x", "x*y"])
print("count at (3, 6):", fiber_count(g, (3, 6)), " (the point (3, 2))")
print("count at (0, 1):", fiber_count(g, (0, 1)), " (empty fiber)")
try:
    fiber_count(g, (0, 0))
except PositiveDimensionalFiberError as exc:
    print("count at (0, 0): positive-dimensional ->", exc)
print("geometric degree:", geometric_degree(g, seed=0).mu)

print()
print("== the shear automorphism: every fiber is one point ==")
shear = example_3_6_map()
inverse = example_3_6_inverse()
est = geometric_degree(shear, seed=0)
print("histogram over 50 seeded targets:", est.histogram)

rng = np.random.default_rng(7)
y = tuple(complex(a, b) for a, b in rng.uniform(-1, 1, size=(3, 2)))
sols = solve_fiber(shear, y)
predicted = inverse.evaluate(y)
err = max(abs(a - b) for a, b in zip(sols[0].point, predicted))
print(f"solver vs explicit inverse formula at a random target: {err:.2e}")
