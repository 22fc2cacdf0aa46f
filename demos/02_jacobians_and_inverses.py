"""Jacobian determinants and exact inverse verification.

The star exhibit: a degree-10 triangular shear of C^3 whose Jacobian
determinant is the constant 1 and whose polynomial inverse (degree 16) is
verified exactly, no floating point.  f o g is never expanded: each
f_j(g) - x_j is evaluated once at a Kronecker point x_v = 2^(B*w_v), whose
big-integer value is zero only if the polynomial is.  That one composition
suffices: f o g = id makes g an injective polynomial self-map of C^3, hence
an automorphism (Bialynicki-Birula and Rosenlicht), so g o f = id follows.
"""

import time

from polyproper import PolyMap, verify_inverse
from polyproper.corpus import example_3_6_inverse, example_3_6_map

f = example_3_6_map()
print("f :", ", ".join(str(c) for c in f.components))

print()
print("== Jacobian ==")
jac = f.jacobian()
for i in range(3):
    print("  [", " | ".join(str(jac[i, j]) for j in range(3)), "]")
verdict = f.nonsingularity()
print("det Jac(f) =", verdict.determinant, "-> nonsingular:", verdict.is_nonsingular)

print()
print("== inverse verification ==")
g = example_3_6_inverse()
print("claimed inverse:", ", ".join(str(c) for c in g.components))
t0 = time.perf_counter()
ok = verify_inverse(f, g)
print(f"f o g == id (exact Kronecker image), so g o f == id too: {ok}  [{time.perf_counter()-t0:.3f}s]")

print()
print("== controls ==")
ident = PolyMap.identity(("p", "q", "r"))
print("f with identity as 'inverse':", verify_inverse(f, ident))
singular = PolyMap.from_exprs(("x", "y"), ["x", "x*y"])
sv = singular.nonsingularity()
print("(x, xy) determinant:", sv.determinant, "-> nonsingular:", sv.is_nonsingular)

print()
print("== deleting components ==")
for k in (1, 2, 3):
    dropped = f.drop_component(k)
    print(f"delete #{k}: ({', '.join(str(c) for c in dropped.components)})")
