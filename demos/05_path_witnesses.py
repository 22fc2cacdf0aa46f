"""Asymptotic critical values along Laurent paths.

Even an automorphism of C^3 can fail the Rabier condition after one
component is deleted: along a suitable curve to infinity, the image of the
reduced map converges while the smallest singular value of its Jacobian
decays to zero.  All three clauses are decided exactly: the decay by the
order of sigma_min in t, read off the t-degrees of the Jacobian's minors
along the path, with no float sample.  Each accepted witness pins down a
member of the asymptotic critical set: its exact image limit.
"""

from polyproper import LaurentPath, PolyMap, check_rabier_witness, image_limit, path_diverges
from polyproper.corpus import example_3_6_map

f = example_3_6_map()
paths = {
    3: LaurentPath.from_text("t, t^-2, 0"),
    2: LaurentPath.from_text("t^-1, t^2, t^-3"),
    1: LaurentPath.from_text("t, t^-2, t^3"),
}

for k, path in paths.items():
    g = f.drop_component(k)
    print(f"== delete component #{k}, path ({path}) ==")
    div = path_diverges(path)
    print("  escapes to infinity via coordinates:", div.coordinates)
    lim = image_limit(g, path)
    print("  image limit (exact):", tuple(str(v) for v in lim.value),
          "| error order t^", lim.decay_order)
    w = check_rabier_witness(g, path)
    print("  accepted:", w.accepted, "| sigma_min(Jac) ~ c * t^", w.sigma_order, "(exact order)")
    print("  -> the asymptotic critical set contains", tuple(str(v) for v in w.limit))
    print()

print("== negative control: the wrong component pair ==")
wrong = PolyMap(f.vars, (f.components[0], f.components[2]))
r = check_rabier_witness(wrong, paths[1])
print("pairing (f1, f3) with the third path:", r.reason, "(clause:", r.clause + ")")
print("so that path certifies nothing for this pair, as expected")
