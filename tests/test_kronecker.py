"""The Kronecker test of a composition, poly.composition_equals, against expansion."""

import random
from fractions import Fraction

from polyproper import GaussianRational, PolyMap, Polynomial, parse_polynomial, poly, polymap
from polyproper.poly import KRONECKER_MAX_BITS, _kronecker_bound, composition_equals
from conftest import bench_generators, random_map, random_polynomial, random_scalar

NAMES = ("x", "y", "z")


def _elementary(rng: random.Random, vs: tuple) -> tuple[PolyMap, PolyMap]:
    """A random elementary automorphism and its inverse, Gaussian-rational coefficients.

    Either x_k -> c*x_k + t with c nonzero, or a shear x_k -> x_k + p(others)
    of degree up to 3.
    """
    n, k = len(vs), rng.randrange(len(vs))
    x = [Polynomial.variable(vs, v) for v in vs]
    if n == 1 or rng.random() < 0.4:
        c = random_scalar(rng)
        while c == 0:
            c = random_scalar(rng)
        t = random_scalar(rng)
        fwd, inv = list(x), list(x)
        fwd[k] = x[k] * c + t
        inv[k] = (x[k] - t) * (1 / c)
        return PolyMap(vs, fwd), PolyMap(vs, inv)
    others = [v for i, v in enumerate(vs) if i != k]
    p = random_polynomial(rng, tuple(others), max_degree=rng.choice((1, 2, 3)), max_terms=3)
    p = p.in_context(vs)
    fwd, inv = list(x), list(x)
    fwd[k], inv[k] = x[k] + p, x[k] - p
    return PolyMap(vs, fwd), PolyMap(vs, inv)


def _tame_pair(rng: random.Random, vs: tuple) -> tuple[PolyMap, PolyMap]:
    """f = E1 o E2 o E3 and g = f^-1, with at most one nonlinear shear among the E."""
    f = g = PolyMap.identity(vs)
    nonlinear = False
    for _ in range(3):
        e, e_inv = _elementary(rng, vs)
        if any(c.total_degree() > 1 for c in e.components if c):
            if nonlinear:
                continue
            nonlinear = True
        f, g = f.compose(e), e_inv.compose(g)
    return f, g


def _with_component(m: PolyMap, k: int, p: Polynomial) -> PolyMap:
    comps = list(m.components)
    comps[k] = p
    return PolyMap(m.vars, comps)


def _random_pairs(count: int, seed: int):
    """Seeded (f, g, kind) pairs over n = 1..3 variables, a third of them inverses."""
    rng = random.Random(seed)
    for i in range(count):
        vs = NAMES[: 1 + i % 3]
        n = len(vs)
        kind = ("inverse", "swapped", "perturbed", "zero-component", "constant-image", "random")[
            (i // 3) % 6
        ]
        if kind == "random":
            f = random_map(rng, vs, max_degree=3)
            g = random_map(rng, vs, max_degree=3)
        else:
            f, g = _tame_pair(rng, vs)
            if kind == "swapped":
                f, g = g, f
            elif kind == "perturbed":
                k = rng.randrange(n)
                g = _with_component(g, k, g.components[k] + random_polynomial(rng, vs, 3, 1))
            elif kind == "zero-component":
                f = _with_component(f, rng.randrange(n), Polynomial.zero(vs))
            elif kind == "constant-image":
                constant = Polynomial.constant(vs, random_scalar(rng))
                g = _with_component(g, rng.randrange(n), constant)
        yield f, g, kind


def _expanded_decision(f: PolyMap, g: PolyMap) -> bool:
    return f.compose(g) == PolyMap.identity(g.vars)


def _identity(g: PolyMap) -> tuple:
    return PolyMap.identity(g.vars).components


PAIRS = list(_random_pairs(2100, seed=1907))


def test_random_pairs_cover_what_they_claim():
    kinds = {kind for _, _, kind in PAIRS}
    assert kinds == {
        "inverse", "swapped", "perturbed", "zero-component", "constant-image", "random"
    }
    assert {len(f.vars) for f, _, _ in PAIRS} == {1, 2, 3}
    dens = [c.den for f, g, _ in PAIRS for c in f.components + g.components]
    assert sum(d > 1 for d in dens) > len(dens) // 4
    gaussian = [c for f, g, _ in PAIRS for c in f.components + g.components]
    assert sum(any(im for _, im in c.nums.values()) for c in gaussian) > len(gaussian) // 4
    assert sum(_expanded_decision(f, g) for f, g, kind in PAIRS if kind == "inverse") > 300


def test_decision_equals_expansion_on_random_pairs():
    decided = [composition_equals(f.components, g.components, _identity(g)) for f, g, _ in PAIRS]
    expanded = [_expanded_decision(f, g) for f, g, _ in PAIRS]
    assert decided == expanded
    assert sum(expanded) > 600  # the inverse and swapped pairs


def test_bound_covers_every_cleared_coefficient_of_the_expansion():
    """Every numerator of a_j * Q^d_j * (f_j o g - x_j) is at most the bound, below 2^(B-1)."""
    for f, g, _ in PAIRS:
        q, degrees, bounds = _kronecker_bound(f.components, g.components, _identity(g))
        slot = max(bounds).bit_length() + 1
        composed = f.compose(g)
        for fj, hj, xj, bound in zip(f.components, composed.components, _identity(g), bounds):
            d = fj.total_degree() if fj else 0
            scale = fj.den * q**d
            diff = hj - xj
            assert scale % diff.den == 0
            for re, im in diff.nums.values():
                assert max(abs(re), abs(im)) * (scale // diff.den) <= bound < 2 ** (slot - 1)
            for v, dv in zip(g.vars, degrees):
                assert diff.degree_in(v) <= dv


# -- near misses ------------------------------------------------------------------


def _pool_pair():
    """The 3x3 tame pair of the benchmark's pool, whose composition is dense."""
    generators = bench_generators()
    tame = generators.tame_automorphism(random.Random("2018/3x3"), 3, 3)
    names = generators.VARS
    f = polymap.parse_map_text(generators.map_text(names, tame.forward_texts()))
    g = polymap.parse_map_text(generators.map_text(names, tame.inverse_texts()))
    return f, g


def test_one_term_off_at_the_top_and_bottom_slot_is_rejected():
    f, g = _pool_pair()
    ident = _identity(g)
    assert composition_equals(f.components, g.components, ident) is True
    _, degrees, _ = _kronecker_bound(f.components, g.components, ident)
    vs = g.vars
    top = Polynomial(vs, {tuple(degrees): Fraction(1, 7)})
    for j in range(len(vs)):
        for extra in (top, Polynomial.constant(vs, Fraction(1, 7)), Polynomial.constant(vs, 1)):
            expected = list(ident)
            expected[j] = expected[j] + extra
            # the extra term lies inside the degree bound, so the slots do not move
            assert _kronecker_bound(f.components, g.components, expected)[1] == degrees
            assert composition_equals(f.components, g.components, expected) is False


def test_a_term_of_the_inverse_changed_only_in_its_denominator_is_rejected():
    f, g = _pool_pair()
    for k, c in enumerate(g.components):
        for e, re, im in c.stored_terms():
            assert c.den == 1 and im == 0
            term = Polynomial(g.vars, {e: re})
            changed = c - term + term * Fraction(1, 2**61 - 1)
            g_bad = PolyMap(g.vars, [changed if i == k else p for i, p in enumerate(g.components)])
            assert composition_equals(f.components, g_bad.components, _identity(g)) is False
            assert not polymap.verify_inverse(f, g_bad)


def test_denominators_of_the_outer_map_and_of_the_expected_value_count():
    vs = ("x",)
    half_x = parse_polynomial("x/2", vs)
    x = parse_polynomial("x", vs)
    assert composition_equals([x], [half_x], [half_x]) is True
    assert composition_equals([x], [half_x], [x]) is False
    assert composition_equals([half_x], [x], [x]) is False
    third = parse_polynomial("(1/3)*x^2 + (2/3)*i*x", vs)
    images = [parse_polynomial("(3/2)*x - i", vs)]
    expanded = third.substitute({"x": images[0]})
    assert composition_equals([third], images, [expanded]) is True
    off = expanded + GaussianRational(0, Fraction(1, 9))
    assert composition_equals([third], images, [off]) is False


# -- the size guard -----------------------------------------------------------------


def test_a_sparse_map_of_high_degree_is_left_to_expansion(monkeypatch):
    """x^32 o (x^32 + y^32 + z^32): the image would take more than 2^24 bits."""
    f = PolyMap.from_exprs(NAMES, ["x^32", "y", "z"])
    g = PolyMap.from_exprs(NAMES, ["x^32 + y^32 + z^32", "y", "z"])
    assert composition_equals(f.components, g.components, _identity(g)) is None
    calls = []
    compose = PolyMap.compose

    def counting_compose(self, inner):
        calls.append((self, inner))
        return compose(self, inner)

    monkeypatch.setattr(PolyMap, "compose", counting_compose)
    assert polymap.verify_inverse(f, g) is False
    assert calls == [(f, g)]


def _image_bits(f: PolyMap, g: PolyMap) -> int:
    _, degrees, bounds = _kronecker_bound(f.components, g.components, _identity(g))
    bits = max(bounds).bit_length() + 1
    for dv in degrees:
        bits *= dv + 1
    return bits


def test_the_guard_admits_an_image_of_exactly_the_limit(monkeypatch):
    f, g = _pool_pair()
    bits = _image_bits(f, g)
    assert bits < KRONECKER_MAX_BITS
    monkeypatch.setattr(poly, "KRONECKER_MAX_BITS", bits)
    assert composition_equals(f.components, g.components, _identity(g)) is True
    monkeypatch.setattr(poly, "KRONECKER_MAX_BITS", bits - 1)
    assert composition_equals(f.components, g.components, _identity(g)) is None
    assert polymap.verify_inverse(f, g)  # the fallback expands f o g

