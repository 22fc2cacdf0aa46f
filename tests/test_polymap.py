"""Maps: Jacobians, determinants, component dropping, composition, inverses."""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from polyproper import (
    PolyMap,
    Polynomial,
    parse_map_text,
    parse_polynomial,
    polymap,
    verify_inverse,
)
from conftest import random_map, random_point

V2 = ("x", "y")
GENERATORS = Path(__file__).resolve().parents[1] / "bench" / "generators.py"


def test_jacobian_entries():
    f = PolyMap.from_exprs(V2, ["x^2", "y"])
    jac = f.jacobian()
    assert jac[0, 0] == parse_polynomial("2*x", V2)
    assert jac[0, 1].is_zero()
    assert jac[1, 0].is_zero()
    assert jac[1, 1] == parse_polynomial("1", V2)

    g = PolyMap.from_exprs(V2, ["x", "x*y"])
    jg = g.jacobian()
    assert jg[1, 0] == parse_polynomial("y", V2)
    assert jg[1, 1] == parse_polynomial("x", V2)


def test_shear_jacobian_second_row(shear_map):
    jac = shear_map.jacobian()
    assert jac[1, 0].is_zero()
    assert jac[1, 1] == parse_polynomial("1", shear_map.vars)
    assert jac[1, 2].is_zero()


def test_jacobian_det():
    g = PolyMap.from_exprs(V2, ["x", "x*y"])
    assert g.jacobian_det() == parse_polynomial("x", V2)


def test_shear_det_is_one(shear_map):
    det = shear_map.jacobian_det()
    assert det == parse_polynomial("1", shear_map.vars)


def test_det_requires_square():
    f = PolyMap.from_exprs(V2, ["x"])
    with pytest.raises(ValueError, match="square"):
        f.jacobian_det()


def test_nonsingularity_verdicts(shear_map):
    ident = PolyMap.identity(V2)
    v = ident.nonsingularity()
    assert v and str(v.constant) == "1"
    w = PolyMap.from_exprs(V2, ["x", "x*y"]).nonsingularity()
    assert not w and w.constant is None
    s = shear_map.nonsingularity()
    assert s and str(s.constant) == "1"


def test_drop_component(shear_map):
    f3 = shear_map.drop_component(3)
    assert f3.components == shear_map.components[:2]
    f1 = shear_map.drop_component(1)
    assert f1.components == shear_map.components[1:]
    with pytest.raises(ValueError, match="range"):
        shear_map.drop_component(4)


def test_drop_then_reinsert_round_trips(shear_map):
    for k in (1, 2, 3):
        dropped = shear_map.drop_component(k)
        comps = list(dropped.components)
        comps.insert(k - 1, shear_map.components[k - 1])
        assert PolyMap(shear_map.vars, comps) == shear_map


def test_drop_commutes_with_evaluation(shear_map):
    rng = random.Random(3)
    for _ in range(20):
        pt = random_point(rng, 3)
        k = rng.choice((1, 2, 3))
        full = shear_map.evaluate(pt)
        projected = full[: k - 1] + full[k:]
        assert shear_map.drop_component(k).evaluate(pt) == pytest.approx(projected)


def test_compose_with_identity(shear_map):
    ident = PolyMap.identity(shear_map.vars)
    assert shear_map.compose(ident) == shear_map


def test_linear_maps_compose_like_matrices():
    a = PolyMap.from_exprs(V2, ["2*x + y", "x - y"])
    b = PolyMap.from_exprs(("u", "v"), ["u + v", "3*v"])
    ab = a.compose(b)
    # matrix product [[2,1],[1,-1]] @ [[1,1],[0,3]] = [[2,5],[1,-2]]
    assert ab == PolyMap.from_exprs(("u", "v"), ["2*u + 5*v", "u - 2*v"])


def test_compose_dimension_check():
    a = PolyMap.from_exprs(V2, ["x", "y"])
    b = PolyMap.from_exprs(("u",), ["u"])
    with pytest.raises(ValueError, match="compose"):
        a.compose(b)


def test_verify_inverse(shear_map, shear_inverse):
    ident = PolyMap.identity(V2)
    assert verify_inverse(ident, ident)
    assert verify_inverse(shear_map, shear_inverse)
    assert not verify_inverse(shear_map, PolyMap.identity(("p", "q", "r")))


def test_verify_inverse_decides_one_kronecker_image(monkeypatch):
    """f o g = id already proves g o f = id, and it is decided without expanding f o g."""
    spec = importlib.util.spec_from_file_location("bench_generators", GENERATORS)
    generators = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, generators)  # its dataclasses look it up
    spec.loader.exec_module(generators)
    tame = generators.tame_automorphism(random.Random("2018/3x3"), 3, 3)
    names = generators.VARS
    inverse = tame.inverse_texts()
    f = parse_map_text(generators.map_text(names, tame.forward_texts()))
    g = parse_map_text(generators.map_text(names, inverse))
    g_bad = parse_map_text(generators.map_text(names, [inverse[0] + " + 1", *inverse[1:]]))

    def expansion(*args):
        raise AssertionError("verify_inverse expanded a composition")

    monkeypatch.setattr(PolyMap, "compose", expansion)
    monkeypatch.setattr(Polynomial, "substitute", expansion)
    calls = []
    kernel = polymap.composition_equals

    def recording_kernel(outer, images, expected):
        calls.append((tuple(outer), tuple(images)))
        return kernel(outer, images, expected)

    monkeypatch.setattr(polymap, "composition_equals", recording_kernel)
    assert verify_inverse(f, g) is True
    assert calls == [(f.components, g.components)]
    assert verify_inverse(f, g_bad) is False
    assert calls == [(f.components, g.components), (f.components, g_bad.components)]


def test_verify_inverse_implies_nonsingular(shear_map, shear_inverse):
    assert verify_inverse(shear_map, shear_inverse)
    assert shear_map.nonsingularity().is_nonsingular
    rng = random.Random(17)
    from fractions import Fraction

    from polyproper import Polynomial

    def linear(m00, m01, m10, m11):
        return PolyMap(
            V2,
            [
                Polynomial(V2, {(1, 0): m00, (0, 1): m01}),
                Polynomial(V2, {(1, 0): m10, (0, 1): m11}),
            ],
        )

    for _ in range(10):
        # random invertible linear maps: inverse verification must imply
        # constant nonzero determinant
        a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
        det = a * d - b * c
        if det == 0:
            continue
        fwd = linear(a, b, c, d)
        inv = linear(
            Fraction(d, det), Fraction(-b, det), Fraction(-c, det), Fraction(a, det)
        )
        assert verify_inverse(fwd, inv)
        assert fwd.nonsingularity().is_nonsingular


def test_chain_rule_on_random_maps():
    rng = random.Random(29)
    checked = 0
    for _ in range(40):
        n = rng.choice((1, 2, 3))
        variables = ("x", "y", "z")[:n]
        f = random_map(rng, variables, max_degree=3, max_terms=3)
        g = random_map(rng, variables, max_degree=3, max_terms=3)
        lhs = f.compose(g).jacobian_det()
        det_f = f.jacobian_det()
        rhs = det_f.substitute(dict(zip(variables, g.components))) * g.jacobian_det()
        assert lhs == rhs
        checked += 1
    assert checked == 40


def test_map_file_parsing():
    f = parse_map_text(
        """
        # comment line
        vars: x y

        f1 = x + y   # trailing comment
        f2 = x*y
        """
    )
    assert f.vars == V2
    assert f.components[1] == parse_polynomial("x*y", V2)


def test_map_file_errors():
    with pytest.raises(ValueError, match="vars"):
        parse_map_text("f1 = x")
    with pytest.raises(ValueError, match="components"):
        parse_map_text("vars: x y")
    with pytest.raises(ValueError, match="name = expression"):
        parse_map_text("vars: x\nf1 x")
