"""Gaussian-rational scalar arithmetic."""

from fractions import Fraction

import pytest

from polyproper import GaussianRational


def G(re, im=0):
    return GaussianRational(re, im)


def test_field_operations():
    a = G(Fraction(1, 2), 1)
    b = G(2, -3)
    assert a + b == G(Fraction(5, 2), -2)
    assert a - b == G(Fraction(-3, 2), 4)
    assert a * b == G(4, Fraction(1, 2))  # (1/2 + i)(2 - 3i) = 1 + 3 + (2 - 3/2) i
    assert (a / b) * b == a
    assert -a == G(Fraction(-1, 2), -1)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        G(1) / G(0)


def test_powers():
    i = G(0, 1)
    assert i**2 == G(-1)
    assert i**0 == G(1)
    assert G(Fraction(2, 3)) ** 3 == G(Fraction(8, 27))
    with pytest.raises(ValueError):
        i ** -1


def test_coercion_is_exact():
    assert GaussianRational.coerce(0.5) == G(Fraction(1, 2))
    assert GaussianRational.coerce(2 - 0.25j) == G(2, Fraction(-1, 4))
    assert GaussianRational.coerce(Fraction(7, 3)) == G(Fraction(7, 3))
    with pytest.raises(TypeError):
        GaussianRational.coerce("1")


def test_equality_and_hash_against_rationals():
    assert G(2) == 2
    assert G(Fraction(1, 2)) == Fraction(1, 2)
    assert hash(G(2)) == hash(Fraction(2))
    assert G(2, 1) != 2
    assert hash(G(1, 2)) == hash(G(1, 2))


def test_string_forms():
    assert str(G(3)) == "3"
    assert str(G(0, 1)) == "i"
    assert str(G(0, -1)) == "-i"
    assert str(G(0, Fraction(-2, 3))) == "-2/3*i"
    assert str(G(1, -2)) == "1-2*i"
    assert str(G(Fraction(1, 2), 1)) == "1/2+i"


def test_immutability():
    a = G(1, 1)
    with pytest.raises(AttributeError):
        a.re = Fraction(2)


def test_views():
    a = G(1, -2)
    assert a.to_complex() == 1 - 2j
    assert not G(0)
    assert G(0).is_zero()
