"""Exact Gaussian-rational scalars.

A coefficient is a + b*i with a, b arbitrary-precision rationals
(``fractions.Fraction``).  This field is closed under every operation the
symbolic layer performs (ring arithmetic, division by nonzero scalars), so
identities such as "this determinant is the constant 1" are decided exactly.
Floating-point complex numbers appear only in the numerical modules.

Scalar arithmetic here serves single coefficients at the boundary of the
exact layer: input, printing and reports.  Polynomials do not store
scalars: :mod:`polyproper.poly` keeps Gaussian-integer numerators over one
denominator, computes in int arithmetic and builds a ``GaussianRational``
only when a coefficient is read.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction]
ScalarLike = Union["GaussianRational", int, Fraction, complex]


class GaussianRational:
    """An exact complex number with rational real and imaginary parts.

    Instances are immutable and hashable; ``Fraction`` keeps both parts in
    lowest terms with positive denominators, so equality is exact structural
    equality.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @classmethod
    def coerce(cls, value: ScalarLike) -> "GaussianRational":
        """Build a scalar from an int, Fraction, float, complex, or scalar.

        Floats and complex floats convert exactly (every finite float is a
        rational number), which lets numeric targets enter the exact layer
        without rounding.
        """
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(value)
        if isinstance(value, float):
            return cls(Fraction(value))
        if isinstance(value, complex):
            return cls(Fraction(value.real), Fraction(value.imag))
        raise TypeError(f"cannot coerce {type(value).__name__} to GaussianRational")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: ScalarLike) -> "GaussianRational":
        o = GaussianRational.coerce(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "GaussianRational":
        o = GaussianRational.coerce(other)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other: ScalarLike) -> "GaussianRational":
        return GaussianRational.coerce(other) - self

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: ScalarLike) -> "GaussianRational":
        o = GaussianRational.coerce(other)
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "GaussianRational":
        o = GaussianRational.coerce(other)
        if o.is_zero():
            raise ZeroDivisionError("division by zero scalar")
        # (a+bi)/(c+di) = (a+bi)(c-di) / (c^2+d^2)
        norm = o.re * o.re + o.im * o.im
        re = (self.re * o.re + self.im * o.im) / norm
        im = (self.im * o.re - self.re * o.im) / norm
        return GaussianRational(re, im)

    def __rtruediv__(self, other: ScalarLike) -> "GaussianRational":
        return GaussianRational.coerce(other) / self

    def __pow__(self, exponent: int) -> "GaussianRational":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return _power(self, exponent, ONE)

    # -- predicates and views -----------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_one(self) -> bool:
        return self.re == 1 and not self.im

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self) -> int:
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            return _imag_str(self.im)
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{_imag_str(abs(self.im))}"


def _power(base, exponent: int, one, mul=operator.mul):
    """base**exponent (exponent >= 0) by square-and-multiply; ``one`` is the empty product.

    Scalars and both polynomial kinds raise powers through it, and the
    parser does too, with its metered product as ``mul``.
    """
    result = one
    while exponent:
        if exponent & 1:
            result = mul(result, base)
        exponent >>= 1
        if exponent:
            base = mul(base, base)
    return result


def _imag_str(im: Fraction) -> str:
    """Render a nonzero rational imaginary part: i, -i, 2*i, -2/3*i."""
    if im == 1:
        return "i"
    if im == -1:
        return "-i"
    return f"{im}*i"


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
