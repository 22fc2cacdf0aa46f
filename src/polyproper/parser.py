"""Expression parsing for polynomials and Laurent path coordinates.

Grammar (whitespace insensitive)::

    expression := ['-'] term (('+' | '-') term)*
    term       := factor (('*' | '/') factor)*
    factor     := atom ['^' exponent]
    atom       := NUMBER | IDENT | '(' expression ')'
    exponent   := ['-'] NUMBER      # negative exponents in Laurent mode only

Notes on the conventions:

* ``^`` binds tighter than unary minus, so ``-x^2`` is ``-(x^2)``.
* Implicit multiplication is rejected: ``2x`` is a syntax error.
* ``/`` is division by a nonzero constant, which is how rational literals
  such as ``1/2`` enter; dividing by a non-constant is an error.
* ``i`` is the imaginary unit and cannot be declared as a variable.
* No product or power may have degree above :data:`MAX_PARSE_DEGREE`, nor
  admit more than :data:`MAX_PARSE_TERMS` terms by the bound
  min(terms the operands can form, monomials of that degree); both checks
  run before the product is expanded, so ``(x+y+z)^200`` and
  ``(a+b+c+d+e+f)^16`` fail at once instead of expanding for minutes.
* One parse may spend at most :data:`MAX_PARSE_WORK` units of work, one
  unit a pair of terms multiplied and :data:`WRITE_COST` units a
  coefficient built.  A product of an m-term and an n-term operand
  multiplies m*n pairs and builds at most its term bound above (a power:
  each of its square-and-multiply products), a division m pairs and m
  coefficients, a sum m + n coefficients and a negation m.  Each
  operation is charged before it runs, so a long sum of admitted products
  such as ``(x+y+z+1)^16*(x-y+2*z-3)^16 + ...`` or a long chain of
  divisions fails instead of running on for seconds.

Laurent mode parses a single-variable expression where ``^`` may take a
negative integer, e.g. ``t^-2``; a comma-separated list of these is a path
literal such as ``t, t^-2, 0``.
"""

from __future__ import annotations

import re
from math import comb
from typing import Sequence

from .poly import IMAGINARY_UNIT, LaurentPoly, Polynomial
from .scalar import GaussianRational, _power


#: Largest total degree (Laurent: largest |exponent|) a product or power may have.
MAX_PARSE_DEGREE = 32
#: Largest number of terms a product or power may be able to have.
MAX_PARSE_TERMS = 10_000
#: Largest work one parse may spend, in pairs of terms multiplied (see above).
MAX_PARSE_WORK = 1_500_000
#: Work of building one coefficient: its normalisation costs about as much
#: as twelve pairs of terms multiplied.
WRITE_COST = 12


class ParseError(ValueError):
    """Syntax or symbol error, carrying the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[bad_at]!r}", bad_at)
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive-descent parser over an algebra of values.

    The algebra argument supplies ``constant``, ``variable``, the ``degree``
    the parse budget counts, the number of ``monomials`` up to a degree, and
    whether negative exponents are legal, so one grammar serves both
    multivariate polynomials and Laurent path coordinates.
    """

    def __init__(self, text: str, algebra):
        self.tokens = _tokenize(text)
        self.k = 0
        self.algebra = algebra
        self.work = 0

    def peek(self):
        return self.tokens[self.k]

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_op(self, op: str):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", pos)
        return self.advance()

    def parse(self):
        value = self.expression()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {text!r}", pos)
        return value

    def expression(self):
        negate = False
        kind, text, neg_pos = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            negate = True
        value = self.term()
        if negate:
            self.charge(0, len(value.nums), neg_pos)
            value = -value
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.term()
                self.charge(0, len(value.nums) + len(rhs.nums), pos)
                value = value + rhs if text == "+" else value - rhs
            else:
                return value

    def term(self):
        value = self.factor()
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                rhs = self.factor()
                if text == "*":
                    value = self.multiply(value, rhs, pos)
                else:
                    self.charge(len(value.nums), len(value.nums), pos)
                    if not rhs.is_constant():
                        raise ParseError("division is only allowed by constants", pos)
                    c = rhs.constant_value()
                    if c.is_zero():
                        raise ParseError("division by zero", pos)
                    value = value * (GaussianRational(1) / c)
            else:
                return value

    def factor(self):
        value = self.atom()
        kind, text, pos = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            exponent = self.exponent()
            degree = self.algebra.degree(value) * abs(exponent)
            self.check_degree(degree, pos)
            # a power's terms are multisets of |exponent| terms of the base
            n = len(value.nums)
            self.term_bound(comb(n + abs(exponent) - 1, abs(exponent)) if n else 0, degree, pos)
            value = self.power(value, exponent, pos)
        return value

    def multiply(self, a, b, pos: int):
        """a * b once its degree, term bound and work are within the limits."""
        degree = self.algebra.degree(a) + self.algebra.degree(b)
        self.check_degree(degree, pos)
        pairs = len(a.nums) * len(b.nums)
        self.charge(pairs, self.term_bound(pairs, degree, pos), pos)
        return a * b

    def power(self, value, exponent: int, pos: int):
        """value^exponent by square and multiply, each product checked as it comes."""
        if exponent < 0:
            return value**exponent  # one term (the algebra rejects more), so nothing to charge
        return _power(
            value, exponent, self.algebra.constant(1), lambda a, b: self.multiply(a, b, pos)
        )

    def charge(self, pairs: int, written: int, pos: int) -> None:
        self.work += pairs + WRITE_COST * written
        if self.work > MAX_PARSE_WORK:
            raise ParseError(
                f"expanding the expression needs more work than the parse limit {MAX_PARSE_WORK}",
                pos,
            )

    @staticmethod
    def check_degree(degree: int, pos: int) -> None:
        if degree > MAX_PARSE_DEGREE:
            raise ParseError(
                f"degree {degree} exceeds the parse limit {MAX_PARSE_DEGREE}", pos
            )

    def term_bound(self, formed: int, degree: int, pos: int) -> int:
        """min(formed, monomials up to degree): at most MAX_PARSE_TERMS, or ParseError."""
        bound = min(formed, self.algebra.monomials(degree))
        if bound > MAX_PARSE_TERMS:
            raise ParseError(
                f"expansion of up to {bound} terms exceeds the parse limit {MAX_PARSE_TERMS}",
                pos,
            )
        return bound

    def exponent(self) -> int:
        sign = 1
        kind, text, pos = self.peek()
        if kind == "op" and text == "-":
            if not self.algebra.allow_negative_exponents:
                raise ParseError("negative exponents are not allowed here", pos)
            self.advance()
            sign = -1
        kind, text, pos = self.peek()
        if kind != "num":
            raise ParseError("expected an integer exponent", pos)
        self.advance()
        return sign * int(text)

    def atom(self):
        kind, text, pos = self.advance()
        if kind == "num":
            return self.algebra.constant(int(text))
        if kind == "ident":
            if text == IMAGINARY_UNIT:
                return self.algebra.constant(1j)
            return self.algebra.variable(text, pos)
        if kind == "op" and text == "(":
            value = self.expression()
            self.expect_op(")")
            return value
        raise ParseError(f"unexpected {text!r}" if text else "unexpected end of input", pos)


class _PolynomialAlgebra:
    allow_negative_exponents = False

    def __init__(self, variables: Sequence[str]):
        self.vars = tuple(variables)

    def constant(self, n: complex) -> Polynomial:
        return Polynomial.constant(self.vars, n)

    def variable(self, name: str, pos: int) -> Polynomial:
        if name not in self.vars:
            raise ParseError(f"unknown identifier {name!r}", pos)
        return Polynomial.variable(self.vars, name)

    @staticmethod
    def degree(value: Polynomial) -> int:
        return 0 if value.is_zero() else value.total_degree()

    def monomials(self, degree: int) -> int:
        return comb(len(self.vars) + degree, degree)


class _LaurentAlgebra:
    allow_negative_exponents = True

    def __init__(self, var: str):
        self.var = var

    def constant(self, n: complex) -> LaurentPoly:
        return LaurentPoly(self.var, {0: n})

    def variable(self, name: str, pos: int) -> LaurentPoly:
        if name != self.var:
            raise ParseError(f"unknown identifier {name!r}", pos)
        return LaurentPoly(self.var, {1: 1})

    @staticmethod
    def degree(value: LaurentPoly) -> int:
        return max((abs(e) for e in value.nums), default=0)

    @staticmethod
    def monomials(degree: int) -> int:
        return 2 * degree + 1


def parse_polynomial(text: str, variables: Sequence[str]) -> Polynomial:
    """Parse an expression into a canonical expanded polynomial."""
    return _Parser(text, _PolynomialAlgebra(variables)).parse()


def parse_laurent(text: str, var: str = "t") -> LaurentPoly:
    """Parse one Laurent expression such as ``t^-2`` or ``3*t^2 - 1``."""
    return _Parser(text, _LaurentAlgebra(var)).parse()


def parse_path(text: str, var: str = "t") -> tuple[LaurentPoly, ...]:
    """Parse a comma-separated path literal, e.g. ``t, t^-2, 0``."""
    pieces = text.split(",")
    if not pieces or all(not p.strip() for p in pieces):
        raise ParseError("empty path literal", 0)
    return tuple(parse_laurent(piece, var) for piece in pieces)
