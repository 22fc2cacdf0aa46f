"""Sparse multivariate polynomials with exact Gaussian-rational coefficients.

A polynomial is a map from exponent tuples to nonzero scalars, over a fixed
ordered tuple of variable names:

    Polynomial(("x", "y"), {(2, 0): 1, (0, 1): -1})   # x^2 - y

Zero coefficients are never stored, so structural equality is polynomial
identity.  The canonical term order is graded lexicographic with respect to
the declared variable order; printing, hashing, and leading-term extraction
all use it, making the printed form stable across runs.

``LaurentPoly`` is the single-variable companion used for curves
t -> (x_1(t), ..., x_n(t)) with integer (possibly negative) exponents.

Products of both kinds go through one kernel, :func:`_mul_terms`.  It clears
each operand once to a common denominator and Gaussian-integer numerators
(pairs of Python ints), multiplies every pair of terms in int arithmetic and
builds each result coefficient once, as ``Fraction(re, den)`` and
``Fraction(im, den)``.  Multivariate exponent tuples enter it packed into one
int each (Kronecker substitution with a base above every exponent of the
product, so packed keys add without carries); Laurent exponents enter as
they are.  Scaling and powers use the same kernel, and exact division
(:func:`_exact_quotient`) works on the same cleared numerators.  ``terms``
always holds ``GaussianRational`` values, so nothing outside this module
sees the cleared form.  Composition (:func:`_compose`) and the
substitutions of :mod:`polyproper.elimination` are Horner's rule over ring
operations (:func:`_horner`).

Exact work can be metered.  Inside ``with work_limit(n):`` the kernel
charges every product its pairs of terms and every exact division its
quotient terms times the divisor's, before doing the work, and raises
:class:`WorkLimitExceeded` once more than ``n`` pairs are spent.  Outside
such a block nothing is counted.

:class:`Specialisation` fixes the trailing variables of a set of
polynomials at exact values, for many values in turn: each polynomial is
compiled once to cleared numerators split by (leading exponents, trailing
exponents), so one set of values costs int powers of the values and one
normalisation per coefficient of the result.  Exact evaluation
(:meth:`Polynomial.evaluate_exact`) is the specialisation of every variable.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Mapping, Sequence, Union

import numpy as np

from .numeric import TermTable
from .scalar import GaussianRational, ONE, ScalarLike, ZERO, _power

Exponents = tuple  # tuple[int, ...], one entry per variable

#: Reserved token for the imaginary unit in parsed and printed expressions.
IMAGINARY_UNIT = "i"


def grlex_key(exponents: Exponents):
    """Sort key for graded lexicographic order (ascending)."""
    return (sum(exponents), exponents)


class Polynomial:
    """Immutable sparse polynomial over Gaussian rationals.

    All arithmetic requires both operands to share the same variable
    context (identical names, identical order); mixing contexts raises
    ``ValueError``.  Every operation returns a canonical polynomial: no
    zero terms stored, exponent tuples of the right length.
    """

    __slots__ = ("vars", "terms", "_hash")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponents, ScalarLike]):
        vs = tuple(variables)
        if len(set(vs)) != len(vs):
            raise ValueError(f"duplicate variable names in {vs}")
        if IMAGINARY_UNIT in vs:
            raise ValueError(f"{IMAGINARY_UNIT!r} is reserved for the imaginary unit")
        n = len(vs)
        clean: dict[Exponents, GaussianRational] = {}
        for exps, coeff in terms.items():
            e = tuple(exps)
            if len(e) != n or any((not isinstance(k, int)) or k < 0 for k in e):
                raise ValueError(f"bad exponent tuple {e} for {n} variables")
            c = GaussianRational.coerce(coeff)
            if not c.is_zero():
                if e in clean:
                    c = clean[e] + c
                    if c.is_zero():
                        del clean[e]
                        continue
                clean[e] = c
        object.__setattr__(self, "vars", vs)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "Polynomial":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables: Sequence[str], value: ScalarLike) -> "Polynomial":
        vs = tuple(variables)
        return cls(vs, {(0,) * len(vs): value})

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "Polynomial":
        vs = tuple(variables)
        if name not in vs:
            raise ValueError(f"unknown variable {name!r} in context {vs}")
        exps = tuple(1 if v == name else 0 for v in vs)
        return cls(vs, {exps: 1})

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> GaussianRational:
        """The scalar value of a constant polynomial (zero included)."""
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        if not self.terms:
            return ZERO
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        if not self.terms:
            raise ValueError("degree of the zero polynomial is undefined")
        return max(sum(e) for e in self.terms)

    def degree_in(self, var: str) -> int:
        """Degree in one variable: 0 when the variable does not occur, -1 for zero."""
        i = self._index(var)
        return max((e[i] for e in self.terms), default=-1)

    def support_vars(self) -> tuple[str, ...]:
        """Variables that actually occur, in declared order."""
        used = [False] * len(self.vars)
        for e in self.terms:
            for k, exp in enumerate(e):
                if exp:
                    used[k] = True
        return tuple(v for v, u in zip(self.vars, used) if u)

    def leading_term(self) -> tuple[Exponents, GaussianRational]:
        """Greatest term under graded lex; errors on the zero polynomial."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=grlex_key)
        return e, self.terms[e]

    def sorted_terms(self) -> list[tuple[Exponents, GaussianRational]]:
        """Terms in descending graded-lex order (the printing order)."""
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    def _index(self, var: str) -> int:
        try:
            return self.vars.index(var)
        except ValueError:
            raise ValueError(f"unknown variable {var!r} in context {self.vars}") from None

    # -- ring arithmetic ---------------------------------------------------

    def __add__(self, other: Union["Polynomial", ScalarLike]) -> "Polynomial":
        return self._raw(self.vars, _sum_terms(self.terms, self._operand(other).terms, 1))

    __radd__ = __add__

    def __sub__(self, other: Union["Polynomial", ScalarLike]) -> "Polynomial":
        return self._raw(self.vars, _sum_terms(self.terms, self._operand(other).terms, -1))

    def __rsub__(self, other: ScalarLike) -> "Polynomial":
        return self._operand(other) - self

    def __neg__(self) -> "Polynomial":
        return self._raw(self.vars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: Union["Polynomial", ScalarLike]) -> "Polynomial":
        other = self._operand(other)
        if not self.terms or not other.terms:
            return Polynomial.zero(self.vars)
        packing = _Packing(
            1 + _max_exponent(self.terms) + _max_exponent(other.terms), len(self.vars)
        )
        product = _mul_terms(packing.pack(self.terms), packing.pack(other.terms))
        return self._raw(self.vars, packing.unpack_terms(product))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return _power(self, exponent, Polynomial.constant(self.vars, 1))

    def scale(self, factor: ScalarLike) -> "Polynomial":
        return self * factor

    def _operand(self, other) -> "Polynomial":
        """``other`` as a polynomial of this context; scalars become constants."""
        if not isinstance(other, Polynomial):
            return Polynomial.constant(self.vars, other)
        if self.vars != other.vars:
            raise ValueError(f"variable context mismatch: {self.vars} vs {other.vars}")
        return other

    @classmethod
    def _raw(cls, variables, terms) -> "Polynomial":
        """Internal: wrap an already-canonical term dict without re-checking."""
        p = object.__new__(cls)
        object.__setattr__(p, "vars", variables)
        object.__setattr__(p, "terms", terms)
        object.__setattr__(p, "_hash", None)
        return p

    # -- calculus and substitution -----------------------------------------

    def diff(self, var: str) -> "Polynomial":
        """Exact formal partial derivative."""
        i = self._index(var)
        out: dict[Exponents, GaussianRational] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            d = list(e)
            d[i] -= 1
            out[tuple(d)] = c * e[i]
        return self._raw(self.vars, out)

    def substitute(self, assignment: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Replace every variable by a polynomial and expand exactly.

        All assigned polynomials must share one variable context, which
        becomes the context of the result.  Every variable of this
        polynomial must be assigned (missing assignments raise).
        """
        missing = [v for v in self.vars if v not in assignment]
        if missing:
            raise ValueError(f"missing assignment for {missing}")
        images = [assignment[v] for v in self.vars]
        target = images[0].vars if images else ()
        for img in images:
            if img.vars != target:
                raise ValueError("assigned polynomials use inconsistent variable contexts")
        return _compose(self.terms, images, Polynomial.constant(target, 1))

    def substitute_path(self, path: Sequence["LaurentPoly"]) -> "LaurentPoly":
        """Compose with a curve whose coordinates are Laurent polynomials.

        The path supplies one Laurent polynomial per variable; the result is
        the exact Laurent polynomial p(x_1(t), ..., x_n(t)).
        """
        coords = tuple(path)
        if len(coords) != len(self.vars):
            raise ValueError(
                f"path has {len(coords)} coordinates for {len(self.vars)} variables"
            )
        t_var = coords[0].var if coords else "t"
        return _compose(self.terms, coords, LaurentPoly.one(t_var))

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, point: Sequence[complex]) -> complex:
        """Numeric evaluation through the compiled kernel of :mod:`polyproper.numeric`."""
        values = [complex(p) for p in point]
        if len(values) != len(self.vars):
            raise ValueError(f"point has dimension {len(values)}, expected {len(self.vars)}")
        table = TermTable([self], len(self.vars))
        return complex(table.evaluate(np.array([values]))[0, 0])

    def evaluate_exact(self, point: Sequence[ScalarLike]) -> GaussianRational:
        """Exact evaluation at Gaussian-rational coordinates: every variable specialised."""
        values = [GaussianRational.coerce(p) for p in point]
        if len(values) != len(self.vars):
            raise ValueError(f"point has dimension {len(values)}, expected {len(self.vars)}")
        return Specialisation([self], 0).at(values)[0].constant_value()

    # -- comparison and printing --------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.vars == other.vars and self.terms == other.terms
        return NotImplemented

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.vars, tuple(sorted(self.terms.items(), key=lambda t: t[0]))))
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return f"Polynomial({self.vars!r}, {str(self)!r})"

    def __str__(self) -> str:
        return _render(self.sorted_terms(), self._mono_str)

    def _mono_str(self, exponents: Exponents) -> str:
        parts = []
        for v, e in zip(self.vars, exponents):
            if e == 1:
                parts.append(v)
            elif e > 1:
                parts.append(f"{v}^{e}")
        return "*".join(parts)


def _sum_terms(a: Mapping, b: Mapping, sign: int) -> dict:
    """The terms of a + b (``sign`` 1) or a - b (``sign`` -1); sums that vanish are left out."""
    out = dict(a)
    for e, c in b.items():
        old = out.get(e)
        if old is None:
            out[e] = c if sign > 0 else -c
            continue
        s = old + c if sign > 0 else old - c
        if s.is_zero():
            del out[e]
        else:
            out[e] = s
    return out


def _max_exponent(terms: Mapping[Exponents, GaussianRational]) -> int:
    return max(max(e, default=0) for e in terms)


class _Packing:
    """Exponent tuples packed into ints whose order is graded lex.

    A key holds the total degree and then e_0, ..., e_{n-1} as digits in
    ``base``.  While every exponent stays below ``base``, keys add like
    exponent tuples (Kronecker substitution) and compare like
    :func:`grlex_key`.
    """

    __slots__ = ("base", "n", "weights")

    def __init__(self, base: int, n: int):
        self.base = base
        self.n = n
        top = base**n
        self.weights = [top + base ** (n - 1 - i) for i in range(n)]

    def pack(self, terms: Mapping[Exponents, GaussianRational]) -> dict[int, GaussianRational]:
        w = self.weights
        return {sum(map(mul, e, w)): c for e, c in terms.items()}

    def unpack(self, key: int) -> Exponents:
        e = [0] * self.n
        for i in range(self.n - 1, -1, -1):
            key, e[i] = divmod(key, self.base)
        return tuple(e)

    def unpack_terms(self, terms: Mapping[int, GaussianRational]) -> dict:
        unpack = self.unpack
        return {unpack(k): c for k, c in terms.items()}


class WorkLimitExceeded(ArithmeticError):
    """Exact arithmetic under :func:`work_limit` needed more than its limit."""


class _Meter:
    __slots__ = ("limit", "spent")

    def __init__(self, limit: int):
        self.limit = limit
        self.spent = 0

    def charge(self, pairs: int) -> None:
        self.spent += pairs
        if self.spent > self.limit:
            raise WorkLimitExceeded(
                f"exact work exceeds the budget of {self.limit} term pairs"
            )


_METER: ContextVar[_Meter | None] = ContextVar("polyproper_work_meter", default=None)


@contextmanager
def work_limit(limit: int):
    """Meter the kernel's work inside the block; see the module docstring."""
    token = _METER.set(_Meter(limit))
    try:
        yield
    finally:
        _METER.reset(token)


def _cleared(terms: Mapping) -> tuple[int, list]:
    """(den, [(key, re, im)]): Gaussian-integer numerators over one denominator."""
    dens = {c.re.denominator for c in terms.values()}
    dens.update(c.im.denominator for c in terms.values())
    den = lcm(*dens)
    items = [
        (k, c.re.numerator * (den // c.re.denominator), c.im.numerator * (den // c.im.denominator))
        for k, c in terms.items()
    ]
    return den, items


def _normalised(acc_re: dict, acc_im: dict, den: int) -> dict:
    """{key: (re + i*im) / den} over int accumulators with the same keys.

    Each coefficient is normalised once; coefficients that are 0 are left out.
    """
    make = GaussianRational._make
    out = {}
    for k, re in acc_re.items():
        im = acc_im[k]
        if re or im:
            out[k] = make(Fraction(re, den), Fraction(im, den))
    return out


def _mul_terms(a: Mapping[int, GaussianRational], b: Mapping[int, GaussianRational]) -> dict:
    """The product of two term dicts keyed by int exponents that add."""
    da, ia = _cleared(a)
    db, ib = _cleared(b)
    meter = _METER.get()
    if meter is not None:
        meter.charge(len(ia) * len(ib))
    acc_re: dict[int, int] = {}
    acc_im: dict[int, int] = {}
    get_re, get_im = acc_re.get, acc_im.get
    for ka, ar, ai in ia:
        for kb, br, bi in ib:
            k = ka + kb
            acc_re[k] = get_re(k, 0) + ar * br - ai * bi
            acc_im[k] = get_im(k, 0) + ar * bi + ai * br
    return _normalised(acc_re, acc_im, da * db)


def _exact_quotient(p: "Polynomial", q: "Polynomial") -> dict | None:
    """The terms of p / q when q divides p, else None (p, q nonzero, one context).

    Over cleared numerators p = P/dp and q = Q/dq, let L be the graded-lex
    leading coefficient of Q and N = |L|^2.  When q divides p, Gauss's lemma
    over the Gaussian integers puts N*P/Q in Z[i][x], so dividing N*P by Q
    in graded-lex order takes only exact Gaussian-integer steps; a step that
    is not exact, like a leading monomial that lead(Q) does not divide,
    proves that q does not divide p.  No remainder monomial exceeds the total
    degree of p, which bounds the packing base.
    """
    packing = _Packing(1 + max(p.total_degree(), q.total_degree()), len(p.vars))
    dp, ip = _cleared(packing.pack(p.terms))
    dq, iq = _cleared(packing.pack(q.terms))
    iq.sort(reverse=True)
    (lead, lr, li), rest = iq[0], iq[1:]
    lead_exps = packing.unpack(lead)
    norm = lr * lr + li * li
    rem_re = {k: re * norm for k, re, _ in ip}
    rem_im = {k: im * norm for k, _, im in ip}
    quot_re: dict[int, int] = {}
    quot_im: dict[int, int] = {}
    meter = _METER.get()
    while rem_re:
        if meter is not None:
            meter.charge(len(iq))
        k = max(rem_re)
        rr, ri = rem_re.pop(k), rem_im.pop(k)
        if any(a < b for a, b in zip(packing.unpack(k), lead_exps)):
            return None
        # (rr + i*ri) / L = (rr + i*ri) * conj(L) / N
        cr, xr = divmod(rr * lr + ri * li, norm)
        ci, xi = divmod(ri * lr - rr * li, norm)
        if xr or xi:
            return None
        shift = k - lead
        quot_re[shift] = cr * dq
        quot_im[shift] = ci * dq
        for kq, qr, qi in rest:
            kk = shift + kq
            re = rem_re.get(kk, 0) - (cr * qr - ci * qi)
            im = rem_im.get(kk, 0) - (cr * qi + ci * qr)
            if re or im:
                rem_re[kk] = re
                rem_im[kk] = im
            else:
                rem_re.pop(kk, None)
                rem_im.pop(kk, None)
    return packing.unpack_terms(_normalised(quot_re, quot_im, dp * norm))


def _horner(coeffs: Mapping[int, object], x, den=None):
    """sum_k coeffs[k] * x^k * den^(d - k) over ring elements, d the largest k.

    One product by ``x`` per degree; ``den`` (absent means 1) is raised only
    as far as the coefficients present need.  ``coeffs`` is nonempty, and its
    values, ``x`` and ``den`` are all Polynomials or all LaurentPolys.
    """
    d = max(coeffs)
    acc = coeffs[d]
    scale, reached = den, 1  # den^reached
    for k in range(d - 1, -1, -1):
        acc = acc * x
        c = coeffs.get(k)
        if c is None:
            continue
        if den is not None:
            while reached < d - k:
                scale, reached = scale * den, reached + 1
            c = c * scale
        acc = acc + c
    return acc


def _compose(terms: Mapping[Exponents, GaussianRational], images: Sequence, one):
    """The exact sum of c * prod_i images[i]^e[i] over the terms {e: c}.

    ``images`` are elements of one ring (Polynomial or LaurentPoly) and
    ``one`` is its constant 1.  Horner's rule in the first variable, whose
    coefficients are composed the same way in the others.
    """
    if not terms or not images:
        return one._operand(terms.get((), ZERO))  # zero, or a constant
    groups: dict[int, dict] = {}
    for e, c in terms.items():
        groups.setdefault(e[0], {})[e[1:]] = c
    rest = images[1:]
    return _horner({k: _compose(t, rest, one) for k, t in groups.items()}, images[0])


class Specialisation:
    """Polynomials of one context with their trailing variables fixed, compiled once.

    The first ``head`` variables stay; :meth:`at` replaces the others by
    exact values.  A term c * x^a * y^b of a polynomial whose largest
    trailing degree is D is kept as the cleared numerator of c, split by
    (a, b).  At values y = Y / d, with Y Gaussian integers over one common
    denominator d, the coefficient of x^a is
    sum_b num(c) * Y^b * d^(D - |b|) over den(c) * d^D: int arithmetic and
    one normalisation.
    """

    __slots__ = ("vars", "degrees", "compiled")

    def __init__(self, polys: Sequence[Polynomial], head: int):
        self.vars = polys[0].vars[:head]
        tail = len(polys[0].vars) - head
        degrees = [0] * tail
        self.compiled = []
        for p in polys:
            den, items = _cleared(p.terms)
            terms = []
            for e, re, im in items:
                b = e[head:]
                for j, k in enumerate(b):
                    if k > degrees[j]:
                        degrees[j] = k
                terms.append((e[:head], b, sum(b), re, im))
            top = max((t[2] for t in terms), default=0)
            self.compiled.append((den, top, terms))
        self.degrees = degrees

    def at(self, values: Sequence[ScalarLike]) -> list[Polynomial]:
        """Every polynomial with the trailing variables set to ``values``, exactly."""
        vals = [GaussianRational.coerce(v) for v in values]
        d = lcm(*(c.re.denominator for c in vals), *(c.im.denominator for c in vals))
        powers = []
        for c, deg in zip(vals, self.degrees):
            yr, yi = c.re.numerator * (d // c.re.denominator), c.im.numerator * (d // c.im.denominator)
            table = [(1, 0)]
            for _ in range(deg):
                r, i = table[-1]
                table.append((r * yr - i * yi, r * yi + i * yr))
            powers.append(table)
        d_powers = [1]
        for _ in range(max((top for _, top, _ in self.compiled), default=0)):
            d_powers.append(d_powers[-1] * d)
        monomials: dict[tuple, tuple[int, int]] = {}
        out = []
        for den, top, terms in self.compiled:
            acc_re: dict = {}
            acc_im: dict = {}
            for a, b, deg, re, im in terms:
                m = monomials.get(b)
                if m is None:
                    mr, mi = 1, 0
                    for table, k in zip(powers, b):
                        if k:
                            pr, pi = table[k]
                            mr, mi = mr * pr - mi * pi, mr * pi + mi * pr
                    m = monomials[b] = (mr, mi)
                s = d_powers[top - deg]
                mr, mi = m
                acc_re[a] = acc_re.get(a, 0) + (re * mr - im * mi) * s
                acc_im[a] = acc_im.get(a, 0) + (re * mi + im * mr) * s
            out.append(Polynomial._raw(self.vars, _normalised(acc_re, acc_im, den * d_powers[top])))
        return out


def _render(terms, mono) -> str:
    """Print (exponent, coefficient) pairs in the given order; ``mono`` prints an exponent."""
    pieces = []
    for e, c in terms:
        neg, body = _term_str(c, mono(e))
        if pieces:
            pieces.append(" - " if neg else " + ")
        elif neg:
            pieces.append("-")
        pieces.append(body)
    return "".join(pieces) or "0"


def _term_str(coeff: GaussianRational, mono: str) -> tuple[bool, str]:
    """Split a term into (is_negative, printable body without sign)."""
    neg = coeff.re < 0 or (coeff.re == 0 and coeff.im < 0)
    mag = -coeff if neg else coeff
    mixed = bool(mag.re) and bool(mag.im)
    if not mono:
        s = str(mag)
        return neg, f"({s})" if mixed else s
    if mag.is_one():
        return neg, mono
    if mag.re == 0 and mag.im == 1:
        return neg, f"{IMAGINARY_UNIT}*{mono}"
    s = str(mag)
    return neg, (f"({s})*{mono}" if mixed else f"{s}*{mono}")


class LaurentPoly:
    """Univariate Laurent polynomial: finite map exponent -> nonzero scalar.

    Exponents are arbitrary integers.  ``degree`` and ``order`` (max and min
    exponent) are defined only for nonzero polynomials.
    """

    __slots__ = ("var", "terms")

    def __init__(self, var: str, terms: Mapping[int, ScalarLike]):
        clean: dict[int, GaussianRational] = {}
        for e, c in terms.items():
            if not isinstance(e, int):
                raise ValueError(f"Laurent exponent must be an integer, got {e!r}")
            coeff = GaussianRational.coerce(c)
            if not coeff.is_zero():
                clean[e] = coeff
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @classmethod
    def zero(cls, var: str = "t") -> "LaurentPoly":
        return cls(var, {})

    @classmethod
    def one(cls, var: str = "t") -> "LaurentPoly":
        return cls(var, {0: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        if not self.terms:
            raise ValueError("degree of the zero Laurent polynomial is undefined")
        return max(self.terms)

    def order(self) -> int:
        if not self.terms:
            raise ValueError("order of the zero Laurent polynomial is undefined")
        return min(self.terms)

    def coefficient(self, exponent: int) -> GaussianRational:
        return self.terms.get(exponent, ZERO)

    def constant_term(self) -> GaussianRational:
        return self.terms.get(0, ZERO)

    def _operand(self, other) -> "LaurentPoly":
        """``other`` as a Laurent polynomial in this variable; scalars become constants."""
        if not isinstance(other, LaurentPoly):
            return LaurentPoly(self.var, {0: other})
        if self.var != other.var:
            raise ValueError(f"Laurent variable mismatch: {self.var!r} vs {other.var!r}")
        return other

    def __add__(self, other: Union["LaurentPoly", ScalarLike]) -> "LaurentPoly":
        return LaurentPoly(self.var, _sum_terms(self.terms, self._operand(other).terms, 1))

    def __sub__(self, other: Union["LaurentPoly", ScalarLike]) -> "LaurentPoly":
        return LaurentPoly(self.var, _sum_terms(self.terms, self._operand(other).terms, -1))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.var, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: Union["LaurentPoly", ScalarLike]) -> "LaurentPoly":
        other = self._operand(other)
        if not self.terms or not other.terms:
            return LaurentPoly.zero(self.var)
        return LaurentPoly(self.var, _mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "LaurentPoly":
        # 0**0 is the empty product: the constant 1.
        if not isinstance(exponent, int):
            raise ValueError("exponent must be an integer")
        if exponent < 0:
            # negative powers exist only for single-term polynomials, e.g. t^-2
            if len(self.terms) != 1:
                raise ValueError("negative power of a multi-term Laurent polynomial")
            ((e, c),) = self.terms.items()
            return LaurentPoly(self.var, {e * exponent: ONE / c ** (-exponent)})
        return _power(self, exponent, LaurentPoly.one(self.var))

    def evaluate(self, t: complex) -> complex:
        tc = complex(t)
        if tc == 0 and any(e < 0 for e in self.terms):
            raise ZeroDivisionError("Laurent polynomial with poles cannot be evaluated at 0")
        return sum((c.to_complex() * tc**e for e, c in sorted(self.terms.items())), 0j)

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            return self.var == other.var and self.terms == other.terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.var, tuple(sorted(self.terms.items()))))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return f"LaurentPoly({self.var!r}, {str(self)!r})"

    def __str__(self) -> str:
        return _render(sorted(self.terms.items(), reverse=True), self._mono_str)

    def _mono_str(self, e: int) -> str:
        return "" if e == 0 else (self.var if e == 1 else f"{self.var}^{e}")
