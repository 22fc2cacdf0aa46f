"""Sparse multivariate polynomials with exact Gaussian-rational coefficients.

A polynomial is a map from exponent tuples to nonzero scalars, over a fixed
ordered tuple of variable names:

    Polynomial(("x", "y"), {(2, 0): 1, (0, 1): -1})   # x^2 - y

``LaurentPoly`` is the single-variable companion used for curves
t -> (x_1(t), ..., x_n(t)) with integer (possibly negative) exponents.

Both store one positive int denominator ``den`` and a dict ``nums`` from
monomial keys to Gaussian-integer numerators ``(re, im)``: the coefficient
of a key is (re + i*im) / den.  The stored form is reduced, so it is
canonical: gcd(den, every numerator) = 1 and no ``(0, 0)`` entry is kept.
Equality and hashing compare it directly.  A Laurent key is its exponent.
A multivariate key packs the total degree and then e_0, ..., e_{n-1} as
digits of :data:`WIDTH` bits, so keys compare like :func:`grlex_key`
(graded lexicographic order in the declared variable order) and the key of
a product of monomials is the sum of their keys.  A total degree above
:data:`MAX_DEGREE` would carry between digits and raises ``ValueError``.

Every operation works on the stored form in int arithmetic and reduces its
result once with ``math.gcd``: sums (:func:`_sum_terms`), products
(:func:`_mul_terms`, one kernel for scaling and powers too), exact division
(:func:`_exact_quotient`), the views of a polynomial in one variable
(:func:`as_univariate`, :func:`lead_in`, :func:`mul_power`) or, as int
rows, in two (:func:`int_rows`, with :func:`from_int_row` the way back),
and :class:`Specialisation`.  Composition (:func:`_compose`) and the
substitutions of :mod:`polyproper.elimination` are Horner's rule over ring
operations (:func:`_horner`).  ``GaussianRational`` coefficients and
exponent tuples are built only at the boundary: the ``terms`` view (built on
first use and kept), printing and :meth:`Polynomial.stored_terms`, which
the numeric layer reads.

Exact work can be metered.  Inside ``with work_limit(n):`` the kernel
charges every product its pairs of terms and every exact division its
quotient terms times the divisor's, before doing the work (other int
work charges itself through :func:`charge`), and raises
:class:`WorkLimitExceeded` once more than ``n`` pairs are spent.  Outside
such a block nothing is counted.

:class:`Specialisation` fixes the trailing variables of a set of
polynomials at exact values, for many values in turn: each polynomial is
compiled once to its numerators split by (leading exponents, trailing
exponents), so one set of values costs int powers of the values and one
reduction per result.  Exact evaluation (:meth:`Polynomial.evaluate_exact`)
is the specialisation of every variable.  Scalars enter the stored form one
way (:func:`stored_values`), for the constructors and for specialisation
alike: one denominator over Gaussian-integer numerators, each part read by
``as_integer_ratio``.

:class:`RowEchelon` is the reduced row echelon form g = M·p of a set of
polynomials over their monomials; it applies M to values in the stored form,
pulls polynomials back along it and writes g - y with y symbolic.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence

import numpy as np

from .numeric import TermTable
from .scalar import GaussianRational, ScalarLike, _power

Exponents = tuple  # tuple[int, ...], one entry per variable

#: Reserved token for the imaginary unit in parsed and printed expressions.
IMAGINARY_UNIT = "i"

#: Bits per digit of a packed monomial key.
WIDTH = 16
#: Largest total degree a packed key can hold.
MAX_DEGREE = (1 << WIDTH) - 1


def grlex_key(exponents: Exponents):
    """Sort key for graded lexicographic order (ascending)."""
    return (sum(exponents), exponents)


def _check_degree(degree: int) -> None:
    if degree > MAX_DEGREE:
        raise ValueError(
            f"total degree {degree} exceeds the limit {MAX_DEGREE} of packed monomials"
        )


def _pack(exponents: Exponents) -> int:
    _check_degree(sum(exponents))
    key = sum(exponents)
    for k in exponents:
        key = (key << WIDTH) | k
    return key


def _unpack(key: int, n: int) -> Exponents:
    e = [0] * n
    for i in range(n - 1, -1, -1):
        e[i] = key & MAX_DEGREE
        key >>= WIDTH
    return tuple(e)


def _scalar(den: int, re: int, im: int) -> GaussianRational:
    return GaussianRational(Fraction(re, den), Fraction(im, den))


def _reduced(den: int, nums: dict) -> tuple[int, dict]:
    """(den, nums) divided by the gcd of den and every numerator; nums has no (0, 0)."""
    g = den
    for re, im in nums.values():
        if g == 1:
            return den, nums
        g = gcd(g, re, im)
    if g == 1:
        return den, nums
    return den // g, {k: (re // g, im // g) for k, (re, im) in nums.items()}


class _Sparse:
    """The stored form and the ring arithmetic shared by both polynomial kinds.

    A subclass sets ``den``, ``nums``, ``_terms`` and ``_hash`` and supplies
    ``_like`` (a stored form in the same ring), ``_operand`` (coercion of the
    other operand) and ``_exponents`` (a key as the ``terms`` view shows it).
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def terms(self) -> dict:
        """{exponents: GaussianRational}, built from the stored form on first use."""
        t = self._terms
        if t is None:
            den, exps = self.den, self._exponents
            t = {exps(k): _scalar(den, re, im) for k, (re, im) in self.nums.items()}
            object.__setattr__(self, "_terms", t)
        return t

    def is_zero(self) -> bool:
        return not self.nums

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __add__(self, other):
        o = self._operand(other)
        return self._like(*_sum_terms(self.den, self.nums, o.den, o.nums, 1))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._operand(other)
        return self._like(*_sum_terms(self.den, self.nums, o.den, o.nums, -1))

    def __rsub__(self, other):
        return self._operand(other) - self

    def __neg__(self):
        return self._like(self.den, {k: (-re, -im) for k, (re, im) in self.nums.items()})

    def __mul__(self, other):
        o = self._operand(other)
        if not self.nums or not o.nums:
            return self._like(1, {})
        self._check_product(o)
        return self._like(*_mul_terms(self.den, self.nums, o.den, o.nums))

    __rmul__ = __mul__

    def scale(self, factor: ScalarLike):
        return self * factor

    def _check_product(self, other) -> None:
        """Raise if the product of self and other cannot be stored."""


class Polynomial(_Sparse):
    """Immutable sparse polynomial over Gaussian rationals.

    All arithmetic requires both operands to share the same variable
    context (identical names, identical order); mixing contexts raises
    ``ValueError``.  Every operation returns the reduced stored form (see
    the module docstring).
    """

    __slots__ = ("vars", "den", "nums", "_terms", "_hash")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponents, ScalarLike]):
        vs = tuple(variables)
        if len(set(vs)) != len(vs):
            raise ValueError(f"duplicate variable names in {vs}")
        if IMAGINARY_UNIT in vs:
            raise ValueError(f"{IMAGINARY_UNIT!r} is reserved for the imaginary unit")
        n = len(vs)
        keys = []
        for exps in terms:
            e = tuple(exps)
            if len(e) != n or any((not isinstance(k, int)) or k < 0 for k in e):
                raise ValueError(f"bad exponent tuple {e} for {n} variables")
            keys.append(_pack(e))
        d, nums = stored_values(list(terms.values()))
        _init(self, ("vars", vs), *_reduced(d, {keys[j]: c for j, c in nums.items()}))

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

    @classmethod
    def _raw(cls, variables: tuple, den: int, nums: dict) -> "Polynomial":
        """Internal: wrap a stored form that is already reduced."""
        return _init(object.__new__(cls), ("vars", variables), den, nums)

    def _like(self, den: int, nums: dict) -> "Polynomial":
        return Polynomial._raw(self.vars, den, nums)

    def _exponents(self, key: int) -> Exponents:
        return _unpack(key, len(self.vars))

    def _shift(self, var: str) -> int:
        """The bit offset of ``var``'s digit in a packed key."""
        return WIDTH * (len(self.vars) - 1 - self._index(var))

    # -- basic queries ----------------------------------------------------

    def is_constant(self) -> bool:
        return not any(self.nums)

    def constant_value(self) -> GaussianRational:
        """The scalar value of a constant polynomial (zero included)."""
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return _scalar(self.den, *self.nums.get(0, (0, 0)))

    def total_degree(self) -> int:
        if not self.nums:
            raise ValueError("degree of the zero polynomial is undefined")
        return max(self.nums) >> (WIDTH * len(self.vars))

    def degree_in(self, var: str) -> int:
        """Degree in one variable: 0 when the variable does not occur, -1 for zero."""
        s = self._shift(var)
        return max(((k >> s) & MAX_DEGREE for k in self.nums), default=-1)

    def support_vars(self) -> tuple[str, ...]:
        """Variables that actually occur, in declared order."""
        used = 0
        for k in self.nums:
            used |= k
        return tuple(v for v, e in zip(self.vars, self._exponents(used)) if e)

    def leading_term(self) -> tuple[Exponents, GaussianRational]:
        """Greatest term under graded lex; errors on the zero polynomial."""
        if not self.nums:
            raise ValueError("zero polynomial has no leading term")
        k = max(self.nums)
        return self._exponents(k), _scalar(self.den, *self.nums[k])

    def sorted_terms(self) -> list[tuple[Exponents, GaussianRational]]:
        """Terms in descending graded-lex order (the printing order)."""
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    def stored_terms(self) -> list[tuple[Exponents, int, int]]:
        """(exponents, re, im) per term: the coefficient is (re + i*im) / ``den``."""
        n = len(self.vars)
        return [(_unpack(k, n), re, im) for k, (re, im) in self.nums.items()]

    def in_context(self, variables: Sequence[str]) -> "Polynomial":
        """The same polynomial over ``variables``, which must include every variable that occurs."""
        vs = tuple(variables)
        where = {v: i for i, v in enumerate(vs)}
        missing = [v for v in self.support_vars() if v not in where]
        if missing:
            raise ValueError(f"variables {missing} occur but are not in the context {vs}")
        nums = {}
        for e, re, im in self.stored_terms():
            moved = [0] * len(vs)
            for v, k in zip(self.vars, e):
                if k:
                    moved[where[v]] = k
            nums[_pack(moved)] = (re, im)
        return Polynomial._raw(vs, self.den, nums)

    def _index(self, var: str) -> int:
        try:
            return self.vars.index(var)
        except ValueError:
            raise ValueError(f"unknown variable {var!r} in context {self.vars}") from None

    # -- ring arithmetic ---------------------------------------------------

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return _power(self, exponent, Polynomial.constant(self.vars, 1))

    def _operand(self, other) -> "Polynomial":
        """``other`` as a polynomial of this context; scalars become constants."""
        if not isinstance(other, Polynomial):
            return Polynomial.constant(self.vars, other)
        if self.vars != other.vars:
            raise ValueError(f"variable context mismatch: {self.vars} vs {other.vars}")
        return other

    def _check_product(self, other: "Polynomial") -> None:
        top = WIDTH * len(self.vars)
        _check_degree((max(self.nums) >> top) + (max(other.nums) >> top))

    # -- calculus and substitution -----------------------------------------

    def diff(self, var: str) -> "Polynomial":
        """Exact formal partial derivative."""
        s = self._shift(var)
        unit = (1 << (WIDTH * len(self.vars))) | (1 << s)
        out = {}
        for key, (re, im) in self.nums.items():
            k = (key >> s) & MAX_DEGREE
            if k:
                out[key - unit] = (re * k, im * k)
        return self._like(*_reduced(self.den, out))

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
        return _compose(self.den, self.stored_terms(), images, Polynomial.constant(target, 1))

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
        return _compose(self.den, self.stored_terms(), coords, LaurentPoly.one(t_var))

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
        values = list(point)
        if len(values) != len(self.vars):
            raise ValueError(f"point has dimension {len(values)}, expected {len(self.vars)}")
        return Specialisation([self], 0).at(values)[0].constant_value()

    # -- comparison and printing --------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.vars == other.vars and self.den == other.den and self.nums == other.nums
        return NotImplemented

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.vars, self.den, frozenset(self.nums.items())))
            object.__setattr__(self, "_hash", h)
        return h

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


def _init(p, context: tuple[str, object], den: int, nums: dict):
    """Set the slots of a new polynomial of either kind; returns it."""
    object.__setattr__(p, *context)
    object.__setattr__(p, "den", den)
    object.__setattr__(p, "nums", nums)
    object.__setattr__(p, "_terms", None)
    object.__setattr__(p, "_hash", None)
    return p


# -- the views of a polynomial in one variable --------------------------------


def as_univariate(p: Polynomial, var: str) -> dict[int, Polynomial]:
    """View p as a polynomial in ``var`` with polynomial coefficients.

    Coefficients stay in the full variable context (with ``var`` absent from
    their support), so all arithmetic remains in one ring.
    """
    s, top = p._shift(var), WIDTH * len(p.vars)
    buckets: dict[int, dict] = {}
    for key, c in p.nums.items():
        k = (key >> s) & MAX_DEGREE
        buckets.setdefault(k, {})[key - (k << s) - (k << top)] = c
    return {k: p._like(*_reduced(p.den, t)) for k, t in buckets.items()}


def lead_in(p: Polynomial, var: str) -> tuple[int, Polynomial]:
    """(degree, leading coefficient) of p viewed as univariate in ``var``.

    One scan of the terms; the zero polynomial gives (-1, 0).
    """
    s, top = p._shift(var), WIDTH * len(p.vars)
    deg = -1
    lead: dict = {}
    for key, c in p.nums.items():
        k = (key >> s) & MAX_DEGREE
        if k > deg:
            deg, lead = k, {}
        if k == deg:
            lead[key - (k << s) - (k << top)] = c
    return deg, p._like(*_reduced(p.den, lead))


def mul_power(p: Polynomial, var: str, k: int) -> Polynomial:
    """p * var^k."""
    if k == 0 or not p.nums:
        return p
    top = WIDTH * len(p.vars)
    _check_degree((max(p.nums) >> top) + k)
    step = k * ((1 << top) | (1 << p._shift(var)))
    return p._like(p.den, {key + step: c for key, c in p.nums.items()})


def int_rows(p: Polynomial, var: str, other: str | None) -> list[list[tuple[int, int]]]:
    """The numerators of p, in which only ``var`` and ``other`` occur, as rows.

    Entry [k][j] is the numerator (re, im) of the coefficient of
    var^k * other^j over ``p.den``, with (0, 0) where p has no such term;
    every row has the length deg_other(p) + 1 (1 when ``other`` is None).
    """
    s = p._shift(var)
    t, mask = (0, 0) if other is None else (p._shift(other), MAX_DEGREE)
    digits = [((key >> s) & MAX_DEGREE, (key >> t) & mask, c) for key, c in p.nums.items()]
    width = 1 + max(j for _, j, _ in digits)
    rows = [[(0, 0)] * width for _ in range(1 + max(k for k, _, _ in digits))]
    for k, j, c in digits:
        rows[k][j] = c
    return rows


def from_int_row(
    p: Polynomial, other: str | None, den: int, row: Sequence[tuple[int, int]]
) -> Polynomial:
    """sum_j (re_j + i*im_j) / den * other^j in the context of p, for ``row`` = [(re_j, im_j)]."""
    unit = 0
    if other is not None:
        _check_degree(len(row) - 1)
        unit = (1 << (WIDTH * len(p.vars))) | (1 << p._shift(other))
    return p._like(*_reduced(den, {j * unit: c for j, c in enumerate(row) if c != (0, 0)}))


# -- the int kernels ------------------------------------------------------------


def _sum_terms(da: int, a: Mapping, db: int, b: Mapping, sign: int) -> tuple[int, dict]:
    """The stored form of a + b (``sign`` 1) or a - b (``sign`` -1)."""
    den = da if da == db else lcm(da, db)
    sa, sb = den // da, sign * (den // db)
    out = dict(a) if sa == 1 else {k: (re * sa, im * sa) for k, (re, im) in a.items()}
    for k, (br, bi) in b.items():
        if sb != 1:
            br, bi = br * sb, bi * sb
        old = out.get(k)
        if old is None:
            out[k] = (br, bi)
            continue
        re, im = old[0] + br, old[1] + bi
        if re or im:
            out[k] = (re, im)
        else:
            del out[k]
    return _reduced(den, out)


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


def charge(pairs: int) -> None:
    """Charge ``pairs`` of work to the meter of the enclosing :func:`work_limit`, if any."""
    meter = _METER.get()
    if meter is not None:
        meter.charge(pairs)


def _mul_terms(da: int, a: Mapping, db: int, b: Mapping) -> tuple[int, dict]:
    """The stored form of the product of two stored forms whose keys add.

    Real operands, the common case, skip the imaginary products.
    """
    meter = _METER.get()
    if meter is not None:
        meter.charge(len(a) * len(b))
    acc_re: dict[int, int] = {}
    get_re = acc_re.get
    if any(im for _, im in a.values()) or any(im for _, im in b.values()):
        acc_im: dict[int, int] = {}
        get_im = acc_im.get
        ib = [(kb, br, bi) for kb, (br, bi) in b.items()]
        for ka, (ar, ai) in a.items():
            for kb, br, bi in ib:
                k = ka + kb
                acc_re[k] = get_re(k, 0) + ar * br - ai * bi
                acc_im[k] = get_im(k, 0) + ar * bi + ai * br
        nums = {}
        for k, re in acc_re.items():
            im = acc_im[k]
            if re or im:
                nums[k] = (re, im)
    else:
        rb = [(kb, br) for kb, (br, _) in b.items()]
        for ka, (ar, _) in a.items():
            for kb, br in rb:
                k = ka + kb
                acc_re[k] = get_re(k, 0) + ar * br
        nums = {k: (re, 0) for k, re in acc_re.items() if re}
    return _reduced(da * db, nums)


def _exact_quotient(p: Polynomial, q: Polynomial) -> tuple[int, dict] | None:
    """The stored form of p / q when q divides p, else None (p, q nonzero, one context).

    Over the stored forms p = P/dp and q = Q/dq, let L be the graded-lex
    leading coefficient of Q and N = |L|^2.  When q divides p, Gauss's lemma
    over the Gaussian integers puts N*P/Q in Z[i][x], so dividing N*P by Q
    in graded-lex order takes only exact Gaussian-integer steps; a step that
    is not exact, like a leading monomial that lead(Q) does not divide,
    proves that q does not divide p.  A constant q multiplies p by
    1/q = dq * conj(L) / N instead.
    """
    if q.is_constant():
        ((lr, li),) = q.nums.values()
        inverse = _reduced(lr * lr + li * li, {0: (q.den * lr, -q.den * li)})
        return _mul_terms(p.den, p.nums, *inverse)
    iq = sorted(((k, re, im) for k, (re, im) in q.nums.items()), reverse=True)
    (lead, lr, li), rest = iq[0], iq[1:]
    lead_digits = [(s, (lead >> s) & MAX_DEGREE) for s in range(0, WIDTH * len(p.vars), WIDTH)]
    norm = lr * lr + li * li
    rem = {k: (re * norm, im * norm) for k, (re, im) in p.nums.items()}
    quot: dict[int, tuple[int, int]] = {}
    meter = _METER.get()
    while rem:
        if meter is not None:
            meter.charge(len(iq))
        k = max(rem)
        rr, ri = rem.pop(k)
        if any((k >> s) & MAX_DEGREE < d for s, d in lead_digits):
            return None
        # (rr + i*ri) / L = (rr + i*ri) * conj(L) / N
        cr, xr = divmod(rr * lr + ri * li, norm)
        ci, xi = divmod(ri * lr - rr * li, norm)
        if xr or xi:
            return None
        shift = k - lead
        quot[shift] = (cr * q.den, ci * q.den)
        for kq, qr, qi in rest:
            kk = shift + kq
            old_r, old_i = rem.get(kk, (0, 0))
            re = old_r - (cr * qr - ci * qi)
            im = old_i - (cr * qi + ci * qr)
            if re or im:
                rem[kk] = (re, im)
            else:
                rem.pop(kk, None)
    return _reduced(p.den * norm, quot)


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


def _compose(den: int, terms: list, images: Sequence, one):
    """The exact sum of (re + i*im)/den * prod_i images[i]^e[i] over ``terms`` (e, re, im).

    ``images`` are elements of one ring (Polynomial or LaurentPoly) and
    ``one`` is its constant 1.  Horner's rule in the first variable, whose
    coefficients are composed the same way in the others.
    """
    if not terms or not images:  # zero, or the constant term
        return one._like(*_reduced(den, {0: (re, im) for _, re, im in terms}))
    groups: dict[int, list] = {}
    for e, re, im in terms:
        groups.setdefault(e[0], []).append((e[1:], re, im))
    rest = images[1:]
    return _horner({k: _compose(den, t, rest, one) for k, t in groups.items()}, images[0])


def stored_values(values: Sequence[ScalarLike]) -> tuple[int, dict]:
    """Exact scalars as one denominator d and numerators {index: (re, im)}, zeros left out.

    The real and imaginary parts of an int, Fraction, float, complex or
    ``GaussianRational`` are read exactly by ``as_integer_ratio``; any other
    type raises ``TypeError``.
    """
    parts = []
    for v in values:
        if isinstance(v, GaussianRational):
            re, im = v.re, v.im
        elif isinstance(v, (int, Fraction, float, complex)):
            re, im = v.real, v.imag
        else:
            raise TypeError(f"cannot coerce {type(v).__name__} to GaussianRational")
        parts.append((re.as_integer_ratio(), im.as_integer_ratio()))
    d = lcm(*(den for part in parts for _, den in part))
    return d, {
        j: (re * (d // rd), im * (d // idn))
        for j, ((re, rd), (im, idn)) in enumerate(parts)
        if re or im
    }


class RowEchelon:
    """The reduced row echelon form g = M·p of polynomials over their monomials.

    The columns are the monomials in descending graded-lex order.  Each row
    keeps its place: a column's pivot is the first row without a pivot that
    has the monomial, and a multiple of that row is taken off every other
    row that has it.  So each pivot monomial, the leading monomial of its
    row, occurs in no other row, no row is scaled, and M, a product of
    transvections, has determinant 1.  ``rows`` is g; ``matrix`` is M as
    rows of Gaussian-integer numerators over the int ``den``, or None when
    M is the identity.
    """

    __slots__ = ("rows", "den", "matrix")

    def __init__(self, polys: Sequence[Polynomial]):
        rows = [(p.den, p.nums) for p in polys]
        n = len(rows)
        m = [(1, {k: (1, 0)}) for k in range(n)]  # the rows of M, stored with column keys
        free = list(range(n))
        for key in sorted(set().union(*(p.nums for p in polys)), reverse=True):
            p = next((i for i in free if key in rows[i][1]), None)
            if p is None:
                continue
            free.remove(p)
            dp, pivot = rows[p]
            lr, li = pivot[key]
            norm = lr * lr + li * li
            for i, (di, row) in enumerate(rows):
                if i != p and key in row:
                    # c = row[key] / pivot[key] as a constant's stored form
                    ar, ai = row[key]
                    num = ((ar * lr + ai * li) * dp, (ai * lr - ar * li) * dp)
                    c = _reduced(di * norm, {0: num})
                    rows[i] = _sum_terms(di, row, *_mul_terms(dp, pivot, *c), -1)
                    m[i] = _sum_terms(*m[i], *_mul_terms(*m[p], *c), -1)
            if not free:
                break
        self.rows = tuple(Polynomial._raw(p.vars, *row) for p, row in zip(polys, rows))
        self.den, self.matrix = 1, None
        if any(nums != {k: (1, 0)} for k, (_, nums) in enumerate(m)):
            self.den = lcm(*(d for d, _ in m))
            self.matrix = tuple(
                tuple(
                    (re * (self.den // d), im * (self.den // d))
                    for re, im in (nums.get(k, (0, 0)) for k in range(n))
                )
                for d, nums in m
            )

    def apply(self, d: int, ys: Mapping[int, tuple[int, int]]) -> tuple[int, dict]:
        """M·v for v given as in :func:`stored_values`, in the same form."""
        if self.matrix is None:
            return d, ys
        out = {}
        for j, row in enumerate(self.matrix):
            re = im = 0
            for k, (mr, mi) in enumerate(row):
                vr, vi = ys.get(k, (0, 0))
                re, im = re + mr * vr - mi * vi, im + mr * vi + mi * vr
            if re or im:
                out[j] = (re, im)
        return self.den * d, out

    def shifted(self, values: Sequence[ScalarLike]) -> list[Polynomial]:
        """The rows less M·``values``, folded in exactly as constants."""
        d, ys = self.apply(*stored_values(values))
        return [
            row - Polynomial._raw(row.vars, *_reduced(d, {0: ys[j]} if j in ys else {}))
            for j, row in enumerate(self.rows)
        ]

    def less_targets(self, targets: Sequence[str]) -> list[Polynomial]:
        """The rows g_j - y_j over the rows' variables followed by ``targets`` = (y_1, ...).

        The target names are new to the context, one per row; the keys are
        moved past the new digits and each y_j is built from its key.
        """
        vs = self.rows[0].vars + tuple(targets)
        m, top = len(targets), WIDTH * len(vs)
        out = []
        for j, row in enumerate(self.rows):
            nums = {key << (WIDTH * m): c for key, c in row.nums.items()}
            nums[(1 << top) | (1 << (WIDTH * (m - 1 - j)))] = (-row.den, 0)
            out.append(Polynomial._raw(vs, row.den, nums))
        return out

    def pullback(self, p: Polynomial) -> Polynomial:
        """p(M·y) for p over the coordinates y of the vector M acts on."""
        if self.matrix is None:
            return p
        n = len(p.vars)
        units = [_pack(tuple(int(i == k) for i in range(n))) for k in range(n)]
        images = {}
        for v, row in zip(p.vars, self.matrix):
            nums = {u: c for u, c in zip(units, row) if c != (0, 0)}
            images[v] = Polynomial._raw(p.vars, *_reduced(self.den, nums))
        return p.substitute(images)


class Specialisation:
    """Polynomials of one context with their trailing variables fixed, compiled once.

    The first ``head`` variables stay; :meth:`at` replaces the others by
    exact values.  A term (re + i*im)/den * x^a * y^b of a polynomial whose
    largest trailing degree is D is kept as its numerator, split by (a, b).
    At values y = Y / d, with Y Gaussian integers over one common
    denominator d, the coefficient of x^a is
    sum_b (re + i*im) * Y^b * d^(D - |b|) over den * d^D: int arithmetic and
    one reduction.
    """

    __slots__ = ("vars", "degrees", "compiled")

    def __init__(self, polys: Sequence[Polynomial], head: int):
        self.vars = polys[0].vars[:head]
        tail = len(polys[0].vars) - head
        degrees = [0] * tail
        self.compiled = []
        for p in polys:
            terms = []
            for e, re, im in p.stored_terms():
                b = e[head:]
                for j, k in enumerate(b):
                    if k > degrees[j]:
                        degrees[j] = k
                terms.append((_pack(e[:head]), b, sum(b), re, im))
            top = max((t[2] for t in terms), default=0)
            self.compiled.append((p.den, top, terms))
        self.degrees = degrees

    def at(self, values: Sequence[ScalarLike]) -> list[Polynomial]:
        """Every polynomial with the trailing variables set to ``values``, exactly."""
        return self.at_stored(*stored_values(values))

    def at_stored(self, d: int, ys: Mapping[int, tuple[int, int]]) -> list[Polynomial]:
        """:meth:`at` for values given as in :func:`stored_values`."""
        powers = []
        for j, deg in enumerate(self.degrees):
            yr, yi = ys.get(j, (0, 0))
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
            acc: dict = {}
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
                old_r, old_i = acc.get(a, (0, 0))
                acc[a] = (old_r + (re * mr - im * mi) * s, old_i + (re * mi + im * mr) * s)
            nums = {a: c for a, c in acc.items() if c[0] or c[1]}
            out.append(Polynomial._raw(self.vars, *_reduced(den * d_powers[top], nums)))
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


class LaurentPoly(_Sparse):
    """Univariate Laurent polynomial: finite map exponent -> nonzero scalar.

    Exponents are arbitrary integers and are the keys of the stored form.
    ``degree`` and ``order`` (max and min exponent) are defined only for
    nonzero polynomials.
    """

    __slots__ = ("var", "den", "nums", "_terms", "_hash")

    def __init__(self, var: str, terms: Mapping[int, ScalarLike]):
        keys = list(terms)
        for e in keys:
            if not isinstance(e, int):
                raise ValueError(f"Laurent exponent must be an integer, got {e!r}")
        d, nums = stored_values(list(terms.values()))
        _init(self, ("var", var), *_reduced(d, {keys[j]: c for j, c in nums.items()}))

    @classmethod
    def zero(cls, var: str = "t") -> "LaurentPoly":
        return cls(var, {})

    @classmethod
    def one(cls, var: str = "t") -> "LaurentPoly":
        return cls(var, {0: 1})

    def _like(self, den: int, nums: dict) -> "LaurentPoly":
        return _init(object.__new__(LaurentPoly), ("var", self.var), den, nums)

    @staticmethod
    def _exponents(key: int) -> int:
        return key

    def degree(self) -> int:
        if not self.nums:
            raise ValueError("degree of the zero Laurent polynomial is undefined")
        return max(self.nums)

    def order(self) -> int:
        if not self.nums:
            raise ValueError("order of the zero Laurent polynomial is undefined")
        return min(self.nums)

    def coefficient(self, exponent: int) -> GaussianRational:
        return _scalar(self.den, *self.nums.get(exponent, (0, 0)))

    def constant_term(self) -> GaussianRational:
        return self.coefficient(0)

    def _operand(self, other) -> "LaurentPoly":
        """``other`` as a Laurent polynomial in this variable; scalars become constants."""
        if not isinstance(other, LaurentPoly):
            return LaurentPoly(self.var, {0: other})
        if self.var != other.var:
            raise ValueError(f"Laurent variable mismatch: {self.var!r} vs {other.var!r}")
        return other

    def __pow__(self, exponent: int) -> "LaurentPoly":
        # 0**0 is the empty product: the constant 1.
        if not isinstance(exponent, int):
            raise ValueError("exponent must be an integer")
        if exponent < 0:
            # negative powers exist only for single-term polynomials, e.g. t^-2
            if len(self.nums) != 1:
                raise ValueError("negative power of a multi-term Laurent polynomial")
            ((e, c),) = self.terms.items()
            return LaurentPoly(self.var, {e * exponent: 1 / c ** (-exponent)})
        return _power(self, exponent, LaurentPoly.one(self.var))

    def evaluate(self, t: complex) -> complex:
        tc = complex(t)
        if tc == 0 and any(e < 0 for e in self.nums):
            raise ZeroDivisionError("Laurent polynomial with poles cannot be evaluated at 0")
        den = self.den
        return sum(
            (complex(re / den, im / den) * tc**e for e, (re, im) in sorted(self.nums.items())), 0j
        )

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            return self.var == other.var and self.den == other.den and self.nums == other.nums
        return NotImplemented

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.var, self.den, frozenset(self.nums.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"LaurentPoly({self.var!r}, {str(self)!r})"

    def __str__(self) -> str:
        return _render(sorted(self.terms.items(), reverse=True), self._mono_str)

    def _mono_str(self, e: int) -> str:
        return "" if e == 0 else (self.var if e == 1 else f"{self.var}^{e}")
