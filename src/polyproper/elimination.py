"""Exact polynomial elimination machinery.

Everything here works over the Gaussian rationals with no floating point:
exact division, fraction-free determinants, resultants, multivariate gcd,
squarefree parts, and a deterministic variable-elimination cascade.  The
cascade is shared by the fiber solver (numeric targets enter
as exact rationals) and by the nonproperness computation (targets stay
symbolic).

The cascade eliminates variables one at a time.  Degree-1 pivots with a
constant leading coefficient are eliminated by direct substitution, which is
the resultant up to a nonzero constant factor and costs almost nothing; this
keeps triangular systems (the common shape for automorphism candidates) fast.
Both callers hand the cascade g - y' rather than f - y: g = M·f is the
reduced row echelon form of the components over their monomials
(:class:`polyproper.poly.RowEchelon`) and y' = M·y, one target coordinate
per equation.  Components that share leading monomials hide linear pivots,
which the reduction lays bare.  Remaining pivots go through resultants.
That of a degree-1 pivot, like every substitution, is Horner's rule
(:func:`polyproper.poly._horner`).  Other resultants run on the int
numerators, by one of three routes chosen from the input.  A small one, of
at most :data:`PACK_MAX_BITS` bits packed, is one scalar subresultant
sequence over the Gaussian integers: Kronecker substitution puts a power of
2^K for each other variable, and the coefficients are read back as signed
base-2^K digits (von zur Gathen and Gerhard, *Modern Computer Algebra*,
ch. 8; the one-node case of Collins, J. ACM 18, 1971).  Every resultant
stage of the bench's dense pool packs, to 474-5,032 bits.  Above the
constant, when at most one other variable u occurs, as in the last
resultant stage of a per-target cascade, the resultant is interpolated from
scalar subresultant sequences at integer values of u (Collins evaluates
modulo primes; here the values stay exact integers).  With two or more
other variables, as in most symbolic eliminations of the plan and the
locus, the subresultant sequence runs on the polynomials.

A resultant stage also keeps E, the last element of positive degree in the
killed variable of the subresultant chain of its pivot and first partner,
for the solver to back-substitute through (Basu, Pollack and Roy,
*Algorithms in Real Algebraic Geometry*, ch. 8; González-Vega and El
Kahoui, J. Complexity 12, 1996).  The packed route reads E back from the
same scalar sequence, as its coefficients obey the resultant's bounds
(:func:`resultant`), and the polynomial sequence ends with it; the route by
values interpolates no E, and where E is the pivot itself, as a linear
pivot is, the stage keeps none.  E costs no route change and no work
charge, so no symbolic elimination moves across the budget.

The packed sequence runs on integers of K*S bits, and its cost grows
faster with their size than that of the other routes.  The constant sits
where it stops winning, timed (best of up to five, on one core of a 2-vCPU
Xeon) on the stages of degrees 2 or more in the per-target cascades of the
scale-contract ladder: ``bench/generators.dense_map(random.Random(s), n, d)``
at the target ``sample_target(default_rng([s, n, d]), n)`` for s = 7, 13
and 99, n = 2 with d = 3..10 and n = 3 with d = 2..5.  The routes cross
between 6,000 and 14,000 bits, and no stage under the constant ran more
than 1 % slower packed:

    =================  ======  ==================
    K*S bits           stages  old time / packed
    =================  ======  ==================
    624 - 3,565        14      2.4 - 6.1
    5,000 - 7,650      8       0.99 - 3.9
    8,190 - 15,652     12      0.81 - 1.6
    22,242 - 243,691   7       0.06 - 0.62
    =================  ======  ==================

Iterated resultants carry factors the system does not (Busé and Mourrain,
"Explicit factors of some iterated resultants and discriminants", Math.
Comp. 78, 2009).  A resultant stage therefore kills the kill variable that
occurs in the fewest equations, ties broken by kill order.  Where some kill
variable is missing from an equation, killing it first leaves that equation
as it is, and the next stage takes the resultant of it and a resultant, not
of two resultants.  On dense 3x3#1 of the bench pool y is missing from the
first equation: killing y, then x, gives a final of degree 14, the fiber's
length, where killing x first gave A*B^6 (degree 26 = 14 + 2*6).  Where
every kill variable occurs in every equation, the extraneous factor is
divided out.  When a resultant stage kills v with a pivot a*v + b whose
a is not a constant and with exactly two partners, of degrees d2 and d3 in
v, and the next stage takes the resultant in w of exactly those two
resultants, that resultant is divided exactly by Res_w(a, b)^(d2*d3): the
two lie in the powers (a, b)^d2 and (a, b)^d3 of the ideal of a and b, so
at each common zero of a and b their resultant vanishes to d2*d3 times the
order of Res_w(a, b) at least.  A factor of Res_w(a, b) that comes from a
common root of a and b at infinity need not divide it; where the power
does not divide, the factors Res_w(a, b) shares with the gcd of the leading
coefficients of a and b in w are taken out of it and the division is tried
once more, and only where that fails too is the resultant kept whole.  The
solver, the plan and the locus all eliminate here, so all three share the
order and the division.

Views of a polynomial in one variable come from one helper set:
``Polynomial.degree_in`` (-1 for zero) and, from :mod:`polyproper.poly`,
which alone knows the stored form, :func:`lead_in` (degree and leading
coefficient in one scan), :func:`as_univariate`, :func:`mul_power` and
the int rows in two variables (:func:`int_rows`, read back by
:func:`from_int_row`); and :func:`linear_solution` here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, zip_longest
from math import prod
from typing import Iterable, Sequence

from .poly import (
    Polynomial,
    _exact_quotient,
    _horner,
    as_univariate,
    charge,
    from_int_row,
    int_rows,
    lead_in,
    mul_power,
)
from .scalar import ONE

#: Largest work one elimination with symbolic targets may spend, in term
#: pairs of the exact kernel (see :func:`polyproper.poly.work_limit`).
MAX_SYMBOLIC_WORK = 500_000

#: Largest K * S, in bits, of a resultant stage that :func:`resultant` packs
#: into one scalar resultant (see :func:`_resultant_packed`).
PACK_MAX_BITS = 8_000


class NotDivisibleError(ArithmeticError):
    """Exact polynomial division was requested but does not exist."""


def exact_div(p: Polynomial, q: Polynomial) -> Polynomial:
    """Return p / q when q divides p exactly; raise otherwise."""
    if q.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if p.is_zero():
        return p
    quotient = _exact_quotient(p, q)
    if quotient is None:
        raise NotDivisibleError(f"{q} does not divide {p}")
    return Polynomial._raw(p.vars, *quotient)


# -- univariate views ---------------------------------------------------------


def linear_solution(p: Polynomial, var: str) -> Polynomial | None:
    """If p = c*var + r with constant c != 0 and r free of var, return -r/c."""
    if p.degree_in(var) != 1:
        return None
    u = as_univariate(p, var)
    lead = u[1]
    if not lead.is_constant():
        return None
    rest = u.get(0, Polynomial.zero(p.vars))
    return exact_div(rest, -lead)


def pseudo_rem(f: Polynomial, g: Polynomial, var: str) -> Polynomial:
    """Pseudo-remainder prem(f, g) = lc(g)^(deg f - deg g + 1) * f  mod  g.

    The exact power of lc(g) matters: the subresultant algorithm's exact
    divisions rely on it, so unused reduction steps are paid for at the end.
    """
    dg, lcg = lead_in(g, var)
    if dg < 0:
        raise ZeroDivisionError("pseudo-division by zero polynomial")
    dr, lead = lead_in(f, var)
    if dr < dg:
        return f
    steps = dr - dg + 1
    r = f
    while dr >= dg:
        # r := lc(g)*r - lead * var^(dr-dg) * g
        shift = mul_power(g, var, dr - dg)
        r = r * lcg - shift * lead
        steps -= 1
        dr, lead = lead_in(r, var)
    for _ in range(steps):
        r = r * lcg
    return r


# -- resultants ---------------------------------------------------------------


def resultant(f: Polynomial, g: Polynomial, var: str) -> Polynomial:
    """Resultant of f and g with respect to one variable.

    Degree-1 inputs short-circuit to the substitution formula
    Res(a*v + b, g) = a^deg(g) * g(-b/a).  Otherwise the resultant is
    Res(F, G) / (d_f^deg g * d_g^deg f) over the stored forms f = F/d_f and
    g = G/d_g, and deg_u Res(F, G) < n_u = min(tdeg f * tdeg g,
    deg f * deg_u g + deg g * deg_u f) + 1 for each other variable u.  With
    K = deg g * bitlen(|F|_1) + deg f * bitlen(|G|_1) + 2, |.|_1 the sum of
    |re| + |im| over the numerators, every coefficient of Res(F, G) = det
    Syl(F, G) has |re| and |im| below 2^(K - 2): they are at most
    |F|_1^deg g * |G|_1^deg f, the product of the 1-norms of its rows.  A
    pair with K * S <= :data:`PACK_MAX_BITS`, S the product of the n_u, is
    packed into one scalar resultant (:func:`_resultant_packed`); above it,
    a pair in at most one other variable is interpolated from its values at
    integer u (:func:`_resultant_by_values`), and otherwise the subresultant
    polynomial-remainder-sequence algorithm runs on the polynomials:
    fraction free, all intermediate divisions exact.

    The same bounds hold for E, the last element of positive degree in
    ``var`` of the subresultant chain, which :func:`_resultant_and_element`
    returns as well.  E is f or g itself, or +-S_j(f, g) for some j >= 1,
    whose coefficient of v^i is the determinant of a Sylvester submatrix of
    m - j rows of G and n - j rows of F, m = deg f and n = deg g.  Its
    rows are fewer, so its 1-norm is at most that of Res(F, G), and the
    column bound drops to (n - j) * deg_u f + (m - j) * deg_u g.  For the
    total degree, let p = tdeg f and q = tdeg g: the coefficient of v^k in
    f has total degree at most p - k, so an entry of the row of v^s * f in
    the column of v^c has at most p + s - c, and summing over the rows and
    the columns taken (v^(m+n-j-1) .. v^(j+1) and v^i) bounds the total
    degree of that coefficient by n'p + m'q - n'm' - j(n' + m' - 1) - i,
    n' = n - j and m' = m - j.  That falls short of pq by
    (p - m')(q - n') + j(n' + m' - 1) + i >= 0, as p >= m and q >= n.  So
    E packs under the same K and n_u as the resultant, and is read back
    from the same scalar sequence.
    """
    return _resultant_and_element(f, g, var)[0]


def _resultant_and_element(
    f: Polynomial, g: Polynomial, var: str
) -> tuple[Polynomial, Polynomial | None]:
    """Res_var(f, g) and E, the last element of positive degree in ``var`` of their chain.

    E is the linear input where one is linear, and None where a degree in
    ``var`` is 0, where the resultant is zero and on the route by values;
    see :func:`resultant` for the routes and the bounds.
    """
    if f.is_zero() or g.is_zero():
        return Polynomial.zero(f.vars), None
    df, dg = f.degree_in(var), g.degree_in(var)
    if df == 0 and dg == 0:
        return Polynomial.constant(f.vars, 1), None
    if df == 0:
        return f**dg, None
    if dg == 0:
        return g**df, None
    if df == 1 or dg == 1:
        lin, other = (f, g) if df == 1 else (g, f)
        res = _resultant_linear(lin, other, var)
        if df > 1 and (df & 1) and (dg & 1):
            res = -res
        return res, lin
    bezout = f.total_degree() * g.total_degree()
    sizes = {}
    for u in f.vars:
        du, eu = f.degree_in(u), g.degree_in(u)
        if u != var and (du > 0 or eu > 0):
            sizes[u] = min(bezout, df * eu + dg * du) + 1
    k = dg * _norm_bits(f) + df * _norm_bits(g) + 2
    if k * prod(sizes.values()) <= PACK_MAX_BITS:
        return _resultant_packed(f, g, var, sizes, k)
    if len(sizes) <= 1:
        return _resultant_by_values(f, g, var, sizes)
    return _subresultant_prs(f, g, var, df, dg)


def _norm_bits(p: Polynomial) -> int:
    """The bit length of |P|_1, the sum of |re| + |im| over the numerators of p."""
    return sum(abs(re) + abs(im) for re, im in p.nums.values()).bit_length()


def _resultant_packed(
    f: Polynomial, g: Polynomial, var: str, sizes: dict, k: int
) -> tuple[Polynomial, Polynomial | None]:
    """Res_var(f, g) and E from one scalar resultant at u = 2^(k * slots[u]) (Kronecker substitution).

    ``sizes`` maps each other variable u to n_u > deg_u Res(F, G), and the
    slots lay the monomials of Res(F, G) out in the mixed radix of the n_u,
    S = prod n_u of them.  As every coefficient of Res(F, G) has |re| and
    |im| below 2^(k - 2) (see :func:`resultant`), its packed value has one
    signed base-2^k expansion, whose digits are those coefficients; the
    leading coefficients in ``var``, whose 1-norms are smaller still, pack
    to nonzero values.  So do the principal coefficients of the chain, and
    the scalar chain has the shape of the polynomial one: its E is E(F, G)
    packed, read back one coefficient in ``var`` at a time, with ``var`` as
    one more slot above the others.  Under
    :func:`polyproper.poly.work_limit` it is charged S * deg f * deg g.
    """
    slots, radix = {}, 1
    for u, n in sizes.items():
        slots[u], radix = radix, radix * n
    charge(radix * f.degree_in(var) * g.degree_in(var))
    rf, rg = int_rows(f, var, slots), int_rows(g, var, slots)
    df, dg = len(rf) - 1, len(rg) - 1
    t = 1 << k
    pf, pg = [_value(row, t) for row in rf], [_value(row, t) for row in rg]
    (re, im), e, j = _scalar_resultant(pf, pg)
    res = from_int_row(f, slots, f.den**dg * g.den**df, _digit_pairs(re, im, k))
    if e is None:
        return res, None
    if e is pf or e is pg:
        return res, f if e is pf else g
    row = []
    for cr, ci in e:
        digits = _digit_pairs(cr, ci, k)
        row += digits + [(0, 0)] * (radix - len(digits))
    slots[var] = radix
    # E(F, G) = +-S_j(F, G) has n - j rows of F and m - j rows of G
    return res, from_int_row(f, slots, f.den ** (dg - j) * g.den ** (df - j), row)


def _digit_pairs(re: int, im: int, k: int) -> list[tuple[int, int]]:
    """The signed base-2^k digits of re and im, paired, lowest first."""
    return list(zip_longest(_signed_digits(re, k), _signed_digits(im, k), fillvalue=0))


def _signed_digits(x: int, k: int) -> list[int]:
    """The digits d_j of x = sum_j d_j * 2^(k*j) with -2^(k-1) <= d_j < 2^(k-1), lowest first."""
    half, mask = 1 << (k - 1), (1 << k) - 1
    out = []
    while x:
        d = x & mask
        if d >= half:
            d -= mask + 1
        out.append(d)
        x = (x - d) >> k
    return out


def _subresultant_prs(
    f: Polynomial, g: Polynomial, var: str, df: int, dg: int
) -> tuple[Polynomial, Polynomial | None]:
    """Res_var(f, g) and E by the subresultant PRS on the polynomials; df, dg >= 1 their degrees.

    E, the last element of positive degree, is None where the resultant is zero.
    """
    s = 1
    a, b = f, g
    da, db = df, dg
    if da < db:
        a, b = b, a
        da, db = db, da
        if (df & 1) and (dg & 1):
            s = -s
    glc = Polynomial.constant(f.vars, 1)
    h = Polynomial.constant(f.vars, 1)
    while True:
        delta = da - db
        if (da & 1) and (db & 1):
            s = -s
        r = pseudo_rem(a, b, var)
        a = b
        da = db
        b = exact_div(r, glc * h**delta)
        if b.is_zero():
            return Polynomial.zero(f.vars), None
        db = b.degree_in(var)
        glc = lead_in(a, var)[1]
        if delta == 1:
            h = glc
        elif delta > 1:
            h = exact_div(glc**delta, h ** (delta - 1))
        if db == 0:
            num = b**da
            res = num if da <= 1 else exact_div(num, h ** (da - 1))
            return res * s if s < 0 else res, a


def _resultant_by_values(
    f: Polynomial, g: Polynomial, var: str, sizes: dict
) -> tuple[Polynomial, None]:
    """Res_var(f, g) for f, g in ``var`` and at most one other variable u, with sizes = {u: N}.

    Over the stored forms f = F/d_f and g = G/d_g the resultant is
    Res(F, G) / (d_f^deg g * d_g^deg f), degrees in ``var``, and Res(F, G)
    is a polynomial in u of degree below N = min(tdeg f * tdeg g,
    deg f * deg_u g + deg g * deg_u f) + 1 (N = 1 with ``sizes`` empty).
    It is taken at N consecutive integers u = start, start + 1, ..., past
    every integer where a leading coefficient in ``var`` vanishes, so each
    value is the resultant of the Gaussian-integer polynomials F(u), G(u)
    (:func:`_scalar_resultant`).
    The real and imaginary parts are interpolated apart (:func:`_interpolated`).
    Under :func:`polyproper.poly.work_limit` it is charged N * deg f * deg g.
    No E is interpolated: it is returned as None.
    """
    slots = dict.fromkeys(sizes, 1)
    rf, rg = int_rows(f, var, slots), int_rows(g, var, slots)
    df, dg = len(rf) - 1, len(rg) - 1
    n = prod(sizes.values())
    charge(n * df * dg)
    start = t = 0
    while t < start + n:
        if _value(rf[df], t) == (0, 0) or _value(rg[dg], t) == (0, 0):
            start = t + 1
        t += 1
    values = [
        _scalar_resultant([_value(row, t) for row in rf], [_value(row, t) for row in rg])[0]
        for t in range(start, start + n)
    ]
    re = _interpolated([v[0] for v in values], start)
    im = _interpolated([v[1] for v in values], start)
    return from_int_row(f, slots, f.den**dg * g.den**df, list(zip(re, im))), None


def _interpolated(values: list[int], start: int) -> list[int]:
    """Coefficients of the polynomial of degree < N = len(values) with values[t] at start + t.

    With d_k the k-th forward difference at u = start, (N - 1)! times the
    polynomial is sum_k d_k * (N - 1)!/k! * prod_{j<k} (u - start - j), an
    int polynomial expanded here by Horner's rule; its division by (N - 1)!
    must be exact.
    """
    d = list(values)
    n = len(d)
    for k in range(1, n):
        for j in range(n - 1, k - 1, -1):
            d[j] -= d[j - 1]
    acc, scale = [d[-1]], 1  # scale = (N - 1)!/k!
    for k in range(n - 2, -1, -1):
        scale *= k + 1
        acc = [low - (start + k) * c for low, c in zip([0] + acc, acc + [0])]
        acc[0] += scale * d[k]
    out = []
    for c in acc:
        q, r = divmod(c, scale)
        if r:
            raise NotDivisibleError("interpolated resultant is not integral")
        out.append(q)
    return out


def _value(row: list[tuple[int, int]], t: int) -> tuple[int, int]:
    """sum_j row[j] * t^j for Gaussian-integer entries and an int t."""
    re = im = 0
    for cr, ci in reversed(row):
        re, im = re * t + cr, im * t + ci
    return re, im


def _gmul(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _gpow(a: tuple[int, int], k: int) -> tuple[int, int]:
    out = (1, 0)
    for _ in range(k):
        out = _gmul(out, a)
    return out


def _gdiv(xs: list[tuple[int, int]], q: tuple[int, int]) -> list[tuple[int, int]]:
    """Each Gaussian integer of ``xs`` divided by q, exactly; raise when one is not divisible."""
    qr, qi = q
    norm = qr * qr + qi * qi
    out = []
    for re, im in xs:
        (cr, xr), (ci, xi) = divmod(re * qr + im * qi, norm), divmod(im * qr - re * qi, norm)
        if xr or xi:
            raise NotDivisibleError(f"{q} does not divide {(re, im)}")
        out.append((cr, ci))
    return out


def _scalar_prem(a: list, b: list) -> list:
    """prem(a, b) of Gaussian-integer coefficient lists (lowest degree first), zeros trimmed."""
    lr, li = b[-1]
    db = len(b) - 1
    r = a
    for _ in range(len(a) - db):
        tr, ti = r[-1]
        shift = len(r) - 1 - db
        # r := lc(b) * r - lead(r) * v^shift * b; its top term cancels
        r = [(lr * x - li * y, lr * y + li * x) for x, y in r[:-1]]
        if tr or ti:
            for k, (br, bi) in enumerate(b[:-1], shift):
                x, y = r[k]
                r[k] = (x - (tr * br - ti * bi), y - (tr * bi + ti * br))
    while r and r[-1] == (0, 0):
        r.pop()
    return r


def _scalar_resultant(a: list, b: list) -> tuple[tuple[int, int], list | None, int]:
    """The resultant of two Gaussian-integer coefficient lists (lowest degree first), E and j.

    The loop of :func:`_subresultant_prs` on scalars; both leading entries
    are nonzero and both degrees positive.  E is the last element of
    positive degree of the chain: the list ``a`` or ``b`` itself where no
    remainder of positive degree comes first, else +-S_j(a, b) with j the
    degree of the element before it less 1 (the subresultant PRS theorem;
    Brown, J. ACM 18, 1971).  E is None where the resultant is zero.
    """
    s = 1
    da, db = len(a) - 1, len(b) - 1
    if da < db:
        a, b, da, db = b, a, db, da
        if da & db & 1:
            s = -s
    glc = h = (1, 0)
    while True:
        delta = da - db
        if da & db & 1:
            s = -s
        r = _scalar_prem(a, b)
        j = da - 1
        a, da = b, db
        if not r:
            return (0, 0), None, j
        b = _gdiv(r, _gmul(glc, _gpow(h, delta)))
        db = len(b) - 1
        glc = a[-1]
        if delta == 1:
            h = glc
        elif delta > 1:
            (h,) = _gdiv([_gpow(glc, delta)], _gpow(h, delta - 1))
        if db == 0:
            res = _gpow(b[0], da)
            if da > 1:
                (res,) = _gdiv([res], _gpow(h, da - 1))
            return (s * res[0], s * res[1]), a, j


def _resultant_linear(lin: Polynomial, g: Polynomial, var: str) -> Polynomial:
    """Res_var(a*v + b, g) = a^deg(g) * g(-b/a) = sum_k g_k * (-b)^k * a^(deg(g) - k)."""
    u = as_univariate(lin, var)
    neg_b = -u.get(0, Polynomial.zero(lin.vars))
    return _horner(as_univariate(g, var), neg_b, u[1])


def poly_matrix_det(rows: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Fraction-free Bareiss determinant of a square polynomial matrix."""
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("determinant requires a nonempty square matrix")
    ctx = rows[0][0].vars
    m = [list(r) for r in rows]
    sign = 1
    prev = Polynomial.constant(ctx, 1)
    for k in range(n - 1):
        if m[k][k].is_zero():
            for i in range(k + 1, n):
                if not m[i][k].is_zero():
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Polynomial.zero(ctx)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = exact_div(m[i][j] * m[k][k] - m[i][k] * m[k][j], prev)
            m[i][k] = Polynomial.zero(ctx)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det * -1 if sign < 0 else det


# -- gcd and squarefree parts -------------------------------------------------


def normalized(p: Polynomial) -> Polynomial:
    """Scale so the graded-lex leading coefficient is 1 (zero passes through)."""
    if p.is_zero():
        return p
    _, c = p.leading_term()
    return p if c.is_one() else p * (ONE / c)


def gcd_poly(p: Polynomial, q: Polynomial) -> Polynomial:
    """Monic-normalized gcd over the Gaussian rationals (field coefficients)."""
    if p.is_zero():
        return normalized(q)
    if q.is_zero():
        return normalized(p)
    if p.is_constant() or q.is_constant():
        return Polynomial.constant(p.vars, 1)
    support = [v for v in p.vars if v in set(p.support_vars()) | set(q.support_vars())]
    main = support[0]
    cp, pp = _content_primitive(p, main)
    cq, pq = _content_primitive(q, main)
    cont = gcd_poly(cp, cq)
    a, b = (pp, pq) if pp.degree_in(main) >= pq.degree_in(main) else (pq, pp)
    while True:
        if b.degree_in(main) == 0:
            prim = Polynomial.constant(p.vars, 1)
            break
        r = pseudo_rem(a, b, main)
        if r.is_zero():
            prim = _content_primitive(b, main)[1]
            break
        a, b = b, _content_primitive(r, main)[1]
    return normalized(cont * prim)


def _content_primitive(p: Polynomial, main: str) -> tuple[Polynomial, Polynomial]:
    """Content (gcd of coefficients w.r.t. ``main``) and primitive part."""
    coeffs = list(as_univariate(p, main).values())
    content = Polynomial.zero(p.vars)
    for c in coeffs:
        content = gcd_poly(content, c)
        if content.is_constant():
            break
    if content.is_constant():
        return Polynomial.constant(p.vars, 1), normalized(p)
    return content, exact_div(p, content)


def squarefree_part(p: Polynomial) -> Polynomial:
    """Reduced (squarefree) representative of p, monic-normalized.

    Divides by the gcd of p with its partial derivatives, folded over every
    occurring variable: the first variable alone would silently drop any
    repeated factor that does not involve it.
    """
    if p.is_zero():
        raise ValueError("squarefree part of the zero polynomial is undefined")
    support = p.support_vars()
    if not support:
        return Polynomial.constant(p.vars, 1)
    g = p
    for v in support:
        g = gcd_poly(g, p.diff(v))
        if g.is_constant():
            return normalized(p)
    return normalized(exact_div(p, g))


# -- variable elimination cascade ---------------------------------------------


@dataclass(frozen=True)
class EliminationStage:
    """One eliminated variable with the pivot equation that constrained it.

    A resultant stage also keeps ``element``, E of the pivot and its first
    partner (:func:`_resultant_and_element`), where the route computes one
    and it is not the pivot itself, as a linear pivot is.  E lies in the
    ideal of the two, so wherever E does not vanish identically each of
    their common roots in var is a root of E.
    """

    var: str
    pivot: Polynomial
    mode: str  # "substitution" | "single" | "resultant"
    image: Polynomial | None = None  # what a substitution put for var: -R/c of pivot c*var + R
    element: Polynomial | None = None


@dataclass
class EliminationResult:
    """The outcome of :func:`eliminate`; ``finals`` is a list, as any system is accepted.

    Every stage takes one equation away, so n equations over n - 1 kill
    variables, as the solver and the locus eliminate, end with one final
    at most unless a kill variable is free.
    """

    finals: list[Polynomial] = field(default_factory=list)
    stages: list[EliminationStage] = field(default_factory=list)
    free_vars: list[str] = field(default_factory=list)
    inconsistent: bool = False
    degenerate_var: str | None = None

    @property
    def degenerate(self) -> bool:
        return self.degenerate_var is not None

    @property
    def problem(self) -> str | None:
        """Why the cascade does not end with exactly one final, or None when it does."""
        if self.inconsistent:
            return "elimination reached an inconsistency"
        if self.degenerate:
            return f"elimination degenerated to zero at variable {self.degenerate_var!r}"
        if self.free_vars:
            return f"variables {self.free_vars} are unconstrained"
        if len(self.finals) != 1:
            return f"{len(self.finals) or 'no'} equations are left"
        return None


def _substitute_var(p: Polynomial, var: str, image: Polynomial) -> Polynomial:
    """p with ``var`` replaced by ``image``."""
    if p.degree_in(var) <= 0:
        return p
    return _horner(as_univariate(p, var), image)


def _linear_pivots(eqs: Sequence[Polynomial], variables: Sequence[str]):
    """(index, var, image) for each equation: the first of ``variables`` it solves linearly."""
    for idx, eq in enumerate(eqs):
        for v in variables:
            image = linear_solution(eq, v)
            if image is not None:
                yield idx, v, image
                break


def _admit(
    result: EliminationResult, polys: Iterable[Polynomial], resultant_var: str | None = None
) -> list[Polynomial] | None:
    """The equations ``polys`` with zeros dropped, read in order.

    A nonzero constant marks ``result`` inconsistent, and a zero resultant
    eliminating ``resultant_var`` marks it degenerate there; either stops the
    reading, so no later resultant is computed, and returns None.
    """
    eqs = []
    for p in polys:
        if not p.is_constant():
            eqs.append(p)
        elif not p.is_zero():
            result.inconsistent = True
            return None
        elif resultant_var is not None:
            result.degenerate_var = resultant_var
            return None
    return eqs


def eliminate(
    system: Sequence[Polynomial],
    kill_vars: Sequence[str],
) -> EliminationResult:
    """Eliminate ``kill_vars`` from the system, deterministically.

    Strategy, in priority order, repeated to a fixpoint:

    1. substitute out a kill-variable that some equation constrains linearly
       with a constant leading coefficient (pivot dropped, stage recorded);
    2. use an equation that is linear with constant leading coefficient in a
       *retained* variable to rewrite the other equations (the pivot itself
       stays; this is an ideal-preserving inter-reduction);
    3. eliminate the remaining kill-variable that occurs in the fewest
       equations, the first in kill order among equals, by resultants
       against a minimal-degree pivot.  An equation that lacks it passes
       to the next stage as it is, so where some kill variable is missing
       from an equation this forms no resultant of two resultants, and no
       extraneous factor.

    A resultant stage whose pivot is a*v + b, with a not a constant, and
    whose two partners, of degrees d2 and d3 in v, are all the equations
    leaves two resultants.  When the next stage takes the resultant in w of
    exactly those two, with no substitution or inter-reduction between, its
    result is divided exactly by Res_w(a, b)^(d2*d3), the extraneous factor
    of iterated resultants (Busé and Mourrain, Math. Comp. 78, 2009).  Where
    Res_w(a, b) is a constant, zero included, nothing is divided, and
    neither where its power does not divide the result, which a common root
    of a and b at infinity can cause.

    Equations reducing to zero are dropped; a nonzero constant marks the
    system inconsistent; a vanishing resultant marks the cascade degenerate.
    Both flags short-circuit and leave ``finals`` empty.
    """
    result = EliminationResult()
    eqs = _admit(result, system)
    remaining = list(kill_vars)
    retained = [v for v in (system[0].vars if system else ()) if v not in set(kill_vars)]

    pair = None  # (eqs, a, b, d2*d3) after a resultant stage of a*v + b with two partners
    guard = 0
    while remaining and eqs is not None:
        guard += 1
        if guard > 1000:
            raise RuntimeError("elimination cascade failed to make progress")
        # 1. cheap exact substitution of a kill-variable
        action = next(_linear_pivots(eqs, remaining), None)
        if action:
            idx, v, image = action
            pivot = eqs.pop(idx)
            result.stages.append(EliminationStage(v, pivot, "substitution", image))
            remaining.remove(v)
            eqs = _admit(result, (_substitute_var(p, v, image) for p in eqs))
            continue

        # 2. inter-reduction via a retained-variable linear pivot.  Each
        # equation proposes only its first such variable: letting one
        # equation pivot on several retained variables can swap a pair of
        # them back and forth between the other equations forever.
        action = None
        for idx, w, image in _linear_pivots(eqs, retained):
            if any(p.degree_in(w) > 0 for j, p in enumerate(eqs) if j != idx):
                action = (idx, w, image)
                break
        if action:
            idx, w, image = action
            eqs = _admit(
                result, (p if j == idx else _substitute_var(p, w, image) for j, p in enumerate(eqs))
            )
            continue

        # 3. resultant elimination of the kill-variable in the fewest equations
        v = min(remaining, key=lambda u: sum(p.degree_in(u) > 0 for p in eqs))
        remaining.remove(v)
        involving = [(i, p) for i, p in enumerate(eqs) if p.degree_in(v) > 0]
        if not involving:
            result.free_vars.append(v)
            continue
        if len(involving) == 1:
            i, pivot = involving[0]
            eqs.pop(i)
            result.stages.append(EliminationStage(v, pivot, "single"))
            continue
        pivot_i, pivot = min(involving, key=lambda ip: (ip[1].degree_in(v), ip[0]))
        keep = [p for p in eqs if p.degree_in(v) == 0]
        partners = [p for i, p in involving if i != pivot_i]
        first, element = _resultant_and_element(pivot, partners[0], v)
        if element == pivot:  # rooting E is rooting the pivot
            element = None
        result.stages.append(EliminationStage(v, pivot, "resultant", element=element))
        resultants = chain([first], (resultant(pivot, p, v) for p in partners[1:]))
        # the last stage's two resultants, with no substitution or inter-reduction since
        if pair and pair[0] is eqs and len(involving) == 2:
            resultants = (_without_extraneous(r, *pair[1:], v) for r in resultants)
        eqs = _admit(result, chain(keep, resultants), v)
        pair = None
        if eqs and not keep and len(partners) == 2 and pivot.degree_in(v) == 1:
            by_power = as_univariate(pivot, v)
            if not by_power[1].is_constant():
                b = by_power.get(0, Polynomial.zero(pivot.vars))
                pair = (eqs, by_power[1], b, partners[0].degree_in(v) * partners[1].degree_in(v))

    result.finals = eqs or []
    return result


def _without_extraneous(r: Polynomial, a: Polynomial, b: Polynomial, k: int, w: str) -> Polynomial:
    """r / Res_w(a, b)^k, exactly, or r / c^k for c the finite part of Res_w(a, b).

    Nothing is divided where Res_w(a, b) is a constant, zero included.  A
    factor of Res_w(a, b) that comes from a common root of a and b at
    infinity, where both leading coefficients in w vanish, need not divide
    r.  So where the full power does not divide, c is Res_w(a, b) with every
    factor it shares with gcd(lc_w a, lc_w b) taken out, and r / c^k is
    tried once; r itself is returned where that is no polynomial division
    either.
    """
    factor = resultant(a, b, w)
    if factor.is_constant():
        return r
    try:
        return exact_div(r, factor**k)
    except NotDivisibleError:
        pass
    shared = gcd_poly(factor, gcd_poly(lead_in(a, w)[1], lead_in(b, w)[1]))
    if shared.is_constant():
        return r
    while not shared.is_constant():
        factor = exact_div(factor, shared)
        shared = gcd_poly(factor, shared)
    if factor.is_constant():
        return r
    try:
        return exact_div(r, factor**k)
    except NotDivisibleError:
        return r
