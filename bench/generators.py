"""Seeded input generators for the benchmark workloads, and their oracles.

Every generator draws from an explicit ``random.Random``, so a seed fixes
the output on every platform.  Each generated map keeps the data it was
built from (its terms, or its affine factors and shear), and the checks
evaluate that data with numpy or in exact arithmetic: answers are judged
without calling the program under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

VARS = ("x", "y", "z")

DENSE_TERMS = 5

#: (n, d) rungs of the tame-automorphism ladder.  n = 2 stops at d = 4:
#: verify_inverse composes maps of degree d, and at d = 5 and 6 one call
#: took 5 to 40 s on a 2-core Xeon, more than a whole run may last.
TAME_LADDER = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3))

Terms = dict  # exponent tuple -> Fraction
Complex = tuple  # (real part, imaginary part), each a Fraction


def _coeff_text(c: Fraction) -> str:
    return f"({c.numerator}/{c.denominator})" if c.denominator != 1 else f"({c.numerator})"


def terms_text(terms: Terms, names) -> str:
    """Render exact terms in the parser's syntax, over arbitrary sub-expressions.

    ``names`` are the texts substituted for the variables, so the same terms
    render as a plain polynomial or as a composition.
    """
    parts = []
    for e in sorted(terms, key=lambda e: (-sum(e), tuple(-k for k in e))):
        factors = [n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k]
        parts.append("*".join([_coeff_text(terms[e]), *factors]))
    return " + ".join(parts) if parts else "0"


def map_text(variables, exprs) -> str:
    """The line-oriented map format of ``polymap.parse_map_text``."""
    lines = ["vars: " + " ".join(variables)]
    lines += [f"f{k} = {e}" for k, e in enumerate(exprs, start=1)]
    return "\n".join(lines) + "\n"


def eval_terms(terms: Terms, x: np.ndarray) -> tuple[complex, float]:
    """Value of the terms at a complex point, and the sum of term magnitudes."""
    exps = np.array(list(terms), dtype=int).reshape(len(terms), len(x))
    coeffs = np.array([float(c) for c in terms.values()])
    monomials = np.prod(x[None, :] ** exps, axis=1)
    return complex(coeffs @ monomials), float(np.abs(coeffs) @ np.abs(monomials))


# -- dense ladder --------------------------------------------------------------


@dataclass(frozen=True)
class DenseMap:
    """A square map given by exact terms per component."""

    vars: tuple[str, ...]
    components: tuple[Terms, ...]
    degree: int

    @property
    def bezout(self) -> int:
        return self.degree ** len(self.vars)

    def text(self, order=None) -> str:
        """The map in the parser's format, its variables declared in ``order``."""
        exprs = [terms_text(comp, self.vars) for comp in self.components]
        return map_text(order or self.vars, exprs)

    def residual(self, x, y) -> tuple[float, float]:
        """max_j |f_j(x) - y_j| and the largest term-magnitude sum."""
        point = np.asarray(x, dtype=complex)
        worst, scale = 0.0, 0.0
        for comp, target in zip(self.components, y):
            value, magnitude = eval_terms(comp, point)
            worst = max(worst, abs(value - target))
            scale = max(scale, magnitude)
        return worst, scale


def _monomial(rng: random.Random, n: int, degree: int) -> tuple[int, ...]:
    exps = [0] * n
    for _ in range(degree):
        exps[rng.randrange(n)] += 1
    return tuple(exps)


def dense_map(rng: random.Random, n: int, d: int, n_terms: int = DENSE_TERMS) -> DenseMap:
    """A map whose components have up to n_terms terms and total degree d.

    The first term of each component has degree d, so the Bezout bound is
    d**n; the others have a degree drawn uniformly from 0..d.  Coefficients
    are small nonzero rationals; terms that land on one monomial are summed.
    """
    comps = []
    for _ in range(n):
        terms: Terms = {}
        for k in range(n_terms):
            e = _monomial(rng, n, d if k == 0 else rng.randint(0, d))
            num = rng.choice([v for v in range(-6, 7) if v])
            terms[e] = terms.get(e, Fraction(0)) + Fraction(num, rng.randint(1, 3))
        comps.append({e: c for e, c in terms.items() if c})
    return DenseMap(VARS[:n], tuple(comps), d)


# -- tame automorphisms --------------------------------------------------------


@dataclass(frozen=True)
class Affine:
    """x -> M x + t with an integer matrix M of determinant +-1."""

    matrix: tuple[tuple[int, ...], ...]
    shift: tuple[int, ...]

    @property
    def det(self) -> int:
        return _int_det(self.matrix)

    def inverse(self) -> "Affine":
        n = len(self.shift)
        inv = _int_inverse(self.matrix)
        shift = tuple(-sum(inv[i][j] * self.shift[j] for j in range(n)) for i in range(n))
        return Affine(inv, shift)

    def apply_exact(self, u: list[Complex]) -> list[Complex]:
        return [
            (sum(a * v[0] for a, v in zip(row, u)) + t, sum(a * v[1] for a, v in zip(row, u)))
            for row, t in zip(self.matrix, self.shift)
        ]

    def texts(self, names) -> list[str]:
        return [
            " + ".join([f"({a})*({v})" for a, v in zip(row, names) if a] + [f"({t})"])
            for row, t in zip(self.matrix, self.shift)
        ]


def _int_det(m) -> int:
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * _int_det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
    )


def _int_inverse(m) -> tuple[tuple[int, ...], ...]:
    """Inverse of a unimodular integer matrix, by its adjugate."""
    n, det = len(m), _int_det(m)
    if abs(det) != 1:
        raise ValueError(f"matrix is not unimodular (det {det})")

    def minor(i, j):
        return [row[:j] + row[j + 1 :] for k, row in enumerate(m) if k != i]

    return tuple(
        tuple((-1) ** (i + j) * _int_det(minor(j, i)) * det for j in range(n))
        for i in range(n)
    )


def unimodular_affine(rng: random.Random, n: int, steps: int = 3) -> Affine:
    """A product of elementary row operations and a sign flip, plus a shift.

    Multipliers and shifts stay within +-1, which keeps the coefficients of
    f small and its fibers well conditioned in double precision.
    """
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((-1, 1))
        m[i] = [a + k * b for a, b in zip(m[i], m[j])]
    if rng.random() < 0.5:
        r = rng.randrange(n)
        m[r] = [-a for a in m[r]]
    shift = tuple(rng.randint(-1, 1) for _ in range(n))
    return Affine(tuple(tuple(r) for r in m), shift)


@dataclass(frozen=True)
class Tame:
    """f = A o S o B, where S(u) adds p(u) to the coordinate u_k.

    p does not involve u_k, so S is a triangular shear with determinant 1
    and inverse u -> u - p(u) e_k; hence det Jac f = det A * det B and
    f^-1 = B^-1 o S^-1 o A^-1, all known without the program.
    """

    outer: Affine
    shear_var: int
    shear: Terms  # exponents over all n variables, zero in slot shear_var
    inner: Affine

    @property
    def n(self) -> int:
        return len(self.inner.shift)

    @property
    def det(self) -> int:
        return self.outer.det * self.inner.det

    def forward_texts(self) -> list[str]:
        return _chain_texts(self.inner, self.shear_var, self.shear, self.outer, VARS[: self.n])

    def inverse_texts(self) -> list[str]:
        minus = {e: -c for e, c in self.shear.items()}
        return _chain_texts(
            self.outer.inverse(), self.shear_var, minus, self.inner.inverse(), VARS[: self.n]
        )

    def forward_exact(self, x: list[Complex]) -> list[Complex]:
        """f(x) in exact arithmetic, from A, S and B."""
        u = self.inner.apply_exact(x)
        p = _eval_exact(self.shear, u)
        k = self.shear_var
        u[k] = (u[k][0] + p[0], u[k][1] + p[1])
        return self.outer.apply_exact(u)


def _eval_exact(terms: Terms, u: list[Complex]) -> Complex:
    re, im = Fraction(0), Fraction(0)
    for e, c in terms.items():
        term = (c, Fraction(0))
        for v, k in zip(u, e):
            for _ in range(k):
                term = (term[0] * v[0] - term[1] * v[1], term[0] * v[1] + term[1] * v[0])
        re, im = re + term[0], im + term[1]
    return re, im


def _chain_texts(first: Affine, k: int, shear: Terms, last: Affine, names) -> list[str]:
    """Texts of last o (u -> u + shear(u) e_k) o first over the given names."""
    u = [f"({e})" for e in first.texts(names)]
    v = list(u)
    v[k] = f"({u[k]} + {terms_text(shear, u)})"
    return last.texts(v)


def tame_automorphism(rng: random.Random, n: int, d: int) -> Tame:
    """A tame automorphism of degree d: one shear between two affine maps.

    The shear adds p(u) to u_k, where p has three terms of degrees d, d - 1
    and 1 in the other coordinates.
    """
    k = rng.randrange(n)
    others = [i for i in range(n) if i != k]
    shear: Terms = {}
    for degree in (d, d - 1, 1):
        exps = [0] * n
        for _ in range(degree):
            exps[rng.choice(others)] += 1
        shear[tuple(exps)] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
    return Tame(unimodular_affine(rng, n), k, shear, unimodular_affine(rng, n))
