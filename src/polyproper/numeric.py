"""Compiled numeric evaluation: polynomials lowered to arrays, points in batches.

A stack of m polynomials over one variable context is lowered once to a
:class:`TermTable`: an exponent matrix E (one row per distinct monomial,
one column per variable) and a complex coefficient matrix C (one row per
monomial, one column per polynomial).  At a batch of k points the monomials
are read off per-variable power tables, M[p, t] = prod_v x[p, v]^E[t, v],
and the values are M @ C.

Next to the values the kernel returns the term-magnitude sums |M| @ |C|.
They bound the rounding error of the evaluation,
|fl(p(x)) - p(x)| <~ gamma * sum_t |c_t| |x^e_t| with gamma a small multiple
of machine epsilon (Higham, *Accuracy and Stability of Numerical
Algorithms*, 2002, sec. 5.1), so a residual within :data:`ROUNDOFF` of that
sum is round-off: no Newton step can shrink it further.

:class:`MapEvaluator` holds the tables of a map's components and of its
Jacobian entries, built once per map (``PolyMap.evaluator()`` caches it).
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

EPS = float(np.finfo(float).eps)

#: A residual at most this times its term-magnitude sum is at the round-off
#: floor of the evaluation.
ROUNDOFF = 16 * EPS


def power_tables(points: np.ndarray, degrees: Sequence[int]) -> list[np.ndarray]:
    """Per variable v, the k x (degrees[v] + 1) table of x[:, v]^j."""
    k = points.shape[0]
    tables = []
    for v, d in enumerate(degrees):
        table = np.empty((k, d + 1), dtype=complex)
        table[:, 0] = 1.0
        if d:
            table[:, 1:] = np.cumprod(np.repeat(points[:, v : v + 1], d, axis=1), axis=1)
        tables.append(table)
    return tables


class TermTable:
    """Polynomials over one variable context, lowered to arrays once.

    Column j holds ``columns[j]``, a polynomial in the stored form of
    :mod:`polyproper.poly`: a positive int denominator and a dict from packed
    monomial keys to Gaussian-integer numerators (re, im), which
    ``exponents`` unpacks to exponent tuples.  Each coefficient
    (re + i*im) / den becomes a complex by int true division, which rounds
    correctly.  ``exps`` is the T x n exponent matrix of the distinct
    monomials, in order of first occurrence, ``coeffs`` the T x m complex
    coefficient matrix and ``degrees`` the largest exponent of each
    variable.  :meth:`of` tables ``Polynomial`` objects, one column each.
    """

    __slots__ = ("exps", "coeffs", "abs_coeffs", "degrees")

    def __init__(self, columns: Sequence[tuple[int, Mapping]], exponents: Callable, n_vars: int):
        rows: dict[int, int] = {}
        entries = []
        for j, (den, nums) in enumerate(columns):
            for key, (re, im) in nums.items():
                try:
                    c = complex(re / den, im / den)
                except OverflowError:
                    raise ValueError("a coefficient lies beyond float range") from None
                entries.append((rows.setdefault(key, len(rows)), j, c))
        coeffs = np.zeros((len(rows), len(columns)), dtype=complex)
        for t, j, c in entries:
            coeffs[t, j] = c
        exps = np.array([exponents(key) for key in rows], dtype=np.intp).reshape(len(rows), n_vars)
        self.exps = exps
        self.coeffs = coeffs
        self.abs_coeffs = np.abs(coeffs)
        self.degrees = tuple(int(d) for d in exps.max(axis=0)) if len(rows) else (0,) * n_vars

    @classmethod
    def of(cls, polys: Sequence, n_vars: int) -> "TermTable":
        """The table of ``Polynomial`` objects over one context, one column each."""
        return cls([(p.den, p.nums) for p in polys], polys[0]._exponents if polys else None, n_vars)

    def monomials(self, tables: Sequence[np.ndarray]) -> np.ndarray:
        """The k x T matrix of monomial values; tables from :func:`power_tables`."""
        k = tables[0].shape[0] if tables else 1
        out = None
        for v, d in enumerate(self.degrees):
            if d:
                col = tables[v][:, self.exps[:, v]]
                out = col if out is None else out * col
        if out is None:
            out = np.ones((k, self.exps.shape[0]), dtype=complex)
        return out

    def values(self, tables: Sequence[np.ndarray]) -> np.ndarray:
        """The k x m matrix of polynomial values."""
        return self.monomials(tables) @ self.coeffs

    def values_and_sums(self, tables: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Values and term-magnitude sums sum_t |c_t| |x^e_t|, both k x m."""
        mono = self.monomials(tables)
        return mono @ self.coeffs, np.abs(mono) @ self.abs_coeffs


class MapEvaluator:
    """A polynomial map and its Jacobian, compiled for batches of points.

    ``f`` has one column per component; ``jac`` has one column per Jacobian
    entry, row-major, so entry (i, j) = d f_i / d x_j is column i * n + j.
    The Jacobian's degrees never exceed the map's, so one set of power
    tables serves both.
    """

    __slots__ = ("n_vars", "n_comps", "f", "jac")

    def __init__(self, components: Sequence, jacobian_rows: Sequence[Sequence], n_vars: int):
        self.n_vars = n_vars
        self.n_comps = len(components)
        self.f = TermTable.of(components, n_vars)
        self.jac = TermTable.of([p for row in jacobian_rows for p in row], n_vars)

    def powers(self, points: np.ndarray) -> list[np.ndarray]:
        """Power tables of a k x n complex batch, enough for f and its Jacobian."""
        return power_tables(points, self.f.degrees)

    def values(self, tables: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """f and its term-magnitude sums at the batch, both k x m."""
        return self.f.values_and_sums(tables)

    def in_range(self, points: np.ndarray) -> np.ndarray:
        """Whether each row of a k x n batch is finite, with every monomial of f below 2^1023.

        A monomial is bounded by prod_v max(|x_v|, 1)^e_v, which bounds each
        entry of the power tables and each partial product of a monomial
        too, so evaluating f and its Jacobian at such a row overflows
        nowhere before the coefficients apply.
        """
        mags = np.abs(points)
        ok = np.isfinite(mags).all(axis=1)
        bits = np.log2(np.maximum(mags[ok], 1.0)) @ self.f.exps.T
        ok[ok] = bits.max(axis=1, initial=0.0) < 1023
        return ok

    def jacobian(self, tables: Sequence[np.ndarray]) -> np.ndarray:
        """The k x m x n Jacobian matrices at the batch."""
        vals = self.jac.values(tables)
        return vals.reshape(vals.shape[0], self.n_comps, self.n_vars)
