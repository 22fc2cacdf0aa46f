"""Polynomial mappings C^n -> C^m: Jacobians, composition, inverse checks.

A ``PolyMap`` is an ordered tuple of polynomials over one shared source
variable context.  The Jacobian determinant is computed fraction free
(Bareiss), so statements like "the determinant is the constant 1" are exact.
A map is immutable, so its Jacobian, its nonsingularity verdict, its
compiled numeric evaluator and the row echelon form of its components are
computed once, on first use, and kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .elimination import poly_matrix_det
from .numeric import MapEvaluator
from .parser import parse_polynomial
from .poly import Polynomial, RowEchelon, composition_equals
from .scalar import GaussianRational


class PolyMap:
    """Immutable polynomial mapping given by component polynomials."""

    __slots__ = (
        "vars",
        "components",
        "_jacobian",
        "_nonsingularity",
        "_evaluator",
        "_row_echelon",
        "_symbolic_system",  # set by solver.symbolic_system
        "_target_plan",  # set by solver.target_plan
    )

    def __init__(self, variables: Sequence[str], components: Sequence[Polynomial]):
        vs = tuple(variables)
        comps = tuple(components)
        if not vs or not comps:
            raise ValueError("a map needs at least one variable and one component")
        for c in comps:
            if c.vars != vs:
                raise ValueError(
                    f"component context {c.vars} does not match map context {vs}"
                )
        object.__setattr__(self, "vars", vs)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "_jacobian", None)
        object.__setattr__(self, "_nonsingularity", None)
        object.__setattr__(self, "_evaluator", None)
        object.__setattr__(self, "_row_echelon", None)
        object.__setattr__(self, "_symbolic_system", None)
        object.__setattr__(self, "_target_plan", None)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMap is immutable")

    @classmethod
    def identity(cls, variables: Sequence[str]) -> "PolyMap":
        vs = tuple(variables)
        return cls(vs, [Polynomial.variable(vs, v) for v in vs])

    @classmethod
    def from_exprs(cls, variables: Sequence[str], exprs: Sequence[str]) -> "PolyMap":
        vs = tuple(variables)
        return cls(vs, [parse_polynomial(e, vs) for e in exprs])

    @property
    def source_dim(self) -> int:
        return len(self.vars)

    @property
    def target_dim(self) -> int:
        return len(self.components)

    @property
    def is_square(self) -> bool:
        return self.source_dim == self.target_dim

    def evaluator(self) -> MapEvaluator:
        """The map and its Jacobian compiled for batch evaluation (cached)."""
        ev = self._evaluator
        if ev is None:
            ev = MapEvaluator(self.components, self.jacobian().entries, self.source_dim)
            object.__setattr__(self, "_evaluator", ev)
        return ev

    def evaluate(self, point: Sequence[complex]) -> tuple[complex, ...]:
        values = [complex(p) for p in point]
        if len(values) != self.source_dim:
            raise ValueError(f"point has dimension {len(values)}, expected {self.source_dim}")
        ev = self.evaluator()
        vals, _ = ev.values(ev.powers(np.array([values])))
        return tuple(complex(v) for v in vals[0])

    def row_echelon(self) -> RowEchelon:
        """The reduced row echelon form g = M·f of the components (cached).

        Elimination runs on g - M·y: the same ideal as f - y, with every
        pivot monomial in one equation only (see :class:`polyproper.poly.RowEchelon`).
        """
        echelon = self._row_echelon
        if echelon is None:
            echelon = RowEchelon(self.components)
            object.__setattr__(self, "_row_echelon", echelon)
        return echelon

    def jacobian(self) -> "PolyMatrix":
        """Matrix of partial derivatives, entry (i, j) = d components[i] / d vars[j]."""
        jac = self._jacobian
        if jac is None:
            jac = PolyMatrix([[c.diff(v) for v in self.vars] for c in self.components])
            object.__setattr__(self, "_jacobian", jac)
        return jac

    def jacobian_det(self) -> Polynomial:
        if not self.is_square:
            raise ValueError("Jacobian determinant requires a square map")
        return self.jacobian().det()

    def nonsingularity(self) -> "NonsingularityVerdict":
        """Decide whether the Jacobian determinant is a nonzero constant."""
        verdict = self._nonsingularity
        if verdict is None:
            det = self.jacobian_det()
            if det.is_constant() and not det.is_zero():
                verdict = NonsingularityVerdict(True, det.constant_value(), det)
            else:
                verdict = NonsingularityVerdict(False, None, det)
            object.__setattr__(self, "_nonsingularity", verdict)
        return verdict

    def drop_component(self, k: int) -> "PolyMap":
        """Delete the k-th component (1-based, matching the usual notation)."""
        if not 1 <= k <= self.target_dim:
            raise ValueError(f"component index {k} out of range 1..{self.target_dim}")
        comps = self.components[: k - 1] + self.components[k:]
        return PolyMap(self.vars, comps)

    def compose(self, inner: "PolyMap") -> "PolyMap":
        """The composition self(inner(x)); inner's target feeds self's source."""
        if inner.target_dim != self.source_dim:
            raise ValueError(
                f"cannot compose: inner target dimension {inner.target_dim} != "
                f"outer source dimension {self.source_dim}"
            )
        assignment = dict(zip(self.vars, inner.components))
        return PolyMap(inner.vars, [c.substitute(assignment) for c in self.components])

    def __eq__(self, other) -> bool:
        if isinstance(other, PolyMap):
            return self.vars == other.vars and self.components == other.components
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.vars, self.components))

    def __repr__(self) -> str:
        comps = ", ".join(str(c) for c in self.components)
        return f"PolyMap({self.vars!r}: {comps})"


class PolyMatrix:
    """Rectangular matrix of polynomials over one variable context."""

    __slots__ = ("entries",)

    def __init__(self, rows: Sequence[Sequence[Polynomial]]):
        entries = tuple(tuple(r) for r in rows)
        if not entries or not entries[0]:
            raise ValueError("matrix must be nonempty")
        width = len(entries[0])
        ctx = entries[0][0].vars
        for r in entries:
            if len(r) != width:
                raise ValueError("ragged matrix rows")
            for p in r:
                if p.vars != ctx:
                    raise ValueError("matrix entries use inconsistent variable contexts")
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.entries), len(self.entries[0])

    def __getitem__(self, ij: tuple[int, int]) -> Polynomial:
        i, j = ij
        return self.entries[i][j]

    def det(self) -> Polynomial:
        rows, cols = self.shape
        if rows != cols:
            raise ValueError("determinant of a non-square matrix")
        return poly_matrix_det(self.entries)

    def __repr__(self) -> str:
        body = "; ".join("[" + ", ".join(str(p) for p in row) + "]" for row in self.entries)
        return f"PolyMatrix({body})"


@dataclass(frozen=True)
class NonsingularityVerdict:
    """Whether the Jacobian determinant is a nonzero constant, and which one."""

    is_nonsingular: bool
    constant: GaussianRational | None
    determinant: Polynomial

    def __bool__(self) -> bool:
        return self.is_nonsingular


def verify_inverse(f: PolyMap, g: PolyMap) -> bool:
    """True iff f and g are exact two-sided inverses, decided from f(g(x)) = x alone.

    One composition suffices: f o g = id makes g injective, and an injective
    polynomial self-map of C^n is an automorphism (Bialynicki-Birula and
    Rosenlicht 1962; Bass, Connell and Wright, Bull. AMS 7, 1982), so its
    inverse f also satisfies g o f = id.

    f o g = id is tested without expanding f o g, by
    :func:`polyproper.poly.composition_equals`.  Each f_j(g) - x_j, cleared
    of denominators, is a polynomial over the Gaussian integers.  Two
    conditions make its Kronecker image exact.  Its degree in each x_v is
    at most D_v, so x_v -> t^(w_v) with w_v = prod_{u<v} (D_u + 1) sends
    distinct monomials to distinct powers of t.  Its coefficients lie below
    2^(B-1) in absolute value, so the univariate image vanishes at t = 2^B
    only when it is zero.  One big-integer Horner evaluation per component
    then decides f_j(g) = x_j (Kronecker substitution; Harvey, J. Symb.
    Comp. 44, 2009).  An image above ``KRONECKER_MAX_BITS`` bits, as for
    sparse maps of high degree, falls back to expanding f o g.
    """
    if not (f.is_square and g.is_square) or f.source_dim != g.source_dim:
        raise ValueError("inverse verification requires square maps of equal dimension")
    identity = PolyMap.identity(g.vars)
    same = composition_equals(f.components, g.components, identity.components)
    if same is None:
        same = f.compose(g) == identity
    return same


def parse_map_text(text: str) -> PolyMap:
    """Parse the line-oriented map format.

    Format: a ``vars:`` line naming the source variables, then one
    ``name = expression`` line per component, in order.  Blank lines and
    ``#`` comments are ignored::

        vars: x y z
        f1 = x + y*(z - 3*x^5*y + 2*x^7*y^2)
        f2 = y
        f3 = z - 3*x^5*y + 2*x^7*y^2
    """
    variables: tuple[str, ...] | None = None
    exprs: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if variables is None:
            if not line.startswith("vars:"):
                raise ValueError(f"line {lineno}: expected a 'vars:' line first")
            variables = tuple(line[len("vars:") :].split())
            if not variables:
                raise ValueError(f"line {lineno}: no variables declared")
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'name = expression'")
        _, expr = line.split("=", 1)
        exprs.append(expr.strip())
    if variables is None:
        raise ValueError("map text has no 'vars:' line")
    if not exprs:
        raise ValueError("map text declares no components")
    return PolyMap.from_exprs(variables, exprs)


def load_map_file(path) -> PolyMap:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_map_text(fh.read())
