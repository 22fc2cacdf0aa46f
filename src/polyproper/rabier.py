"""Certified asymptotic-critical-value witnesses along Laurent paths.

A witness for a map g consists of a curve t -> x(t) with Laurent-polynomial
coordinates such that, as t -> infinity,

* ||x(t)|| diverges (some coordinate has positive degree: exact check),
* g(x(t)) converges (every composed component has nonpositive degree; the
  limit is the exact vector of constant terms), and
* the smallest singular value of the Jacobian J(t) of g at x(t) tends to 0
  (exact check: sigma_min ~ c * t^(D_r - D_(r-1)), D_k the largest degree
  of the k x k minors of J(t) with r rows, by the Smith-McMillan form at
  infinity; Kailath, *Linear Systems*, 1980, section 6.5).

The accepted limit is then a member of the asymptotic critical set of g
(the set of target values reachable with gradient degeneration at
infinity), which in particular refutes any claim that this set is empty.

Jacobian entries are composed with the path symbolically before any minor
is taken, so the huge cancellations typical of these curves happen exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import Sequence

from .parser import parse_path
from .poly import LaurentPoly
from .polymap import PolyMap
from .scalar import GaussianRational


class LaurentPath:
    """A curve with one Laurent-polynomial coordinate per source variable."""

    __slots__ = ("coordinates",)

    def __init__(self, coordinates: Sequence[LaurentPoly]):
        coords = tuple(coordinates)
        if not coords:
            raise ValueError("a path needs at least one coordinate")
        if all(c.is_zero() for c in coords):
            raise ValueError("a path needs at least one nonzero coordinate")
        var = coords[0].var
        for c in coords:
            if c.var != var:
                raise ValueError("path coordinates must share one parameter variable")
        object.__setattr__(self, "coordinates", coords)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPath is immutable")

    @classmethod
    def from_text(cls, text: str, var: str = "t") -> "LaurentPath":
        return cls(parse_path(text, var))

    @property
    def dim(self) -> int:
        return len(self.coordinates)

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPath):
            return self.coordinates == other.coordinates
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coordinates)

    def __str__(self) -> str:
        return ", ".join(str(c) for c in self.coordinates)

    def __repr__(self) -> str:
        return f"LaurentPath({str(self)!r})"


@dataclass(frozen=True)
class PathDivergence:
    diverges: bool
    coordinates: tuple[int, ...]  # 1-based indices with positive degree

    def __bool__(self) -> bool:
        return self.diverges


def path_diverges(path: LaurentPath) -> PathDivergence:
    """Exact check that ||x(t)|| -> infinity: some coordinate degree >= 1."""
    hits = tuple(
        k + 1
        for k, c in enumerate(path.coordinates)
        if not c.is_zero() and c.degree() >= 1
    )
    return PathDivergence(bool(hits), hits)


@dataclass(frozen=True)
class ImageLimit:
    """Limit of g along the path: finite exact vector, or the component that blows up."""

    finite: bool
    value: tuple[GaussianRational, ...] | None
    diverging_component: int | None  # 1-based
    decay_order: int | None  # max degree of (composition - limit); None if identically constant


def image_limit(g: PolyMap, path: LaurentPath) -> ImageLimit:
    """Exact image limit of g along the path as t -> infinity."""
    if path.dim != g.source_dim:
        raise ValueError(
            f"path dimension {path.dim} does not match source dimension {g.source_dim}"
        )
    comps = tuple(c.substitute_path(path.coordinates) for c in g.components)
    for k, comp in enumerate(comps):
        if not comp.is_zero() and comp.degree() >= 1:
            return ImageLimit(False, None, k + 1, None)
    limit = tuple(comp.constant_term() for comp in comps)
    decay = None
    for comp, lim in zip(comps, limit):
        tail = comp - LaurentPoly(comp.var, {0: lim})
        if not tail.is_zero():
            decay = tail.degree() if decay is None else max(decay, tail.degree())
    return ImageLimit(True, limit, None, decay)


def _path_jacobian_entries(g: PolyMap, path: LaurentPath):
    jac = g.jacobian()
    rows, cols = jac.shape
    return [
        [jac[i, j].substitute_path(path.coordinates) for j in range(cols)]
        for i in range(rows)
    ]


def _sigma_order(entries) -> int | None:
    """D_r - D_(r-1) for a Laurent matrix of r rows (D_0 = 0); None if sigma_min is 0.

    Each minor is expanded once, along its first row.
    """
    rows, cols = len(entries), len(entries[0])
    if rows > cols:
        raise ValueError(f"expected no more rows than columns, got {rows}x{cols}")
    var = entries[0][0].var

    @cache
    def minor(rs: tuple, cs: tuple) -> LaurentPoly:
        if len(rs) <= 1:
            return entries[rs[0]][cs[0]] if rs else LaurentPoly.one(var)
        total = LaurentPoly.zero(var)
        for j, c in enumerate(cs):
            if entries[rs[0]][c]:
                term = entries[rs[0]][c] * minor(rs[1:], cs[:j] + cs[j + 1 :])
                total = total - term if j % 2 else total + term
        return total

    def top_degree(k: int) -> int | None:
        col_sets = list(combinations(range(cols), k))
        ms = (minor(rs, cs) for rs in combinations(range(rows), k) for cs in col_sets)
        return max((m.degree() for m in ms if not m.is_zero()), default=None)

    full = top_degree(rows)
    # a nonzero r x r minor expands into a nonzero (r-1) x (r-1) one
    return None if full is None else full - top_degree(rows - 1)


@dataclass(frozen=True)
class RabierWitness:
    """An accepted witness; every clause is re-checkable from the fields."""

    map: PolyMap
    path: LaurentPath
    limit: tuple[GaussianRational, ...]
    divergence_coordinates: tuple[int, ...]
    decay_order: int | None
    sigma_order: int | None  # sigma_min ~ c * t^sigma_order; None if it is identically 0

    accepted = True


@dataclass(frozen=True)
class Rejection:
    reason: str
    clause: str
    details: dict[str, object]

    accepted = False


def check_rabier_witness(g: PolyMap, path: LaurentPath) -> RabierWitness | Rejection:
    """Accept or reject a path as an asymptotic-critical-value witness.

    Acceptance requires all of, each exact: the path diverges in norm, the
    image limit is finite, and sigma_min of the Jacobian along the path has
    a negative order in t or is identically 0.  Rejections name the first
    failed clause.
    """
    div = path_diverges(path)
    if not div:
        return Rejection("path bounded", "norm divergence", {"degrees": _degrees(path)})
    lim = image_limit(g, path)
    if not lim.finite:
        return Rejection(
            "image diverges",
            "image limit",
            {"component": lim.diverging_component},
        )
    order = _sigma_order(_path_jacobian_entries(g, path))
    if order is not None and order >= 0:
        details = {"sigma_order": order}
        return Rejection("singular values do not tend to 0", "singular value decay", details)
    return RabierWitness(
        map=g,
        path=path,
        limit=lim.value,
        divergence_coordinates=div.coordinates,
        decay_order=lim.decay_order,
        sigma_order=order,
    )


def _degrees(path: LaurentPath) -> list[int | None]:
    return [None if c.is_zero() else c.degree() for c in path.coordinates]
