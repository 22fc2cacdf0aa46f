"""Numeric solving of square polynomial systems f(x) = y and fiber counting.

The pipeline is exact elimination first, floating point second: the target
y enters the coefficient field exactly (floats are rationals), the system is
cascaded down to one variable, and only root extraction, back-substitution,
and Newton refinement run in floating point.  Extraneous candidates that
resultant stages introduce are dropped at Newton's first evaluation by their
relative residual (:data:`SCREEN_RESIDUAL`), and what is left is checked by
the final residual test against the full system.

A triangular :class:`TargetPlan` skips the floating-point steps: when every
stage substitutes and the one final is linear in the last variable, as for
tame automorphisms, the fiber is one simple point, computed exactly from
the plan and rounded once per coordinate (:meth:`TargetPlan.exact_point`).
Its residual is reported, not tested.  :func:`geometric_degree` reads only
the count, so it computes no point there: it counts such a fiber from the
final's leading coefficient A(y') alone (:meth:`TargetPlan.single_point_at`).

The floating-point steps work on batches of targets, one target for
:func:`solve_fiber` and all sampled targets of a map for
:func:`geometric_degree`; each candidate row carries the index of its
target.  Each back-substitution stage compiles the pivots of all targets,
viewed as univariate in the stage variable, into one term table with a
block of columns per target, specializes every row at its own target's
pivot in one kernel call and roots all of them in one
:func:`polyproper.numlin.roots_of_each` call.  Newton then runs once on all
rows, each with its own y, through the map's compiled evaluator
(``PolyMap.evaluator()``, built once per map): each iteration is one
evaluation of f at the live candidates and one of the Jacobian at those
that step.  A candidate stops when its residual reaches the round-off floor
of the evaluation, a small multiple of machine epsilon times its
term-magnitude sum (see :mod:`polyproper.numeric`), or when its Jacobian is
singular or its step is not finite; it keeps its best iterate either way.
A candidate is a solution when its residual is below ``tol`` or at that
floor, the accuracy limit of its evaluation; deduplication and the
candidate cap are per target.

The cascade does not eliminate f - y as given.  It eliminates g - M·y,
where g = M·f is the reduced row echelon form of the components over their
monomials (:meth:`PolyMap.row_echelon`, computed once per map): M is an
invertible constant matrix, so the zeros are those of f - y, and each pivot
monomial occurs in one equation only.  Components that share leading
monomials, as dense maps and tame automorphisms A∘S∘B do, hide linear
pivots from the cascade; on g it substitutes where it would otherwise take
resultants, or find one vanishing identically.  Newton, the residuals and
the acceptance test still run on f at y.

Two routes lead to the cascade.  The per-target path eliminates at the
given target.  The map's :class:`TargetPlan` is the cascade of (g - y') with
y' = M·y symbolic that kills x_1..x_{n-1}, the same one ``nonproperness_set``
reads the last coordinate's relation from (Jelonek 1993), built on first
use and kept on the map.  :func:`geometric_degree` samples 50 targets of
one map, so it builds the plan and eliminates once per map.  Each sampled
target that A(y') does not count has its stage pivots and final
specialised exactly (:class:`polyproper.poly.Specialisation`); their
finals are rooted in one call, and they go through back-substitution and
Newton as one batch.  A target goes to the per-target path on its own when
the plan has a ``problem`` or is over budget, when its final or some pivot
vanishes at it, or when one of its branches degenerates or overflows
during back-substitution.  A nonzero constant final means the fiber is
empty.  :func:`solve_fiber` and :func:`fiber_count` build no plan and take
the per-target path, except where the map holds a triangular plan and
A(y') is nonzero: there they return its exact point, or raise
``ValueError`` when a coordinate of it overflows a float.  A batch of one
target gives the per-target fiber bit for bit.

The plan is built under an exact-work budget,
:data:`polyproper.elimination.MAX_SYMBOLIC_WORK` term pairs of the product
kernel (:func:`polyproper.poly.work_limit`): a symbolic elimination that
would run for minutes stops within about a second, and its map is sampled
per target.

Back-substitution trims a leading coefficient of a specialised pivot only
when it is within 1e-9 of its own term-magnitude sum, that is within its
round-off; a coefficient that is merely small next to the others is kept,
with the large root it brings.

Scale contract: square maps with n <= 3 and component degrees <= 10.
Targets for degree estimation are drawn from a box with re/im uniform in
[-2, 2], snapped to a dyadic grid (multiples of 1/4096) so the exact
elimination never sees 53-bit denominators.  Sampling is seeded and split
per target, so a fixed seed reproduces the estimate no matter how targets
are scheduled.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .elimination import (
    MAX_SYMBOLIC_WORK,
    EliminationResult,
    as_univariate,
    eliminate,
    linear_solution,
)
from .numeric import ROUNDOFF, MapEvaluator, TermTable, power_tables
from .numlin import RootSet, poly_to_coeffs, roots_of_each, univariate_roots
from .poly import (
    Polynomial,
    RowEchelon,
    Specialisation,
    WorkLimitExceeded,
    _sum_terms,
    stored_values,
    work_limit,
)
from .polymap import PolyMap

MAX_DIM = 3
MAX_COMPONENT_DEGREE = 10
DEDUP_RADIUS = 1e-6
#: Back-substitution candidates whose relative residual
#: ||f(x) - y|| / ||Σ|terms| + |y||| lies above this are dropped at Newton's
#: first evaluation, where a cascade has a resultant stage.
#: A resultant stage keeps every root of its pivot, but only the common
#: roots with the partner polynomial lie on the fiber (Cox, Little and
#: O'Shea, *Using Algebraic Geometry*, ch. 3).  Over the dense bench pool at
#: seeds 0-9, the candidates that are fiber points (Newton ends next to
#: where they start) start at ρ <= 4e-8 and the extraneous ones at
#: ρ >= 4.6e-7, 99.9 % of them above 8e-3: this bound is 2 500 times the
#: worst fiber point's.
SCREEN_RESIDUAL = 1e-4
#: Degree-estimation targets have re/im parts in [-SAMPLE_BOX, SAMPLE_BOX].
SAMPLE_BOX = 2.0
_CANDIDATE_CAP = 20000
_TARGET_PREFIXES = ("y", "w", "u", "tv")


class PositiveDimensionalFiberError(Exception):
    """The fiber is not a finite point set (elimination degenerated)."""


@dataclass(frozen=True)
class FiberSolution:
    point: tuple[complex, ...]
    residual: float  # ||f(point) - y||
    multiple: bool  # several branches, or a multiple root of the final or a pivot, led here


@dataclass(frozen=True)
class DegreeEstimate:
    """Sampled fiber counts and the resulting geometric-degree estimate."""

    mu: int
    histogram: dict[int, int]
    samples: int
    seed: int
    degenerate: int
    box: float

    def to_dict(self) -> dict:
        return {
            "mu": self.mu,
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
            "samples": self.samples,
            "seed": self.seed,
            "degenerate": self.degenerate,
            "box": self.box,
        }


def bezout_bound(f: PolyMap) -> int:
    """Product of component total degrees: bound on isolated fiber points."""
    bound = 1
    for c in f.components:
        bound *= c.total_degree() if not c.is_zero() else 0
    return bound


def _check_scale(f: PolyMap) -> None:
    if not f.is_square:
        raise ValueError("fiber solving requires a square map")
    if f.source_dim > MAX_DIM:
        raise ValueError(f"desk-scale contract: dimension {f.source_dim} > {MAX_DIM}")
    for c in f.components:
        if not c.is_zero() and c.total_degree() > MAX_COMPONENT_DEGREE:
            raise ValueError(
                f"desk-scale contract: component degree {c.total_degree()} > "
                f"{MAX_COMPONENT_DEGREE}"
            )


def _shifted_system(f: PolyMap, y: Sequence[complex]) -> list[Polynomial]:
    """The polynomials g_j - (M·y)_j, g = M·f the row echelon form of f, y folded in exactly.

    M is invertible, so g - M·y = M·(f - y) has the zeros of f - y, and
    each of its pivot monomials occurs in one equation only
    (:meth:`PolyMap.row_echelon`).
    """
    return f.row_echelon().shifted([complex(v) for v in y])


def target_variables(f: PolyMap) -> tuple[str, ...]:
    """Deterministic target coordinate names that avoid the source names."""
    for prefix in _TARGET_PREFIXES:
        names = tuple(f"{prefix}{k}" for k in range(1, f.target_dim + 1))
        if not set(names) & set(f.vars):
            return names
    raise ValueError(f"could not pick target variable names disjoint from {f.vars}")


def symbolic_system(f: PolyMap) -> tuple[Polynomial, ...]:
    """The polynomials g_j - y'_j over the source variables followed by :func:`target_variables`.

    g = M·f is the row echelon form of f (:meth:`PolyMap.row_echelon`) and
    the targets name the coordinates y' = M·y, one per equation: the zeros
    over y are those of f - y.  A relation read off this system is one in
    y'; :meth:`polyproper.poly.RowEchelon.pullback` writes it in y.  Built
    on first use and kept on the map, next to the echelon form.
    """
    system = f._symbolic_system
    if system is None:
        system = tuple(f.row_echelon().less_targets(target_variables(f)))
        object.__setattr__(f, "_symbolic_system", system)
    return system


class TargetPlan:
    """The cascade of g - y' that kills x_1..x_{n-1}, with the target symbolic.

    g = M·f is the row echelon form of f (``echelon``) and y' = M·y, so the
    cascade is that of :func:`symbolic_system`.  ``result`` is the
    :class:`EliminationResult` over the source variables followed by
    ``targets``, which name y', or None when the cascade needed more than
    :data:`MAX_SYMBOLIC_WORK` (``reason`` then says so).  A usable plan
    (its cascade ends with one final, with no ``problem``) is
    specialised at numeric targets y by :meth:`at`, for the batch of
    :func:`geometric_degree` only.  A triangular one also tells from A(y')
    alone where a fiber is one point (:meth:`single_point_at`), which
    :func:`geometric_degree` counts, and gives that point exactly
    (:meth:`exact_point`), which :func:`solve_fiber` returns.
    """

    __slots__ = ("targets", "echelon", "result", "reason", "_specialisation", "_triangular")

    def __init__(
        self,
        targets: tuple[str, ...],
        echelon: RowEchelon,
        result: EliminationResult | None,
        reason: str | None,
    ):
        self.targets = targets
        self.echelon = echelon
        self.result = result
        self.reason = reason
        self._specialisation = None
        self._triangular = None

    @property
    def usable(self) -> bool:
        return self.result is not None and self.result.problem is None

    def at(self, y: Sequence[complex]) -> tuple[list[Polynomial], list[Polynomial]]:
        """The stage pivots and the finals with y' = M·y substituted exactly.

        Both live in the source variables.  M·y is taken on the exact
        numerators of y; the compiled form is built on first use.
        """
        spec = self._specialisation
        stages = self.result.stages
        if spec is None:
            polys = [stage.pivot for stage in stages] + self.result.finals
            spec = Specialisation(polys, len(polys[0].vars) - len(self.targets))
            self._specialisation = spec
        values = spec.at_stored(*self.echelon.apply(*stored_values([complex(v) for v in y])))
        return values[: len(stages)], values[len(stages) :]

    def single_point_at(self, y: Sequence[complex]) -> bool:
        """Whether the fiber over y is one simple point, read from A(y') alone.

        True when the plan is triangular (:meth:`exact_point`) and its
        final's leading coefficient A(y') is nonzero.  No point is computed,
        and where A is a constant not even y' = M·y.
        """
        route = self._triangular_route()
        if not route:
            return False
        n, lead, _, _ = route
        return isinstance(lead, Polynomial) or not lead.at_stored(*self._image(n, y))[0].is_zero()

    def exact_point(self, y: Sequence[complex]) -> tuple[complex, ...] | None:
        """The one point of the fiber over y of a triangular plan, exact and rounded once.

        A usable plan is triangular when every stage substitutes, its pivot
        c_k·v_k + R_k with c_k a nonzero constant, and its one final is
        A(y')·z + B(y') with z the last source variable.  These n
        polynomials generate the ideal of g - y', so where A(y') != 0 the
        fiber is the single point z = -B/A, v_k = -R_k/c_k in reverse stage
        order, and the point is simple: each generator is linear in a
        variable of its own.  The coordinates are computed from y' = M·y on
        the exact numerators of y, in the stored form over one common
        denominator, and each is rounded once by int true division.  None
        when the plan is not usable or not triangular, when A(y') = 0 and
        when a coordinate overflows a float; B is evaluated only once
        A(y') != 0.  Compiled on first use (:meth:`_triangular_route`).
        """
        route = self._triangular_route()
        if not route:
            return None
        n, lead, rest, images = route
        d, nums = self._image(n, y)  # the values of all variables, over d
        a = lead if isinstance(lead, Polynomial) else lead.at_stored(d, nums)[0]
        if a.is_zero():
            return None
        (b,) = rest.at_stored(d, nums)
        ar, ai = a.nums[0]
        # z = -B/A = -(br + i·bi)·(ar - i·ai)·den_A / (den_B·|A|^2)
        z = {
            n - 1: (-(br * ar + bi * ai) * a.den, (br * ai - bi * ar) * a.den)
            for br, bi in b.nums.values()
        }
        d, nums = _sum_terms(d, nums, b.den * (ar * ar + ai * ai), z, 1)
        for k, image in images:
            (v,) = image.at_stored(d, nums)
            d, nums = _sum_terms(d, nums, v.den, {k: c for c in v.nums.values()}, 1)
        coordinates = (nums.get(k, (0, 0)) for k in range(n))
        try:
            return tuple(complex(re / d, im / d) for re, im in coordinates)
        except OverflowError:
            return None

    def _image(self, n: int, y: Sequence[complex]) -> tuple[int, dict]:
        """y' = M·y from the exact numerators of y: the values of variables n.., over one d."""
        d, ys = self.echelon.apply(*stored_values([complex(v) for v in y]))
        return d, {n + j: c for j, c in ys.items()}

    def _triangular_route(self) -> tuple | bool:
        """:meth:`_compile_triangular`, run on first use and kept."""
        if self._triangular is None:
            self._triangular = self._compile_triangular()
        return self._triangular

    def _compile_triangular(self) -> tuple | bool:
        """(n, A, B compiled, (column, -R_k/c_k compiled) per stage in reverse order), or False.

        Every polynomial is compiled with all its variables trailing
        (:class:`Specialisation` with ``head=0``), source and target alike.
        A is compiled apart from B, and a constant A is kept as its value,
        so that it costs nothing per target.  False when the plan is not
        usable or not triangular.
        """
        res = self.result
        if not self.usable or any(stage.mode != "substitution" for stage in res.stages):
            return False
        (final,) = res.finals
        n = len(final.vars) - len(self.targets)
        if final.degree_in(final.vars[n - 1]) != 1:
            return False
        by_power = as_univariate(final, final.vars[n - 1])
        lead = Specialisation([by_power[1]], 0)
        if by_power[1].is_constant():
            (lead,) = lead.at_stored(1, {})
        column = {v: k for k, v in enumerate(final.vars)}
        return (
            n,
            lead,
            Specialisation([by_power.get(0, Polynomial.zero(final.vars))], 0),
            [
                (column[stage.var], Specialisation([linear_solution(stage.pivot, stage.var)], 0))
                for stage in reversed(res.stages)
            ],
        )


def target_plan(f: PolyMap) -> TargetPlan:
    """The map's :class:`TargetPlan`, built on first use and kept on the map.

    The cascade runs under the exact-work limit :data:`MAX_SYMBOLIC_WORK`.
    """
    plan = f._target_plan
    if plan is None:
        targets = target_variables(f)
        try:
            with work_limit(MAX_SYMBOLIC_WORK):
                result = eliminate(symbolic_system(f), list(f.vars[:-1]))
            plan = TargetPlan(targets, f.row_echelon(), result, None)
        except WorkLimitExceeded as exc:
            plan = TargetPlan(targets, f.row_echelon(), None, f"symbolic elimination: {exc}")
        object.__setattr__(f, "_target_plan", plan)
    return plan


def _planned_fibers(
    f: PolyMap, ys: Sequence[Sequence[complex]], tol: float
) -> list[list[FiberSolution] | PositiveDimensionalFiberError]:
    """The fiber over each target in ``ys``, solved as one batch through the :class:`TargetPlan`.

    It serves :func:`geometric_degree` alone, which counts the targets where
    a triangular plan's A(y') is nonzero before the batch.  Each target is
    specialised exactly, the finals of all of them are rooted in one
    :func:`roots_of_each` call and their back-substitution and Newton run
    as one batch.  A nonzero constant final means the fiber is empty.  A
    target goes to the per-target path (:func:`_cascade_fiber`) on its own
    when the plan is not usable, when its final or some pivot vanishes at
    it, or when one of its branches degenerates or overflows during
    back-substitution; the error of a positive-dimensional fiber takes its
    place in the list.
    """
    out: list = [None] * len(ys)
    plan = target_plan(f)
    if plan.usable:
        batch, pivots, finals = [], [], []
        for i, y in enumerate(ys):
            stage_pivots, (final,) = plan.at(y)
            if not final or not all(stage_pivots):
                continue
            if final.is_constant():
                out[i] = []
                continue
            batch.append(i)
            pivots.append(stage_pivots)
            finals.append(poly_to_coeffs(final))
        if batch:
            stages = [
                (stage.var, stage.mode, [p[k] for p in pivots])
                for k, stage in enumerate(plan.result.stages)
            ]
            fibers, failures = _back_substitute(
                f, [ys[i] for i in batch], stages, roots_of_each(finals), tol
            )
            for i, fiber, failure in zip(batch, fibers, failures):
                if not failure:
                    out[i] = fiber
    for i, y in enumerate(ys):
        if out[i] is None:
            try:
                out[i] = _cascade_fiber(f, y, tol)
            except PositiveDimensionalFiberError as exc:
                out[i] = exc
    return out


def solve_fiber(
    f: PolyMap, y: Sequence[complex], tol: float = 1e-8
) -> list[FiberSolution]:
    """All isolated solutions of f(x) = y, exact or Newton-refined and deduplicated.

    Raises :class:`PositiveDimensionalFiberError` when the elimination
    detects a non-isolated fiber, and ``ValueError`` when a point of the
    fiber lies beyond float range.

    When the map already holds a triangular :class:`TargetPlan` and A(y')
    is nonzero, the fiber is the plan's one point, computed exactly
    (:meth:`TargetPlan.exact_point`): the point is simple, each coordinate
    is the exact value rounded once, and its residual ||f(x) - y|| is
    reported, not tested against ``tol``.  Every other fiber is solved on
    the per-target path (:func:`_cascade_fiber`), and no plan is built
    here.  Each of its solutions, refined by Newton, has ||f(x) - y|| <
    tol, or a residual within the round-off of evaluating f at it
    (:data:`polyproper.numeric.ROUNDOFF` times its term-magnitude sum),
    where no Newton step can lower it.
    """
    _check_scale(f)
    if len(y) != f.target_dim:
        raise ValueError(f"target has dimension {len(y)}, expected {f.target_dim}")
    plan = f._target_plan
    if plan is not None:
        point = plan.exact_point(y)
        if point is not None:
            ev = f.evaluator()
            (vals,), _ = ev.values(ev.powers(np.array([point], dtype=complex)))
            residual = float(np.hypot.reduce(np.abs(vals - np.array(y, dtype=complex))))
            return [FiberSolution(point, residual, multiple=False)]
        if plan.single_point_at(y):  # A(y') != 0, so the point overflows
            raise _beyond_float_range(y)
    return _cascade_fiber(f, y, tol)


def _cascade_fiber(f: PolyMap, y: Sequence[complex], tol: float) -> list[FiberSolution]:
    """The fiber over y on the per-target path: the cascade of (f - y) at y.

    Raises ``ValueError`` when the final is linear but its root lies beyond
    float range, or when no branch survives and some pivot overflowed
    during back-substitution.
    """
    res = eliminate(_shifted_system(f, y), list(f.vars[:-1]))
    if res.inconsistent:
        return []
    if res.problem:
        raise PositiveDimensionalFiberError(res.problem)
    stages = [(stage.var, stage.mode, [stage.pivot]) for stage in res.stages]
    coeffs = poly_to_coeffs(res.finals[0])
    if len(coeffs) == 2 and not abs(coeffs[0]) <= abs(coeffs[1]) * sys.float_info.max:
        raise _beyond_float_range(y)
    roots = univariate_roots(coeffs)
    (solutions,), (failure,) = _back_substitute(f, [y], stages, [roots], tol)
    if not solutions and failure:
        raise failure
    return solutions


def _beyond_float_range(y: Sequence[complex]) -> ValueError:
    return ValueError(f"the fiber point over {tuple(y)} lies beyond float range")


def _back_substitute(
    f: PolyMap,
    ys: Sequence[Sequence[complex]],
    stages: Sequence[tuple[str, str, Sequence[Polynomial]]],
    roots: Sequence[RootSet],
    tol: float,
) -> tuple[list[list[FiberSolution]], list[Exception | None]]:
    """The fiber points that the cascades at a batch of targets lead to.

    ``ys`` are the targets and ``roots`` the roots of each target's final
    in the last source variable.  ``stages`` are (variable, mode, pivots)
    triples in elimination order, one pivot per target with its y folded
    in.  Each candidate row carries the index of its target; the rows are
    extended through the stages in reverse, each stage specialising all of
    them in one kernel call and rooting them in one :func:`roots_of_each`
    call.  One Newton run refines them, and the rows are filtered per
    target.  Where some stage is a resultant, Newton first drops the
    candidates that the resultant brought in off the fiber, so they are
    neither refined nor counted as branches that a solution absorbed;
    without a resultant stage every candidate lies on the fiber.  Returns
    each target's solutions and what its fiber raises should none survive:
    :class:`PositiveDimensionalFiberError` when some branch degenerated (its
    pivot vanished identically at the branch's partial point), else
    ``ValueError`` when some branch's pivot overflowed a float there, else
    None.
    """
    column = {v: i for i, v in enumerate(f.vars)}
    owner = np.array([t for t, rs in enumerate(roots) for _ in rs.roots], dtype=np.intp)
    points = np.zeros((len(owner), f.source_dim), dtype=complex)
    points[:, column[f.vars[-1]]] = [r.value for rs in roots for r in rs.roots]
    mults = [r.multiplicity for rs in roots for r in rs.roots]

    failures: list[Exception | None] = [None] * len(ys)
    for var, _, pivots in reversed(stages):
        if not mults:
            break
        extended, rows = [], []
        view = _UnivariateView(pivots, var)
        for k, (t, coeffs) in enumerate(zip(owner.tolist(), view.specialize(points, owner))):
            if coeffs is None:
                failures[t] = PositiveDimensionalFiberError(
                    "all candidate branches degenerated during back-substitution"
                )
            elif not coeffs:  # the pivot overflowed at the branch's partial point
                failures[t] = failures[t] or _beyond_float_range(ys[t])
            elif len(coeffs) > 1:  # a nonzero constant: the branch has no extension
                extended.append(k)
                rows.append(coeffs)
        root_sets = roots_of_each(rows)
        parent = [k for k, rs in zip(extended, root_sets) for _ in rs.roots]
        points = points[parent]
        points[:, column[var]] = [r.value for rs in root_sets for r in rs.roots]
        mults = [mults[k] * r.multiplicity for k, rs in zip(extended, root_sets) for r in rs.roots]
        owner = owner[parent]
        if len(owner) and np.bincount(owner).max() > _CANDIDATE_CAP:
            raise RuntimeError("candidate explosion; system outside desk scale")

    ev = f.evaluator()
    y_rows = np.array(ys, dtype=complex).reshape(len(ys), f.target_dim)[owner]
    screen = any(mode == "resultant" for _, mode, _ in stages)
    best, best_res, floors = _newton_batch(ev, y_rows, points, screen)
    # a residual within the round-off of evaluating f, where Newton stops,
    # is as small as any step can make it
    accepted = (best_res < tol) | ((best_res <= floors) & np.isfinite(floors))
    refined: list[list] = [[] for _ in ys]
    for t, point, residual, mult, ok in zip(
        owner.tolist(), best.tolist(), best_res.tolist(), mults, accepted.tolist()
    ):
        if ok:
            refined[t].append((tuple(point), residual, mult))
    return [_deduplicated(candidates) for candidates in refined], failures


class _UnivariateView:
    """Polynomials, one per target, viewed as univariate in ``var`` and compiled once.

    The coefficient polynomials of the powers of ``var`` of all of them
    form one term table, with one block of columns per polynomial, so
    specializing a batch of rows, each at its own polynomial, costs one
    kernel call.
    """

    __slots__ = ("table", "coeffs", "abs_coeffs", "max_abs")

    def __init__(self, polys: Sequence[Polynomial], var: str):
        views = [as_univariate(p, var) for p in polys]
        width = max(max(u) for u in views) + 1
        zero = Polynomial.zero(polys[0].vars)
        self.table = TermTable(
            [u.get(k, zero) for u in views for k in range(width)], len(polys[0].vars)
        )
        shape = (len(self.table.coeffs), len(polys), width)  # terms x polys x powers
        self.coeffs = self.table.coeffs.reshape(shape)
        self.abs_coeffs = self.table.abs_coeffs.reshape(shape)
        self.max_abs = self.abs_coeffs.max(axis=2)

    def specialize(self, points: np.ndarray, owner: np.ndarray) -> list[list[complex] | None]:
        """Ascending coefficients in ``var`` at each row of a k x n batch.

        Row i is specialised in polynomial ``owner[i]``.  A leading entry is
        trimmed while it is within round-off of its own term-magnitude sum;
        an entry is None when the whole polynomial collapses to zero
        relative to the largest term that was summed (a degenerate
        specialization), and empty when some term overflows a float.
        """
        with np.errstate(over="ignore", invalid="ignore"):  # a point beyond float range
            mono = self.table.monomials(power_tables(points, self.table.degrees))
            abs_mono = np.abs(mono)
            values = np.einsum("rt,trk->rk", mono, self.coeffs[:, owner]).tolist()
            sums = np.einsum("rt,trk->rk", abs_mono, self.abs_coeffs[:, owner])
            bounds = (abs_mono * self.max_abs[:, owner].T).max(axis=1).tolist()
        rows = zip(values, sums.tolist(), bounds)
        return [_trim(*row) if ok else [] for row, ok in zip(rows, np.isfinite(sums).all(axis=1))]


def _trim(coeffs: list[complex], sums: list[float], bound: float) -> list[complex] | None:
    """``coeffs`` without leading entries within 1e-9 of their term-magnitude ``sums``.

    None when even the largest entry is below 1e-9 of ``bound``.
    """
    if max(abs(c) for c in coeffs) <= 1e-9 * max(bound, 1e-280):
        return None
    while coeffs and abs(coeffs[-1]) <= 1e-9 * sums[len(coeffs) - 1]:
        coeffs.pop()
    if not coeffs:
        return None
    return coeffs


def _deduplicated(candidates: list[tuple[tuple[complex, ...], float, int]]) -> list[FiberSolution]:
    """One solution per cluster of refined candidates closer than DEDUP_RADIUS.

    The candidates are taken in lexicographic order of their coordinates'
    (real, imaginary) parts.  Each joins the first cluster, in order of
    creation, whose representative lies within DEDUP_RADIUS of it in the
    max norm, or starts a new one; a cluster's representative is its member
    of least residual so far.  The distances are the rows of the max-norm
    distance matrix of the candidates, each computed by numpy when its
    candidate becomes a representative, so memory grows with the number of
    clusters rather than with the square of the candidates.
    """
    if len(candidates) < 2:
        return [FiberSolution(p, r, multiple=m > 1) for p, r, m in candidates]
    points = np.array([point for point, _, _ in candidates], dtype=complex)
    keys = [part for col in points.T[::-1] for part in (col.imag, col.real)]
    near: dict[int, np.ndarray] = {}  # representative -> which candidates lie within the radius
    reps: list[int] = []  # each cluster's representative, an index into candidates
    merged: list[list] = []  # [residual, total_mult, branches]
    for i in np.lexsort(keys).tolist():
        _, residual, mult = candidates[i]
        e = next((e for e, r in enumerate(reps) if near[r][i]), None)
        if e is None:
            reps.append(i)
            merged.append([residual, mult, 1])
        else:
            entry = merged[e]
            entry[1] += mult
            entry[2] += 1
            if residual >= entry[0]:
                continue
            del near[reps[e]]
            reps[e], entry[0] = i, residual
        near[i] = np.abs(points - points[i]).max(axis=1) < DEDUP_RADIUS

    return [
        FiberSolution(candidates[i][0], residual, multiple=(total_mult > 1 or branches > 1))
        for i, (residual, total_mult, branches) in zip(reps, merged)
    ]


def _newton_batch(
    ev: MapEvaluator, y: np.ndarray, x: np.ndarray, screen: bool = False, iters: int = 40
):
    """Newton's method on a batch of candidates at once.

    ``y`` is one target for every row of ``x`` or one target per row.
    Returns each candidate's best iterate, its residual ||f(x) - y|| and the
    evaluation's round-off floor there, ROUNDOFF * ||sum |terms| + |y|||.  A
    candidate stops once its residual is below 1e-15 * (1 + ||y||) or at
    most that floor, or when its Jacobian is singular or its step is not
    finite; the others go on.  The Jacobian is evaluated only at candidates
    that take a step.  With ``screen``, a start whose relative residual
    ||f(x) - y|| / ||sum |terms| + |y||| exceeds :data:`SCREEN_RESIDUAL` is
    dropped at the first evaluation: it is never stepped, and its residual
    and floor stay infinite.
    """
    x = x.copy()
    best = x.copy()
    best_res = np.full(len(x), np.inf)
    best_floor = np.full(len(x), np.inf)
    live = np.arange(len(x))
    y = np.broadcast_to(y, x.shape)
    abs_y = np.abs(y)
    # hypot does not square its entries, so a norm overflows only where an entry does
    exact_floor = 1e-15 * (1.0 + np.hypot.reduce(abs_y, axis=1))
    for it in range(iters + 1):
        if not live.size:
            break
        tables = ev.powers(x[live])
        vals, sums = ev.values(tables)
        r = vals - y[live]
        res = np.hypot.reduce(np.abs(r), axis=1)
        floor = ROUNDOFF * np.hypot.reduce(sums + abs_y[live], axis=1)
        if screen and not it:
            off = ~(res * ROUNDOFF <= SCREEN_RESIDUAL * floor)
            res[off] = floor[off] = np.inf
        better = res < best_res[live]
        best[live[better]] = x[live[better]]
        best_res[live[better]] = res[better]
        best_floor[live[better]] = floor[better]
        if it == iters:
            break
        step = (res >= exact_floor[live]) & (res > floor)
        live, r = live[step], r[step]
        if not live.size:
            break
        jac = ev.jacobian([t[step] for t in tables])
        delta, solved = _solve_each(jac, r)
        moved = x[live] - delta
        ok = solved & np.isfinite(moved).all(axis=1)
        x[live[ok]] = moved[ok]
        live = live[ok]
    return best, best_res, best_floor


def _solve_each(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve a[i] @ s[i] = b[i] for each i; singular a[i] are flagged, not raised."""
    try:
        return np.linalg.solve(a, b[..., None])[..., 0], np.ones(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        out = np.zeros_like(b)
        solved = np.ones(len(a), dtype=bool)
        for i in range(len(a)):
            try:
                out[i] = np.linalg.solve(a[i], b[i])
            except np.linalg.LinAlgError:
                solved[i] = False
        return out, solved


def fiber_count(f: PolyMap, y: Sequence[complex], tol: float = 1e-8) -> int:
    """Cardinality of the isolated solution set of f(x) = y.

    Propagates :class:`PositiveDimensionalFiberError` for non-isolated
    fibers.
    """
    return len(solve_fiber(f, y, tol))


def sample_target(rng: np.random.Generator, n: int, box: float = SAMPLE_BOX) -> tuple[complex, ...]:
    """One target point: re/im uniform in [-box, box] on a dyadic grid."""
    vals = np.round(rng.uniform(-box, box, size=2 * n) * 4096.0) / 4096.0
    return tuple(complex(vals[2 * k], vals[2 * k + 1]) for k in range(n))


def geometric_degree(
    f: PolyMap,
    n_samples: int = 50,
    seed: int = 0,
    tol: float = 1e-8,
) -> DegreeEstimate:
    """Estimate the geometric degree by sampling fiber counts.

    The estimate is the maximum finite fiber count over seeded random
    targets; for a map that restricts to a cover off its nonproperness set,
    generic targets all attain it.  Degenerate samples (positive-dimensional
    fibers) are tallied separately; it is an error if every sample
    degenerates or no sample has a nonzero count.  Where the map's
    :class:`TargetPlan` is triangular and the final's leading coefficient
    A(y') is nonzero, the fiber is one simple point and is counted as such,
    with no point computed (:meth:`TargetPlan.single_point_at`).  The other
    sampled fibers are solved as one batch through the plan; a target where
    the plan does not apply falls back to the per-target cascade on its own.
    So the counts are those of :func:`fiber_count`, except where the one
    point of a triangular fiber lies beyond float range: ``fiber_count``
    raises ``ValueError`` there, and this counts 1.
    """
    _check_scale(f)
    if n_samples < 1:
        raise ValueError("need at least one sample")
    ys = [
        sample_target(np.random.default_rng(child), f.target_dim)
        for child in np.random.SeedSequence(seed).spawn(n_samples)
    ]
    plan = target_plan(f)
    rest = [y for y in ys if not plan.single_point_at(y)]
    single = len(ys) - len(rest)
    histogram: dict[int, int] = {1: single} if single else {}
    degenerate = 0
    for fiber in _planned_fibers(f, rest, tol):
        if isinstance(fiber, PositiveDimensionalFiberError):
            degenerate += 1
            continue
        histogram[len(fiber)] = histogram.get(len(fiber), 0) + 1
    if not histogram:
        raise ValueError("every sampled fiber was degenerate")
    mu = max(histogram)
    if mu == 0:
        raise ValueError("no sample produced a nonzero fiber count; map looks non-dominant")
    return DegreeEstimate(
        mu=mu,
        histogram=histogram,
        samples=n_samples,
        seed=seed,
        degenerate=degenerate,
        box=SAMPLE_BOX,
    )
