"""Numeric solving of square polynomial systems f(x) = y and fiber counting.

The pipeline is exact elimination first, floating point second: the target
y enters the coefficient field exactly (floats are rationals), the system is
cascaded down to one variable, and only root extraction, back-substitution,
and Newton refinement run in floating point.  A resultant stage is
back-substituted through E, the last element of positive degree of the
subresultant chain of its pivot and first partner
(:attr:`polyproper.elimination.EliminationStage.element`): at a root z0 of
the final, the common roots of the two are roots of E(z0), and where the
chain ends normally E is S_1, linear, so each branch gets one candidate,
v = -s_10(z0)/s_11(z0) (Basu, Pollack and Roy, *Algorithms in Real
Algebraic Geometry*, ch. 4 and 8).  A branch roots the pivot instead where
the stage keeps no E or E's leading entry vanishes there.  The candidates
off the fiber that are left, from a rooted pivot, from an E of degree 2 or
more or from an extraneous root of the final, are dropped at Newton's
first evaluation by their relative residual (:data:`SCREEN_RESIDUAL`), and
what is left is checked by the final residual test against the full
system.

A triangular cascade skips the floating-point steps: when every stage
substitutes and the one final is linear in the last variable, as for tame
automorphisms, the fiber is one simple point, computed exactly from the
stages and rounded once per coordinate.  Its residual is reported, not
tested.  :func:`geometric_degree` reads only the count, so it computes no
point there: it counts such a fiber from the leading coefficient A(y') of
its plan's final alone (:meth:`TargetPlan.single_point_at`), and where A
is a nonzero constant it draws no target at all.

The floating-point steps work on batches of targets, one target for
:func:`solve_fiber` and all sampled targets of a map for
:func:`geometric_degree`; each candidate row carries the index of its
target.  Each back-substitution stage compiles what all targets root there,
E or the pivot, viewed as univariate in the stage variable, into one term
table with a block of columns per target, specializes every row at its own
target's polynomial in one kernel call and roots all of them in one
:func:`polyproper.numlin.roots_of_each` call, on both routes below.
Newton then runs once on all rows, each with its own y, through the map's
compiled evaluator (``PolyMap.evaluator()``, built once per map): each
iteration is one evaluation of f at the live candidates and one of the
Jacobian at those that step.  A candidate stops when its residual reaches
the round-off floor of the evaluation, a small multiple of machine epsilon
times its term-magnitude sum (see :mod:`polyproper.numeric`), or when its
Jacobian is singular, its step is not finite or f overflows a float; it
keeps its best iterate either way.  A candidate is a solution when its
residual is below :data:`RESIDUAL_TOL` or at that floor, the accuracy limit
of its evaluation.  The candidate cap is per target.  The solutions of the
whole batch are sorted once, by target and coordinates; a target whose
neighbours in that order all lie at least :data:`DEDUP_RADIUS` apart in
Re x_1 has nothing to merge, and only the others are deduplicated point
by point (:func:`_solutions`).

The cascade does not eliminate f - y as given.  It eliminates g - M·y,
where g = M·f is the reduced row echelon form of the components over their
monomials (:meth:`PolyMap.row_echelon`, computed once per map): M is an
invertible constant matrix, so the zeros are those of f - y, and each pivot
monomial occurs in one equation only.  Components that share leading
monomials, as dense maps and tame automorphisms A∘S∘B do, hide linear
pivots from the cascade; on g it substitutes where it would otherwise take
resultants, or find one vanishing identically.  Newton, the residuals and
the acceptance test still run on f at y.

Two routes lead to the cascade, an :class:`EliminationResult` at each
target on both.  The per-target path eliminates at the given target.  The
map's :class:`TargetPlan` is the cascade of (g - y') with y' = M·y symbolic
that kills x_1..x_{n-1}, the same one ``nonproperness_set`` reads the last
coordinate's relation from (Jelonek 1993), built on first use and kept on
the map.  :func:`geometric_degree` samples :data:`DEGREE_SAMPLES` targets of
one map, so it builds the plan and eliminates once per map.  The plan at
each sampled target that A(y') does not count (:meth:`TargetPlan.at`) has
its stage pivots, E and final specialised exactly; their finals are rooted
in one call, and they go through back-substitution and Newton as one batch.
A target goes to the per-target path on its own where the plan does not
apply at it, or where one of its branches degenerates or overflows during
back-substitution.  A nonzero constant final means the fiber is empty.
:func:`solve_fiber` and :func:`fiber_count` take the per-target path only,
and neither build nor read a plan.

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
[-SAMPLE_BOX, SAMPLE_BOX], snapped to a dyadic grid (multiples of 1/4096)
so the exact elimination never sees 53-bit denominators.  Sampling is
seeded and split per target, so a fixed seed reproduces the estimate no
matter how targets are scheduled.  A map whose plan is triangular with a
nonzero constant A draws none: every fiber is one point.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .elimination import (
    MAX_SYMBOLIC_WORK,
    EliminationResult,
    EliminationStage,
    as_univariate,
    eliminate,
)
from .numeric import ROUNDOFF, MapEvaluator, TermTable, power_tables
from .numlin import RootSet, poly_to_coeffs, roots_of_each, univariate_roots
from .poly import (
    Polynomial,
    RowEchelon,
    Specialisation,
    WorkLimitExceeded,
    _sum_terms,
    numerators_by_power,
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
#: A rooted pivot of a resultant stage gives all its roots, but only the
#: common roots with the partner polynomial lie on the fiber (Cox, Little
#: and O'Shea, *Using Algebraic Geometry*, ch. 3); an E of degree 2 or
#: more, or E at an extraneous root of the final, can give roots off it
#: too.  The bound was set while every pivot was rooted: over the dense
#: bench pool at seeds 0-9, the candidates that are fiber points (Newton
#: ends next to where they start) start at ρ <= 4e-8 and the extraneous
#: ones at ρ >= 4.6e-7, 99.9 % of them above 8e-3, so it is 2 500 times
#: the worst fiber point's.
SCREEN_RESIDUAL = 1e-4
#: Degree-estimation targets have re/im parts in [-SAMPLE_BOX, SAMPLE_BOX].
SAMPLE_BOX = 2.0
#: The number of targets :func:`geometric_degree` samples.
DEGREE_SAMPLES = 50
#: A Newton-refined point is a solution when ||f(x) - y|| is below this,
#: or within the round-off of evaluating f at it.
RESIDUAL_TOL = 1e-8
_CANDIDATE_CAP = 20000
#: Newton takes at most this many steps per candidate.
_NEWTON_ITERS = 40
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
    :data:`MAX_SYMBOLIC_WORK` (``reason`` then says so).  :meth:`at` gives
    the cascade at a numeric target y, an :class:`EliminationResult` of the
    same shape as the per-target path's, or None where the plan does not
    apply there; only the batch of :func:`geometric_degree` reads it.  A
    triangular plan also tells from A(y') alone where a fiber is one point
    (:meth:`single_point_at`), which :func:`geometric_degree` counts without
    computing the point.
    """

    __slots__ = ("targets", "echelon", "result", "reason", "_specialisation", "_lead")

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
        self._lead = None

    @property
    def usable(self) -> bool:
        return self.result is not None and self.result.problem is None

    def at(self, y: Sequence[complex]) -> EliminationResult | None:
        """The cascade at y' = M·y, its pivots, E and final specialised exactly.

        Its stages keep their variables and modes and carry no image.  None
        where the plan is not usable or a pivot, an E or the final vanishes
        at y'.  M·y is taken on the exact numerators of y; the compiled form
        is built on first use.
        """
        if not self.usable:
            return None
        spec = self._specialisation
        stages = self.result.stages
        if spec is None:
            elements = [s.element for s in stages if s.element is not None]
            polys = [s.pivot for s in stages] + self.result.finals + elements
            spec = Specialisation(polys, len(polys[0].vars) - len(self.targets))
            self._specialisation = spec
        values = spec.at_stored(*self.echelon.apply(*stored_values([complex(v) for v in y])))
        if not all(values):
            return None
        m = len(stages)
        elements = iter(values[m + 1 :])
        specialised = [  # a stage's symbolic E is None or nonzero
            EliminationStage(s.var, p, s.mode, element=s.element and next(elements))
            for s, p in zip(stages, values)
        ]
        return EliminationResult(finals=[values[m]], stages=specialised)

    def single_point_at(self, y: Sequence[complex]) -> bool:
        """Whether the fiber over y is one simple point, read from A(y') alone.

        True when the plan is triangular (:func:`_triangular`), with final
        A(y')·z + B(y'), and A(y') is nonzero.  No point is computed, and
        where A is a constant not even y' = M·y.
        """
        lead = self.lead
        if isinstance(lead, bool):
            return lead
        values = self.echelon.apply(*stored_values([complex(v) for v in y]))
        return not lead.at_stored(*values)[0].is_zero()

    @property
    def lead(self) -> Specialisation | bool:
        """A compiled at y', True where A is a constant (so nonzero), False where not triangular.

        A is the leading coefficient of a triangular plan's final in the last
        source variable.  Where it is True, every fiber is one simple point.
        Compiled on first use.
        """
        if self._lead is None:
            variables = self.echelon.rows[0].vars
            if not _triangular(self.result, variables[-1]):
                self._lead = False
            else:
                lead = as_univariate(self.result.finals[0], variables[-1])[1]
                self._lead = lead.is_constant() or Specialisation([lead], len(variables))
        return self._lead


def _triangular(res: EliminationResult | None, var: str) -> bool:
    """Whether a cascade leaves one point: every stage substitutes, the one final is linear in var.

    A substitution's pivot is c·v + R with c a nonzero constant, so where
    the final A·var + B has A != 0 the stages and the final generate the
    ideal of the system, each linear in a variable of its own: the zero set
    is one simple point.
    """
    return (
        res is not None
        and res.problem is None
        and all(stage.mode == "substitution" for stage in res.stages)
        and res.finals[0].degree_in(var) == 1
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
    f: PolyMap, ys: Sequence[Sequence[complex]]
) -> list[list[FiberSolution] | PositiveDimensionalFiberError]:
    """The fiber over each target in ``ys``, solved as one batch through the :class:`TargetPlan`.

    It serves :func:`geometric_degree` alone, which counts the targets where
    a triangular plan's A(y') is nonzero before the batch.  The cascades at
    the targets (:meth:`TargetPlan.at`) have their finals rooted in one
    :func:`roots_of_each` call and go through back-substitution and Newton
    as one batch.  A nonzero constant final means the fiber is empty.  A
    target goes to the per-target path (:func:`_cascade_fiber`) on its own
    where the plan does not apply at it, or where one of its branches
    degenerates or overflows during back-substitution; the error of a
    positive-dimensional fiber takes its place in the list.
    """
    plan = target_plan(f)
    cascades = [plan.at(y) for y in ys]
    out: list = [[] if c is not None and c.finals[0].is_constant() else None for c in cascades]
    batch = [i for i, c in enumerate(cascades) if c is not None and out[i] is None]
    if batch:
        cascades = [cascades[i] for i in batch]
        roots = roots_of_each([poly_to_coeffs(c.finals[0]) for c in cascades])
        fibers, failures = _back_substitute(f, [ys[i] for i in batch], cascades, roots)
        for i, fiber, failure in zip(batch, fibers, failures):
            if not failure:
                out[i] = fiber
    for i, y in enumerate(ys):
        if out[i] is None:
            try:
                out[i] = _cascade_fiber(f, y)
            except PositiveDimensionalFiberError as exc:
                out[i] = exc
    return out


def solve_fiber(f: PolyMap, y: Sequence[complex]) -> list[FiberSolution]:
    """All isolated solutions of f(x) = y, exact or Newton-refined and deduplicated.

    Raises :class:`PositiveDimensionalFiberError` when the elimination
    detects a non-isolated fiber, and ``ValueError`` when a coordinate of
    the target is not finite, a point of the fiber lies beyond float range
    or the final's coefficients span more than it (:func:`_cascade_fiber`).

    The fiber is solved on the per-target path (:func:`_cascade_fiber`),
    and no plan is built or read here.  Where the cascade at y is
    triangular (:func:`_triangular`) the fiber is its one simple point,
    each coordinate the exact value rounded once, and its residual
    ||f(x) - y|| is reported, not tested; it is inf where evaluating f at
    the point overflows a float.  Every other solution, refined
    by Newton, has ||f(x) - y|| < :data:`RESIDUAL_TOL`, or a residual
    within the round-off of evaluating f at it
    (:data:`polyproper.numeric.ROUNDOFF` times its term-magnitude sum),
    where no Newton step can lower it.
    """
    _check_scale(f)
    if len(y) != f.target_dim:
        raise ValueError(f"target has dimension {len(y)}, expected {f.target_dim}")
    try:
        finite = all(cmath.isfinite(complex(v)) for v in y)
    except OverflowError:  # an int beyond float range
        finite = False
    if not finite:
        raise ValueError(f"target {tuple(y)} has a coordinate that is not finite")
    return _cascade_fiber(f, y)


def _cascade_fiber(f: PolyMap, y: Sequence[complex]) -> list[FiberSolution]:
    """The fiber over y on the per-target path: the cascade of (f - y) at y.

    A triangular cascade gives its one point exactly (:func:`_one_point`).
    Raises ``ValueError`` when the final's leading or constant coefficient
    is nonzero but 0.0 once :func:`poly_to_coeffs` has scaled the
    coefficients into float range, where rooting it would take a polynomial
    of another degree or a false root 0; when the final is linear but its
    root lies beyond float range; or when no branch survives and some pivot
    overflowed during back-substitution.
    """
    res = eliminate(_shifted_system(f, y), list(f.vars[:-1]))
    if res.inconsistent:
        return []
    if res.problem:
        raise PositiveDimensionalFiberError(res.problem)
    if _triangular(res, f.vars[-1]):
        return [_one_point(f, y, res)]
    final = res.finals[0]
    coeffs = poly_to_coeffs(final)
    lost = coeffs[-1] == 0 or (coeffs[0] == 0 and 0 in final.nums)  # key 0: the constant term
    if lost or (len(coeffs) == 2 and not abs(coeffs[0]) <= abs(coeffs[1]) * sys.float_info.max):
        raise _beyond_float_range(y)
    (solutions,), (failure,) = _back_substitute(f, [y], [res], [univariate_roots(coeffs)])
    if not solutions and failure:
        raise failure
    return solutions


def _one_point(f: PolyMap, y: Sequence[complex], res: EliminationResult) -> FiberSolution:
    """The point of a triangular cascade at y, exact and rounded once.

    The final a·z + b gives z = -b/a, and each stage's image gives its
    variable in reverse stage order.  The coordinates are kept in the
    stored form over one common denominator and each is rounded once by int
    true division; ``ValueError`` where one lies beyond float range.  The
    residual is inf where evaluating f at the point overflows a float.
    """
    n = f.source_dim
    final = res.finals[0].nums  # over one denominator, which z = -b/a cancels
    (ar, ai), (br, bi) = final[max(final)], final.get(0, (0, 0))  # keys: z, then the constant
    # z = -(br + i·bi)·(ar - i·ai) / |a|^2
    d, nums = ar * ar + ai * ai, {n - 1: (-(br * ar + bi * ai), br * ai - bi * ar)}
    column = {v: k for k, v in enumerate(f.vars)}
    for stage in reversed(res.stages):
        (v,) = Specialisation([stage.image], 0).at_stored(d, nums)
        d, nums = _sum_terms(d, nums, v.den, {column[stage.var]: c for c in v.nums.values()}, 1)
    try:
        point = tuple(complex(re / d, im / d) for re, im in (nums.get(k, (0, 0)) for k in range(n)))
    except OverflowError:
        raise _beyond_float_range(y) from None
    ev = f.evaluator()
    with np.errstate(over="ignore", invalid="ignore"):  # f beyond float range at the point
        (vals,), _ = ev.values(ev.powers(np.array([point], dtype=complex)))
        residual = float(np.hypot.reduce(np.abs(vals - np.array(y, dtype=complex))))
    return FiberSolution(point, math.inf if math.isnan(residual) else residual, multiple=False)


def _beyond_float_range(y: Sequence[complex]) -> ValueError:
    return ValueError(f"the fiber point over {tuple(y)} lies beyond float range")


def _back_substitute(
    f: PolyMap,
    ys: Sequence[Sequence[complex]],
    cascades: Sequence[EliminationResult],
    roots: Sequence[RootSet],
) -> tuple[list[list[FiberSolution]], list[Exception | None]]:
    """The fiber points that the cascades at a batch of targets lead to.

    ``ys`` are the targets, ``cascades[t]`` the cascade at target t, with
    its y folded in, and ``roots[t]`` the roots of its final in the last
    source variable; the cascades share their stage variables and modes.
    Each candidate row carries the index of its target; the rows are
    extended through the stages in reverse, each stage specialising all of
    them in one kernel call and rooting them in one :func:`roots_of_each`
    call.  A row roots the stage's E (:attr:`EliminationStage.element`)
    where E's leading entry survives its specialisation, else the pivot; a
    pivot is rooted as trimmed.  E, whose roots hold the common roots of
    the pivot and its first partner, is usually linear: one candidate per
    row.  One Newton run refines the rows, and the accepted ones are
    deduplicated with one sort for the whole batch (:func:`_solutions`).
    Where some stage is a resultant, Newton first drops the
    candidates off the fiber, where E or a pivot had more roots than lie
    on it, so they are neither refined nor counted as branches that a
    solution absorbed; without a resultant stage every candidate lies on
    the fiber.  Returns each target's solutions and what its fiber raises
    should none survive: :class:`PositiveDimensionalFiberError` when some
    branch degenerated (its pivot vanished identically at the branch's
    partial point), else ``ValueError`` when a branch's pivot overflowed a
    float there, or f at a candidate, else None.
    """
    column = {v: i for i, v in enumerate(f.vars)}
    owner = np.array([t for t, rs in enumerate(roots) for _ in rs.roots], dtype=np.intp)
    points = np.zeros((len(owner), f.source_dim), dtype=complex)
    points[:, column[f.vars[-1]]] = [r.value for rs in roots for r in rs.roots]
    mults = [r.multiplicity for rs in roots for r in rs.roots]

    failures: list[Exception | None] = [None] * len(ys)
    for j in reversed(range(len(cascades[0].stages))):
        if not mults:
            break
        stages, owners = [c.stages[j] for c in cascades], owner.tolist()
        var = stages[0].var
        view = _UnivariateView([s.pivot if s.element is None else s.element for s in stages], var)
        specialised = view.specialize(points, owner)
        by_pivot = [
            k
            for k, (t, coeffs) in enumerate(zip(owners, specialised))
            if stages[t].element is not None and not (coeffs and len(coeffs) > view.degrees[t])
        ]
        if by_pivot:
            view = _UnivariateView([s.pivot for s in stages], var)
            for k, coeffs in zip(by_pivot, view.specialize(points[by_pivot], owner[by_pivot])):
                specialised[k] = coeffs
        extended, rows = [], []
        for k, (t, coeffs) in enumerate(zip(owners, specialised)):
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
    screen = any(stage.mode == "resultant" for stage in cascades[0].stages)
    best, best_res, floors = _newton_batch(ev, y_rows, points, screen)
    # a residual within the round-off of evaluating f, where Newton stops,
    # is as small as any step can make it
    accepted = (best_res < RESIDUAL_TOL) | ((best_res <= floors) & np.isfinite(floors))
    for t in owner[np.isnan(best_res)].tolist():  # f overflowed a float at the candidate
        failures[t] = failures[t] or _beyond_float_range(ys[t])
    mults = np.array(mults, dtype=np.intp)
    solutions = _solutions(
        len(ys), owner[accepted], best[accepted], best_res[accepted], mults[accepted]
    )
    return solutions, failures


def _solutions(
    n_targets: int,
    owner: np.ndarray,
    points: np.ndarray,
    residuals: np.ndarray,
    mults: np.ndarray,
) -> list[list[FiberSolution]]:
    """Each target's solutions from its accepted candidates, deduplicated with one sort per batch.

    All rows are sorted once, by target and then by the lexicographic key
    of :func:`_deduplicated`, stably.  Where a target's adjacent sorted
    candidates are all at least DEDUP_RADIUS apart in Re x_1, no two of them
    are as close in the max norm, so none merges: its sorted rows are its
    solutions, as :func:`_deduplicated` would return them.  Only a target
    with a closer pair goes through :func:`_deduplicated`, in sorted order,
    which its stable sort keeps.
    """
    keys = [part for col in points.T[::-1] for part in (col.imag, col.real)]
    order = np.lexsort([*keys, owner])
    owner, points, residuals, mults = (a[order] for a in (owner, points, residuals, mults))
    # a close pair may straddle two targets; the few close pairs are matched
    # in Python, as an int equality ufunc's first call adds 128 KB of peak RSS
    close = np.diff(points[:, 0].real) < DEDUP_RADIUS
    crowded = {t for t, u in zip(owner[1:][close].tolist(), owner[:-1][close].tolist()) if t == u}
    candidates: list[list] = [[] for _ in range(n_targets)]
    for t, point, residual, mult in zip(
        owner.tolist(), points.tolist(), residuals.tolist(), mults.tolist()
    ):
        candidates[t].append((tuple(point), residual, mult))
    return [
        _deduplicated(rows)
        if t in crowded
        else [FiberSolution(p, r, multiple=m > 1) for p, r, m in rows]
        for t, rows in enumerate(candidates)
    ]


class _UnivariateView:
    """Polynomials, one per target, viewed as univariate in ``var`` and compiled once.

    The coefficients of the powers of ``var`` of all of them form one term
    table, with one block of columns per polynomial, so specializing a batch
    of rows, each at its own polynomial, costs one kernel call.  The table
    is filled straight from each polynomial's stored form, its numerators
    bucketed by their power of ``var`` (:func:`numerators_by_power`).
    """

    __slots__ = ("degrees", "table", "coeffs", "abs_coeffs", "max_abs")

    def __init__(self, polys: Sequence[Polynomial], var: str):
        views = [numerators_by_power(p, var) for p in polys]
        self.degrees = [max(u) for u in views]
        width = max(self.degrees) + 1
        self.table = TermTable(
            [(p.den, u.get(k, {})) for p, u in zip(polys, views) for k in range(width)],
            polys[0]._exponents,
            len(polys[0].vars),
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
    return coeffs or None


def _deduplicated(candidates: list[tuple[tuple[complex, ...], float, int]]) -> list[FiberSolution]:
    """One solution per cluster of refined candidates closer than DEDUP_RADIUS.

    It serves the targets of a batch that :func:`_solutions` finds holding
    a pair of candidates closer than DEDUP_RADIUS in Re x_1.

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


def _newton_batch(ev: MapEvaluator, y: np.ndarray, x: np.ndarray, screen: bool):
    """Newton's method on a batch of candidates at once.

    ``y`` is one target for every row of ``x`` or one target per row.
    Returns each candidate's best iterate, its residual ||f(x) - y|| and the
    evaluation's round-off floor there, ROUNDOFF * ||sum |terms| + |y|||.  A
    candidate stops once its residual is below 1e-15 * (1 + ||y||) or at
    most that floor, or when its Jacobian is singular or its step is not
    finite, or when it would reach an iterate where some monomial of f
    overflows (:meth:`MapEvaluator.in_range`): a diverging iterate is
    frozen before its power tables overflow.  The others go on.  The
    Jacobian is evaluated only at candidates that take a step.  With
    ``screen``, a start whose relative residual
    ||f(x) - y|| / ||sum |terms| + |y||| exceeds :data:`SCREEN_RESIDUAL` is
    dropped at the first evaluation: it is never stepped, and its residual
    and floor stay infinite.  A start where f or its residual overflows a
    float is not stepped either, and its residual is NaN.
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
    for it in range(_NEWTON_ITERS + 1):
        if not live.size:
            break
        tables = ev.powers(x[live])
        with np.errstate(over="ignore", invalid="ignore"):  # f beyond float range
            vals, sums = ev.values(tables)
            r = vals - y[live]
            res = np.hypot.reduce(np.abs(r), axis=1)
        # halving is exact, and the halves' sum cannot overflow
        floor = 2 * ROUNDOFF * np.hypot.reduce(0.5 * sums + 0.5 * abs_y[live], axis=1)
        if not it:
            lost = ~(np.isfinite(res) & np.isfinite(floor))
            if screen:
                off = ~(res * ROUNDOFF <= SCREEN_RESIDUAL * floor)
                res[off] = floor[off] = np.inf
            res[lost] = best_res[lost] = np.nan
        better = res < best_res[live]
        best[live[better]] = x[live[better]]
        best_res[live[better]] = res[better]
        best_floor[live[better]] = floor[better]
        if it == _NEWTON_ITERS:
            break
        step = (res >= exact_floor[live]) & (res > floor)
        live, r = live[step], r[step]
        if not live.size:
            break
        jac = ev.jacobian([t[step] for t in tables])
        delta, solved = _solve_each(jac, r)
        moved = x[live] - delta
        ok = solved & ev.in_range(moved)
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


def fiber_count(f: PolyMap, y: Sequence[complex]) -> int:
    """Cardinality of the isolated solution set of f(x) = y.

    Propagates :class:`PositiveDimensionalFiberError` for non-isolated
    fibers, and the ``ValueError`` of :func:`solve_fiber`.
    """
    return len(solve_fiber(f, y))


def sample_target(rng: np.random.Generator, n: int) -> tuple[complex, ...]:
    """One target point: re/im uniform in [-SAMPLE_BOX, SAMPLE_BOX] on a dyadic grid."""
    vals = np.round(rng.uniform(-SAMPLE_BOX, SAMPLE_BOX, size=2 * n) * 4096.0) / 4096.0
    return tuple(complex(vals[2 * k], vals[2 * k + 1]) for k in range(n))


def geometric_degree(f: PolyMap, *, seed: int = 0) -> DegreeEstimate:
    """Estimate the geometric degree by sampling fiber counts.

    The estimate is the maximum finite fiber count over
    :data:`DEGREE_SAMPLES` seeded random targets; for a map that restricts
    to a cover off its nonproperness set, generic targets all attain it.
    Degenerate samples (positive-dimensional fibers) are tallied
    separately; it is an error if every sample degenerates or no sample has
    a nonzero count.  Where the map's
    :class:`TargetPlan` is triangular and the final's leading coefficient
    A(y') is nonzero, the fiber is one simple point and is counted as such,
    with no point computed (:meth:`TargetPlan.single_point_at`).  The other
    sampled fibers are solved as one batch through the plan; a target where
    the plan does not apply falls back to the per-target cascade on its own.
    So the counts are those of :func:`fiber_count`, which computes the one
    point of a triangular fiber exactly, except where that point lies
    beyond float range: ``fiber_count`` raises ``ValueError`` there, and
    this counts 1.  Where A is a nonzero constant, every fiber is one
    point, and the histogram is {1: DEGREE_SAMPLES} with no target drawn.
    """
    _check_scale(f)
    plan = target_plan(f)
    histogram: dict[int, int] = {}
    degenerate = 0
    if plan.lead is True:  # every fiber is one simple point, whatever the target
        histogram[1] = DEGREE_SAMPLES
    else:
        ys = [
            sample_target(np.random.default_rng(child), f.target_dim)
            for child in np.random.SeedSequence(seed).spawn(DEGREE_SAMPLES)
        ]
        rest = [y for y in ys if not plan.single_point_at(y)]
        if len(rest) < len(ys):
            histogram[1] = len(ys) - len(rest)
        for fiber in _planned_fibers(f, rest):
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
        samples=DEGREE_SAMPLES,
        seed=seed,
        degenerate=degenerate,
        box=SAMPLE_BOX,
    )
