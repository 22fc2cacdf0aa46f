"""The nonproperness locus of a square polynomial map, and what it certifies.

A map is proper at a target point when some neighborhood has compact
preimage closure; the failure points form the nonproperness locus, which for
a dominant map is empty or a hypersurface.  This module computes a defining
polynomial for that hypersurface by elimination: for each source variable
x_i, the other source variables are eliminated from (f_1 - y_1, ...,
f_n - y_n), which ends with one relation φ_i(y, x_i), and the vanishing of
the leading coefficient (in x_i) of its primitive part marks targets where
a preimage coordinate escapes to infinity (Jelonek 1993; Stasica, "An
effective description of the Jelonek set", 2002).  The content of φ_i in
C[y] is no part of the locus.

Every elimination runs on g - y', where g = M·f is the row echelon form of
the components (:meth:`polyproper.polymap.PolyMap.row_echelon`) and
y' = M·y: each leading coefficient is read in y' and written back in y
before it is split into factors, so the locus lives in y.  The elimination
for the last coordinate is the map's :class:`polyproper.solver.TargetPlan`,
shared with ``geometric_degree``.  Where that plan proves a polynomial
inverse (``TargetPlan.lead is True``: every stage substitutes and the final
is linear with a constant leading coefficient), the map is proper
everywhere and the locus is empty with no other elimination.
Every symbolic elimination runs under the exact-work budget
:data:`polyproper.elimination.MAX_SYMBOLIC_WORK`; one that exceeds it gives
an ``unknown`` locus whose reason names the budget, within about a second,
where it would otherwise run for minutes.

On a singular map the locus is the union of the zero sets of those
leading coefficients, exactly (Jelonek 1993): it is their gcd-free basis,
with no sampling.  On a map with constant nonzero Jacobian determinant every
fiber point is simple, so a fiber count below the geometric degree happens
exactly on the locus; a factor kept there would answer the Jacobian
conjecture, so each one is checked by a count drop at points on its zero
set, and one that shows none is dropped and noted on the result.

Two consequences are packaged as certificates:

* empty locus + constant nonzero Jacobian determinant implies the map is an
  automorphism (Hadamard global inversion / Cynk-Rusek);
* a nonsingular test hypersurface Z = {h = 0} biregular to C^(n-1) that
  misses the locus implies the same (the hyperplane-clearance criterion).

Biregularity of Z is not decidable here, so the second is issued only for
graph hypersurfaces h = y_k - p(other targets), which are biregular by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Sequence

import numpy as np

from .elimination import (
    MAX_SYMBOLIC_WORK,
    _content_primitive,
    eliminate,
    exact_div,
    gcd_poly,
    lead_in,
    linear_solution,
    normalized,
    resultant,
    squarefree_part,
)
from .poly import Polynomial, Specialisation, WorkLimitExceeded, work_limit
from .polymap import PolyMap
from .solver import (
    DegreeEstimate,
    PositiveDimensionalFiberError,
    _check_scale,
    fiber_count,
    geometric_degree,
    sample_target,
    symbolic_system,
    target_plan,
    target_variables,
)
from .numlin import poly_to_coeffs, univariate_roots

EMPTY = "empty"
HYPERSURFACE = "hypersurface"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class Hypersurface:
    """Empty / hypersurface / unknown status with a defining polynomial.

    The defining polynomial lives in the target coordinates and is
    squarefree and monic-normalized, so equal loci have equal
    representations.
    """

    status: str
    target_vars: tuple[str, ...]
    poly: Polynomial | None = None
    reason: str | None = None
    notes: tuple[str, ...] = ()

    @classmethod
    def empty(cls, target_vars: Sequence[str], notes: Sequence[str] = ()) -> "Hypersurface":
        return cls(EMPTY, tuple(target_vars), None, None, tuple(notes))

    @classmethod
    def of(cls, poly: Polynomial, notes: Sequence[str] = ()) -> "Hypersurface":
        if poly.is_zero() or poly.is_constant():
            raise ValueError("a hypersurface needs a nonconstant defining polynomial")
        return cls(HYPERSURFACE, poly.vars, normalized(squarefree_part(poly)), None, tuple(notes))

    @classmethod
    def unknown(cls, target_vars: Sequence[str], reason: str) -> "Hypersurface":
        return cls(UNKNOWN, tuple(target_vars), None, reason, ())

    @property
    def is_empty(self) -> bool:
        return self.status == EMPTY

    @property
    def is_hypersurface(self) -> bool:
        return self.status == HYPERSURFACE

    @property
    def is_unknown(self) -> bool:
        return self.status == UNKNOWN

    def __str__(self) -> str:
        if self.is_empty:
            return "empty"
        if self.is_hypersurface:
            return f"{{ {self.poly} = 0 }}"
        return f"unknown ({self.reason})"


@dataclass(frozen=True)
class Certificate:
    """A machine-checkable verdict and the hypotheses behind it."""

    claim: str
    criterion: str
    hypotheses: dict[str, str]
    evidence: dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "criterion": self.criterion,
            "hypotheses": dict(sorted(self.hypotheses.items())),
            "evidence": {k: v for k, v in sorted(self.evidence.items())},
        }


@dataclass(frozen=True)
class SampleDiagnostic:
    """Fiber-count comparison against the geometric degree at one target."""

    verdict: str  # "in-locus" | "off-locus" | "undetermined"
    count: int | None
    mu: int
    warnings: tuple[str, ...] = ()


_SINGULAR_WARNING = (
    "fiber-count diagnostics are decisive only for maps with constant nonzero "
    "Jacobian determinant; this map is singular, so count drops are diagnostic only"
)


def fiber_count_diagnostic(f: PolyMap, y: Sequence[complex], mu: int) -> SampleDiagnostic:
    """Classify a target as on or off the nonproperness locus by count drop.

    For a map with constant nonzero Jacobian determinant, a fiber count
    different from the geometric degree happens exactly on the locus.  On
    singular maps the same test runs in diagnostic mode with a warning.
    A positive-dimensional fiber counts as "in-locus" (its cardinality is
    certainly not mu); other solver failures give "undetermined".
    """
    warnings: tuple[str, ...] = ()
    if not f.nonsingularity().is_nonsingular:
        warnings = (_SINGULAR_WARNING,)
    try:
        count = fiber_count(f, y)
    except PositiveDimensionalFiberError:
        return SampleDiagnostic("in-locus", None, mu, warnings)
    except (ValueError, RuntimeError) as exc:
        return SampleDiagnostic("undetermined", None, mu, warnings + (str(exc),))
    verdict = "in-locus" if count != mu else "off-locus"
    return SampleDiagnostic(verdict, count, mu, warnings)


# -- symbolic computation of the locus -----------------------------------------


def _monomial_split(p: Polynomial) -> list[Polynomial]:
    """Split off variable factors shared by every term: y1^2*y2 -> [y1, y2]."""
    mins = None
    for e in p.terms:
        mins = e if mins is None else tuple(min(a, b) for a, b in zip(mins, e))
    if mins is None or not any(mins):
        return [p]
    parts = [Polynomial.variable(p.vars, v) for v, m in zip(p.vars, mins) if m > 0]
    cofactor = Polynomial(p.vars, {tuple(a - b for a, b in zip(e, mins)): c for e, c in p.terms.items()})
    if not cofactor.is_constant():
        parts.append(cofactor)
    return parts


def gcd_free_basis(polys: Sequence[Polynomial]) -> list[Polynomial]:
    """Pairwise-coprime nonconstant refinement of the input factors."""
    basis: list[Polynomial] = []
    queue = [normalized(p) for p in polys if not p.is_zero() and not p.is_constant()]
    while queue:
        q = queue.pop(0)
        for i, b in enumerate(basis):
            g = gcd_poly(q, b)
            if g.is_constant():
                continue
            del basis[i]
            for piece in (g, exact_div(b, g), exact_div(q, g)):
                if not piece.is_constant():
                    queue.append(normalized(piece))
            break
        else:
            basis.append(q)
    return basis


def _points_on_zero_set(poly: Polynomial, rng: np.random.Generator) -> list[tuple[complex, ...]]:
    """Up to three numeric points on the zero set of a nonconstant polynomial.

    The other variables take a sampled target's values, specialised exactly;
    the roots are taken in the variable of highest degree.
    """
    v = max(poly.support_vars(), key=poly.degree_in)
    base = dict(zip(poly.vars, sample_target(rng, len(poly.vars))))
    others = [name for name in poly.vars if name != v]
    row = Specialisation([poly.in_context([v, *others])], 1).at([base[name] for name in others])[0]
    if row.degree_in(v) < 1:
        return []
    points = []
    for root in univariate_roots(poly_to_coeffs(row)).roots[:3]:
        base[v] = root.value
        points.append(tuple(base[name] for name in poly.vars))
    return points


def nonproperness_set(
    f: PolyMap,
    seed: int = 0,
    degree_estimate: DegreeEstimate | None = None,
) -> Hypersurface:
    """Defining data for the nonproperness locus of a dominant square map.

    The locus is the gcd-free basis of the primitive leading-coefficient
    factors.  On a nonsingular map each factor is kept only where a fiber
    count at a point on it falls below mu, the geometric degree: the
    supplied estimate, or else one sampled by :func:`geometric_degree`, and
    only when there is a factor to check.
    Without an estimate, dominance is checked exactly: a zero Jacobian
    determinant raises ``ValueError``.  An
    elimination that does not end with one relation in its coordinate
    yields an ``unknown`` result that says why.

    Where the map's :class:`polyproper.solver.TargetPlan` has ``lead is
    True`` the locus is empty, and the other n - 1 eliminations do not run.
    Every stage of that plan substitutes v = -R/c, c a nonzero constant,
    and its final is A·z + B with A a nonzero constant: the stages and the
    final generate the ideal of g - y', each linear in its own variable
    with a constant coefficient (as in ``solver._triangular``).  So
    C[x, y']/(g - y') ≅ C[y'], every source coordinate is a polynomial in
    y', and f has a polynomial inverse: it is proper everywhere, and S_f is
    empty.  Such a map has a constant nonzero Jacobian determinant, so a
    singular map skips the test and builds no plan ahead of the relations
    that may already leave its locus ``unknown``.
    """
    _check_scale(f)
    targets = target_variables(f)
    if degree_estimate is None and f.nonsingularity().determinant.is_zero():
        raise ValueError("the Jacobian determinant is zero: the map is not dominant")
    if f.nonsingularity().is_nonsingular and target_plan(f).lead is True:
        return Hypersurface.empty(targets)  # f has a polynomial inverse

    n = f.source_dim
    candidates: list[Polynomial] = []
    for i, x_i in enumerate(f.vars):
        if i == n - 1:
            plan = target_plan(f)  # the same cascade, shared with geometric_degree
            res = plan.result
            if res is None:
                return Hypersurface.unknown(targets, plan.reason)
        else:
            try:
                with work_limit(MAX_SYMBOLIC_WORK):
                    res = eliminate(symbolic_system(f), [v for v in f.vars if v != x_i])
            except WorkLimitExceeded as exc:
                return Hypersurface.unknown(targets, f"symbolic elimination: {exc}")
        if res.problem:
            return Hypersurface.unknown(targets, res.problem)
        (phi,) = res.finals
        if phi.degree_in(x_i) < 1:
            return Hypersurface.unknown(
                targets, f"no relation ties {x_i!r} to the target coordinates"
            )
        lead = lead_in(phi, x_i)[1]
        if not lead.is_constant():  # the content in C[y'] is no part of the locus
            lead = lead_in(_content_primitive(phi, x_i)[1], x_i)[1]
        if lead.is_constant():
            continue
        lead_t = f.row_echelon().pullback(lead.in_context(targets))  # y' = M·y
        for part in _monomial_split(normalized(lead_t)):
            candidates.append(squarefree_part(part))

    if not candidates:
        return Hypersurface.empty(targets)

    kept = gcd_free_basis(candidates)
    notes: list[str] = []
    if f.nonsingularity().is_nonsingular:
        if degree_estimate is None:
            degree_estimate = geometric_degree(f, seed=seed)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5F]))
        checked = []
        for cand in kept:
            if any(
                fiber_count_diagnostic(f, y0, degree_estimate.mu).verdict == "in-locus"
                for y0 in _points_on_zero_set(cand, rng)
            ):
                checked.append(cand)
            else:
                notes.append(f"dropped unvalidated elimination factor: {cand}")
        kept = checked

    if not kept:
        return Hypersurface.empty(targets, notes)
    defining = kept[0]
    for extra in kept[1:]:
        defining = defining * extra
    return Hypersurface(HYPERSURFACE, targets, normalized(defining), None, tuple(notes))


def automorphism_from_empty_locus(f: PolyMap, locus: Hypersurface) -> Certificate | None:
    """Global-inversion certificate: nonsingular plus empty locus.

    Returns None when the hypotheses do not hold.
    """
    ns = f.nonsingularity()
    if not (ns.is_nonsingular and locus.is_empty):
        return None
    return Certificate(
        claim="automorphism",
        criterion="global inversion: constant nonzero Jacobian determinant and empty nonproperness locus (Hadamard / Cynk-Rusek)",
        hypotheses={
            "jacobian determinant": f"verified constant {ns.constant}",
            "nonproperness locus": "verified empty by elimination",
        },
        evidence={"determinant": str(ns.determinant)},
    )


def is_cylinder(locus: Hypersurface, k: int) -> bool:
    """Whether the locus is a cylinder along the k-th target coordinate.

    True iff the reduced defining polynomial has zero partial derivative in
    that coordinate (so the variety is invariant under translating it);
    an empty locus is vacuously a cylinder.  The answer is scale invariant
    because the stored polynomial is normalized.
    """
    if locus.is_unknown:
        raise ValueError(f"cylinder test on unknown locus: {locus.reason}")
    if not 1 <= k <= len(locus.target_vars):
        raise ValueError(f"coordinate index {k} out of range")
    if locus.is_empty:
        return True
    return locus.poly.diff(locus.target_vars[k - 1]).is_zero()


# -- hyperplane clearance -------------------------------------------------------


@dataclass(frozen=True)
class ClearanceVerdict:
    """Does the locus meet the test set {h = 0}?  With certificate if not."""

    intersects: str  # "yes" | "no" | "undetermined"
    certificate: Certificate | None
    evidence: dict[str, object]
    warnings: tuple[str, ...] = ()


def is_graph_hypersurface(h: Polynomial) -> str | None:
    """The coordinate over which {h=0} is a polynomial graph, if any."""
    for v in h.vars:
        if linear_solution(h, v) is not None:
            return v
    return None


def hyperplane_clearance(
    f: PolyMap,
    h: Polynomial,
    *,
    locus: Hypersurface | None = None,
) -> ClearanceVerdict:
    """Test whether the nonproperness locus misses the hypersurface {h = 0}.

    The locus {s = 0} is supplied, or else computed by
    :func:`nonproperness_set` at its defaults (pass
    ``locus=nonproperness_set(f, seed=...)`` for another seed), and
    intersected with {h = 0} exactly, by one resultant in a variable v once
    a shear of the other coordinates by multiples of v makes s or h monic in
    v.  The walk over shears ends, as the top-degree form of s cannot vanish
    on all of {0, ..., deg s}^(n-1) (:func:`_varieties_intersect`).  The
    verdict is "undetermined" only when the locus is unknown.

    A "no" verdict yields an automorphism certificate only when the map has
    constant nonzero Jacobian determinant and {h = 0} is a graph
    hypersurface h = y_k - p(other coordinates), biregular to C^(n-1) by
    construction.  Singular maps and other test sets still get a verdict,
    but never a certificate.
    """
    if h.is_constant():
        raise ValueError("the test hypersurface needs a nonconstant polynomial")
    targets = target_variables(f)
    if h.vars != targets:
        raise ValueError(
            f"test polynomial context {h.vars} does not match target context {targets}"
        )
    ns = f.nonsingularity()
    warnings: list[str] = []
    if not ns.is_nonsingular:
        warnings.append(
            "map is singular: clearance verdicts carry no automorphism claim"
        )

    if locus is None:
        locus = nonproperness_set(f)
    if locus.is_unknown:
        return ClearanceVerdict(
            "undetermined", None, {"locus": str(locus)}, tuple(warnings)
        )
    if locus.is_empty:
        verdict = "no"
        evidence: dict[str, object] = {"locus": "empty", "mode": "symbolic"}
    else:
        verdict, evidence = _varieties_intersect(locus.poly, h)
        evidence["locus"] = str(locus.poly)
        evidence["mode"] = "symbolic"

    certificate = None
    graph_var = is_graph_hypersurface(h)
    if verdict == "no" and ns.is_nonsingular and graph_var is not None:
        certificate = Certificate(
            claim="automorphism",
            criterion="hyperplane clearance: nonsingular map whose nonproperness locus misses a test hypersurface biregular to C^(n-1)",
            hypotheses={
                "jacobian determinant": f"verified constant {ns.constant}",
                "test set biregular to C^(n-1)": f"automatic (graph over the other coordinates in {graph_var})",
                "locus does not meet test set": f"verified ({evidence.get('mode')})",
            },
            evidence={"test_polynomial": str(h), **{k: str(v) for k, v in evidence.items()}},
        )
    return ClearanceVerdict(verdict, certificate, evidence, tuple(warnings))


def _varieties_intersect(s: Polynomial, h: Polynomial) -> tuple[str, dict]:
    """Decide exactly whether {s = 0} and {h = 0} meet in C^n.

    Eliminate v, the first variable of s.  If s or h has a nonzero constant
    leading coefficient in v, every zero of Res_v(s, h) extends to a common
    zero (the Extension Theorem; Cox, Little and O'Shea, *Ideals, Varieties,
    and Algorithms*, ch. 3), so they meet iff Res_v(s, h) is not a nonzero
    constant.  Otherwise the shear u -> u + c_u * v of each other coordinate,
    an automorphism of C^n, makes one of them so.  The walk over c in
    {0, ..., D}^(n-1), D = deg s, ends: the coefficient of v^D in the sheared
    s is s_D(c, 1), s_D the top-degree form of s, a nonzero polynomial of
    degree at most D in each c_u that cannot vanish on that whole grid (Alon,
    "Combinatorial Nullstellensatz", 1999).
    """
    v = s.support_vars()[0]
    others = [u for u in s.vars if u != v]
    x = {u: Polynomial.variable(s.vars, u) for u in s.vars}
    sheared = [s, h]
    for c in product(range(s.total_degree() + 1), repeat=len(others)):
        if any(c):  # c = 0, the first, is no shear
            shear = {v: x[v], **{u: x[u] + x[v] * k for u, k in zip(others, c)}}
            sheared = [p.substitute(shear) for p in (s, h)]
        if any(lead_in(p, v)[1].is_constant() for p in sheared):
            break
    r = resultant(*sheared, v)
    evidence: dict[str, object] = {"eliminated": v, "resultant": str(r)}
    if any(c):
        evidence["shear"] = ", ".join(f"{u} -> {shear[u]}" for u, k in zip(others, c) if k)
    return ("no" if r.is_constant() and not r.is_zero() else "yes"), evidence
