"""Built-in analysis corpus with frozen expectations.

Each entry bundles a map, the fixed suite of checks run against it, and the
expected outcomes; the runner reports every deviating field.  The entries
double as regression anchors for the whole pipeline:

* ``example-3-6``: a degree-10 triangular-shear automorphism of C^3 with
  unit Jacobian determinant and a known polynomial inverse.  Despite being
  an automorphism, every map obtained by deleting one component admits an
  asymptotic-critical-value witness; the fourth path is a deliberate
  negative control (its image diverges for the wrong component pair).
* ``x-xy``: singular, with nonproperness locus {y1 = 0}, a cylinder along
  the second target coordinate, and an empty fiber over (0, 1).
* ``x2-y``: singular but proper (empty locus), geometric degree 2.
"""

from __future__ import annotations

from typing import Callable

from .nonproper import (
    Hypersurface,
    automorphism_from_empty_locus,
    hyperplane_clearance,
    is_cylinder,
    nonproperness_set,
    target_variables,
)
from .parser import parse_polynomial
from .polymap import PolyMap, parse_map_text, verify_inverse
from .rabier import LaurentPath, check_rabier_witness
from .solver import fiber_count, geometric_degree

EXAMPLE_3_6_TEXT = """\
# Triangular shear automorphism of C^3 (unit Jacobian determinant).
vars: x y z
f1 = x + y*(z - 3*x^5*y + 2*x^7*y^2)
f2 = y
f3 = z - 3*x^5*y + 2*x^7*y^2
"""

EXAMPLE_3_6_INVERSE_EXPRS = (
    "p - q*r",
    "q",
    "r + 3*q*(p - q*r)^5 - 2*q^2*(p - q*r)^7",
)

X_XY_TEXT = """\
vars: x y
f1 = x
f2 = x*y
"""

X2_Y_TEXT = """\
vars: x y
f1 = x^2
f2 = y
"""

#: The witness paths for the three component-deleted maps of example-3-6,
#: plus the negative control pairing the wrong components with the third path.
WITNESS_PATHS = {
    "drop3": "t, t^-2, 0",
    "drop2": "t^-1, t^2, t^-3",
    "drop1": "t, t^-2, t^3",
}


def example_3_6_map() -> PolyMap:
    return parse_map_text(EXAMPLE_3_6_TEXT)


def example_3_6_inverse() -> PolyMap:
    return PolyMap.from_exprs(("p", "q", "r"), EXAMPLE_3_6_INVERSE_EXPRS)


def _degree_and_locus(f: PolyMap, seed: int, results: dict) -> Hypersurface:
    """Record the sampled degree and the nonproperness locus in ``results``; return the locus."""
    est = geometric_degree(f, seed=seed)
    results["mu"] = est.mu
    results["histogram"] = est.to_dict()["histogram"]
    locus = nonproperness_set(f, seed=seed, degree_estimate=est)
    results["locus"] = str(locus)
    return locus


def _run_example_3_6(f: PolyMap, seed: int) -> tuple[dict, list, list]:
    certificates: list = []
    warnings: list[str] = []
    results: dict = {}

    ns = f.nonsingularity()
    results["nonsingular"] = ns.is_nonsingular
    results["jacobian_constant"] = str(ns.constant) if ns.constant is not None else None
    results["inverse_verified"] = verify_inverse(f, example_3_6_inverse())

    locus = _degree_and_locus(f, seed, results)
    cert = automorphism_from_empty_locus(f, locus)
    if cert is not None:
        certificates.append(cert)

    for drop, text in WITNESS_PATHS.items():
        g = f.drop_component(int(drop[-1]))
        outcome = check_rabier_witness(g, LaurentPath.from_text(text))
        results[f"witness_{drop}"] = "accepted" if outcome.accepted else outcome.reason
        results[f"witness_{drop}_limit"] = (
            [str(v) for v in outcome.limit] if outcome.accepted else None
        )
    control = PolyMap(f.vars, (f.components[0], f.components[2]))
    rejected = check_rabier_witness(control, LaurentPath.from_text(WITNESS_PATHS["drop1"]))
    results["negative_control"] = "accepted" if rejected.accepted else rejected.reason

    h = parse_polynomial("y1", target_variables(f))
    verdict = hyperplane_clearance(f, h, locus=locus)
    results["clearance_y1"] = verdict.intersects
    results["clearance_certificate"] = verdict.certificate is not None
    if verdict.certificate is not None:
        certificates.append(verdict.certificate)
    warnings.extend(verdict.warnings)
    return results, certificates, warnings


def _run_x_xy(f: PolyMap, seed: int) -> tuple[dict, list, list]:
    warnings: list[str] = []
    results: dict = {}

    results["nonsingular"] = f.nonsingularity().is_nonsingular
    locus = _degree_and_locus(f, seed, results)
    results["cylinder_k2"] = is_cylinder(locus, 2)
    results["count_at_0_1"] = fiber_count(f, (0, 1))

    targets = target_variables(f)
    v_on = hyperplane_clearance(f, parse_polynomial("y1", targets), locus=locus)
    v_off = hyperplane_clearance(f, parse_polynomial("y1 - 1", targets), locus=locus)
    results["clearance_y1"] = v_on.intersects
    results["clearance_y1_minus_1"] = v_off.intersects
    results["clearance_certificates"] = (
        v_on.certificate is not None or v_off.certificate is not None
    )
    warnings.extend(v_on.warnings)
    return results, [], warnings


def _run_x2_y(f: PolyMap, seed: int) -> tuple[dict, list, list]:
    results = {"nonsingular": f.nonsingularity().is_nonsingular}
    _degree_and_locus(f, seed, results)
    return results, [], []


#: Each entry's map text and the runner of its fixed suite on the parsed map.
_ENTRIES: dict[str, tuple[str, Callable[[PolyMap, int], tuple[dict, list, list]]]] = {
    "example-3-6": (EXAMPLE_3_6_TEXT, _run_example_3_6),
    "x-xy": (X_XY_TEXT, _run_x_xy),
    "x2-y": (X2_Y_TEXT, _run_x2_y),
}

EXPECTATIONS: dict[str, dict] = {
    "example-3-6": {
        "nonsingular": True,
        "jacobian_constant": "1",
        "inverse_verified": True,
        "mu": 1,
        "histogram": {"1": 50},
        "locus": "empty",
        "witness_drop3": "accepted",
        "witness_drop3_limit": ["0", "0"],
        "witness_drop2": "accepted",
        "witness_drop2_limit": ["0", "0"],
        "witness_drop1": "accepted",
        "witness_drop1_limit": ["0", "0"],
        "negative_control": "image diverges",
        "clearance_y1": "no",
        "clearance_certificate": True,
    },
    "x-xy": {
        "nonsingular": False,
        "mu": 1,
        "histogram": {"1": 50},
        "locus": "{ y1 = 0 }",
        "cylinder_k2": True,
        "count_at_0_1": 0,
        "clearance_y1": "yes",
        "clearance_y1_minus_1": "no",
        "clearance_certificates": False,
    },
    "x2-y": {
        "nonsingular": False,
        "mu": 2,
        "histogram": {"2": 50},
        "locus": "empty",
    },
}


def corpus_names() -> list[str]:
    return sorted(_ENTRIES)


def corpus_map(name: str) -> PolyMap:
    if name not in _ENTRIES:
        raise KeyError(f"unknown corpus id {name!r}; known: {corpus_names()}")
    return parse_map_text(_ENTRIES[name][0])


def run_entry(name: str, seed: int = 0) -> dict:
    """Run one corpus entry's fixed suite and diff against expectations."""
    f = corpus_map(name)
    results, certificates, warnings = _ENTRIES[name][1](f, seed)
    expected = EXPECTATIONS[name]
    mismatches = []
    for fieldname, want in expected.items():
        got = results.get(fieldname, "<missing>")
        if got != want:
            mismatches.append({"field": fieldname, "expected": want, "actual": got})
    return {
        "name": name,
        "map": {"vars": list(f.vars), "components": [str(c) for c in f.components]},
        "results": results,
        "expected_pass": not mismatches,
        "mismatches": mismatches,
        "certificates": [c.to_dict() for c in certificates],
        "warnings": list(dict.fromkeys(warnings)),
    }
