"""Command-line front end: map ingestion, checks, deterministic reports.

Usage sketch::

    polyproper --map shear.map --checks jacobian,degree,sf --seed 7
    polyproper --map shear.map --checks rabier --drop 3 --path "t, t^-2, 0"
    polyproper --map shear.map --checks clearance --hyperplane "y1 - 2"
    polyproper --corpus example-3-6
    polyproper --corpus all --format text

Reports are JSON by default (stable key order, fixed float formatting via
``repr``), so a fixed (map, checks, seed, version) produces byte-identical
output; wall-clock timing goes to stderr only.  Exit codes: 0 when every
requested check completed (whatever the mathematical verdicts), 1 for usage
errors, 2 for internal failures.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass

from . import __version__
from .corpus import corpus_names, run_entry
from .nonproper import (
    Certificate,
    Hypersurface,
    automorphism_from_empty_locus,
    hyperplane_clearance,
    nonproperness_set,
    is_cylinder,
    target_variables,
)
from .parser import ParseError, parse_polynomial
from .polymap import PolyMap, load_map_file
from .rabier import LaurentPath, check_rabier_witness
from .solver import DegreeEstimate, geometric_degree

CHECK_NAMES = ("jacobian", "degree", "sf", "rabier", "cylinder", "clearance")


class UsageError(Exception):
    """Bad invocation: wrong flags, unreadable input, unknown names."""


@dataclass
class AnalysisConfig:
    map_path: str | None
    corpus: str | None
    checks: tuple[str, ...]
    seed: int
    drop: int | None
    path: str | None
    hyperplane: str | None
    fmt: str
    out: str | None = None

    def to_dict(self) -> dict:
        return {
            "source": (
                {"kind": "corpus", "id": self.corpus}
                if self.corpus
                else {"kind": "map", "path": self.map_path}
            ),
            "checks": list(self.checks),
            "seed": self.seed,
            "drop": self.drop,
            "path": self.path,
            "hyperplane": self.hyperplane,
            "format": self.fmt,
        }


def _check_jacobian(f: PolyMap, cfg: AnalysisConfig, report: dict) -> dict:
    ns = f.nonsingularity()
    return {
        "nonsingular": ns.is_nonsingular,
        "constant": str(ns.constant) if ns.constant is not None else None,
        "determinant": str(ns.determinant),
    }


def _check_degree(f: PolyMap, cfg: AnalysisConfig, report: dict) -> dict:
    if not f.nonsingularity().is_nonsingular:
        report["warnings"].append(
            "degree/count diagnostics on a singular map are generic-count "
            "observations, not properness certificates"
        )
    return _degree_for(f, cfg, report).to_dict()


def _degree_for(f: PolyMap, cfg: AnalysisConfig, report: dict) -> DegreeEstimate:
    cache = report.setdefault("_cache", {})
    if "degree" not in cache:
        cache["degree"] = geometric_degree(f, seed=cfg.seed)
    return cache["degree"]


def _locus_for(f: PolyMap, cfg: AnalysisConfig, report: dict) -> Hypersurface:
    cache = report.setdefault("_cache", {})
    if "locus" not in cache:
        # the locus samples the same targets itself, and only where a count decides
        cache["locus"] = nonproperness_set(f, seed=cfg.seed, degree_estimate=cache.get("degree"))
    return cache["locus"]


def _check_sf(f: PolyMap, cfg: AnalysisConfig, report: dict) -> dict:
    locus = _locus_for(f, cfg, report)
    cert = automorphism_from_empty_locus(f, locus)
    if cert is not None:
        report["certificates"].append(cert.to_dict())
    if not f.nonsingularity().is_nonsingular:
        report["warnings"].append(
            "on a singular map the nonproperness locus is every elimination "
            "factor, unsampled; fiber-count drops are diagnostic only"
        )
    return {
        "status": locus.status,
        "polynomial": str(locus.poly) if locus.poly is not None else None,
        "target_vars": list(locus.target_vars),
        "reason": locus.reason,
        "notes": list(locus.notes),
    }


def _check_rabier(f: PolyMap, cfg: AnalysisConfig, report: dict) -> dict:
    if cfg.path is None:
        return {"error": "the rabier check needs --path \"<laurent exprs>\""}
    path = LaurentPath.from_text(cfg.path)
    g = f if cfg.drop is None else f.drop_component(cfg.drop)
    outcome = check_rabier_witness(g, path)
    out: dict = {
        "map_components": [str(c) for c in g.components],
        "dropped_component": cfg.drop,
        "path": str(path),
        "accepted": outcome.accepted,
    }
    if outcome.accepted:
        out.update(
            {
                "limit": [str(v) for v in outcome.limit],
                "limit_float": [[v.to_complex().real, v.to_complex().imag] for v in outcome.limit],
                "divergence_coordinates": list(outcome.divergence_coordinates),
                "decay_order": outcome.decay_order,
                "sigma_order": outcome.sigma_order,
            }
        )
        certificate = Certificate(
            "asymptotic-critical-set membership",
            "Laurent-path witness: norm diverges, image converges, "
            "smallest Jacobian singular value tends to 0",
            {
                "norm divergence": "verified exactly (positive path degree)",
                "image limit": "verified exactly (Laurent constant terms)",
                "singular value decay": "verified exactly (t-degrees of the Jacobian's minors)",
            },
            {k: out[k] for k in ("path", "limit", "decay_order", "sigma_order")},
        )
        report["certificates"].append(certificate.to_dict())
    else:
        out.update({"reason": outcome.reason, "clause": outcome.clause, "details": outcome.details})
    return out


def _check_cylinder(f: PolyMap, cfg: AnalysisConfig, report: dict) -> dict:
    locus = _locus_for(f, cfg, report)
    if locus.is_unknown:
        return {"error": f"nonproperness locus is unknown: {locus.reason}"}
    k = cfg.drop if cfg.drop is not None else f.target_dim
    return {"k": k, "is_cylinder": is_cylinder(locus, k), "locus": str(locus)}


def _check_clearance(f: PolyMap, cfg: AnalysisConfig, report: dict) -> dict:
    if cfg.hyperplane is None:
        return {"error": "the clearance check needs --hyperplane \"<expr>\""}
    targets = target_variables(f)
    try:
        h = parse_polynomial(cfg.hyperplane, targets)
    except ParseError as exc:
        return {"error": f"cannot parse hyperplane over {targets}: {exc}"}
    locus = _locus_for(f, cfg, report)
    verdict = hyperplane_clearance(f, h, locus=locus)
    if verdict.certificate is not None:
        report["certificates"].append(verdict.certificate.to_dict())
    report["warnings"].extend(verdict.warnings)
    return {
        "hyperplane": str(h),
        "target_vars": list(targets),
        "intersects": verdict.intersects,
        "evidence": {k: v for k, v in sorted(verdict.evidence.items())},
        "certificate_issued": verdict.certificate is not None,
    }


_CHECKS = {
    "jacobian": _check_jacobian,
    "degree": _check_degree,
    "sf": _check_sf,
    "rabier": _check_rabier,
    "cylinder": _check_cylinder,
    "clearance": _check_clearance,
}


def run(cfg: AnalysisConfig) -> dict:
    """Execute the configured checks against a map file and build the report."""
    try:
        f = load_map_file(cfg.map_path)
    except OSError as exc:
        raise UsageError(f"cannot read map file: {exc}") from exc
    except (ValueError, ParseError) as exc:
        raise UsageError(f"cannot parse map file: {exc}") from exc
    report: dict = {
        "schema_version": 1,
        "tool": {"name": "polyproper", "version": __version__},
        "config": cfg.to_dict(),
        "map": {"vars": list(f.vars), "components": [str(c) for c in f.components]},
        "results": {},
        "certificates": [],
        "warnings": [],
    }
    for check in cfg.checks:
        try:
            report["results"][check] = _CHECKS[check](f, cfg, report)
        except (ValueError, ParseError, RuntimeError) as exc:
            report["results"][check] = {"error": str(exc)}
    report.pop("_cache", None)
    report["warnings"] = list(dict.fromkeys(report["warnings"]))
    return report


def run_corpus(cfg: AnalysisConfig) -> dict:
    names = corpus_names() if cfg.corpus == "all" else [cfg.corpus]
    for name in names:
        if name not in corpus_names():
            raise UsageError(f"unknown corpus id {name!r}; known: {corpus_names()} or 'all'")
    entries = {name: run_entry(name, seed=cfg.seed) for name in names}
    return {
        "schema_version": 1,
        "tool": {"name": "polyproper", "version": __version__},
        "config": cfg.to_dict(),
        "corpus": entries,
        "pass": all(e["expected_pass"] for e in entries.values()),
    }


def render_text(report: dict) -> str:
    """Human-oriented rendering of a report (JSON stays the machine format)."""
    lines = [f"polyproper {report['tool']['version']}"]
    if "corpus" in report:
        for name, entry in report["corpus"].items():
            status = "ok" if entry["expected_pass"] else "MISMATCH"
            lines.append(f"[{name}] {status}")
            for key, val in entry["results"].items():
                lines.append(f"  {key}: {val}")
            for mm in entry["mismatches"]:
                lines.append(
                    f"  !! {mm['field']}: expected {mm['expected']!r}, got {mm['actual']!r}"
                )
            for warning in entry["warnings"]:
                lines.append(f"  warning: {warning}")
        lines.append(f"corpus pass: {report['pass']}")
        return "\n".join(lines)
    lines.append(f"map: {report['map']['vars']} -> {report['map']['components']}")
    for check, result in report["results"].items():
        lines.append(f"[{check}]")
        for key, val in result.items():
            lines.append(f"  {key}: {val}")
    for cert in report["certificates"]:
        lines.append(f"certificate: {cert['claim']} via {cert['criterion']}")
    for warning in report["warnings"]:
        lines.append(f"warning: {warning}")
    return "\n".join(lines)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="polyproper", description=__doc__, add_help=True)
    src = p.add_mutually_exclusive_group()
    src.add_argument("--map", dest="map_path", help="map file (line format: vars: ... then name = expr)")
    src.add_argument("--corpus", help=f"built-in corpus id ({', '.join(corpus_names())}) or 'all'")
    p.add_argument("--checks", default="", help="comma-separated: " + ",".join(CHECK_NAMES))
    p.add_argument("--seed", type=int, default=0, help="seed for all sampling (recorded in output)")
    p.add_argument("--drop", type=int, default=None, help="component to delete for rabier/cylinder checks (1-based)")
    p.add_argument("--path", default=None, help='Laurent path literal, e.g. "t, t^-2, 0"')
    p.add_argument("--hyperplane", default=None, help="test hypersurface over target coordinates y1..yn")
    p.add_argument("--format", dest="fmt", choices=("json", "text"), default="json")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.add_argument("--version", action="version", version=f"polyproper {__version__}")
    return p


def parse_config(argv: list[str]) -> AnalysisConfig:
    ns = build_parser().parse_args(argv)
    if not ns.map_path and not ns.corpus:
        raise UsageError("one of --map or --corpus is required")
    if ns.seed < 0:
        raise UsageError(f"--seed must be nonnegative, got {ns.seed}")
    checks: tuple[str, ...] = ()
    if ns.map_path:
        checks = tuple(c.strip() for c in ns.checks.split(",") if c.strip())
        if not checks:
            raise UsageError("--checks must request at least one check")
        unknown = [c for c in checks if c not in CHECK_NAMES]
        if unknown:
            raise UsageError(f"unknown checks {unknown}; available: {list(CHECK_NAMES)}")
    return AnalysisConfig(
        map_path=ns.map_path,
        corpus=ns.corpus,
        checks=checks,
        seed=ns.seed,
        drop=ns.drop,
        path=ns.path,
        hyperplane=ns.hyperplane,
        fmt=ns.fmt,
        out=ns.out,
    )


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    started = time.perf_counter()
    try:
        cfg = parse_config(argv)
        report = run_corpus(cfg) if cfg.corpus else run(cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits 2
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    payload = (
        json.dumps(report, indent=2, sort_keys=True) + "\n"
        if cfg.fmt == "json"
        else render_text(report) + "\n"
    )
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"usage error: cannot write report: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(payload)
    print(f"completed in {time.perf_counter() - started:.2f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
