"""Command-line interface: reports, exit codes, determinism, corpus runner."""

import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from polyproper.cli import main
from polyproper.corpus import EXAMPLE_3_6_TEXT, X_XY_TEXT, corpus_names, run_entry
from polyproper.solver import geometric_degree
from conftest import dense_pool


@pytest.fixture()
def shear_file(tmp_path):
    path = tmp_path / "shear.map"
    path.write_text(EXAMPLE_3_6_TEXT)
    return str(path)


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def test_jacobian_and_degree_checks(shear_file):
    code, out, _ = run_cli(["--map", shear_file, "--checks", "jacobian,degree", "--seed", "0"])
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == 1
    assert report["results"]["jacobian"]["nonsingular"] is True
    assert report["results"]["jacobian"]["constant"] == "1"
    assert report["results"]["degree"]["mu"] == 1
    assert report["results"]["degree"]["histogram"] == {"1": 50}
    assert report["config"]["seed"] == 0


def test_sf_check_reports_locus(tmp_path):
    path = tmp_path / "m.map"
    path.write_text("vars: x y\nf1 = x\nf2 = x*y\n")
    code, out, _ = run_cli(["--map", str(path), "--checks", "sf,cylinder", "--drop", "2"])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["sf"]["status"] == "hypersurface"
    assert report["results"]["sf"]["polynomial"] == "y1"
    assert report["results"]["cylinder"] == {
        "k": 2,
        "is_cylinder": True,
        "locus": "{ y1 = 0 }",
    }
    assert any("singular" in w for w in report["warnings"])


def test_rabier_check(shear_file):
    code, out, _ = run_cli(
        ["--map", shear_file, "--checks", "rabier", "--drop", "3", "--path", "t, t^-2, 0"]
    )
    report = json.loads(out)
    assert code == 0
    res = report["results"]["rabier"]
    assert res["accepted"] is True
    assert res["limit"] == ["0", "0"]
    assert res["sigma_order"] == -2
    assert "nu_samples" not in res and "t_max" not in res
    assert "tol" not in res
    certs = report["certificates"]
    assert len(certs) == 1
    assert certs[0]["claim"] == "asymptotic-critical-set membership"
    assert certs[0]["evidence"]["limit"] == ["0", "0"]
    assert certs[0]["evidence"]["sigma_order"] == -2
    assert "exactly" in certs[0]["hypotheses"]["singular value decay"]
    assert "tolerances" not in report["config"]


def test_rabier_identically_singular_report_is_strict_json(tmp_path):
    # Jacobian entries of degree 91 in t: past float range at t = 10^4
    path = tmp_path / "wide.map"
    path.write_text("vars: x y z\nf1 = y - z\nf2 = x^10*(y^10 - z^10)\n")
    code, out, _ = run_cli(["--map", str(path), "--checks", "rabier", "--path", "t^10, t^-1, t^-1"])
    assert code == 0
    report = json.loads(out, parse_constant=lambda name: pytest.fail(f"non-JSON constant {name}"))
    res = report["results"]["rabier"]
    assert res["accepted"] is True and res["sigma_order"] is None


def test_rabier_cubic_decay_is_reported_exactly(shear_file):
    # float samples of sigma_min lose this path's t^-3 decay past t = 10^2
    code, out, _ = run_cli(
        ["--map", shear_file, "--checks", "rabier", "--drop", "1", "--path", "t, t^-2, t^3"]
    )
    assert code == 0
    res = json.loads(out)["results"]["rabier"]
    assert res["accepted"] is True
    assert res["sigma_order"] == -3
    assert res["limit"] == ["0", "0"]
    assert sorted(res) == [
        "accepted",
        "decay_order",
        "divergence_coordinates",
        "dropped_component",
        "limit",
        "limit_float",
        "map_components",
        "path",
        "sigma_order",
    ]


def test_rabier_rejection_reports_the_order(tmp_path):
    path = tmp_path / "slow.map"
    path.write_text("vars: x y\nf1 = y^2 + y/100000\n")
    code, out, _ = run_cli(["--map", str(path), "--checks", "rabier", "--path", "t, t^-1"])
    assert code == 0
    res = json.loads(out)["results"]["rabier"]
    assert res["accepted"] is False
    assert res["clause"] == "singular value decay"
    assert res["details"] == {"sigma_order": 0}


def test_rabier_missing_path_is_report_error(shear_file):
    code, out, _ = run_cli(["--map", shear_file, "--checks", "rabier"])
    assert code == 0  # checks completed; the error lives in the report
    report = json.loads(out)
    assert "error" in report["results"]["rabier"]


def test_clearance_check(shear_file):
    code, out, _ = run_cli(
        ["--map", shear_file, "--checks", "clearance", "--hyperplane", "y1"]
    )
    report = json.loads(out)
    assert code == 0
    assert report["results"]["clearance"]["intersects"] == "no"
    assert report["results"]["clearance"]["certificate_issued"] is True
    assert "tol" not in report["results"]["clearance"]
    assert report["certificates"][0]["claim"] == "automorphism"


@pytest.mark.parametrize(
    "extra, error",
    [
        ([], 'the clearance check needs --hyperplane "<expr>"'),
        (
            ["--hyperplane", "y1 +"],
            "cannot parse hyperplane over ('y1', 'y2', 'y3'): "
            "unexpected end of input (at position 4)",
        ),
    ],
)
def test_clearance_without_a_usable_hyperplane_is_report_error(shear_file, extra, error):
    code, out, _ = run_cli(["--map", shear_file, "--checks", "clearance", *extra])
    assert code == 0
    assert json.loads(out)["results"] == {"clearance": {"error": error}}


def test_cylinder_of_an_unknown_locus_is_report_error(tmp_path):
    path = tmp_path / "dense.map"
    path.write_text(dense_pool()["3x2#2"][0])
    code, out, _ = run_cli(["--map", str(path), "--checks", "cylinder"])
    assert code == 0
    assert json.loads(out)["results"]["cylinder"] == {
        "error": "nonproperness locus is unknown: elimination degenerated to zero at variable 'z'"
    }


def test_unexpected_exception_is_internal_error(shear_file, monkeypatch):
    from polyproper import cli

    def broken(*args):
        raise KeyError("boom")

    monkeypatch.setitem(cli._CHECKS, "jacobian", broken)
    code, out, err = run_cli(["--map", shear_file, "--checks", "jacobian"])
    assert code == 2
    assert out == ""
    assert "internal error: KeyError" in err


def test_one_degree_estimate_per_run(tmp_path, monkeypatch):
    """The degree check and the locus share one sampled estimate of mu."""
    from polyproper import cli, nonproper

    calls = []

    def counted(f, *, seed=0):
        calls.append(seed)
        return geometric_degree(f, seed=seed)

    monkeypatch.setattr(cli, "geometric_degree", counted)
    monkeypatch.setattr(nonproper, "geometric_degree", counted)
    path = tmp_path / "m.map"
    path.write_text(X_XY_TEXT)
    args = ["--map", str(path), "--checks", "degree,sf,clearance", "--hyperplane", "y1 - 1"]
    code, out, _ = run_cli(args)
    assert code == 0
    assert calls == [0]
    report = json.loads(out)
    assert report["results"]["degree"]["mu"] == 1
    assert report["results"]["sf"]["polynomial"] == "y1"
    assert report["results"]["clearance"]["intersects"] == "no"


def test_locus_of_a_singular_map_samples_no_fiber(tmp_path, monkeypatch):
    """Without the degree check, the locus samples mu only where a count decides."""
    from polyproper import cli, nonproper

    def refused(*args, **kwargs):
        raise AssertionError("a fiber was sampled for a singular map's locus")

    monkeypatch.setattr(cli, "geometric_degree", refused)
    monkeypatch.setattr(nonproper, "geometric_degree", refused)
    path = tmp_path / "m.map"
    path.write_text(X_XY_TEXT)
    code, out, _ = run_cli(["--map", str(path), "--checks", "sf,cylinder", "--drop", "2"])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["sf"]["polynomial"] == "y1"
    assert report["results"]["cylinder"]["is_cylinder"] is True


def test_locus_of_a_zero_determinant_map_says_so(tmp_path):
    path = tmp_path / "m.map"
    path.write_text("vars: x y\nf1 = x*y\nf2 = x*y\n")
    code, out, _ = run_cli(["--map", str(path), "--checks", "degree,sf"])
    assert code == 0
    results = json.loads(out)["results"]
    assert "non-dominant" in results["degree"]["error"]
    assert results["sf"] == {"error": "the Jacobian determinant is zero: the map is not dominant"}


def test_empty_checks_is_usage_error(shear_file):
    code, _, err = run_cli(["--map", shear_file])
    assert code == 1
    assert "usage error" in err


def test_unknown_check_is_usage_error(shear_file):
    code, _, err = run_cli(["--map", shear_file, "--checks", "frobnicate"])
    assert code == 1


def test_unreadable_file_is_usage_error():
    code, _, err = run_cli(["--map", "/nonexistent.map", "--checks", "jacobian"])
    assert code == 1
    assert "cannot read map file" in err


@pytest.mark.parametrize(
    "args, message",
    [
        (["--seed", "-1"], "--seed must be nonnegative"),
        # the residual tolerance is a constant: --tol is no option at any value
        (["--tol", "nan"], "unrecognized arguments: --tol nan"),
        (["--tol", "inf"], "unrecognized arguments: --tol inf"),
        (["--tol", "-1"], "unrecognized arguments: --tol -1"),
        (["--tol", "0"], "unrecognized arguments: --tol 0"),
    ],
)
def test_bad_seed_or_tol_is_usage_error(shear_file, args, message):
    for source in (["--corpus", "x2-y"], ["--map", shear_file, "--checks", "jacobian"]):
        code, out, err = run_cli(source + args)
        assert code == 1
        assert out == ""
        assert f"usage error: {message}" in err


def test_reports_are_byte_identical(shear_file):
    args = ["--map", shear_file, "--checks", "jacobian,degree,sf", "--seed", "11"]
    _, out1, _ = run_cli(args)
    _, out2, _ = run_cli(args)
    assert out1 == out2


def test_corpus_single(tmp_path):
    code, out, _ = run_cli(["--corpus", "x2-y"])
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["corpus"]["x2-y"]["results"]["mu"] == 2


def test_corpus_all_passes_and_deterministic():
    code1, out1, _ = run_cli(["--corpus", "all", "--seed", "0"])
    code2, out2, _ = run_cli(["--corpus", "all", "--seed", "0"])
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["pass"] is True
    assert sorted(report["corpus"]) == corpus_names()


def test_corpus_all_text_format():
    code, out, _ = run_cli(["--corpus", "all", "--format", "text"])
    assert code == 0
    header, *entries = [line for line in out.splitlines() if not line.startswith(" ")]
    assert header.startswith("polyproper ")
    assert entries == ["[example-3-6] ok", "[x-xy] ok", "[x2-y] ok", "corpus pass: True"]


def test_unknown_corpus_is_usage_error():
    code, _, err = run_cli(["--corpus", "nope"])
    assert code == 1
    assert "unknown corpus id" in err


def test_text_format(shear_file):
    code, out, _ = run_cli(["--map", shear_file, "--checks", "jacobian", "--format", "text"])
    assert code == 0
    assert "nonsingular: True" in out


def test_out_file(tmp_path, shear_file):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["--map", shear_file, "--checks", "jacobian", "--out", str(target)]
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["results"]["jacobian"]["nonsingular"] is True


def test_unwritable_out_is_usage_error(tmp_path, shear_file):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(["--map", shear_file, "--checks", "jacobian", "--out", str(target)])
    assert code == 1
    assert out == ""
    assert "usage error: cannot write report:" in err
    assert not target.parent.exists()


def test_run_entry_lists_mismatches(monkeypatch):
    import polyproper.corpus as corpus_mod

    monkeypatch.setitem(corpus_mod.EXPECTATIONS["x2-y"], "mu", 3)
    entry = run_entry("x2-y")
    assert not entry["expected_pass"]
    assert entry["mismatches"] == [{"field": "mu", "expected": 3, "actual": 2}]


FROZEN = Path(__file__).resolve().parents[1] / "bench" / "frozen.json"


@pytest.mark.parametrize("name", corpus_names())
def test_corpus_entry_matches_frozen_digest(name):
    frozen = json.loads(FROZEN.read_text())["corpus"]
    text = json.dumps(run_entry(name), indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == frozen[name]


def test_oversized_map_is_usage_error(tmp_path):
    path = tmp_path / "big.map"
    path.write_text("vars: x y z\nf1 = (x+y+z)^200\nf2 = y\nf3 = z\n")
    start = time.perf_counter()
    code, _, err = run_cli(["--map", str(path), "--checks", "jacobian"])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert "parse limit" in err


def test_map_with_a_large_expansion_is_usage_error(tmp_path):
    path = tmp_path / "wide.map"
    path.write_text(
        "vars: a b c d e f\n"
        "f1 = (a+b+c+d+e+f)^16*(a-b+c-d+e-f)^16\nf2 = b\nf3 = c\nf4 = d\nf5 = e\nf6 = f\n"
    )
    start = time.perf_counter()
    code, _, err = run_cli(["--map", str(path), "--checks", "jacobian"])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert "terms exceeds the parse limit" in err


#: Runs ``polyproper --corpus all`` and one fiber of the map on stdin, then
#: prints whether ``numpy.ma`` was imported.
_MA_PROBE = """
import contextlib, io, sys
import numpy as np
from polyproper.cli import main
from polyproper.polymap import parse_map_text
from polyproper.solver import sample_target, solve_fiber
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["--corpus", "all"]) == 0
f = parse_map_text(sys.stdin.read())
assert solve_fiber(f, sample_target(np.random.default_rng(1), 3))
print("numpy.ma" in sys.modules)
"""


def test_corpus_and_a_dense_fiber_leave_numpy_ma_unimported():
    """numpy imports ``numpy.ma`` lazily, from ``np.unique`` for one; it costs about 0.9 MB of peak RSS."""
    env = dict(os.environ)
    src = Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _MA_PROBE],
        input=dense_pool()["3x3#1"][0],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
