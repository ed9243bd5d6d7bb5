"""Negative controls for the benchmark's output checks: each check passes on
a real output and reports a failure once that output is corrupted.

    python3 -m pytest bench/test_checks.py -q
"""

import copy
import contextlib
import io
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import pytest  # noqa: E402

from quiltlab import analysis, catalog, cli, verify  # noqa: E402

import checks  # noqa: E402


@pytest.fixture(scope="module")
def acw_report():
    return verify.verify_quilt(catalog.make_acw_quilt(+1))


def test_quilt_check_passes_and_catches_a_tampered_seam(acw_report):
    assert checks.check_quilt_report(acw_report, checks.ACW_AREAS,
                                     checks.ACW_AREA_TOL) == []
    tampered = verify.verify_quilt(catalog.make_acw_quilt(+1),
                                   tamper=("seam", 1e-3))
    problems = checks.check_quilt_report(tampered, checks.ACW_AREAS,
                                         checks.ACW_AREA_TOL)
    assert any("seam" in p for p in problems)


def test_quilt_check_catches_a_patch_area_off(acw_report):
    report = copy.deepcopy(acw_report)
    report.areas[1]["value"] += 1e-4
    assert checks.check_quilt_report(report, checks.ACW_AREAS,
                                     checks.ACW_AREA_TOL)


def _point(h, x, y):
    sol = analysis.PoissonSolution(h)
    z = complex(x, y)
    return (analysis.log_f(sol, z), analysis.f_and_derivative(sol, z),
            analysis.f_eval(sol, complex(x, 0.0)),
            analysis.boundary_modulus(sol, x))


def _shift_log_f(output, delta):
    return (output[0] + delta,) + output[1:]


@pytest.mark.parametrize("h, x, y", [(0.6, 1.3, 0.25), (0.23, -7.5, 0.2)])
def test_mpmath_reference_catches_a_shifted_log_f(h, x, y):
    output = _point(h, x, y)
    ref = checks.reference_log_f(h, complex(x, y))
    abs_tol = analysis.QuadratureSettings().abs_tol
    assert checks.check_point(h, x, y, abs_tol, output, ref) == []
    shifted = _shift_log_f(output, 1e-6)
    problems = checks.check_point(h, x, y, abs_tol, shifted, ref)
    assert any("mpmath" in p for p in problems)


def test_full_height_closed_form_catches_a_shifted_log_f():
    h, x, y = math.pi / 2, -4.2, 0.9
    output = _point(h, x, y)
    abs_tol = analysis.QuadratureSettings().abs_tol
    assert checks.check_point(h, x, y, abs_tol, output) == []
    problems = checks.check_point(h, x, y, abs_tol,
                                  _shift_log_f(output, 1e-6))
    assert any("exp(z)+1" in p for p in problems)


def test_point_check_catches_a_wrong_derivative_and_boundary_modulus():
    h, x, y = math.pi / 2, 2.5, 0.4
    lf, (fz, dfz), fb, bm = _point(h, x, y)
    abs_tol = analysis.QuadratureSettings().abs_tol
    assert checks.check_point(h, x, y, abs_tol,
                              (lf, (fz, dfz * (1 + 1e-6)), fb, bm))
    assert checks.check_point(h, x, y, abs_tol,
                              (lf, (fz, dfz), fb, bm * (1 + 2e-4)))
    assert checks.check_point(h, x, y, abs_tol,
                              (lf, (fz, dfz), fb + 1e-6j * abs(fb), bm))


def test_strip_area_check_catches_one_area_off():
    areas = [(s.label, *verify.patch_area(s))
             for s in catalog.all_floer_strips()]
    assert checks.check_strip_areas(areas) == []
    label, value, err = areas[7]
    areas[7] = (label, value + 1e-4, err)
    assert checks.check_strip_areas(areas) == [
        f"{label}: area {value + 1e-4!r} not 1/2"]


@pytest.fixture(scope="module")
def cli_outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    with contextlib.redirect_stdout(io.StringIO()):
        floer_code = cli.main(["floer", "--report", str(tmp / "floer.json")])
        figure_code = cli.main(["moment-plot", "--out", str(tmp / "fig")])
    report = json.loads((tmp / "floer.json").read_text())
    files = {p.name: p.read_bytes()
             for p in sorted((tmp / "fig").glob("*.csv"))}
    return floer_code, report, figure_code, files


@pytest.mark.parametrize("side, i, j", [("cp1", 0, 2), ("cp1", 3, 3),
                                        ("cp2", 1, 0)])
def test_floer_check_catches_one_flipped_entry(cli_outputs, side, i, j):
    code, report, _, _ = cli_outputs
    assert checks.check_floer(code, report) == []
    flipped = copy.deepcopy(report)
    flipped[side]["differential"][i][j] ^= 1
    problems = checks.check_floer(code, flipped)
    assert any(p.startswith(f"{side}: d^2") for p in problems)


def _move_point(text: bytes, row: int, dx: float) -> bytes:
    lines = text.decode("ascii").split("\r\n")
    cells = lines[row].split(",")
    cells[0] = format(float(cells[0]) + dx, ".15g")
    lines[row] = ",".join(cells)
    return "\r\n".join(lines).encode("ascii")


def test_moment_check_catches_a_point_off_the_ellipse(cli_outputs):
    _, _, code, files = cli_outputs
    assert checks.check_moment_csvs(code, files, files) == []
    moved = dict(files)
    name = "figure_u2_right_edge.csv"
    moved[name] = _move_point(files[name], 50, 1e-6)
    problems = checks.check_moment_csvs(code, moved)
    assert any(p.startswith(f"{name}: point off its curve") for p in problems)
    problems = checks.check_moment_csvs(code, moved, files)
    assert any("differ from the first round" in p for p in problems)


def test_moment_check_catches_a_point_outside_the_triangle(cli_outputs):
    _, _, code, files = cli_outputs
    moved = dict(files)
    name = "figure_lambda.csv"
    # the segment's first point, at x = 0, moved along y = -1/6 out of the
    # triangle
    moved[name] = _move_point(files[name], 1, 1e-6)
    problems = checks.check_moment_csvs(code, moved)
    assert any("outside the moment triangle" in p for p in problems)


def _fake_sweep(h, areas, passed=True):
    labels = [f"quilt.const.{k}" for k in range(4)] + \
        [f"quilt.maslov1.{k}" for k in range(8)]
    reports = [SimpleNamespace(label=lab, passed=passed, total_area=a)
               for lab, a in zip(labels, areas)]
    return SimpleNamespace(reports={h: reports})


def test_sweep_checks_catch_a_failed_component_and_an_area_off():
    good = [0.5] * 12
    assert checks.check_sweep_height(0.5, _fake_sweep(0.5, good)) == []
    assert checks.check_sweep_height(0.5, _fake_sweep(0.5, good, False))
    const_off = [0.5 + 2e-4] + [0.5] * 11
    assert checks.check_sweep_height(0.5, _fake_sweep(0.5, const_off))
    maslov_off = [0.5] * 11 + [0.5 + 6e-3]
    assert checks.check_sweep_height(0.5, _fake_sweep(0.5, maslov_off))
    assert checks.check_sweep_height(0.5, _fake_sweep(0.5, good[:11]))


def test_sweep_diagnostics_check_catches_each_limit():
    good = {"const": {"h_to_0_rescale_max": 4e-17,
                      "h_to_pi2_sup_distance": 5e-4},
            "maslov1": {"h_to_0_identity_max": 2e-16,
                        "h_to_pi2_sup_distance": 2e-4}}
    assert checks.check_sweep_diagnostics(
        SimpleNamespace(diagnostics=good)) == []
    for fam, key, bad in (("const", "h_to_0_rescale_max", 1e-11),
                          ("maslov1", "h_to_0_identity_max", 1e-11),
                          ("const", "h_to_pi2_sup_distance", 1e-2),
                          ("maslov1", "h_to_pi2_sup_distance", 0.3)):
        diag = copy.deepcopy(good)
        diag[fam][key] = bad
        assert checks.check_sweep_diagnostics(
            SimpleNamespace(diagnostics=diag)), (fam, key)
