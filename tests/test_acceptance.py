"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with the measured quantity at its stated tolerance."""

import cmath
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import quiltlab as ql
from quiltlab.floer import build_complex, differential_square
from quiltlab.moment_figure import ellipse_residual, emit_moment_figure
from quiltlab.verify import patch_area, seam_residual_profile, \
    boundary_residual_profile, sweep_family

RNG = np.random.default_rng(12)


def _report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {number}: {detail}")
    assert ok, detail


def test_criterion_01_acw_areas(acw_plus):
    t0 = time.perf_counter()
    a2, _ = patch_area(acw_plus.patches[0])
    dt2 = time.perf_counter() - t0
    t0 = time.perf_counter()
    a1, _ = patch_area(acw_plus.patches[1])
    dt1 = time.perf_counter() - t0
    ok = (abs(a1 - 0.2) <= 1e-6 and abs(a2 - 0.3) <= 1e-6
          and abs((a1 + a2) - 0.5) <= 2e-6 and dt1 < 5.0 and dt2 < 5.0)
    _report(1, ok,
            f"patch areas {a1:.9f} (1/5) and {a2:.9f} (3/10), total "
            f"{a1 + a2:.9f}, runtimes {dt1:.2f}s/{dt2:.2f}s (< 5 s each)")


def test_criterion_02_acw_seam_and_boundary(acw_plus):
    seam = seam_residual_profile(acw_plus, samples=1000, x_range=(-50, 50))
    boundary = boundary_residual_profile(acw_plus, 0, samples=1000,
                                         x_range=(-50, 50))
    ok = seam.max_residual < 1e-12 and boundary.max_residual < 1e-12
    _report(2, ok,
            f"seam residual {seam.max_residual:.2e} and boundary residual "
            f"{boundary.max_residual:.2e} over 10^3 samples (< 1e-12)")


def test_criterion_03_full_height_exactness(sol_pi2):
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    while count < 100:
        z = complex(RNG.uniform(-3, 3),
                    RNG.uniform(1e-3, math.pi / 2 * 0.995))
        if abs(z) > 3:
            continue
        count += 1
        target = cmath.exp(z) + 1.0
        worst = max(worst, abs(ql.f_eval(sol_pi2, z) - target) / abs(target))
    dt = time.perf_counter() - t0
    ok = worst < 1e-8 and dt < 30.0
    _report(3, ok,
            f"max relative deviation of the full-height solution from "
            f"exp(z)+1 is {worst:.2e} over 100 samples (< 1e-8), "
            f"runtime {dt:.1f}s (< 30 s)")


def test_criterion_04_boundary_modulus_law():
    worst = 0.0
    for h in (math.pi / 8, math.pi / 4, 3 * math.pi / 8):
        sol = ql.PoissonSolution(h)
        for x in np.linspace(-3, 3, 21):
            target = math.exp(2 * x) + 1.0
            value = ql.boundary_modulus(sol, float(x))
            worst = max(worst, abs(value - target) / target)
    ok = worst < 1e-4
    _report(4, ok,
            f"extrapolated |f|^2 matches exp(2x)+1 within relative "
            f"{worst:.2e} over 3 heights x 21 samples (< 1e-4)")


def test_criterion_05_zero_freeness(sol_pi4):
    h = sol_pi4.h
    fmap = lambda zs: np.array([ql.f_eval(sol_pi4, z)
                                for z in np.atleast_1d(zs)])
    w = ql.winding_number(fmap, (-5.0, 5.0, h / 10, 9 * h / 10))
    ok = w == 0
    _report(5, ok, f"winding number of the positive solution over "
                   f"[-5,5]x[h/10,9h/10] is {w} (expected 0)")


def test_criterion_06_floer_dichotomy():
    cp1 = build_complex("cp1")
    cp2 = build_complex("cp2")
    sq1 = differential_square(cp1)
    sq2 = differential_square(cp2)
    n1 = sum(len(v) for v in cp1.provenance.values())
    n2 = sum(len(v) for v in cp2.provenance.values())
    ok = (not sq1.any()) and (sq2 == np.eye(4, dtype=int)).all() \
        and n1 == 8 and n2 == 12
    _report(6, ok,
            f"differential squares: zero matrix ({not sq1.any()}) and "
            f"identity ({(sq2 == np.eye(4, dtype=int)).all()}), strip "
            f"counts {n1}/{n2} (8/12)")


def test_criterion_07_rigid_strip_areas():
    worst = 0.0
    for strip in ql.all_floer_strips():
        value, _ = patch_area(strip)
        worst = max(worst, abs(value - 0.5))
    ok = worst <= 1e-5
    _report(7, ok, f"all 20 rigid strips have area 0.5 within {worst:.2e} "
                   "(< 1e-5)")


@pytest.mark.slow
def test_criterion_08_moduli_sweep():
    t0 = time.perf_counter()
    result = sweep_family("all", [0.15, 0.5, 1.0, 1.4])
    dt = time.perf_counter() - t0
    all_pass = result.passed
    counts_ok = all(len(rs) == 12 for rs in result.reports.values())
    rescale = result.diagnostics["const"]["h_to_0_rescale_max"]
    ident = result.diagnostics["maslov1"]["h_to_0_identity_max"]
    sup = max(result.diagnostics["const"]["h_to_pi2_sup_distance"],
              result.diagnostics["maslov1"]["h_to_pi2_sup_distance"])
    ok = (all_pass and counts_ok and rescale <= 1e-12 and ident <= 1e-12
          and sup < 1e-2 and dt < 180.0)
    _report(8, ok,
            f"12 components per height all pass ({all_pass}), shrink-limit "
            f"rescale identity {rescale:.1e} (exact), full-height sup "
            f"distance {sup:.2e} (< 1e-2), runtime {dt:.0f}s (< 180 s)")


def test_criterion_09_moment_figure():
    fig = emit_moment_figure(grid=150)
    lam_ends = sorted(tuple(np.round(fig.lambda_segment[i, :2], 13))
                      for i in (0, -1))
    lam_ok = lam_ends == sorted([(round(-1 / 3, 13), round(-1 / 6, 13)),
                                 (0.0, round(-1 / 6, 13))])
    lac_pts = fig.lac_segment[:, :2]
    lac_ok = (np.min(np.abs(lac_pts - np.array([-0.5, 0.0])).sum(axis=1))
              <= 1e-12 and
              np.min(np.abs(lac_pts - np.array([0.0, -0.25])).sum(axis=1))
              <= 1e-12)
    rational_zero = ellipse_residual(Fraction(-1, 150),
                                     Fraction(-1, 6)) == 0
    corner = ql.moment_cp2_rows(ql.make_acw_quilt(+1).patches[0].values(0.0))
    corner_ok = abs(corner[0, 0] - 0.0) <= 1e-12 and \
        abs(corner[0, 1] + 0.25) <= 1e-12
    mirror = float(np.max(np.abs(fig.symmetry_pairs[:, :2]
                                 - fig.symmetry_pairs[:, 2:])))
    ok = lam_ok and lac_ok and rational_zero and corner_ok and mirror <= 1e-12
    _report(9, ok,
            f"segment endpoints exact ({lam_ok and lac_ok}), ellipse "
            f"vanishes in rational arithmetic ({rational_zero}), strip "
            f"corner at (0,-1/4) ({corner_ok}), mirror symmetry "
            f"{mirror:.1e} (< 1e-12)")


def test_criterion_10_quadrature_self_test():
    SQRT_PI = 1.7724538509055160273
    TWO_PI_LOG2 = 4.355172180607204261
    r1 = ql.integrate_line(lambda t: 1.0 / (1.0 + t * t))
    r2 = ql.integrate_line(lambda t: np.exp(-t * t))
    r3 = ql.integrate_line(lambda t: np.log1p(t * t) / (1.0 + t * t))
    d1 = abs(r1.value - math.pi)
    d2 = abs(r2.value - SQRT_PI)
    d3 = abs(r3.value - TWO_PI_LOG2)
    ok = d1 <= 1e-10 and d2 <= 1e-10 and d3 <= 1e-8
    _report(10, ok,
            f"line quadrature self-test deviations {d1:.1e} (pi), "
            f"{d2:.1e} (sqrt pi) [< 1e-10], {d3:.1e} (2 pi log 2) [< 1e-8]")
