"""Output checks for the benchmark workloads.

Every check returns a list of problems (empty when the output is right).
The checks compare against closed forms, independent computations (an
mpmath quadrature of the same Herglotz integral, the benchmark's own copy
of the moment-figure curves, d^2 mod 2 recomputed from the differentials)
or properties the method must have, never against saved output.
"""

from __future__ import annotations

import cmath
import csv
import io
import math

from quiltlab.verify import MASLOV1_PROFILE, STRICT_PROFILE

HALF_PI = math.pi / 2.0

# ---------------------------------------------------------------------------
# sweep

DIAG_EXACT = 1e-12      # the h -> 0 rescale and identity are exact
DIAG_SUP = 1e-2         # h -> pi/2 sup distance at h = pi/2 - 1e-3


def check_sweep_height(h: float, result) -> list[str]:
    problems = []
    reports = result.reports.get(h)
    if reports is None or len(reports) != 12:
        return [f"h={h}: expected 12 components, got "
                f"{0 if reports is None else len(reports)}"]
    for rep in reports:
        tol = (STRICT_PROFILE if rep.label.startswith("quilt.const.")
               else MASLOV1_PROFILE).area_tol
        if not rep.passed:
            problems.append(f"{rep.label}: verification failed")
        if not abs(rep.total_area - 0.5) <= tol:
            problems.append(f"{rep.label}: total area {rep.total_area!r} "
                            f"not within {tol} of 1/2")
    return problems


def check_sweep_diagnostics(result) -> list[str]:
    problems = []
    const = result.diagnostics.get("const", {})
    maslov1 = result.diagnostics.get("maslov1", {})
    exact = {"const.h_to_0_rescale_max":
             const.get("h_to_0_rescale_max", math.inf),
             "maslov1.h_to_0_identity_max":
             maslov1.get("h_to_0_identity_max", math.inf)}
    for key, value in exact.items():
        if not value <= DIAG_EXACT:
            problems.append(f"{key} = {value!r} > {DIAG_EXACT}")
    for fam, diag in (("const", const), ("maslov1", maslov1)):
        value = diag.get("h_to_pi2_sup_distance", math.inf)
        if not value < DIAG_SUP:
            problems.append(f"{fam}.h_to_pi2_sup_distance = {value!r} "
                            f">= {DIAG_SUP}")
    return problems


# ---------------------------------------------------------------------------
# points

BOUNDARY_LAW_REL = 1e-4     # criterion-4 accuracy of the top-edge modulus
FULL_HEIGHT_REL = 1e-8      # criterion-3 accuracy of f at h = pi/2
BOTTOM_REALITY = 1e-8       # |Im f| / |f| on the bottom edge


def derivative_tol(h: float, abs_tol: float) -> float:
    """Bound on |f'/f - (f'/f)_exact|: f_and_derivative asks for I' to an
    absolute tolerance of 100 abs_tol / |w|, and f'/f = (pi/2h) w I'/2 pi i."""
    return (math.pi / (2.0 * h)) * 100.0 * abs_tol / (2.0 * math.pi)


def check_point(h: float, x: float, y: float, abs_tol: float, output,
                reference: complex | None = None) -> list[str]:
    """Checks for one point operation: output = (log_f(z), (f, f')(z),
    f(x), boundary_modulus(x)) at z = x + iy on the strip of height h."""
    lf, (fz, dfz), fb, bm = output
    z = complex(x, y)
    problems = []
    law = math.exp(2.0 * x) + 1.0
    if not abs(bm - law) <= BOUNDARY_LAW_REL * law:
        problems.append(f"boundary_modulus {bm!r} vs exp(2x)+1 = {law!r}")
    if not abs(fb.imag) <= BOTTOM_REALITY * abs(fb):
        problems.append(f"bottom-edge value {fb!r} is not real")
    # two adaptive passes of the same integral, each to abs_tol on I
    agree = abs_tol / math.pi
    if not abs(cmath.exp(lf) - fz) <= agree * abs(fz):
        problems.append(f"exp(log_f) {cmath.exp(lf)!r} vs f {fz!r}")
    if h == HALF_PI:
        exact = cmath.exp(z) + 1.0
        if not abs(cmath.exp(lf) - exact) <= FULL_HEIGHT_REL * abs(exact):
            problems.append(f"f {cmath.exp(lf)!r} vs exp(z)+1 = {exact!r}")
        if not abs(fz - exact) <= FULL_HEIGHT_REL * abs(exact):
            problems.append(f"f {fz!r} vs exp(z)+1 = {exact!r}")
        dtol = derivative_tol(h, abs_tol) + FULL_HEIGHT_REL
        if not abs(dfz - cmath.exp(z)) <= dtol * abs(exact):
            problems.append(f"f' {dfz!r} vs exp(z) = {cmath.exp(z)!r}")
        bottom = math.exp(x) + 1.0
        if not abs(fb - bottom) <= FULL_HEIGHT_REL * bottom:
            problems.append(f"f(x) {fb!r} vs exp(x)+1 = {bottom!r}")
    if reference is not None:
        bound = abs_tol / (2.0 * math.pi)
        if not abs(lf - reference) <= bound:
            problems.append(f"log_f {lf!r} vs mpmath {reference!r} "
                            f"(bound {bound:.3g})")
    return problems


def reference_log_f(h: float, z: complex, dps: int = 30) -> complex:
    """log f(z) from an mpmath tanh-sinh quadrature of the Herglotz integral

        I(w) = int (1 + t w)/(t - w) log(1 + |t|^p)/(1 + t^2) dt,

    p = 4h/pi, w = i exp(pi z / 2h), log f = I / 2 pi i.  Both half-lines
    are folded onto s = log|t| in one integrand, with breakpoints at the
    Poisson peak log|Re w| and at the kernel turnover log|w|."""
    import mpmath as mp

    with mp.workdps(dps):
        p = 4 * mp.mpf(h) / mp.pi
        w = 1j * mp.exp(mp.pi * mp.mpc(z) / (2 * mp.mpf(h)))

        def g(t):
            return (1 + t * w) / (t - w) * mp.log(1 + abs(t) ** p) \
                / (1 + t * t)

        def folded(s):
            e = mp.exp(s)
            return (g(e) + g(-e)) * e

        lw = float(mp.log(abs(w)))
        knots = {0.0, lw - 2.0, lw, lw + 2.0}
        if w.real != 0:
            knots.add(float(mp.log(abs(w.real))))
        value, err = mp.quad(folded, [-mp.inf] + sorted(knots) + [mp.inf],
                             error=True)
        if err > 1e-20 * max(1.0, abs(value)):
            raise ArithmeticError(f"mpmath reference error estimate {err}")
        return complex(value / (2j * mp.pi))


# ---------------------------------------------------------------------------
# closed_form

ACW_AREAS = {"u2": 0.3, "u1": 0.2}
ACW_AREA_TOL = 1e-6
RESIDUAL_TOL = 1e-12
STRIP_AREA_TOL = 1e-5

ELLIPSE = (100, 16, 16, 20, 8, 1)   # 100x^2+16xy+16y^2+20x+8y+1


def _ellipse(x, y):
    a, b, c, d, e, f = ELLIPSE
    return a * x * x + b * x * y + c * y * y + d * x + e * y + f


def _lambda_line(x, y):
    return y + 1.0 / 6.0


def _lac_line(x, y):
    return 2.0 * x + 4.0 * y + 1.0


# layer file -> the curve its points lie on
FIGURE_CURVES = {
    "figure_lambda.csv": _lambda_line,
    "figure_lac.csv": _lac_line,
    "figure_u2_right_edge.csv": _ellipse,
    "figure_u2_bottom_edge.csv": _lac_line,
    "figure_u2_top_edge.csv": _lambda_line,
    "figure_u1_segment.csv": _lambda_line,
}
CURVE_TOL = 1e-10       # 15-digit CSV values, curve gradients below ~1e2
TRIANGLE_TOL = 1e-12


def check_quilt_report(report, expected_patch_areas: dict | None,
                       area_tol: float) -> list[str]:
    problems = []
    if not report.passed:
        problems.append(f"{report.label}: verification failed")
    for kind, entries in (("seam", report.seams),
                          ("boundary", report.boundaries)):
        for e in entries:
            if not e["max"] < RESIDUAL_TOL or e["failures"]:
                problems.append(f"{report.label}: {kind} {e['index']} "
                                f"residual {e['max']!r}")
    if not abs(report.total_area - 0.5) <= area_tol:
        problems.append(f"{report.label}: total area "
                        f"{report.total_area!r} not 1/2")
    if expected_patch_areas is not None:
        for entry in report.areas:
            want = expected_patch_areas[entry["patch"].split(".")[1]]
            if not abs(entry["value"] - want) <= area_tol:
                problems.append(f"{entry['patch']}: area "
                                f"{entry['value']!r} vs {want}")
    return problems


def check_strip_areas(areas) -> list[str]:
    problems = []
    if len(areas) != 20:
        problems.append(f"expected 20 rigid strips, got {len(areas)}")
    for label, value, _err in areas:
        if not abs(value - 0.5) <= STRIP_AREA_TOL:
            problems.append(f"{label}: area {value!r} not 1/2")
    return problems


def _square_mod2(m):
    n = len(m)
    return [[sum(m[i][k] * m[k][j] for k in range(n)) % 2 for j in range(n)]
            for i in range(n)]


def check_floer(exit_code: int, report: dict) -> list[str]:
    problems = []
    if exit_code != 0:
        problems.append(f"floer exit code {exit_code}")
    for side, strips, want_identity in (("cp1", 8, False),
                                        ("cp2", 12, True)):
        entry = report.get(side)
        if entry is None:
            problems.append(f"floer report lacks the {side} side")
            continue
        d = entry["differential"]
        sq = _square_mod2(d)
        n = len(d)
        target = [[int(want_identity and i == j) for j in range(n)]
                  for i in range(n)]
        if sq != target:
            problems.append(f"{side}: d^2 mod 2 = {sq}, expected "
                            f"{'identity' if want_identity else 'zero'}")
        if entry["strips"] != strips:
            problems.append(f"{side}: {entry['strips']} strips, expected "
                            f"{strips}")
    return problems


def _rows(text: str):
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader)
    return header, [[float(v) for v in row] for row in reader]


def check_moment_csvs(exit_code: int, files: dict[str, bytes],
                      first: dict[str, bytes] | None = None) -> list[str]:
    problems = []
    if exit_code != 0:
        problems.append(f"moment-plot exit code {exit_code}")
    missing = set(FIGURE_CURVES) - set(files)
    if missing:
        problems.append(f"missing figure layers {sorted(missing)}")
    for name, curve in FIGURE_CURVES.items():
        if name not in files:
            continue
        _, rows = _rows(files[name].decode("ascii"))
        if not rows:
            problems.append(f"{name}: no points")
        worst_curve = worst_tri = 0.0
        for row in rows:
            x, y = row[0], row[1]
            worst_curve = max(worst_curve, abs(curve(x, y)))
            worst_tri = max(worst_tri, x, y, -(x + y) - 0.5)
        if not worst_curve <= CURVE_TOL:
            problems.append(f"{name}: point off its curve by "
                            f"{worst_curve:.3g}")
        if not worst_tri <= TRIANGLE_TOL:
            problems.append(f"{name}: point outside the moment triangle by "
                            f"{worst_tri:.3g}")
    if first is not None and files != first:
        changed = sorted(k for k in set(files) | set(first)
                         if files.get(k) != first.get(k))
        problems.append(f"CSV bytes differ from the first round: {changed}")
    return problems
