"""Whole-quilt verification: seam/boundary residual profiles, symplectic
areas over unbounded regions, Cauchy-Riemann sampling, and the sweep over
the fibered moduli interval.

Areas integrate the Fubini-Study pullback density in two nested quadratures:
the inner x-integral runs over the full line for rationally decaying maps
and over a truncated interval (with an explicit exponential tail bound) for
Moebius/exponential maps; the outer y-integral is adaptive on strips and
tangent-compactified on half-planes.  Every tolerance is a property of
the quilt: ``default_profile`` and the area rule follow from the regimes of
its patches, so a report is a deterministic function of the quilt alone.
The sweep's interval-end limit of a component is the rigid strip with the
endpoints of its CP^2 patch (``limit_strip``).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import catalog as cat
from . import floer
from .geometry import (_fs_distance_rows, _unit_rows,
                       correspondence_residual_rows, homogeneous_density,
                       lagrangian_residual_rows)
from .quadrature import integrate_interval, integrate_line

HALF_PI = math.pi / 2.0
# the Re z span of the seam and boundary samples
X_RANGE = (-50.0, 50.0)
# absolute tolerance of the strict area quadrature
_AREA_TOL = 1e-8


@dataclass(frozen=True)
class ToleranceProfile:
    seam_tol: float = 1e-12
    boundary_tol: float = 1e-12
    area_tol: float = 1e-4
    cr_tol: float = 1e-5
    samples: int = 1000             # per seam and per boundary edge
    cr_samples: int = 48


STRICT_PROFILE = ToleranceProfile()
# Quadrature-backed patches: seam residuals inherit the extrapolation error
# of the top-edge modulus, bottom-edge reality the integral tolerance.
MASLOV1_PROFILE = ToleranceProfile(
    seam_tol=1e-4, boundary_tol=1e-8, area_tol=5e-3, cr_tol=1e-4,
    samples=160, cr_samples=12)


def default_profile(quilt: cat.Quilt) -> ToleranceProfile:
    if any(p.regime is cat.Regime.QUADRATURE for p in quilt.patches):
        return MASLOV1_PROFILE
    return STRICT_PROFILE


@dataclass(frozen=True)
class ProfileResult:
    max_residual: float
    at: float
    failures: int = 0


def _sample_x(quilt: cat.Quilt, x_range, samples: int) -> np.ndarray:
    """Equispaced samples of the range, clipped to what every patch
    evaluator represents."""
    cap = min(m.x_cap for m in quilt.patches)
    return np.linspace(max(x_range[0], -cap), min(x_range[1], cap), samples)


def _worst(x: np.ndarray, residual: np.ndarray,
           failures: int) -> ProfileResult:
    if residual.size == 0:
        return ProfileResult(math.inf, math.nan, failures)
    k = int(np.argmax(residual))
    return ProfileResult(float(residual[k]), float(x[k]), failures)


def seam_residual_profile(quilt: cat.Quilt, seam_index: int = 0, *,
                          samples: int = 1000,
                          x_range: tuple[float, float] = X_RANGE,
                          offset: float = 0.0) -> ProfileResult:
    """Max over equispaced seam samples of the correspondence residual
    between the two patch traces."""
    seam = quilt.seams[seam_index]
    x = _sample_x(quilt, x_range, samples)
    rows2 = quilt.patches[seam.cp2_patch].seam_rows(x, seam.y)
    rows1 = quilt.patches[seam.cp1_patch].values(x + 1j * (seam.y + offset))
    good = np.all(np.isfinite(rows2), axis=1) & \
        np.all(np.isfinite(rows1), axis=1)
    level, proj, defined = correspondence_residual_rows(rows1[good],
                                                        rows2[good])
    residual = np.where(defined, np.maximum(level, proj), level)
    return _worst(x[good], residual, int(np.sum(~good)))


def boundary_residual_profile(quilt: cat.Quilt, boundary_index: int, *,
                              samples: int = 1000,
                              x_range: tuple[float, float] = X_RANGE,
                              offset: float = 0.0) -> ProfileResult:
    edge = quilt.boundaries[boundary_index]
    x = _sample_x(quilt, x_range, samples)
    rows = quilt.patches[edge.patch].values(x + 1j * (edge.y + offset))
    good = np.all(np.isfinite(rows), axis=1)
    residual = lagrangian_residual_rows(edge.lagrangian, rows[good])
    return _worst(x[good], residual, int(np.sum(~good)))


# ---------------------------------------------------------------------------
# areas

def _density_line(m: cat.AnalyticMap, y: float):
    def rho(x):
        z = np.asarray(x, dtype=float) + 1j * y
        vals, ders = m.values_and_derivs(z)
        return homogeneous_density(vals, ders)
    return rho


def patch_area(m: cat.AnalyticMap, *, x_cut: float = 32.0,
               y_cut: float = 1e7) -> tuple[float, float]:
    """Integral of the pullback density over the patch region, with an error
    estimate that includes quadrature and truncation-tail contributions.

    A quadrature-backed patch takes a relaxed inner tolerance and a capped
    outer refinement, since each of its density evaluations costs a
    Herglotz integral.
    """
    if m.regime is cat.Regime.CONSTANT:
        return 0.0, 0.0
    fast = m.regime is cat.Regime.QUADRATURE
    inner_tol = 2e-5 if fast else _AREA_TOL * 3e-3
    if fast:
        x_cut = min(x_cut, 16.0)
    tail_box = [0.0]
    inner_err_box = [0.0]

    def inner(y: float) -> float:
        rho = _density_line(m, y)
        if m.regime is cat.Regime.RATIONAL:
            res = integrate_line(rho, splits=(0.0,), abs_tol=inner_tol,
                                 rel_tol=1e-9)
            val = float(np.real(res.value))
            inner_err_box[0] = max(inner_err_box[0], res.error_estimate)
            return val
        cut = min(x_cut, m.x_cap)
        res = integrate_interval(rho, -cut, cut, knots=(0.0,),
                                 abs_tol=inner_tol, rel_tol=1e-9,
                                 raise_on_budget=False)
        # Moebius/exponential densities decay like exp(-2|x|).
        edge = rho(np.array([-cut, cut]))
        tail_box[0] = max(tail_box[0], 0.5 * float(edge[0] + edge[1]))
        inner_err_box[0] = max(inner_err_box[0], res.error_estimate)
        return float(np.real(res.value))

    region = m.region
    if region.kind is cat.RegionKind.STRIP:
        y_lo, y_hi = region.y_lo, region.y_hi

        def outer(ys):
            return np.array([inner(float(t)) for t in np.atleast_1d(ys)])

        if fast:
            # single Kronrod panel in y; the density profile is analytic in
            # y, so one bisection is only spent when the estimate asks.
            res = integrate_interval(outer, y_lo, y_hi, abs_tol=1e-4,
                                     rel_tol=0.0, budget=45,
                                     raise_on_budget=False)
        else:
            res = integrate_interval(outer, y_lo, y_hi,
                                     abs_tol=_AREA_TOL * 0.3, rel_tol=1e-9,
                                     raise_on_budget=False)
        y_span = y_hi - y_lo
    else:
        y_lo = region.y_lo
        theta_end = math.atan(y_cut - y_lo)

        def outer(thetas):
            thetas = np.atleast_1d(thetas)
            out = np.empty(thetas.shape)
            for i, th in enumerate(thetas):
                y = y_lo + math.tan(float(th))
                out[i] = inner(y) / math.cos(float(th)) ** 2
            return out

        res = integrate_interval(outer, 0.0, theta_end,
                                 abs_tol=_AREA_TOL * 0.3, rel_tol=1e-9,
                                 raise_on_budget=False)
        # density integrals on far lines fall off like 1/y^3
        tail_box[0] += 0.5 * abs(inner(y_cut)) * y_cut
        y_span = HALF_PI

    value = float(np.real(res.value))
    err = float(res.error_estimate) + inner_err_box[0] * y_span + tail_box[0]
    return value, err


# ---------------------------------------------------------------------------
# holomorphy sampling

def cr_residual_profile(m: cat.AnalyticMap, *, samples: int = 48) -> float:
    """Max over an interior sample grid, Re z from -2.7 to 3.3, of
    ||dbar u|| / ||u|| for the gauge-scaled lift, via centered differences:
    coarse ones for quadrature-backed maps, Richardson-refined fine ones
    otherwise."""
    y_lo = m.region.y_lo
    y_hi = m.region.y_hi if m.region.y_hi is not None else y_lo + 2.0
    height = y_hi - y_lo
    richardson = m.regime is not cat.Regime.QUADRATURE
    step = (1e-5 if richardson else 1e-3) * height
    margin = max(4 * step, 2e-3 * height)
    n_side = max(2, int(math.sqrt(samples)))
    xs = np.linspace(-3.0, 3.0, n_side + 1)[:-1] + 0.318
    ys = np.linspace(y_lo + margin, y_hi - margin, n_side)
    worst = 0.0
    for x0 in xs:
        for y0 in ys:
            z0 = complex(x0, y0)
            gauge = max(z0.real, 0.0)

            def dbar(d):
                stencil = np.array([z0 + d, z0 - d, z0 + 1j * d, z0 - 1j * d])
                vals = m.values(stencil, gauge=gauge)
                return (vals[0] - vals[1] + 1j * (vals[2] - vals[3])) \
                    / (4.0 * d)

            est = dbar(step)
            if richardson:
                est = (4.0 * dbar(step / 2.0) - est) / 3.0
            base = m.values(np.array([z0]), gauge=gauge)[0]
            worst = max(worst, float(np.linalg.norm(est) /
                                     np.linalg.norm(base)))
    return worst


# ---------------------------------------------------------------------------
# reports

@dataclass
class VerificationReport:
    label: str
    seams: list
    boundaries: list
    areas: list
    total_area: float
    holomorphy: list
    passed: bool
    samples: dict
    expected_area: float | None = None

    def to_dict(self) -> dict:
        return {("pass" if k == "passed" else k): v
                for k, v in asdict(self).items()}

    def to_json(self, indent: int | None = 2) -> str:
        return json_text(self.to_dict(), indent)


def _finite_or_null(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def json_text(payload, indent: int | None = 2) -> str:
    """Standard JSON (RFC 8259) with sorted keys: a non-finite float, such
    as the maximum of a profile without one finite sample, is written as
    null, since the standard has no Infinity or NaN."""
    return json.dumps(_finite_or_null(payload), indent=indent,
                      sort_keys=True, allow_nan=False)


def verify_quilt(quilt: cat.Quilt, *,
                 tamper: tuple[str, float] | None = None
                 ) -> VerificationReport:
    """Aggregate seam, boundary, area, and holomorphy checks into a report,
    with the quilt's own tolerance profile."""
    tol = default_profile(quilt)
    seam_offset = tamper[1] if tamper and tamper[0] == "seam" else 0.0
    boundary_offset = tamper[1] if tamper and tamper[0] == "boundary" else 0.0

    seams = []
    for i in range(len(quilt.seams)):
        r = seam_residual_profile(quilt, i, samples=tol.samples,
                                  offset=seam_offset)
        seams.append({"index": i, "max": r.max_residual, "at": r.at,
                      "failures": r.failures})
    boundaries = []
    for i in range(len(quilt.boundaries)):
        r = boundary_residual_profile(quilt, i, samples=tol.samples,
                                      offset=boundary_offset)
        boundaries.append({"index": i, "max": r.max_residual, "at": r.at,
                           "failures": r.failures})
    areas = []
    for patch in quilt.patches:
        value, err = patch_area(patch)
        areas.append({"patch": patch.label, "value": value, "err": err})
    total = sum(a["value"] for a in areas)
    holomorphy = [
        {"patch": p.label, "max": 0.0 if p.regime is cat.Regime.CONSTANT
         else cr_residual_profile(p, samples=tol.cr_samples)}
        for p in quilt.patches]

    passed = all(s["max"] <= tol.seam_tol and s["failures"] == 0
                 for s in seams)
    passed &= all(b["max"] <= tol.boundary_tol and b["failures"] == 0
                  for b in boundaries)
    if quilt.expected_area is not None:
        area_err = sum(a["err"] for a in areas)
        passed &= abs(total - quilt.expected_area) <= \
            max(tol.area_tol, 3.0 * area_err)
    passed &= all(hc["max"] <= tol.cr_tol for hc in holomorphy)

    return VerificationReport(
        label=quilt.label, seams=seams, boundaries=boundaries, areas=areas,
        total_area=total, holomorphy=holomorphy, passed=bool(passed),
        samples={"seam": tol.samples, "boundary": tol.samples,
                 "cr": tol.cr_samples, "x_range": list(X_RANGE)},
        expected_area=quilt.expected_area)


# ---------------------------------------------------------------------------
# the moduli sweep

@dataclass
class SweepResult:
    reports: dict
    diagnostics: dict

    @property
    def passed(self) -> bool:
        return all(r.passed for rs in self.reports.values() for r in rs)

    def to_dict(self) -> dict:
        return {
            "reports": {str(h): [r.to_dict() for r in rs]
                        for h, rs in self.reports.items()},
            "diagnostics": self.diagnostics,
            "pass": self.passed,
        }


def _sup_fs_distance(rows_a: np.ndarray, rows_b: np.ndarray) -> float:
    return float(np.max(_fs_distance_rows(_unit_rows(rows_a),
                                          _unit_rows(rows_b))))


def _limit_grid(h: float, radius: float = 2.0) -> np.ndarray:
    xs = np.linspace(-radius, radius, 21)
    ys = np.linspace(1e-3 * h, h * (1.0 - 1e-3), 9)
    zs = (xs[:, None] + 1j * ys[None, :]).ravel()
    return zs[np.abs(zs) <= radius]


SWEEP_FAMILIES = {"const": ("const",), "maslov1": ("maslov1",),
                  "all": ("const", "maslov1")}


def sweep_family(family: str, h_grid, *,
                 limit_checks: bool = True) -> SweepResult:
    """``verify_quilt`` on every component of ``family`` (a key of
    ``SWEEP_FAMILIES``) at each of the supplied heights, plus the
    interval-end diagnostics.  The index-one quilts at a height share one
    strip solution (``sector_family``), so each trace is computed once per
    height."""
    if family not in SWEEP_FAMILIES:
        raise ValueError(f"unknown sweep family {family!r}; expected one "
                         f"of {', '.join(SWEEP_FAMILIES)}")
    for h in h_grid:
        if not (0.0 < h < HALF_PI):
            raise ValueError(f"sweep height {h} outside (0, pi/2)")
    reports = {h: [verify_quilt(q) for q in cat.sector_family(h)
                   if q.family in SWEEP_FAMILIES[family]]
               for h in h_grid}
    diagnostics: dict[str, dict] = {"const": {}, "maslov1": {}}
    if limit_checks:
        diagnostics["const"] = _const_limit_diagnostics()
        diagnostics["maslov1"] = _maslov1_limit_diagnostics()
    return SweepResult(reports=reports, diagnostics=diagnostics)


def limit_strip(quilt: cat.Quilt, complex_: floer.FloerComplex) -> str:
    """The id of the one strip of ``complex_`` with the endpoints of the
    quilt's CP^2 patch: its limit at h -> pi/2 (CP^2) or h -> 0 (CP^1)."""
    (label,) = complex_.provenance[floer.endpoints(quilt.patches[0])]
    return label


def _limit_sup(family: str, h: float, patch: int, side: str,
               zs: np.ndarray) -> float:
    """Largest distance on zs from the given patch of each component of a
    family at height h to its limit strip on ``side``."""
    complex_ = floer.build_complex(side)
    return max(_sup_fs_distance(
        q.patches[patch].values(zs),
        cat.resolve(limit_strip(q, complex_)).values(zs))
        for q in cat.sector_family(h) if q.family == family)


def _const_limit_diagnostics() -> dict:
    # Shrinking the height and rescaling z -> (2h/pi) w reproduces the
    # sheet-switching bubble identically.
    h = 1e-3
    ws = _limit_grid(HALF_PI, radius=10.0)
    worst = max(_sup_fs_distance(
        cat.make_const_projection_quilt(h, s1, s2).patches[0].values(
            (2.0 * h / math.pi) * ws),
        cat.make_eight_bubble_sheet_switch(s1, s2).patches[0].values(ws))
        for s1 in (+1, -1) for s2 in (+1, -1))
    h2 = HALF_PI - 1e-3
    return {"h_to_0_rescale_max": worst, "h_to_pi2_sup_distance":
            _limit_sup("const", h2, 0, "cp2", _limit_grid(h2))}


def _maslov1_limit_diagnostics() -> dict:
    # The CP^1 patch formulas are height-independent, so the h -> 0 limit is
    # an identity on the overlap with the corresponding rigid strips.  The
    # eight CP^2 patches at h -> pi/2 share one strip solution.
    h, h2 = 0.3, HALF_PI - 1e-3
    return {"h_to_0_identity_max": _limit_sup(
                "maslov1", h, 1, "cp1", _limit_grid(HALF_PI - h) + 1j * h),
            "h_to_pi2_sup_distance": _limit_sup(
                "maslov1", h2, 0, "cp2", _limit_grid(h2))}
