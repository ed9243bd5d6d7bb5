"""Constructors for the explicit holomorphic strips and quilted strips.

Every map is an ``AnalyticMap`` carried by a holomorphic homogeneous lift
and one evaluator, ``evaluate(z, deriv)``.  For a 1-d complex array z it
returns the lift, one row per point; with ``deriv`` true it returns the
pair (rows, z-derivative rows).  Every check evaluates at |Re z| <= 50,
where the largest closed-form coordinate, e^z, and the density's |u|^4
stay far inside double range; ``x_cap`` bounds the |Re z| an evaluator
represents, and every sample grid clips to it (for a quadrature-backed
map, ``analysis.halfplane_points`` rejects any larger |Re z|).  ``length``
is the |Re z| scale on which a map varies, 1 but for a reparametrized
Moebius coordinate; the area truncation is measured in it.

``Regime`` names the numerical regime the verifier branches on: constant
maps, rationally decaying maps (whole-line area integrals), exponentially
decaying maps (truncated area integrals with a tail bound), and
exponentially decaying maps whose last coordinate comes from quadrature
(coarse holomorphy stencils).  On the top edge of a quadrature-backed
patch that coordinate is the sign times the extrapolated modulus, which is
all the phase-blind seam residual consumes.

The maps are built by one builder per kind: a Moebius coordinate in one
slot, a constant, an affine map, and the index-one pair with an optional
quadrature-backed last coordinate.  That coordinate is the sign times one
``StripTraces``, the unsigned strip solution at the patch height with its
values memoized; ``sector_family`` shares one of them among the eight
index-one quilts at a height, so each trace is computed once.  Catalog ids
follow one grammar, the ``_IDS`` table, which ``resolve`` parses.

Every quilt has one shape: a CP^2 patch u2 on 0 <= Im z <= y, seamed
along Im z = y through the correspondence to one CP^1 patch u1 above it.
A ``Quilt`` holds the two patches and the Lagrangian of u2's bottom edge;
the seam line and the boundary edges follow from the patches.

A map carries no Floer data: ``floer.endpoints`` reads a strip's endpoints
off its bottom edge, and both differentials and the sweep's limit strips
follow from them.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .analysis import (_MAX_EXP, EDGE_STEPS, BlaschkeData,
                       PoissonSolution, QuadratureSettings, blaschke_eval,
                       blaschke_log_derivative, boundary_modulus,
                       extrapolate_to_edge, f_and_derivative,
                       halfplane_points, herglotz_batch, log_f)
from .geometry import LagrangianId

SIGNS = {"p": +1, "m": -1, "plus": +1, "minus": -1}
_SIG = {+1: "p", -1: "m"}
_PM = {+1: "plus", -1: "minus"}

HALF_PI = math.pi / 2.0


class RegionKind(enum.Enum):
    STRIP = "strip"
    HALF_PLANE_ABOVE = "half_plane_above"


@dataclass(frozen=True)
class PatchRegion:
    kind: RegionKind
    y_lo: float
    y_hi: float | None = None

    def __post_init__(self):
        if self.kind is RegionKind.STRIP and \
                (self.y_hi is None or not (self.y_lo < self.y_hi)):
            raise ValueError("strip region needs y_lo < y_hi")


def strip(y_lo: float, y_hi: float) -> PatchRegion:
    return PatchRegion(RegionKind.STRIP, y_lo, y_hi)


def half_plane_above(y_lo: float) -> PatchRegion:
    return PatchRegion(RegionKind.HALF_PLANE_ABOVE, y_lo)


# ---------------------------------------------------------------------------
# stable coordinate blocks

def mobius_tanh(z):
    """(e^z - 1)/(e^z + 1) without overflow at either strip end."""
    z = np.asarray(z, dtype=complex)
    s = np.exp(np.where(z.real >= 0, -z, z))
    t = (1.0 - s) / (1.0 + s)
    return np.where(z.real >= 0, t, -t)


def mobius_tanh_derivative(z):
    z = np.asarray(z, dtype=complex)
    s = np.exp(np.where(z.real >= 0, -z, z))
    return 2.0 * s / (1.0 + s) ** 2


# ---------------------------------------------------------------------------
# analytic maps

class Regime(enum.Enum):
    CONSTANT = "constant"
    RATIONAL = "rational"
    EXPONENTIAL = "exponential"
    QUADRATURE = "quadrature"


@dataclass
class AnalyticMap:
    """Evaluatable holomorphic map into CP^n carried by a homogeneous lift;
    the evaluator contract is in the module docstring."""

    label: str
    region: PatchRegion
    target_dim: int
    evaluate: Callable
    regime: Regime
    x_cap: float = math.inf         # largest |Re z| the evaluator represents
    length: float = 1.0             # the |Re z| scale on which the map varies

    def values(self, z) -> np.ndarray:
        return self.evaluate(np.atleast_1d(np.asarray(z, dtype=complex)),
                             False)

    def values_and_derivs(self, z):
        return self.evaluate(np.atleast_1d(np.asarray(z, dtype=complex)),
                             True)

    def seam_rows(self, x: np.ndarray, y: float) -> np.ndarray:
        """Values along the horizontal line Im z = y."""
        return self.values(np.atleast_1d(np.asarray(x, dtype=float)) + 1j * y)


def _moebius_slot(label, region, slot, signs, scale=1.0) -> AnalyticMap:
    """signs[k] times 1 in every coordinate k but ``slot``, which carries
    the Moebius coordinate of scale * z."""
    def evaluate(z, deriv):
        m = mobius_tanh(scale * z)
        one = np.ones_like(m)
        rows = np.stack([s * (m if k == slot else one)
                         for k, s in enumerate(signs)], axis=1)
        if not deriv:
            return rows
        dm = scale * mobius_tanh_derivative(scale * z)
        zero = np.zeros_like(dm)
        return rows, np.stack([s * dm if k == slot else zero
                               for k, s in enumerate(signs)], axis=1)

    return AnalyticMap(label=label, region=region, target_dim=len(signs) - 1,
                       evaluate=evaluate, regime=Regime.EXPONENTIAL,
                       length=1.0 / scale)


def _constant(label, region, signs) -> AnalyticMap:
    def evaluate(z, deriv):
        one = np.ones_like(z)
        rows = np.stack([s * one for s in signs], axis=1)
        return (rows, np.zeros_like(rows)) if deriv else rows

    return AnalyticMap(label=label, region=region, target_dim=len(signs) - 1,
                       evaluate=evaluate, regime=Regime.CONSTANT)


def _affine(label, region, a, b) -> AnalyticMap:
    """Coordinates a[k] z + b[k]."""
    a = np.array(a, dtype=complex)
    b = np.array(b, dtype=complex)

    def evaluate(z, deriv):
        rows = z[:, None] * a + b
        return (rows, np.broadcast_to(a, rows.shape)) if deriv else rows

    return AnalyticMap(label=label, region=region, target_dim=a.size - 1,
                       evaluate=evaluate, regime=Regime.RATIONAL)


# The one tolerance of every index-one strip solution.  An error of 1e-8 in
# the Herglotz integral moves the phase of f by at most 1e-8 / 2 pi, inside
# the index-one boundary tolerance of 1e-8 on bottom-edge reality.
_STRIP_SETTINGS = QuadratureSettings(abs_tol=1e-8)


class StripTraces:
    """The positive-sign strip solution at height h with its values memoized
    per evaluation batch; the memo lives as long as the quilts that share
    it, whose identical checks ask for identical batches.

    Each batch is one ``herglotz_batch`` call.  A point whose error estimate
    misses the adaptive engine's tolerance is recomputed by that engine
    through ``log_f``, ``f_and_derivative`` or ``boundary_modulus``."""

    def __init__(self, h: float):
        self.sol = PoissonSolution(h, +1, _STRIP_SETTINGS)
        self._memo: dict = {}

    def __call__(self, z: np.ndarray, deriv: bool):
        """Rows f(z), or with deriv (f, f'), one per point.  On the top
        edge, where direct quadrature cannot reach, f is replaced by the
        extrapolated modulus |f|, and by NaN where the extrapolation does
        not converge."""
        key = (z.tobytes(), deriv)
        if key not in self._memo:
            self._memo[key] = self._derivs(z) if deriv else self._values(z)
        return self._memo[key]

    def _batch(self, z: np.ndarray, deriv: bool):
        sol = self.sol
        w = halfplane_points(sol, z)
        return w, herglotz_batch(w, sol.power, sol.settings, deriv)

    def _derivs(self, z):
        sol = self.sol
        w, batch = self._batch(z, True)
        val = np.exp(batch.value / (2.0j * math.pi))
        dlog = (math.pi / (2.0 * sol.h)) * w * batch.deriv / (2.0j * math.pi)
        rows = np.stack([val, val * dlog], axis=1)
        for k in np.flatnonzero(~batch.ok):
            rows[k] = f_and_derivative(sol, z[k])
        return rows

    def _values(self, z):
        sol = self.sol
        top = np.abs(z.imag - sol.h) <= 1e-12 * max(1.0, sol.h)
        rows = np.empty((z.size, 1), dtype=complex)
        if top.any():
            rows[top, 0] = np.sqrt(self._top_edge(z.real[top]))
        inner = ~top
        if inner.any():
            zi = z[inner]
            _, batch = self._batch(zi, False)
            logs = batch.value / (2.0j * math.pi)
            for k in np.flatnonzero(~batch.ok):
                logs[k] = log_f(sol, zi[k])
            rows[inner, 0] = np.exp(logs)
        return rows

    def _top_edge(self, x: np.ndarray) -> np.ndarray:
        """Extrapolated |f|^2 on the top edge at every x, NaN where the
        extrapolation does not converge; all 3 len(x) samples form one
        batch."""
        sol = self.sol
        eps = [step * sol.h for step in EDGE_STEPS]
        _, batch = self._batch(
            np.concatenate([x + 1j * (sol.h - e) for e in eps]), False)
        samples = np.exp(2.0 * (batch.value / (2.0j * math.pi)).real)
        modulus, _, converged = extrapolate_to_edge(
            eps, samples.reshape(len(eps), x.size))
        for k in np.flatnonzero(~batch.ok.reshape(len(eps), x.size).all(0)):
            modulus[k], info = boundary_modulus(sol, float(x[k]),
                                                details=True)
            converged[k] = info["converged"]
        return np.where(converged, modulus, np.nan)


def _index_one(label, region, variant, s1, traces=None,
               fsign=+1) -> AnalyticMap:
    """(e^z + 1, s1 (e^z - 1)) for variant 0 or (e^z - 1, s1 (e^z + 1)) for
    variant 1, with fsign times the strip solution of ``traces`` as a
    quadrature-backed last coordinate when given."""
    def evaluate(z, deriv):
        a = np.exp(z)
        cols = [a + 1.0, s1 * (a - 1.0)] if variant == 0 else \
            [a - 1.0, s1 * (a + 1.0)]
        dcols = [a, s1 * a]
        if traces is not None:
            third = fsign * traces(z, deriv)
            cols.append(third[:, 0])
            if deriv:
                dcols.append(third[:, 1])
        rows = np.stack(cols, axis=1)
        return (rows, np.stack(dcols, axis=1)) if deriv else rows

    if traces is None:
        return AnalyticMap(label=label, region=region, target_dim=1,
                           evaluate=evaluate, regime=Regime.EXPONENTIAL,
                           x_cap=_MAX_EXP)
    return AnalyticMap(label=label, region=region, target_dim=2,
                       evaluate=evaluate, regime=Regime.QUADRATURE,
                       x_cap=traces.sol.x_cap)


# ---------------------------------------------------------------------------
# quilts

@dataclass
class Quilt:
    """A CP^2 patch on a strip from Im z = 0, seamed along its top edge
    ``seam_y`` to the CP^1 patch above it; ``bottom`` is the Lagrangian of
    the CP^2 patch's bottom edge."""

    label: str
    patches: tuple                  # (u2, u1)
    bottom: LagrangianId
    family: str
    h: float | None = None
    expected_area: float | None = None

    def __post_init__(self):
        u2, u1 = self.patches
        if u2.region.y_lo != 0.0 or u1.region.y_lo != u2.region.y_hi:
            raise ValueError(f"{self.label}: the CP^2 patch must start at "
                             "Im z = 0 and the CP^1 patch where it ends")

    @property
    def seam_y(self) -> float:
        return self.patches[0].region.y_hi

    @property
    def boundaries(self) -> tuple:
        """(patch, y, Lagrangian) of every boundary edge, bottom first: a
        CP^1 strip carries the Clifford circle on its top edge."""
        top = self.patches[1].region
        edges = ((0, 0.0, self.bottom),)
        if top.kind is RegionKind.STRIP:
            edges += ((1, top.y_hi, LagrangianId.S1_CLIFFORD),)
        return edges


# ---------------------------------------------------------------------------
# rigid strips

def _rigid_strip(dim: int, i: int, s1: int, s2: int) -> AnalyticMap:
    if i not in range(dim + 1) or s1 not in (+1, -1) or s2 not in (+1, -1):
        raise ValueError(f"need i in 0..{dim} and signs in {{+1,-1}}")
    stem = "floer.cp2.u" if dim == 2 else "floer.cp1.v"
    return _moebius_slot(f"{stem}{i}.{_SIG[s1]}{_SIG[s2]}",
                         strip(0.0, HALF_PI), i, (1, s1, s2)[:dim + 1])


def make_floer_strip_cp2(i: int, s1: int, s2: int) -> AnalyticMap:
    """The twelve index-one strips into CP^2 on 0 <= Im z <= pi/2, with the
    moving Moebius coordinate in slot i."""
    return _rigid_strip(2, i, s1, s2)


def make_floer_strip_cp1(i: int, s1: int, s2: int) -> AnalyticMap:
    """The eight index-one strips into CP^1 on 0 <= Im z <= pi/2, with the
    moving Moebius coordinate in slot i.  The map depends on s1 alone: s2
    names the sheet of the double cover 2 C^2 = A^2 + B^2 on which the
    bottom boundary lift (A, B, C) ends, the sign of C at the target
    [1 : s1 : s2]."""
    return _rigid_strip(1, i, s1, s2)


# ---------------------------------------------------------------------------
# the twelve fibered quilts at height h

def _h_tag(h: float) -> str:
    """Six significant digits when they round-trip, else the exact repr."""
    tag = f"{h:.6g}"
    return tag if float(tag) == h else repr(float(h))


def _check_height(h: float):
    if not (0.0 < h < HALF_PI):
        raise ValueError("h must lie in (0, pi/2)")


def make_const_projection_quilt(h: float, s1: int, s2: int) -> Quilt:
    """Quilted strip with constant CP^1 part: the CP^2 patch carries the
    reparametrized Moebius coordinate in the last slot."""
    _check_height(h)
    u2 = _moebius_slot(
        f"const.u2.{_SIG[s1]}{_SIG[s2]}", strip(0.0, h), 2, (1, s1, s2),
        scale=math.pi / (2.0 * h))
    u1 = _constant(f"const.u1.{_SIG[s1]}", strip(h, HALF_PI), (1, s1))
    return Quilt(f"quilt.const.h{_h_tag(h)}.{_SIG[s1]}{_SIG[s2]}",
                 (u2, u1), LagrangianId.RP2, "const", h, 0.5)


def make_maslov1_quilt(h: float, variant: int, s1: int, fsign: int) -> Quilt:
    """Quilted strip whose CP^1 part is an index-one Moebius strip and whose
    CP^2 patch closes up with the quadrature-backed boundary solution."""
    _check_height(h)
    return _maslov1(StripTraces(h), variant, s1, fsign)


def _maslov1(traces: StripTraces, variant: int, s1: int,
             fsign: int) -> Quilt:
    if variant not in (0, 1) or fsign not in (+1, -1):
        raise ValueError("variant must be 0 or 1 and fsign +1 or -1")
    h = traces.sol.h
    u2 = _index_one(
        f"maslov1.u2.v{variant}.{_SIG[s1]}.f{_SIG[fsign]}", strip(0.0, h),
        variant, s1, traces, fsign)
    u1 = _index_one(f"maslov1.u1.v{variant}.{_SIG[s1]}", strip(h, HALF_PI),
                    variant, s1)
    return Quilt(f"quilt.maslov1.h{_h_tag(h)}.v{variant}.{_SIG[s1]}"
                 f".f{_PM[fsign]}", (u2, u1), LagrangianId.RP2, "maslov1", h,
                 0.5)


def make_eight_bubble_sheet_switch(s1: int, s2: int) -> Quilt:
    """Limit configuration at h -> 0: an index-one CP^2 strip seamed along
    Im z = pi/2 to a constant CP^1 half-plane."""
    v2 = _moebius_slot(f"bubble.v2.{_SIG[s1]}{_SIG[s2]}",
                       strip(0.0, HALF_PI), 2, (1, s1, s2))
    v1 = _constant(f"bubble.v1.{_SIG[s1]}", half_plane_above(HALF_PI),
                   (1, s1))
    return Quilt(f"bubble.sheet_switch.{_SIG[s1]}{_SIG[s2]}", (v2, v1),
                 LagrangianId.RP2, "bubble", expected_area=0.5)


def make_acw_quilt(sign: int) -> Quilt:
    """The explicit quilted half-plane answering the reduction question for
    the Hamiltonian-isotopic torus: rational coordinates, exact seam
    identity 2|z-6i|^2 = |z+6i|^2 + |z|^2 on Im z = 1."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    u2 = _affine(f"acw.u2.{_SIG[sign]}", strip(0.0, 1.0),
                 (sign, 1j, sign), (6j * sign, 0.0, -6j * sign))
    u1 = _affine(f"acw.u1.{_SIG[sign]}", half_plane_above(1.0),
                 (sign, 1j), (6j * sign, 0.0))
    return Quilt(f"quilt.acw.{_PM[sign]}", (u2, u1), LagrangianId.L_AC,
                 "acw", expected_area=0.5)


def with_blaschke(quilt: Quilt, data: BlaschkeData) -> Quilt:
    """Multiply the last CP^2 coordinate by a strip Blaschke product.  Seam
    and boundary residuals are unchanged (the factor is real on the bottom
    edge and unimodular on the seam); the area grows with each zero."""
    if quilt.family != "maslov1":
        raise ValueError("Blaschke twisting applies to the index-one "
                         "quadrature-backed quilts")
    if abs(data.h - quilt.h) > 1e-12:
        raise ValueError("Blaschke data height must match the quilt")
    base = quilt.patches[0]

    def evaluate(z, deriv):
        out = base.evaluate(z, deriv)
        rows = (out[0] if deriv else out).copy()
        b = blaschke_eval(data, z)
        if deriv:
            ders = out[1].copy()
            ders[:, 2] = ders[:, 2] * b + \
                rows[:, 2] * b * blaschke_log_derivative(data, z)
        rows[:, 2] = rows[:, 2] * b
        return (rows, ders) if deriv else rows

    twisted = replace(base, label=base.label + ".blaschke",
                      evaluate=evaluate)

    return replace(
        quilt, label=quilt.label + ".blaschke" +
        "".join(f".{a.real:g}{a.imag:+g}j" for a in data.alphas),
        patches=(twisted, quilt.patches[1]), family="maslov1_blaschke",
        expected_area=None)


# ---------------------------------------------------------------------------
# registry

def all_floer_strips() -> list[AnalyticMap]:
    return [_rigid_strip(dim, i, s1, s2) for dim in (2, 1)
            for i in range(dim + 1) for s1 in (+1, -1) for s2 in (+1, -1)]


def sector_family(h: float) -> list[Quilt]:
    """The twelve quilted strips over an interior height h: four with
    constant projection and eight with index-one projection, which share
    one ``StripTraces``."""
    quilts = [make_const_projection_quilt(h, s1, s2)
              for s1 in (+1, -1) for s2 in (+1, -1)]
    traces = StripTraces(h)
    quilts += [_maslov1(traces, variant, s1, fsign)
               for variant in (0, 1) for s1 in (+1, -1)
               for fsign in (+1, -1)]
    return quilts


def catalog_ids(h: float | None = None) -> list[str]:
    ids = [m.label for m in all_floer_strips()]
    ids += [make_eight_bubble_sheet_switch(s1, s2).label
            for s1 in (+1, -1) for s2 in (+1, -1)]
    ids += [make_acw_quilt(sign).label for sign in (+1, -1)]
    if h is None:
        return ids + ["quilt.const.h{h}.<ss>  (instantiate with --h)",
                      "quilt.maslov1.h{h}.v<0|1>.<p|m>.f<plus|minus>"]
    return ids + [q.label for q in sector_family(h)]


# An empty height tag takes the height from resolve's argument.
_H = r"h(?P<h>(?:\d+(?:\.\d*)?(?:e[-+]?\d+)?)?)"
_IDS = (
    (r"floer\.cp2\.u(?P<i>[012])\.(?P<s1>[pm])(?P<s2>[pm])",
     make_floer_strip_cp2),
    (r"floer\.cp1\.v(?P<i>[01])\.(?P<s1>[pm])(?P<s2>[pm])",
     make_floer_strip_cp1),
    (r"bubble\.sheet_switch\.(?P<s1>[pm])(?P<s2>[pm])",
     make_eight_bubble_sheet_switch),
    (r"quilt\.acw\.(?P<sign>plus|minus)", make_acw_quilt),
    (rf"quilt\.const\.{_H}\.(?P<s1>[pm])(?P<s2>[pm])",
     make_const_projection_quilt),
    (rf"quilt\.maslov1\.{_H}\.v(?P<variant>[01])\.(?P<s1>[pm])"
     r"\.f(?P<fsign>plus|minus)", make_maslov1_quilt),
)


def resolve(identifier: str, h: float | None = None):
    """Look up a catalog object (AnalyticMap or Quilt) by its stable id;
    KeyError for anything outside the id grammar or the height range."""
    for pattern, build in _IDS:
        match = re.fullmatch(pattern, identifier)
        if match is None:
            continue
        args = {}
        for name, text in match.groupdict().items():
            if name == "h":
                args[name] = float(text) if text else h
                if args[name] is None:
                    raise KeyError(f"{identifier} needs an explicit height")
            else:
                args[name] = int(text) if text.isdigit() else SIGNS[text]
        try:
            return build(**args)
        except ValueError as exc:
            raise KeyError(f"{identifier}: {exc}") from None
    raise KeyError(identifier)
