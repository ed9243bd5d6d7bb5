"""Boundary-value solutions on a strip via a Herglotz-type integral.

The central object is the pair of zero-free holomorphic functions on the
strip 0 <= Im z <= h that are real on the bottom edge, have squared modulus
exp(2x) + 1 on the top edge, and are asymptotically pinned to exp(2z) + 1.
They are evaluated by transporting to the upper half-plane through
w = i exp(pi z / 2h) and integrating

    I(w) = int (1 + t w)/(t - w) * log(1 + |t|^p) / (1 + t^2) dt,  p = 4h/pi,

with f = sign * exp(I / 2 pi i).  The integrand has an integrable cusp at
t = 0 (p < 2), a Poisson-kernel peak at t = Re w of half-width Im w, and a
logarithmic far field that turns over at |t| ~ |w|.  Both half-lines are
integrated in s = log|t|, where the weight is smooth and decays
exponentially toward both ends; every feature stays resolved and
representable for |log|w|| up to ~640, which covers seam profiles on
|x| <= 50 for every strip height used here.

Two engines evaluate I.  ``herglotz_batch`` takes an array of points and
evaluates them on a fixed panel layout per point, in numpy passes of at
most ``_BATCH_NODES`` nodes each (in practice one or two points per pass):
in s the integrand is analytic except on Re s = 0 and at the kernel pole
log|w| + i theta, so panels graded geometrically toward both converge
geometrically without adaptivity.  It checks its truncation error: each
point's summed |K15 - G7| must meet the tolerance of the adaptive engine,
max(abs_tol, 1e-12 |I|) for I and max(100 abs_tol / |w|, 1e-12 |I'|) for
I'.  The estimate does not see the rounding of the nodes in s next to a
narrow pole at large |log|w||, an error both engines share.
The adaptive engine, ``_herglotz``, refines one point at a time
behind the scalar ``log_f``, ``f_and_derivative`` and ``boundary_modulus``;
the callers of the batch (``catalog.StripTraces``) recompute through it
every point that misses the tolerance, and the tests use it as the oracle.

Top-edge values are never computed by direct quadrature (the kernel pole
reaches the contour there); `boundary_modulus` supplies the squared modulus
by Richardson extrapolation in the distance to the edge, which is all any
seam or boundary condition consumes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .quadrature import (_WG, _WK, _XK, BudgetExceededError,
                         QuadratureResult, integrate_rows)

_MAX_EXP = 640.0
# relative tolerance and evaluation budget of every Herglotz integral
_REL_TOL = 1e-12
_BUDGET = 200_000
# the batched engine's fixed layout: the ratio of both geometric knot
# clusters, the first step of the one at s = 0 and that of the one at the
# pole as a fraction of the pole's angle; and the node cap of one pass
_BATCH_RATIO = 1.5
_BATCH_ORIGIN_STEP = 0.25
_BATCH_POLE_STEP = 0.125
_BATCH_NODES = 4096


class DomainError(ValueError):
    pass


class BoundaryEvaluationError(ValueError):
    """Evaluation requested on an edge that direct quadrature cannot reach."""


class UndefinedPointError(ValueError):
    pass


class InvalidBlaschkeDataError(ValueError):
    pass


class UnreliableContourError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# conformal maps between the strip and the punctured upper half-plane

def strip_to_halfplane(z, h: float):
    """z -> i exp(pi z / 2h); bottom edge -> positive imaginary axis, top
    edge Im z = h -> negative real axis."""
    _check_height(h)
    return 1j * np.exp(math.pi * np.asarray(z, dtype=complex) / (2.0 * h))


def halfplane_to_strip(w, h: float):
    """Inverse map (2h/pi) log(-i w); principal branch, defined away from 0."""
    _check_height(h)
    w = np.asarray(w, dtype=complex)
    if np.any(w == 0):
        raise UndefinedPointError("the inverse strip map is undefined at w=0")
    return (2.0 * h / math.pi) * np.log(-1j * w)


def _check_height(h: float):
    if not (0.0 < h <= math.pi / 2 + 1e-12):
        raise DomainError(f"strip height must lie in (0, pi/2], got {h}")


# ---------------------------------------------------------------------------
# the Herglotz integral engine

@dataclass(frozen=True)
class QuadratureSettings:
    abs_tol: float = 1e-9       # absolute tolerance on the integral I(w)


def _softplus(u):
    # log(1 + e^u) = max(u, 0) + log1p(e^-|u|), overflow-free for any u.
    return np.maximum(u, 0.0) + np.log1p(np.exp(-np.abs(u)))


def _herglotz_knots(w: complex, side: int, s_floor: float,
                    s_top: float) -> list[float]:
    """Breakpoints in s = log|t| for one half-line: a cluster resolving the
    Poisson peak when the pole sits on this side, the |t| ~ |w| kernel
    turnover, and a geometric coarse grid toward both ends."""
    x0, d = w.real, abs(w.imag)
    r = abs(w)
    knots = {0.0} if s_floor < 0.0 < s_top else set()
    if side * x0 > 0 and math.log(max(side * x0, 1e-300)) > s_floor:
        s0 = math.log(side * x0)
        if s0 < s_top:
            knots.add(s0)
            rel = max(d / abs(x0), 1e-16)
            step = rel
            while step < 3.0:
                for s in (s0 - step, s0 + step):
                    if s_floor < s < s_top:
                        knots.add(s)
                step *= 8.0
    if r > 1e-300:
        sr = math.log(r)
        for s in (sr - 2.0, sr, sr + 2.0):
            if s_floor < s < s_top:
                knots.add(s)
    step = 8.0
    while -step > s_floor or step < s_top:
        for s in (-step, step):
            if s_floor < s < s_top:
                knots.add(s)
        step *= 2.0
    return sorted(knots)


def _herglotz(w: complex, p: float, settings: QuadratureSettings,
              want_deriv: bool = False):
    """I(w) and optionally I'(w) = int log(1+|t|^p)/(t-w)^2 dt, in one
    adaptive pass.

    Both half-lines are integrated in s = log|t|, where the weight
    log(1+|t|^p)/(1+t^2) * dt becomes softplus(ps)/(2 cosh s) ds: smooth,
    exponentially small toward both ends, and free of the |t|^p cusp.  The
    portion |t| < exp(s_floor) contributes less than exp(-42) of the weight
    and is dropped; kernels are algebraically rearranged so that no
    intermediate exceeds exp(+-690) for |log|w|| <= 640.
    """
    m = 2 if want_deriv else 1
    # I' enters downstream only through w * I', so its absolute tolerance is
    # the corresponding budget divided by |w|; near w = 0 the derivative
    # integral grows like |w|^(p-1) and would otherwise demand absurd digits.
    abs_tols = np.array([settings.abs_tol] +
                        ([100.0 * settings.abs_tol / max(abs(w), 1e-300)]
                         if want_deriv else []))
    s_floor = max(-46.0 / p - 4.0, -690.0)
    s_top = max(42.0, math.log(max(abs(w), 1e-300)) + 38.0)

    def integrand(side):
        def rows_fn(s):
            em = np.exp(-np.maximum(s, 0.0))
            tm = side * np.exp(np.minimum(s, 0.0))
            den = tm - w * em
            kernel = (em + tm * w) / den
            sp = _softplus(p * s)
            rows = np.empty((m, s.size), dtype=complex)
            rows[0] = kernel * (sp * 0.5 / np.cosh(s))
            if want_deriv:
                ues = np.exp(-0.5 * np.abs(s)) / den
                rows[1] = sp * ues * ues
            return rows
        return rows_fn

    value = np.zeros(m, dtype=complex)
    error = np.zeros(m)
    evals = 0
    for side in (+1, -1):
        pts = [s_floor] + _herglotz_knots(w, side, s_floor, s_top) + [s_top]
        budget = _BUDGET - evals
        if budget < 45:
            raise BudgetExceededError(
                "Herglotz integral ran out of budget",
                QuadratureResult(complex(value[0]), float(error[0]), evals))
        v, e, n, ok = integrate_rows(integrand(side), pts, abs_tols / 2.0,
                                     _REL_TOL, budget)
        value += v
        error += e
        evals += n
        if not ok:
            raise BudgetExceededError(
                "Herglotz integral did not converge "
                f"(error estimate {float(e.max()):.3g})",
                QuadratureResult(complex(value[0]), float(error[0]), evals))
    if want_deriv:
        return value[0], value[1], float(error[0]), evals
    return value[0], None, float(error[0]), evals


class HerglotzBatch(NamedTuple):
    value: np.ndarray           # I(w), one per point
    deriv: np.ndarray | None    # I'(w) when asked for
    error: np.ndarray           # summed |K15 - G7|, one row per integral
    ok: np.ndarray              # estimate within the adaptive tolerance
    evaluations: int


def _geometric(first: float, span: float) -> np.ndarray:
    """0 and +-first * ratio^k for k = 0, 1, ... until past span."""
    count = math.ceil(math.log(span / first) / math.log(_BATCH_RATIO)) + 1
    steps = first * _BATCH_RATIO ** np.arange(count)
    return np.concatenate([[0.0], steps, -steps])


def _batch_pass(w, side, theta, s_floor, s_top, p, origin, pole,
                want_deriv):
    """K15 sums and summed |K15 - G7| of one pass of half-lines: the
    half-line t = side * exp(s) of the point w, whose pole lies at the
    angle theta from it.  Its knots are the union of ``origin`` and
    log|w| + theta * ``pole``, clipped to [s_floor, s_top]; the clipped
    ones pile up at the ends and leave empty panels, which are dropped."""
    knots = np.concatenate([
        np.broadcast_to(origin, (w.size, origin.size)),
        np.log(np.abs(w))[:, None] + theta[:, None] * pole], axis=1)
    knots = np.clip(knots, s_floor, s_top[:, None])
    knots.sort(axis=1)
    live = knots[:, 1:] > knots[:, :-1]
    owner = np.nonzero(live)[0]
    a, b = knots[:, :-1][live], knots[:, 1:][live]
    # The temporaries of a pass set the engine's share of the peak memory,
    # so the arithmetic below reuses buffers where it can.
    half = 0.5 * (b - a)
    s = (0.5 * (a + b))[:, None] + half[:, None] * _XK
    pos = s >= 0.0
    # softplus(p s) = max(p s, 0) + log1p(exp(-p |s|))
    q = np.abs(s)
    sp = np.log1p(np.exp(-p * q))
    sp += np.maximum(p * s, 0.0)
    del s
    q = np.exp(-q, out=q)
    # the kernel (1 + t w)/(t - w) as (em + tm w)/(tm - w em), scaled by
    # exp(-max(s, 0)) as in the adaptive engine
    em = np.where(pos, q, 1.0)
    tm = np.where(pos, 1.0, q)
    tm *= side[owner][:, None]
    wn = w[owner][:, None]
    inv = np.reciprocal(tm - wn * em)
    rows = np.empty((1 + want_deriv,) + q.shape, dtype=complex)
    kernel = np.multiply(tm, wn, out=rows[0])
    kernel += em
    kernel *= inv
    # the weight softplus(p s) / (2 cosh s) = sp q / (1 + q^2)
    em = np.multiply(q, q, out=em)
    em += 1.0
    kernel *= sp * q / em
    if want_deriv:
        # sp |t| / (t - w)^2, scaled as above
        ues = np.multiply(inv, np.sqrt(q), out=rows[1])
        ues *= ues
        ues *= sp
    # matrix-vector products: a (15, 2) weight matrix would take the BLAS
    # matrix-matrix path, whose buffers raise the peak RSS by about 0.4 MB
    k15 = (rows @ _WK) * half
    g7 = (rows @ _WG) * half
    starts = np.flatnonzero(np.r_[True, owner[1:] != owner[:-1]])
    value = np.add.reduceat(k15, starts, axis=1)
    g7 -= k15
    error = np.add.reduceat(np.abs(g7), starts, axis=1)
    return value, error, q.size


def herglotz_batch(w, p: float, settings: QuadratureSettings,
                   want_deriv: bool = False) -> HerglotzBatch:
    """I(w) and optionally I'(w) for a 1-d array of upper-half-plane points
    on one fixed panel layout per point.

    In s = log|t| the integrand is analytic except on Re s = 0 (the weight)
    and at the kernel pole log|w| + i theta, theta its angle from the
    half-line.  Panels graded geometrically toward both (``_batch_pass``)
    keep every singularity a fixed number of panel widths away, so K15
    converges geometrically without adaptivity.  The summed |K15 - G7|
    of each point estimates its truncation error only: it misses the
    rounding of the nodes in s, which near the top edge at large |x| puts
    the node next to a narrow pole off by a fraction of its width (about
    1.5e-8 in I against an estimate of 2.7e-9 at h = 0.15, x = 50).
    ``ok`` marks the points whose estimate meets the tolerance of the
    adaptive engine (``_herglotz``), which the caller uses for the others.
    A pass holds at most ``_BATCH_NODES`` nodes of the padded layout, or
    one half-line, which is in practice one or two points per pass (2826
    passes for the 3865 points of one sweep height at h = 0.5).
    """
    w = np.asarray(w, dtype=complex)
    m = 2 if want_deriv else 1
    r = np.maximum(np.abs(w), 1e-300)
    # one entry per point and half-line, t > 0 first: the point, the side,
    # the angle of the pole from the half-line, and the top of the s-range
    arg = np.angle(w)
    theta = np.stack([arg, math.pi - arg], axis=1).ravel()
    w2 = np.repeat(w, 2)
    side = np.tile([1.0, -1.0], w.size)
    s_top = np.repeat(np.maximum(42.0, np.log(r) + 38.0), 2)
    s_floor = max(-46.0 / p - 4.0, -690.0)
    span = float(s_top.max()) - s_floor
    origin = _geometric(_BATCH_ORIGIN_STEP, span)
    pole = _geometric(_BATCH_POLE_STEP, span / float(theta.min()))
    chunk = max(1, _BATCH_NODES // (15 * (origin.size + pole.size - 1)))
    value = np.empty((m, w2.size), dtype=complex)
    error = np.empty((m, w2.size))
    evals = 0
    for lo in range(0, w2.size, chunk):
        part = slice(lo, lo + chunk)
        value[:, part], error[:, part], n = _batch_pass(
            w2[part], side[part], theta[part], s_floor, s_top[part], p,
            origin, pole, want_deriv)
        evals += n
    # each half-line is summed on its own, as in the adaptive engine
    value = value[:, 0::2] + value[:, 1::2]
    error = error[:, 0::2] + error[:, 1::2]
    tol = np.maximum(settings.abs_tol, _REL_TOL * np.abs(value[0]))
    ok = error[0] <= tol
    if want_deriv:
        tol = np.maximum(100.0 * settings.abs_tol / r,
                         _REL_TOL * np.abs(value[1]))
        ok &= error[1] <= tol
    return HerglotzBatch(value[0], value[1] if want_deriv else None, error,
                         ok, evals)


_DEFAULT_SETTINGS = QuadratureSettings()


def g_eval(w, h: float, sign: int = +1,
           settings: QuadratureSettings | None = None) -> complex:
    """Zero-free half-plane solution; real on the positive imaginary axis,
    |g(x)| = sqrt(|x|^{4h/pi} + 1) on the real axis, g_- = -g_+."""
    _check_height(h)
    settings = settings or _DEFAULT_SETTINGS
    w = complex(w)
    if w == 0:
        raise UndefinedPointError("g is undefined at w = 0")
    if w.imag < 0:
        raise DomainError("g is defined on the closed upper half-plane only")
    if w.imag == 0:
        raise BoundaryEvaluationError(
            "real-axis values of g carry the kernel pole; use the strip "
            "boundary extrapolation (boundary_modulus) instead")
    I, _, _, _ = _herglotz(w, 4.0 * h / math.pi, settings)
    return sign * cmath.exp(I / (2.0j * math.pi))


@dataclass(frozen=True)
class PoissonSolution:
    """One of the two strip solutions (sign = +-1) at height h, evaluated by
    quadrature of the Herglotz integral.  Immutable and safe to share."""

    h: float
    sign: int = +1
    settings: QuadratureSettings = field(default_factory=QuadratureSettings)

    def __post_init__(self):
        _check_height(self.h)
        if self.sign not in (+1, -1):
            raise ValueError("sign must be +1 or -1")

    @property
    def power(self) -> float:
        return 4.0 * self.h / math.pi

    @property
    def x_cap(self) -> float:
        """Largest |Re z| whose half-plane point stays representable."""
        return _MAX_EXP * 2.0 * self.h / math.pi

    def halfplane_point(self, z: complex) -> complex:
        e = math.pi * complex(z).real / (2.0 * self.h)
        if abs(e) > _MAX_EXP:
            raise DomainError(
                f"Re z = {complex(z).real:.3g} is outside the representable "
                f"evaluation range for h = {self.h:.3g}")
        return 1j * cmath.exp(math.pi * complex(z) / (2.0 * self.h))


def _check_strip_point(sol: PoissonSolution, z: complex) -> complex:
    z = complex(z)
    tol = 1e-12 * max(1.0, sol.h)
    if z.imag < -tol or z.imag > sol.h + tol:
        raise DomainError(
            f"Im z = {z.imag:.3g} lies outside the strip [0, {sol.h:.3g}]")
    if z.imag >= sol.h - 1e-12 * sol.h:
        raise BoundaryEvaluationError(
            "top-edge values are reached by extrapolation only; "
            "use boundary_modulus")
    return z


def halfplane_points(sol: PoissonSolution, z) -> np.ndarray:
    """``sol.halfplane_point`` of every strip point in z, which must lie off
    the top edge; the errors are those of ``log_f``."""
    return np.array([sol.halfplane_point(_check_strip_point(sol, zz))
                     for zz in z], dtype=complex)


def log_f(sol: PoissonSolution, z: complex) -> complex:
    """log of the positive-sign solution (the sign is a prefactor)."""
    z = _check_strip_point(sol, z)
    w = sol.halfplane_point(z)
    I, _, _, _ = _herglotz(w, sol.power, sol.settings)
    return I / (2.0j * math.pi)


def f_eval(sol: PoissonSolution, z: complex) -> complex:
    return sol.sign * cmath.exp(log_f(sol, z))


def f_and_derivative(sol: PoissonSolution, z: complex,
                     gauge: float = 0.0) -> tuple[complex, complex]:
    """(f, f') * exp(-gauge) from a single adaptive pass computing I and I'."""
    z = _check_strip_point(sol, z)
    w = sol.halfplane_point(z)
    I, Ip, _, _ = _herglotz(w, sol.power, sol.settings, want_deriv=True)
    val = sol.sign * cmath.exp(I / (2.0j * math.pi) - gauge)
    dlog = (math.pi / (2.0 * sol.h)) * w * Ip / (2.0j * math.pi)
    return val, val * dlog


# distances to the top edge, as fractions of h, of the extrapolation samples
EDGE_STEPS = (1e-2, 1e-3, 1e-4)


def extrapolate_to_edge(eps, samples):
    """Neville interpolation at eps = 0 of the quadratic through
    (eps_k, samples_k), for scalars or arrays of points alike.  Returns the
    value, its spread against the linear extrapolation from the two nearest
    samples, and whether that spread is within 1e-5 relative."""
    p01 = (eps[0] * samples[1] - eps[1] * samples[0]) / (eps[0] - eps[1])
    p12 = (eps[1] * samples[2] - eps[2] * samples[1]) / (eps[1] - eps[2])
    p012 = (eps[0] * p12 - eps[2] * p01) / (eps[0] - eps[2])
    spread = abs(p012 - p12)
    converged = spread <= np.maximum(1e-5 * abs(p012), 1e-12)
    return p012, spread, converged


def boundary_modulus(sol: PoissonSolution, x: float, details: bool = False):
    """lim |f(x + i(h - eps))|^2 by Richardson extrapolation over
    eps = EDGE_STEPS * h."""
    eps = [step * sol.h for step in EDGE_STEPS]
    vals = []
    for e in eps:
        lf = log_f(sol, complex(x, sol.h - e))
        vals.append(math.exp(2.0 * lf.real))
    p012, spread, converged = extrapolate_to_edge(eps, vals)
    if details:
        return p012, {"converged": bool(converged), "spread": spread,
                      "samples": vals}
    return p012


def asymptotic_ratio(sol: PoissonSolution, re_z: float, im_z: float) -> float:
    """|f(z)^2 / (exp(2z) + 1)|; tends to 1 as |Re z| grows."""
    z = complex(re_z, im_z)
    lf = log_f(sol, z)
    two_z = 2.0 * z
    if two_z.real > 0:
        log_den = two_z.real + 0.5 * math.log1p(
            2.0 * cmath.exp(-two_z).real + abs(cmath.exp(-two_z)) ** 2)
    else:
        u = cmath.exp(two_z)
        log_den = 0.5 * math.log1p(2.0 * u.real + abs(u) ** 2)
    return math.exp(2.0 * lf.real - log_den)


# ---------------------------------------------------------------------------
# Blaschke products on the strip

@dataclass(frozen=True)
class BlaschkeData:
    """Zero data for a strip Blaschke product: factors
    (E - a)/(E + conj a) in E = exp(pi z / 2h), with Re a > 0 and the
    multiset of zeros closed under conjugation."""

    alphas: tuple[complex, ...]
    h: float

    def __post_init__(self):
        _check_height(self.h)
        alphas = tuple(complex(a) for a in self.alphas)
        object.__setattr__(self, "alphas", alphas)
        if any(a.real <= 0 for a in alphas):
            raise InvalidBlaschkeDataError(
                "all zero parameters need positive real part")
        left = list(alphas)
        for a in alphas:
            target = a.conjugate()
            hit = min(range(len(left)),
                      key=lambda i: abs(left[i] - target), default=None)
            if hit is None or abs(left[hit] - target) > 1e-9 * (1 + abs(a)):
                raise InvalidBlaschkeDataError(
                    "zero multiset must be closed under conjugation")
            left.pop(hit)


def blaschke_eval(data: BlaschkeData, z):
    """Product over the factors; real on the bottom edge, modulus one on the
    top edge and at both strip ends."""
    z = np.asarray(z, dtype=complex)
    v = math.pi * z / (2.0 * data.h)
    big = v.real > 300.0
    out = np.ones_like(v)
    e_small = np.exp(np.where(big, 0.0, v))
    e_inv = np.exp(np.where(big, -v, 0.0))
    for a in data.alphas:
        c = a.conjugate()
        small_val = (e_small - a) / (e_small + c)
        big_val = (1.0 - a * e_inv) / (1.0 + c * e_inv)
        out = out * np.where(big, big_val, small_val)
    return out if out.shape else complex(out)


def blaschke_log_derivative(data: BlaschkeData, z):
    z = np.asarray(z, dtype=complex)
    v = math.pi * z / (2.0 * data.h)
    big = v.real > 300.0
    e_small = np.exp(np.where(big, 0.0, v))
    e_inv = np.exp(np.where(big, -v, 0.0))
    acc = np.zeros_like(v)
    for a in data.alphas:
        c = a.conjugate()
        small_val = e_small / (e_small - a) - e_small / (e_small + c)
        big_val = 1.0 / (1.0 - a * e_inv) - 1.0 / (1.0 + c * e_inv)
        acc = acc + np.where(big, big_val, small_val)
    scaled = (math.pi / (2.0 * data.h)) * acc
    return scaled if scaled.shape else complex(scaled)


# ---------------------------------------------------------------------------
# zero counting by the argument principle

def winding_number(fmap, rect, *, samples: int = 128,
                   max_doublings: int = 6) -> int:
    """Winding of fmap around 0 along the rectangle boundary (x0, x1, y0, y1),
    equal to the number of interior zeros for holomorphic fmap, which maps
    an array of points to an array of the same shape.  The phase is
    tracked along an adaptively densified boundary polyline, which realizes
    the boundary integral of the logarithmic derivative."""
    x0, x1, y0, y1 = map(float, rect)
    if not (x1 > x0 and y1 > y0):
        raise ValueError("rectangle must have positive width and height")
    n = samples
    for _ in range(max_doublings + 1):
        bottom = np.linspace(x0, x1, n, endpoint=False) + 1j * y0
        right = x1 + 1j * np.linspace(y0, y1, n, endpoint=False)
        top = np.linspace(x1, x0, n, endpoint=False) + 1j * y1
        left = x0 + 1j * np.linspace(y1, y0, n, endpoint=False)
        pts = np.concatenate([bottom, right, top, left])
        vals = np.asarray(fmap(pts), dtype=complex)
        if vals.shape != pts.shape:
            raise ValueError(f"fmap returned shape {vals.shape} for "
                             f"{pts.shape} points; it must be vectorized")
        if np.min(np.abs(vals)) < 1e-6:
            raise UnreliableContourError(
                "map nearly vanishes on the contour; zero count unreliable")
        steps = np.angle(np.roll(vals, -1) / vals)
        if np.max(np.abs(steps)) < 0.5 * math.pi:
            total = float(np.sum(steps)) / (2.0 * math.pi)
            nearest = round(total)
            if abs(total - nearest) < 0.25:
                return int(nearest)
        n *= 2
    raise UnreliableContourError(
        "phase tracking did not stabilize after refinement")
