"""Adaptive Gauss-Kronrod quadrature on intervals and on the whole real line.

The core rule is the 15-point Kronrod extension of 7-point Gauss, refined by
bisection with a global error heap.  Integrands must be vectorized
(``f(ndarray) -> ndarray``); values may be real or complex.  A second entry
point, ``integrate_rows``, refines a small vector of integrands on shared
panels (the Herglotz integral and its derivative).

Whole-line integrals are split into a central interval plus two logarithmic
tails (t = +-exp(s)).  The tail substitution turns any integrand decaying at
least like log|t|/t^2 into an exponentially decaying one, so a fixed s-span
truncation of 64 contributes less than 1e-25.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# 15-point Kronrod nodes (ascending); the embedded Gauss-7 nodes sit at the
# odd indices and carry the nonzero _WG weights.
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_WG = np.array([
    0.0, 0.129484966168870, 0.0, 0.279705391489277, 0.0,
    0.381830050505119, 0.0, 0.417959183673469, 0.0, 0.381830050505119,
    0.0, 0.279705391489277, 0.0, 0.129484966168870, 0.0,
])

_TAIL_SPAN = 64.0
# |t| beyond which integrate_line switches to the logarithmic tails
_TAIL_START = 1.0


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    error_estimate: float
    evaluations: int


class BudgetExceededError(RuntimeError):
    """Raised when the evaluation budget runs out; carries the best estimate."""

    def __init__(self, message: str, best: QuadratureResult):
        super().__init__(message)
        self.best = best


def _panel(f, a: float, b: float):
    half = 0.5 * (b - a)
    x = 0.5 * (a + b) + half * _XK
    y = np.asarray(f(x))
    k = half * (_WK @ y)
    g = half * (_WG @ y)
    # QUADPACK-style roughness rescaling of the raw |K15-G7| deviation.
    mean = k / (b - a)
    resasc = half * (_WK @ np.abs(y - mean))
    diff = float(abs(k - g))
    if resasc > 0.0:
        err = float(resasc) * min(1.0, (200.0 * diff / float(resasc)) ** 1.5)
    else:
        err = diff
    return k, err


# The scalar loop and the vector loop below implement one rule but stay two
# functions.  On the closed-form benchmark workload (16 616 K15 panels per
# round, so per-panel bookkeeping adds up) scalar integrals run through the
# vector loop as one row took 45 % longer, and the best merged loop 17 %
# longer; ranking panels by error over the current tolerance also moved
# closed-form areas in their last digit.

def _adaptive(f, points: Sequence[float], abs_tol: float, rel_tol: float,
              budget: int):
    """Refine panels between the given breakpoints until the summed error
    estimate meets the tolerance.  Returns (value, error, evals, converged)."""
    heap = []
    value = 0.0 + 0.0j
    error = 0.0
    evals = 0
    tag = 0
    for a, b in zip(points[:-1], points[1:]):
        if not (b > a):
            continue
        k, err = _panel(f, a, b)
        evals += 15
        value += k
        error += err
        heapq.heappush(heap, (-err, tag, a, b, k))
        tag += 1
    scale = abs(points[0]) + abs(points[-1]) + 1.0
    while heap:
        tol = max(abs_tol, rel_tol * abs(value))
        if error <= tol:
            return value, error, evals, True
        if evals + 30 > budget:
            return value, error, evals, False
        neg_err, _, a, b, k_old = heapq.heappop(heap)
        if (b - a) <= 1e-15 * (scale + abs(a)):
            # Panel width at rounding floor: keep its estimate, stop splitting.
            if not heap:
                return value, error, evals, error <= tol
            continue
        mid = 0.5 * (a + b)
        k1, e1 = _panel(f, a, mid)
        k2, e2 = _panel(f, mid, b)
        evals += 30
        value += (k1 + k2) - k_old
        error += (e1 + e2) - (-neg_err)
        heapq.heappush(heap, (-e1, tag, a, mid, k1))
        tag += 1
        heapq.heappush(heap, (-e2, tag, mid, b, k2))
        tag += 1
    return value, error, evals, True


def _vpanel(f, a, b):
    half = 0.5 * (b - a)
    x = 0.5 * (a + b) + half * _XK
    y = np.asarray(f(x))  # shape (m, 15)
    k = half * (y @ _WK)
    g = half * (y @ _WG)
    mean = k[:, None] / (b - a)
    resasc = half * (np.abs(y - mean) @ _WK)
    diff = np.abs(k - g)
    # The guarded denominator is never zero, so no errstate is needed.
    scaled = resasc * np.minimum(1.0, (200.0 * diff / np.where(
        resasc > 0, resasc, 1.0)) ** 1.5)
    err = np.where(resasc > 0, scaled, diff)
    return k, err


def integrate_rows(f, points: Sequence[float], abs_tols, rel_tol: float,
                   budget: int):
    """Adaptive refinement for a small vector of integrands sharing panels;
    ``f(x)`` returns one row per integrand.  Returns (values, errors, evals,
    converged).

    Panels are prioritized by their tolerance-scaled error so that one
    component with a huge natural scale (already converged relatively)
    cannot starve another component of refinement.
    """
    abs_tols = np.asarray(abs_tols, dtype=float)
    m = abs_tols.size
    heap = []
    value = np.zeros(m, dtype=complex)
    error = np.zeros(m)
    evals = 0
    tag = 0

    def tolerances():
        return np.maximum(abs_tols, rel_tol * np.abs(value))

    def priority(err, floor):
        return -float((err / floor).max())

    staged = []
    for a, b in zip(points[:-1], points[1:]):
        if not (b > a):
            continue
        k, err = _vpanel(f, a, b)
        evals += 15
        value += k
        error += err
        staged.append((a, b, k, err))
    # The tolerances change only with ``value``: compute them once per
    # refinement step and share them between both children and the next
    # convergence check.
    tol = tolerances()
    floor = np.maximum(tol, 1e-300)
    for a, b, k, err in staged:
        heapq.heappush(heap, (priority(err, floor), tag, a, b, k, err))
        tag += 1
    span = abs(points[0]) + abs(points[-1]) + 1.0
    while heap:
        if (error <= tol).all():
            return value, error, evals, True
        if evals + 30 > budget:
            return value, error, evals, False
        _, _, a, b, k_old, e_old = heapq.heappop(heap)
        if (b - a) <= 1e-15 * (span + abs(a)):
            if not heap:
                break
            continue
        mid = 0.5 * (a + b)
        k1, e1 = _vpanel(f, a, mid)
        k2, e2 = _vpanel(f, mid, b)
        evals += 30
        value += (k1 + k2) - k_old
        error += (e1 + e2) - e_old
        tol = tolerances()
        floor = np.maximum(tol, 1e-300)
        heapq.heappush(heap, (priority(e1, floor), tag, a, mid, k1, e1))
        tag += 1
        heapq.heappush(heap, (priority(e2, floor), tag, mid, b, k2, e2))
        tag += 1
    return value, error, evals, bool((error <= tol).all())


def integrate_interval(f, a: float, b: float, *, abs_tol: float = 1e-10,
                       rel_tol: float = 1e-10, budget: int = 200_000,
                       knots: Sequence[float] = (),
                       raise_on_budget: bool = True) -> QuadratureResult:
    pts = [a] + sorted({float(k) for k in knots if a < k < b}) + [b]
    value, err, evals, ok = _adaptive(f, pts, abs_tol, rel_tol, budget)
    result = QuadratureResult(value, err, evals)
    if not ok and raise_on_budget:
        raise BudgetExceededError(
            f"quadrature did not converge within {budget} evaluations "
            f"(error estimate {err:.3g})", result)
    return result


def integrate_line(f, *, splits: Sequence[float] = (),
                   abs_tol: float = 1e-10, rel_tol: float = 1e-10,
                   budget: int = 200_000) -> QuadratureResult:
    """Integrate f over the whole real line, with breakpoints at ``splits``
    (cusps, peaks).

    Requires f continuous and absolutely integrable with decay at least
    log|t|/t^2.  The central part is integrated in t; each tail is mapped by
    t = +-exp(s) so that admissible integrands decay exponentially in s.
    """
    t0 = _TAIL_START
    central = [-t0, 0.0, t0]
    tail_knots = []
    for s in splits:
        if abs(s) < t0:
            central.append(float(s))
        else:
            tail_knots.append(math.log(abs(s)) - math.log(t0))
    central = sorted(set(central))

    value = 0.0 + 0.0j
    error = 0.0
    evals = 0
    exhausted = False

    spend = budget
    v, e, n, ok = _adaptive(f, central, abs_tol / 3.0, rel_tol, spend)
    value += v
    error += e
    evals += n
    exhausted |= not ok

    for side in (+1.0, -1.0):
        def tail(s, side=side):
            t = side * t0 * np.exp(s)
            return f(t) * t * side
        spend = budget - evals
        if spend < 45:
            exhausted = True
            break
        pts = [0.0] + sorted(k for k in tail_knots if 0 < k < _TAIL_SPAN) \
            + [_TAIL_SPAN]
        v, e, n, ok = _adaptive(tail, pts, abs_tol / 3.0, rel_tol, spend)
        value += v
        error += e
        evals += n
        exhausted |= not ok

    if abs(value.imag) <= 1e-14 * (abs(value.real) + 1.0):
        value = value.real
    result = QuadratureResult(value, error, evals)
    if exhausted:
        raise BudgetExceededError(
            f"line integral did not converge within {budget} evaluations "
            f"(error estimate {error:.3g})", result)
    return result
