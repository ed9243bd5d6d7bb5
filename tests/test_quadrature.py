import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiltlab.quadrature import (BudgetExceededError, integrate_interval,
                                 integrate_line, integrate_rows)

SQRT_PI = 1.7724538509055160273
TWO_PI_LOG2 = 4.355172180607204261  # high-precision offline value


def test_lorentzian_is_pi():
    res = integrate_line(lambda t: 1.0 / (1.0 + t * t))
    assert abs(res.value - math.pi) <= 1e-10
    assert res.error_estimate >= 0


def test_gaussian_is_sqrt_pi():
    res = integrate_line(lambda t: np.exp(-t * t))
    assert abs(res.value - SQRT_PI) <= 1e-10


def test_log_weighted_lorentzian():
    res = integrate_line(lambda t: np.log1p(t * t) / (1.0 + t * t))
    assert abs(res.value - TWO_PI_LOG2) <= 1e-8


def test_error_estimates_cover_true_error():
    for f, truth in [(lambda t: 1.0 / (1.0 + t * t), math.pi),
                     (lambda t: np.exp(-t * t), SQRT_PI),
                     (lambda t: np.log1p(t * t) / (1.0 + t * t),
                      TWO_PI_LOG2)]:
        res = integrate_line(f)
        assert abs(res.value - truth) <= max(res.error_estimate * 10, 1e-10)


@given(a=st.floats(0.1, 10.0), b=st.floats(0.1, 10.0))
@settings(max_examples=25, deadline=None)
def test_scaled_lorentzian_family(a, b):
    res = integrate_line(lambda t: a / (t * t + b * b), abs_tol=1e-9)
    assert abs(res.value - a * math.pi / b) <= 1e-7 * (1 + a / b)


def test_interior_split_points_help_with_kinks():
    res = integrate_line(lambda t: np.exp(-np.abs(t - 0.5)), splits=(0.5,))
    assert abs(res.value - 2.0) <= 1e-9


def test_budget_exhaustion_carries_best_estimate():
    # an unattainable tolerance forces the budget stop; the raised error
    # still transports the partial result
    with pytest.raises(BudgetExceededError) as info:
        integrate_line(lambda t: np.log1p(t * t) / (1.0 + t * t),
                       abs_tol=0.0, rel_tol=0.0, budget=2000)
    best = info.value.best
    assert best.evaluations <= 2000
    assert math.isfinite(abs(best.value))
    assert best.error_estimate >= 0.0


def test_interval_quadrature_polynomial_exactness():
    res = integrate_interval(lambda x: x ** 6 - 2 * x + 1, -1.0, 2.0)
    # antiderivative x^7/7 - x^2 + x
    truth = (2.0 ** 7 / 7 - 4 + 2) - (-1.0 / 7 - 1 - 1)
    assert abs(res.value - truth) <= 1e-12


@pytest.mark.parametrize("f, truth", [
    # narrow Lorentzian peak at t = 0.3, half-width 1e-3
    (lambda t: 1e-3 / ((t - 0.3) ** 2 + 1e-6),
     math.atan(1.2e3) + math.atan(1.3e3)),
    # |t|^p cusp at t = 0
    (lambda t: np.abs(t) ** 0.4, (1.0 + 1.5 ** 1.4) / 1.4),
], ids=["lorentzian", "cusp"])
def test_vector_loop_matches_scalar_loop(f, truth):
    # the two adaptive loops implement one rule: a one-row vector integral
    # agrees with the scalar one within the two error estimates
    scalar = integrate_interval(f, -1.0, 1.5, abs_tol=1e-10, rel_tol=1e-12)
    value, error, _, ok = integrate_rows(lambda t: f(t)[None, :],
                                         [-1.0, 1.5], [1e-10], 1e-12,
                                         200_000)
    assert ok
    assert abs(value[0] - scalar.value) <= \
        error[0] + scalar.error_estimate
    assert abs(value[0] - truth) <= max(error[0], 1e-12)
    assert abs(scalar.value - truth) <= max(scalar.error_estimate, 1e-12)


def test_interval_complex_integrand():
    res = integrate_interval(lambda x: np.exp(1j * x), 0.0, math.pi)
    assert abs(res.value - 2j) <= 1e-12
