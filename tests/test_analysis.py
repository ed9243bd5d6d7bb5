import cmath
import math

import numpy as np
import pytest

from quiltlab import analysis, catalog
from quiltlab.analysis import (BlaschkeData, BoundaryEvaluationError,
                               DomainError, InvalidBlaschkeDataError,
                               PoissonSolution, QuadratureSettings,
                               UndefinedPointError, UnreliableContourError,
                               _herglotz, asymptotic_ratio, blaschke_eval,
                               boundary_modulus, f_and_derivative, f_eval,
                               g_eval, halfplane_points, halfplane_to_strip,
                               herglotz_batch, strip_to_halfplane,
                               winding_number)

RNG = np.random.default_rng(3)

# offline >= 40-digit quadrature anchors for the half-plane solution
G_2I_PI4 = 1.9342977486091366452
G_1PI_PI3 = 1.7669017197266829142 - 0.54925634927854107624j
F_ANCHOR_PI8 = 2.2089012590039773736 + 0.52832256265069339775j


# ---------------------------------------------------------------------------
# strip <-> half-plane maps

def test_strip_map_base_points():
    h = 0.9
    assert strip_to_halfplane(0.0, h) == pytest.approx(1j)
    assert strip_to_halfplane(1j * h, h) == pytest.approx(-1.0)


def test_strip_map_edge_images():
    h = math.pi / 5
    w = strip_to_halfplane(np.array([2.0, -3.0]), h)
    assert np.allclose(w.real, 0.0)
    assert np.all(w.imag > 0)
    w = strip_to_halfplane(np.array([2.0 + 1j * h]), h)
    assert w[0].real < 0 and abs(w[0].imag) < 1e-12


def test_strip_map_round_trip():
    h = 1.1
    x = RNG.uniform(-8, 8, 100)
    y = RNG.uniform(-0.95 * h, 0.95 * h, 100)
    z = x + 1j * y
    back = halfplane_to_strip(strip_to_halfplane(z, h), h)
    assert np.max(np.abs(back - z)) <= 1e-12 * (1 + np.max(np.abs(z)))


def test_inverse_map_rejects_origin():
    with pytest.raises(UndefinedPointError):
        halfplane_to_strip(0.0, 0.5)


# ---------------------------------------------------------------------------
# half-plane solutions

def test_g_at_i_with_full_height_is_two():
    # at h = pi/2 the unique positive solution is 1 - iw
    assert abs(g_eval(1j, math.pi / 2) - 2.0) <= 1e-9


def test_g_against_offline_anchors():
    assert abs(g_eval(2j, math.pi / 4) - G_2I_PI4) <= 1e-9
    assert abs(g_eval(1 + 1j, math.pi / 3) - G_1PI_PI3) <= 1e-9


def test_g_boundary_modulus_law_near_axis():
    g = g_eval(1 + 1e-6j, math.pi / 4)
    assert abs(abs(g) - math.sqrt(2)) <= 1e-4
    g = g_eval(1 + 1e-6j, math.pi / 3)
    assert abs(abs(g) - math.sqrt(2)) <= 1e-4


def test_g_minus_is_negated_plus():
    for w in (0.3 + 0.7j, -2 + 0.1j, 5j):
        assert g_eval(w, 1.0, -1) == -g_eval(w, 1.0, +1)


def test_g_real_on_positive_imaginary_axis():
    for y in (0.1, 1.0, 7.3):
        g = g_eval(1j * y, math.pi / 3)
        assert abs(g.imag) <= 1e-8 * abs(g)


def test_g_domain_errors():
    with pytest.raises(UndefinedPointError):
        g_eval(0.0, 1.0)
    with pytest.raises(BoundaryEvaluationError):
        g_eval(2.0, 1.0)
    with pytest.raises(DomainError):
        g_eval(1 - 1j, 1.0)


def test_f_at_full_height_is_exp_plus_one(sol_pi2):
    assert abs(f_eval(sol_pi2, 0.0) - 2.0) <= 1e-8


def test_f_real_on_bottom_edge(sol_pi4):
    v = f_eval(sol_pi4, 1.0)
    assert abs(v.imag) <= 1e-8 * abs(v)


def test_f_sign_is_prefactor(sol_pi4):
    minus = PoissonSolution(math.pi / 4, -1)
    for z in (0.2 + 0.1j, -1 + 0.5j):
        assert f_eval(minus, z) == -f_eval(sol_pi4, z)


def test_f_offline_anchor():
    sol = PoissonSolution(math.pi / 8)
    assert abs(f_eval(sol, 0.7 + 0.3j) - F_ANCHOR_PI8) <= 1e-9


def test_f_domain_errors(sol_pi4):
    h = sol_pi4.h
    with pytest.raises(BoundaryEvaluationError):
        f_eval(sol_pi4, 1.0 + 1j * h)
    with pytest.raises(DomainError):
        f_eval(sol_pi4, 1.0 + 1j * (h + 0.1))
    with pytest.raises(DomainError):
        f_eval(sol_pi4, 1.0 - 0.2j)


def test_f_uniqueness_against_closed_form(sol_pi2):
    # 100 interior samples, |z| <= 3
    worst = 0.0
    for _ in range(100):
        z = complex(RNG.uniform(-3, 3), RNG.uniform(1e-3, math.pi / 2 * 0.98))
        if abs(z) > 3:
            continue
        target = cmath.exp(z) + 1.0
        worst = max(worst, abs(f_eval(sol_pi2, z) - target) / abs(target))
    assert worst <= 1e-8


def test_f_cauchy_riemann_sampling(sol_pi4_tight):
    h = sol_pi4_tight.h
    step = 1e-4 * h
    worst = 0.0
    for _ in range(200):
        z = complex(RNG.uniform(-2, 2), RNG.uniform(4 * step, h - 4 * step))
        vals = [f_eval(sol_pi4_tight, z + d)
                for d in (step, -step, 1j * step, -1j * step)]
        dbar = (vals[0] - vals[1] + 1j * (vals[2] - vals[3])) / (4 * step)
        worst = max(worst, abs(dbar))
    assert worst <= 1e-5


def test_f_derivative_matches_finite_differences(sol_pi4):
    z = 0.4 + 0.3j
    val, der = f_and_derivative(sol_pi4, z)
    assert val == pytest.approx(f_eval(sol_pi4, z), abs=1e-12)
    step = 1e-5
    fd = (f_eval(sol_pi4, z + step) - f_eval(sol_pi4, z - step)) / (2 * step)
    assert abs(der - fd) <= 1e-6 * (1 + abs(der))


# ---------------------------------------------------------------------------
# boundary modulus and asymptotics

@pytest.mark.parametrize("h,x", [(math.pi / 4, 0.0), (math.pi / 8, 1.0),
                                 (math.pi / 2, -3.0)])
def test_boundary_modulus_law(h, x):
    sol = PoissonSolution(h)
    target = math.exp(2 * x) + 1.0
    value, details = boundary_modulus(sol, x, details=True)
    assert details["converged"]
    assert abs(value - target) / target <= 1e-4


def test_asymptotic_ratio_far_field(sol_pi2, sol_pi4):
    assert abs(asymptotic_ratio(sol_pi2, 20.0, 0.1) - 1.0) <= 1e-3
    assert abs(asymptotic_ratio(sol_pi4, -20.0, 0.1) - 1.0) <= 1e-2


def test_asymptotic_ratio_finite_at_origin(sol_pi4):
    v = asymptotic_ratio(sol_pi4, 0.0, 0.0)
    assert v > 0.0 and math.isfinite(v)


def test_seam_modulus_identity(sol_pi4):
    # 2|f(x+ih)|^2 equals |e^z+1|^2 + |e^z-1|^2 = 2 exp(2x) + 2 on the seam
    for x in np.linspace(-3, 3, 7):
        lhs = 2.0 * boundary_modulus(sol_pi4, float(x))
        rhs = 2.0 * math.exp(2 * x) + 2.0
        assert abs(lhs - rhs) / rhs <= 1e-8


# ---------------------------------------------------------------------------
# the batched Herglotz engine against the adaptive one

STRIP_SETTINGS = QuadratureSettings(abs_tol=1e-8)
# distances below the top edge, as fractions of h, where the strip traces
# evaluate: the two outer extrapolation samples, the area's outermost y
# node, an interior line and the bottom edge; derivatives are asked for on
# the last three only
DEPTHS = {1e-2: False, 1e-4: False, 0.0043: True, 0.5: True, 1.0: True}
BATCH_HEIGHTS = (0.15, 0.5, 1.0, 1.4, math.pi / 2)


def _batch_grid(h):
    sol = PoissonSolution(h, +1, STRIP_SETTINGS)
    cap = min(50.0, sol.x_cap)
    for depth, deriv in DEPTHS.items():
        z = np.linspace(-cap, cap, 21) + 1j * h * (1.0 - depth)
        yield sol, z, halfplane_points(sol, z), deriv


def _bound(w, value, abs_tol):
    """What two engines that each meet max(abs_tol, 1e-12 |I|) may differ
    by, plus the rounding of s = log|t| that both share near the pole: it
    sits within eps |log|w|| of its rounded place, a fraction
    eps |log|w|| / theta of its width, theta its angle from the half-line."""
    theta = min(np.angle(w), math.pi - np.angle(w))
    rounding = np.finfo(float).eps * abs(math.log(abs(w))) / theta
    return 2.0 * max(abs_tol, 1e-12 * abs(value)) + rounding * abs(value)


@pytest.mark.parametrize("h", BATCH_HEIGHTS)
def test_batch_agrees_with_adaptive_engine(h):
    for sol, z, w, deriv in _batch_grid(h):
        batch = herglotz_batch(w, sol.power, sol.settings, deriv)
        assert batch.ok.all()
        for k, wk in enumerate(w):
            I, Ip, _, _ = _herglotz(wk, sol.power, sol.settings, deriv)
            assert abs(batch.value[k] - I) <= _bound(wk, I, 1e-8), z[k]
            if deriv:
                bound = 2.0 * max(100.0 * 1e-8 / abs(wk), 1e-12 * abs(Ip))
                assert abs(batch.deriv[k] - Ip) <= bound, z[k]


def test_batch_at_full_height_is_exp_plus_one():
    # f = e^z + 1: I = 2 pi i log f and w I' = 2 pi i f'/f at h = pi/2
    for sol, z, w, deriv in _batch_grid(math.pi / 2):
        batch = herglotz_batch(w, sol.power, sol.settings, True)
        exact = 2j * math.pi * np.log(np.exp(z) + 1.0)
        for k, wk in enumerate(w):
            bound = 0.5 * _bound(wk, exact[k], 1e-8)
            assert abs(batch.value[k] - exact[k]) <= bound, z[k]
        if deriv:
            dexact = 2j * math.pi * np.exp(z) / (np.exp(z) + 1.0)
            assert np.all(np.abs(w * batch.deriv - dexact) <=
                          100.0 * 1e-8 + 1e-12 * np.abs(dexact))


def test_batch_error_estimate_sees_a_coarse_layout(monkeypatch):
    traces = catalog.StripTraces(0.5)
    sol = traces.sol
    z = np.array([0.3 + 0.2j, -2.0 + 0.45j, 4.0 + 0.497j])
    x = np.array([-1.0, 2.5])
    monkeypatch.setattr(analysis, "_BATCH_RATIO", 8.0)
    batch = herglotz_batch(halfplane_points(sol, z), sol.power, sol.settings)
    tol = np.maximum(sol.settings.abs_tol, 1e-12 * np.abs(batch.value))
    assert np.all(batch.error[0] > tol) and not batch.ok.any()

    # every point takes the adaptive fallback and returns its value exactly
    calls = []
    for name in ("log_f", "f_and_derivative", "boundary_modulus"):
        def counted(*args, _fn=getattr(analysis, name), _name=name,
                    **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(catalog, name, counted)
    rows = traces(z, False)
    assert np.array_equal(rows[:, 0], [np.exp(analysis.log_f(sol, zz))
                                       for zz in z])
    rows = traces(z, True)
    assert np.array_equal(rows, [analysis.f_and_derivative(sol, zz)
                                 for zz in z])
    top = traces(x + 1j * sol.h, False)
    assert np.array_equal(top[:, 0], np.sqrt(
        [analysis.boundary_modulus(sol, xx) for xx in x]))
    assert calls == ["log_f"] * 3 + ["f_and_derivative"] * 3 + \
        ["boundary_modulus"] * 2


# ---------------------------------------------------------------------------
# Blaschke products

def test_blaschke_zero_location():
    data = BlaschkeData((1.0,), 0.8)
    assert blaschke_eval(data, 0.0) == pytest.approx(0.0)


def test_blaschke_top_edge_value():
    data = BlaschkeData((1.0,), 0.8)
    assert blaschke_eval(data, 1j * 0.8) == pytest.approx(1j)


def test_blaschke_far_field_limit():
    data = BlaschkeData((1 + 1j, 1 - 1j), math.pi / 4)
    assert abs(blaschke_eval(data, 30.0) - 1.0) <= 1e-6


def test_blaschke_boundary_laws():
    data = BlaschkeData((1 + 1j, 1 - 1j, 2.0), math.pi / 4)
    x = np.linspace(-50, 50, 1000)
    top = blaschke_eval(data, x + 1j * math.pi / 4)
    assert np.max(np.abs(np.abs(top) - 1.0)) <= 1e-12
    bottom = blaschke_eval(data, x + 0j)
    assert np.max(np.abs(bottom.imag)) <= 1e-12


def test_blaschke_validation():
    with pytest.raises(InvalidBlaschkeDataError):
        BlaschkeData((-1.0,), 0.5)
    with pytest.raises(InvalidBlaschkeDataError):
        BlaschkeData((1 + 1j,), 0.5)


# ---------------------------------------------------------------------------
# winding numbers

def test_winding_of_zero_free_solution(sol_pi4):
    h = sol_pi4.h
    fmap = lambda zs: np.array([f_eval(sol_pi4, z)
                                for z in np.atleast_1d(zs)])
    assert winding_number(fmap, (-5, 5, h / 10, 9 * h / 10)) == 0


def test_winding_counts_blaschke_zero(sol_pi4):
    h = sol_pi4.h
    data = BlaschkeData((1 + 1j, 1 - 1j), h)
    # dense-sampling oracle: locate the factor zero inside the strip
    grid_x = np.linspace(-1, 1, 301)
    grid_y = np.linspace(h / 10, 9 * h / 10, 201)
    zz = grid_x[:, None] + 1j * grid_y[None, :]
    mags = np.abs(blaschke_eval(data, zz))
    k = np.unravel_index(np.argmin(mags), mags.shape)
    z_min = complex(zz[k])
    expected = (2 * h / math.pi) * cmath.log(1 + 1j)
    assert abs(z_min - expected) <= 2e-2
    assert -1 < expected.real < 1 and h / 10 < expected.imag < 9 * h / 10

    fmap = lambda zs: (np.array([f_eval(sol_pi4, z)
                                 for z in np.atleast_1d(zs)])
                       * blaschke_eval(data, np.atleast_1d(zs)))
    assert winding_number(fmap, (-1, 1, h / 10, 9 * h / 10)) == 1


def test_winding_of_entire_function():
    assert winding_number(lambda z: np.exp(z), (-2, 2, 0.1, 0.7)) == 0


def test_winding_rejects_unvectorized_map():
    with pytest.raises(ValueError):
        winding_number(lambda z: 1.0 + 0j, (0, 1, 0, 1))


def test_winding_rejects_vanishing_contour():
    with pytest.raises(UnreliableContourError):
        winding_number(lambda z: z - (0.5 + 0.25j), (0, 1, 0.25, 1.25))
