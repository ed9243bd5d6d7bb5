import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiltlab.geometry import (DimensionMismatchError, InvalidPointError,
                               LagrangianId, _fs_distance_rows, _unit_rows,
                               correspondence_residual_rows,
                               homogeneous_density, lagrangian_residual_rows,
                               moment_cp1_lift_rows, moment_cp2_rows,
                               pullback_density)
from quiltlab.quadrature import integrate_interval

RNG = np.random.default_rng(0)

finite_complex = st.builds(complex, st.floats(-5, 5), st.floats(-5, 5))


# ---------------------------------------------------------------------------
# homogeneous rows

def _distance(a, b) -> float:
    """Fubini-Study distance between the points of two single rows."""
    return float(_fs_distance_rows(np.array([a]), np.array([b]))[0])


def test_normalize_scaling():
    assert tuple(_unit_rows([[2, 0, 0]])[0]) == pytest.approx((1, 0, 0))


def test_normalize_phase_removal():
    assert _distance([0, 0, 3j], [0, 0, 1]) <= 1e-12


def test_normalize_unit_norm():
    row = _unit_rows([[1, 1, 1]])[0]
    assert tuple(row) == pytest.approx(tuple([1 / math.sqrt(3)] * 3))


def test_normalize_rejects_zero_vector():
    with pytest.raises(InvalidPointError):
        _unit_rows([[0, 0, 0]])


@given(scale=finite_complex, vec=st.lists(finite_complex, min_size=2,
                                          max_size=3))
@settings(max_examples=80)
def test_normalize_projective_invariance(scale, vec):
    v = np.array(vec)
    if np.linalg.norm(v) < 1e-3 or abs(scale) < 1e-3:
        return
    assert _distance(v, scale * v) <= 1e-12


def test_fs_distance_examples():
    assert _distance([1, 0], [0, 1]) == pytest.approx(1.0)
    assert _distance([1, 2j, 3], [1, 2j, 3]) == 0.0
    assert _distance([1, 1], [1, 0]) == pytest.approx(1 / math.sqrt(2))


def test_fs_distance_dimension_mismatch():
    # CP^1 rows against CP^2 rows, one and several at a time
    with pytest.raises(DimensionMismatchError):
        _fs_distance_rows([[1, 0]], [[1, 0, 5]])
    with pytest.raises(DimensionMismatchError):
        _fs_distance_rows(np.ones((4, 2)), np.ones((4, 3)))


@given(vec=st.lists(finite_complex, min_size=3, max_size=3),
       other=st.lists(finite_complex, min_size=3, max_size=3))
@settings(max_examples=60)
def test_fs_distance_symmetric(vec, other):
    a, b = np.array(vec), np.array(other)
    if min(np.linalg.norm(a), np.linalg.norm(b)) < 1e-3:
        return
    assert _distance(a, b) == pytest.approx(_distance(b, a), abs=1e-14)
    assert 0.0 <= _distance(a, b) <= 1.0


# ---------------------------------------------------------------------------
# pullback density

def test_density_rational_map_value():
    # z -> (z + 6i)/(iz) at z = i, in the affine chart of CP^1
    z = 1j
    val = (z + 6j) / (1j * z)
    der = -6.0 / z ** 2
    assert pullback_density(1, [val], [der]) == \
        pytest.approx(18.0 / (625.0 * math.pi), rel=1e-14)


def test_density_constant_map_vanishes():
    assert pullback_density(2, [0.3 + 1j, -2], [0, 0]) == 0.0


def test_density_strip_map_at_origin():
    # two-chart value of the explicit strip map at z = 0
    z = 0.0
    v = ((1j * z) / (z + 6j), (z - 6j) / (z + 6j))
    dv = (-6.0 / (z + 6j) ** 2, 12j / (z + 6j) ** 2)
    assert pullback_density(2, v, dv) == pytest.approx(1 / (8 * math.pi),
                                                       rel=1e-14)


def test_density_conformal_reparametrization():
    def val_der(z):
        u = np.array([z + 6j, 1j * z])
        du = np.array([1.0, 1j])
        return u, du

    z0 = 0.7 + 2.2j
    u, du = val_der(2.0 * z0)
    rho_orig = homogeneous_density(u, du)[0]
    u2, du2 = val_der(2.0 * z0)
    rho_reparam = homogeneous_density(u2, 2.0 * du2)[0]
    assert rho_reparam == pytest.approx(rho_orig * 4.0, rel=1e-13)


def test_density_homogeneous_matches_chart():
    z = 0.4 - 0.2j
    u = np.array([z + 6j, 1j * z, z - 6j])
    du = np.array([1.0, 1j, 1.0])
    rho_h = homogeneous_density(u, du)[0]
    v = (u[1] / u[0], u[2] / u[0])
    dv = ((du[1] * u[0] - u[1] * du[0]) / u[0] ** 2,
          (du[2] * u[0] - u[2] * du[0]) / u[0] ** 2)
    assert rho_h == pytest.approx(pullback_density(2, v, dv), rel=1e-12)


def test_cp1_total_area_is_two():
    # radial integral of the identity-chart density: 2/pi * 2*pi*r/(1+r^2)^2
    def radial(theta):
        r = np.tan(theta)
        rho = 2.0 / (math.pi * (1.0 + r * r) ** 2)
        return rho * 2.0 * math.pi * r / np.cos(theta) ** 2

    res = integrate_interval(radial, 0.0, math.pi / 2 - 1e-14,
                             abs_tol=1e-12)
    assert abs(res.value - 2.0) <= 1e-6


# ---------------------------------------------------------------------------
# moment maps

def test_moment_cp2_vertices():
    m = moment_cp2_rows([[0, 1, 0], [0, 0, 1], [1, 1, 1]])
    assert tuple(m[0]) == pytest.approx((-0.5, 0.0))
    assert tuple(m[1]) == pytest.approx((0.0, -0.5))
    assert tuple(m[2]) == pytest.approx((-1 / 6, -1 / 6))


def test_moment_cp1_lift_segment():
    m = moment_cp1_lift_rows([[1, 0], [0, 1], [1, 1]])
    assert tuple(m[0]) == pytest.approx((0.0, -1 / 6))
    assert tuple(m[1]) == pytest.approx((-1 / 3, -1 / 6))
    assert tuple(m[2]) == pytest.approx((-1 / 6, -1 / 6))


def test_moment_image_fills_closed_triangle():
    pts = RNG.standard_normal((100_000, 3)) + 1j * RNG.standard_normal(
        (100_000, 3))
    m = moment_cp2_rows(pts)
    assert np.all(m[:, 0] <= 1e-12)
    assert np.all(m[:, 1] <= 1e-12)
    assert np.all(m[:, 0] + m[:, 1] >= -0.5 - 1e-12)


# ---------------------------------------------------------------------------
# Lagrangian residuals

def _samples(lid, n=200):
    t = RNG.uniform(0, 2 * math.pi, n)
    s = RNG.uniform(0, 2 * math.pi, n)
    u = RNG.uniform(0, 2 * math.pi, n)
    if lid in (LagrangianId.RP1, LagrangianId.GAMMA_IMAGE):
        return np.stack([np.cos(t) + 0j, np.sin(t) + 0j], axis=1)
    if lid is LagrangianId.RP2:
        a = RNG.standard_normal((n, 3))
        return a.astype(complex)
    if lid is LagrangianId.S1_CLIFFORD:
        return np.stack([np.exp(1j * t), np.exp(1j * s)], axis=1)
    if lid is LagrangianId.T2_CLIFFORD:
        return np.stack([np.exp(1j * t), np.exp(1j * s), np.exp(1j * u)],
                        axis=1)
    if lid is LagrangianId.L_AC:
        a, b, c = np.cos(t) * np.cos(s), np.cos(t) * np.sin(s), np.sin(t)
        return np.stack([a + 1j * b, 1j * math.sqrt(2) * c, a - 1j * b],
                        axis=1)
    raise AssertionError(lid)


def test_residual_examples():
    def residual(lid, row):
        return float(lagrangian_residual_rows(lid, [row])[0])

    assert residual(LagrangianId.RP2, [1, 1, 1]) == \
        pytest.approx(0.0, abs=1e-15)
    assert residual(LagrangianId.L_AC, [1, 0, 1]) == \
        pytest.approx(0.0, abs=1e-15)
    assert residual(LagrangianId.T2_CLIFFORD, [1, 0, 0]) == \
        pytest.approx(1.0)
    assert residual(LagrangianId.S1_CLIFFORD, [1, 1j]) == pytest.approx(0.0)


def test_residual_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        lagrangian_residual_rows(LagrangianId.RP2, [[1, 0]])


@pytest.mark.parametrize("lid", list(LagrangianId))
def test_residual_vanishes_on_members(lid):
    rows = _samples(lid)
    res = lagrangian_residual_rows(lid, rows)
    assert np.max(res) <= 1e-12


@pytest.mark.parametrize("lid", list(LagrangianId))
def test_residual_separates_far_points(lid):
    # The torus-isotopic Lagrangian's residual degenerates quadratically
    # near its equatorial circle (vanishing middle coordinate), so its
    # separation floor at chordal distance 0.2 sits near 0.024; the other
    # residuals stay above 0.1 there.
    floor = 0.015 if lid is LagrangianId.L_AC else 0.1
    members = _samples(lid, 2000)
    members_u = _unit_rows(members)
    k = lid.ambient_dim + 1
    found = 0
    for _ in range(4000):
        p = RNG.standard_normal(k) + 1j * RNG.standard_normal(k)
        row = _unit_rows(p.reshape(1, -1))
        dists = _fs_distance_rows(np.repeat(row, len(members_u), axis=0),
                                  members_u)
        if np.min(dists) > 0.2:
            found += 1
            assert lagrangian_residual_rows(lid, row)[0] > floor
        if found >= 40:
            break
    assert found >= 10


# ---------------------------------------------------------------------------
# the reduction correspondence

def test_correspondence_examples():
    # the seam residual: the larger of the level and projection parts
    level, proj, defined = correspondence_residual_rows(
        [[1, 1], [1, 1], [1, 0]], [[1, 1, 1], [1, 1, 0], [1, 1, 1]])
    assert defined.all()
    residual = np.maximum(level, proj)
    assert residual[0] == pytest.approx(0.0, abs=1e-15)
    assert residual[1] == pytest.approx(1.0)
    assert residual[2] == pytest.approx(1 / math.sqrt(2))


def test_correspondence_undefined_projection_is_flagged():
    level, proj, defined = correspondence_residual_rows([[1, 0]],
                                                        [[0, 0, 1]])
    assert not defined[0]
    assert level[0] == pytest.approx(2.0)


def test_correspondence_projection_component_vanishes_on_sections():
    pts = RNG.standard_normal((500, 3)) + 1j * RNG.standard_normal((500, 3))
    keep = np.linalg.norm(pts[:, :2], axis=1) > 1e-3
    pts = pts[keep]
    heads = pts[:, :2]
    level, proj, defined = correspondence_residual_rows(heads, pts)
    assert np.all(defined)
    assert np.max(proj) <= 1e-12
