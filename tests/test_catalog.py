import dataclasses
import math

import numpy as np
import pytest

from quiltlab.analysis import BlaschkeData
from quiltlab.catalog import (SIGNS, AnalyticMap, Quilt, Regime,
                              all_floer_strips, catalog_ids,
                              half_plane_above, make_acw_quilt,
                              make_const_projection_quilt,
                              make_eight_bubble_sheet_switch,
                              make_floer_strip_cp1, make_floer_strip_cp2,
                              make_maslov1_quilt, mobius_tanh, resolve,
                              sector_family, with_blaschke)
from quiltlab.floer import build_complex, endpoints
from quiltlab.geometry import (LagrangianId, _fs_distance_rows, _unit_rows,
                               fs_distance, homogeneous_density,
                               lagrangian_residual_rows, normalize)
from quiltlab.verify import (boundary_residual_profile, cr_residual_profile,
                             limit_strip, patch_area, seam_residual_profile)

HALF_PI = math.pi / 2.0
# the (bottom, top) boundary Lagrangians of the rigid strips into CP^n
RIGID_BOUNDARIES = {2: (LagrangianId.RP2, LagrangianId.T2_CLIFFORD),
                    1: (LagrangianId.GAMMA_IMAGE, LagrangianId.S1_CLIFFORD)}


def _generator_point(label):
    s1 = +1 if label[1] == "+" else -1
    s2 = +1 if label[2] == "+" else -1
    return normalize([1.0, s1, s2])


# ---------------------------------------------------------------------------
# rigid strips

def test_cp2_strip_values_at_origin():
    u0pp = make_floer_strip_cp2(0, +1, +1)
    assert u0pp.point(0.0) == normalize([0, 1, 1])
    u2pm = make_floer_strip_cp2(2, +1, -1)
    assert u2pm.point(0.0) == normalize([1, 1, 0])


def test_cp1_strip_value_on_top_edge():
    v1pp = make_floer_strip_cp1(1, +1, +1)
    assert v1pp.point(1j * HALF_PI) == normalize([1, 1j])


@pytest.mark.parametrize("strip", all_floer_strips(),
                         ids=lambda m: m.label)
def test_strip_endpoints_match_limits(strip):
    src, dst = endpoints(strip, SIGNS[strip.label[-1]])
    for x, label in ((-40.0, src), (40.0, dst)):
        limit = strip.point(complex(x, 0.7))
        target = _generator_point(label)
        if strip.target_dim == 1:
            target = normalize(np.asarray(target.coords)[:2])
        assert fs_distance(limit, target) <= 1e-10


@pytest.mark.parametrize("strip", all_floer_strips(),
                         ids=lambda m: m.label)
def test_strip_boundary_conditions(strip):
    bottom_tag, top_tag = RIGID_BOUNDARIES[strip.target_dim]
    x = np.linspace(-50, 50, 1000)
    res = lagrangian_residual_rows(bottom_tag, strip.values(x + 0j))
    assert np.max(res) <= 1e-12
    res = lagrangian_residual_rows(top_tag, strip.values(x + 1j * HALF_PI))
    assert np.max(res) <= 1e-12


def test_strip_constructor_validation():
    with pytest.raises(ValueError):
        make_floer_strip_cp2(3, +1, +1)
    with pytest.raises(ValueError):
        make_floer_strip_cp1(0, +2, +1)


def test_mobius_tanh_matches_exponential_form():
    z = np.array([0.3 + 0.2j, -4 + 1j, 2.5 - 0.7j])
    direct = (np.exp(z) - 1) / (np.exp(z) + 1)
    assert np.max(np.abs(mobius_tanh(z) - direct)) <= 1e-14


# ---------------------------------------------------------------------------
# constant-projection family

def test_const_family_count_and_seam():
    quilts = [make_const_projection_quilt(math.pi / 4, s1, s2)
              for s1 in (+1, -1) for s2 in (+1, -1)]
    assert len({q.label for q in quilts}) == 4
    for q in quilts:
        res = seam_residual_profile(q, samples=1000)
        assert res.max_residual <= 1e-12


def test_const_cp1_patch_matches_first_sign():
    q = make_const_projection_quilt(math.pi / 4, +1, -1)
    assert q.patches[1].point(1j * 1.0) == normalize([1, 1])
    q = make_const_projection_quilt(math.pi / 4, -1, -1)
    assert q.patches[1].point(1j * 1.0) == normalize([1, -1])


def test_const_rescaling_reproduces_bubble():
    h = 1e-3
    ws = np.linspace(-8, 8, 41) + 0.37j
    for s1, s2 in ((+1, +1), (-1, +1)):
        u2 = make_const_projection_quilt(h, s1, s2).patches[0]
        v2 = make_eight_bubble_sheet_switch(s1, s2).patches[0]
        a = _unit_rows(u2.values((2 * h / math.pi) * ws))
        b = _unit_rows(v2.values(ws))
        assert np.max(_fs_distance_rows(a, b)) <= 1e-12


def test_const_rejects_degenerate_heights():
    with pytest.raises(ValueError):
        make_const_projection_quilt(0.0, +1, +1)
    with pytest.raises(ValueError):
        make_const_projection_quilt(HALF_PI, +1, +1)


# ---------------------------------------------------------------------------
# index-one family

def test_maslov1_family_is_eight_distinct_quilts():
    labels = {q.label for q in (make_maslov1_quilt(0.9, v, s1, fs)
                                for v in (0, 1) for s1 in (+1, -1)
                                for fs in (+1, -1))}
    assert len(labels) == 8


def test_sector_family_has_twelve_components():
    family = sector_family(0.8)
    assert len(family) == 12
    assert len({q.label for q in family}) == 12


def test_maslov1_seam_modulus_identity(maslov1_pi4):
    # phase-blind seam trace: 2|Z|^2 = |X|^2 + |Y|^2 on the seam line
    x = np.linspace(-3, 3, 9)
    rows = maslov1_pi4.patches[0].seam_rows(x, maslov1_pi4.seam_y)
    lhs = 2.0 * np.abs(rows[:, 2]) ** 2
    rhs = np.abs(rows[:, 0]) ** 2 + np.abs(rows[:, 1]) ** 2
    assert np.max(np.abs(lhs - rhs) / rhs) <= 1e-8


def test_maslov1_bottom_edge_is_real(maslov1_pi4):
    rows = maslov1_pi4.patches[0].values(np.linspace(-4, 4, 9) + 0j)
    res = lagrangian_residual_rows(LagrangianId.RP2, rows)
    assert np.max(res) <= 1e-8


def test_maslov1_converges_to_unquilted_strips_near_full_height():
    # the deviation is first order in (pi/2 - h): about 5e-4 at 1e-3
    h = HALF_PI - 1e-3
    xs = np.linspace(-2, 2, 9)
    ys = np.linspace(1e-3, h - 1e-3, 5)
    zs = (xs[:, None] + 1j * ys[None, :]).ravel()
    zs = zs[np.abs(zs) <= 2.0]
    worst = 0.0
    cp2 = build_complex("cp2")
    for variant, fsign in ((0, +1), (1, -1)):
        q = make_maslov1_quilt(h, variant, +1, fsign)
        u2 = q.patches[0]
        target = resolve(limit_strip(q, cp2))
        a = _unit_rows(u2.values(zs))
        b = _unit_rows(target.values(zs))
        worst = max(worst, float(np.max(_fs_distance_rows(a, b))))
    assert worst <= 2e-3


def test_maslov1_cp1_patch_is_rigid_strip_formula():
    q = make_maslov1_quilt(0.4, 0, +1, +1)
    u1 = q.patches[1]
    target = resolve(limit_strip(q, build_complex("cp1")))
    zs = np.linspace(-5, 5, 21) + 1j * 0.8
    a = _unit_rows(u1.values(zs))
    b = _unit_rows(target.values(zs))
    assert np.max(_fs_distance_rows(a, b)) <= 1e-13


# ---------------------------------------------------------------------------
# bubbles and the explicit quilted half-plane

def test_bubble_values_and_seam():
    for s1 in (+1, -1):
        q = make_eight_bubble_sheet_switch(s1, +1)
        assert q.patches[0].point(0.0) == normalize([1, s1, 0])
        res = seam_residual_profile(q, samples=1000)
        assert res.max_residual <= 1e-12


@pytest.mark.slow
def test_bubble_area_is_half():
    q = make_eight_bubble_sheet_switch(+1, +1)
    value, err = patch_area(q.patches[0])
    assert abs(value - 0.5) <= 1e-5


def test_acw_values(acw_plus):
    assert acw_plus.patches[0].point(0.0) == normalize([1, 0, -1])


def test_acw_seam_identity_is_exact_algebra():
    # 2|z - 6i|^2 = |z + 6i|^2 + |z|^2 on Im z = 1, checked at x = 0
    assert 2 * abs(1j - 6j) ** 2 == abs(1j + 6j) ** 2 + abs(1j) ** 2
    assert 2 * 25 == 49 + 1


def test_acw_boundary_points_in_torus_isotopic_lagrangian(acw_plus):
    xs = np.arange(-10, 11, dtype=float)
    rows = acw_plus.patches[0].values(xs + 0j)
    res = lagrangian_residual_rows(LagrangianId.L_AC, rows)
    assert np.max(res) <= 1e-13


# ---------------------------------------------------------------------------
# Blaschke twisting

def test_with_blaschke_preserves_seam_and_boundary(maslov1_pi4):
    data = BlaschkeData((2.0,), maslov1_pi4.h)
    twisted = with_blaschke(maslov1_pi4, data)
    base = seam_residual_profile(maslov1_pi4, samples=60, x_range=(-10, 10))
    res = seam_residual_profile(twisted, samples=60, x_range=(-10, 10))
    assert abs(res.max_residual - base.max_residual) <= 1e-10
    bres = boundary_residual_profile(twisted, 0, samples=60,
                                     x_range=(-10, 10))
    assert bres.max_residual <= 1e-8


def test_with_blaschke_requires_matching_family(acw_plus, maslov1_pi4):
    with pytest.raises(ValueError):
        with_blaschke(acw_plus, BlaschkeData((2.0,), 1.0))
    with pytest.raises(ValueError):
        with_blaschke(maslov1_pi4, BlaschkeData((2.0,), 0.3))


@pytest.mark.slow
def test_with_blaschke_area_increment_is_half_integer(maslov1_pi4):
    # one zero on the bottom edge raises the area by one half
    base, base_err = patch_area(maslov1_pi4.patches[0])
    data = BlaschkeData((2.0,), maslov1_pi4.h)
    twisted = with_blaschke(maslov1_pi4, data)
    value, err = patch_area(twisted.patches[0])
    assert value > base
    assert abs((value - base) - 0.5) <= 1e-3


# ---------------------------------------------------------------------------
# holomorphy sampling and registry

@pytest.mark.parametrize("strip", all_floer_strips(),
                         ids=lambda m: m.label)
def test_closed_form_maps_pass_cr_sampling(strip):
    assert cr_residual_profile(strip, samples=24) <= 1e-10


def test_quilt_patch_maps_pass_cr_sampling(acw_plus):
    assert cr_residual_profile(acw_plus.patches[0], samples=24) <= 1e-10
    const = make_const_projection_quilt(0.6, -1, +1)
    assert cr_residual_profile(const.patches[0], samples=24) <= 1e-10
    bubble = make_eight_bubble_sheet_switch(-1, -1)
    assert cr_residual_profile(bubble.patches[0], samples=24) <= 1e-10
    m1 = make_maslov1_quilt(0.6, 1, -1, +1)
    assert cr_residual_profile(m1.patches[1], samples=24) <= 1e-10


def test_quadrature_backed_map_passes_cr_sampling(maslov1_pi4):
    assert cr_residual_profile(maslov1_pi4.patches[0], samples=9) <= 1e-5


def test_derivative_evaluators_match_finite_differences():
    for m in (make_floer_strip_cp2(0, +1, -1), make_acw_quilt(+1).patches[0]):
        z0 = 0.37 + 0.21j
        step = 1e-6
        vals, ders = m.values_and_derivs(np.array([z0]))
        fd = (m.values(np.array([z0 + step]))
              - m.values(np.array([z0 - step]))) / (2 * step)
        assert np.max(np.abs(ders - fd)) <= 1e-6 * (1 + np.max(np.abs(ders)))


# ---------------------------------------------------------------------------
# the evaluated range: the seam and boundary profiles sample Re z = +-50 on
# the edge lines, and the area integrals reach Re z = +-32 inside a patch

@pytest.mark.parametrize("h", [0.15, 1.4])
def test_lifts_are_finite_where_the_checks_evaluate(h):
    index_one = make_maslov1_quilt(h, 0, +1, +1).patches
    maps = (make_const_projection_quilt(h, +1, -1).patches + index_one
            + make_eight_bubble_sheet_switch(+1, -1).patches
            + make_acw_quilt(-1).patches
            + (make_floer_strip_cp2(2, -1, +1),
               make_floer_strip_cp1(1, +1, -1)))
    for m in maps:
        y_lo, y_hi = m.region.y_lo, m.region.y_hi
        inner = y_lo + 1.0 if y_hi is None else 0.5 * (y_lo + y_hi)
        lines = [(y, 50.0) for y in (y_lo, y_hi) if y is not None]
        lines.append((inner, 32.0))
        for y, x in lines:
            z = np.array([-x, x]) + 1j * y
            rows = m.values(z)
            assert np.all(np.isfinite(rows)), (m.label, y)
            assert np.all(np.isfinite(_unit_rows(rows))), (m.label, y)
            # a quadrature-backed top edge carries only the modulus
            if m.regime is Regime.QUADRATURE and y == y_hi:
                continue
            density = homogeneous_density(*m.values_and_derivs(z))
            assert np.all(np.isfinite(density)), (m.label, y)

    # the closed-form pair (e^z + 1, e^z - 1) of the index-one CP^1 patch
    # stays finite out to its cap
    pair = index_one[1]
    z = np.array([-pair.x_cap, pair.x_cap]) + 1j * pair.region.y_hi
    assert all(np.all(np.isfinite(a)) for a in pair.values_and_derivs(z))


def test_registry_round_trip():
    for h in (0.5, math.pi / 4, 0.7, 1.0):
        for ident in catalog_ids(h):
            obj = resolve(ident)
            assert isinstance(obj, (AnalyticMap, Quilt))
            assert obj.label == ident
            assert getattr(obj, "h", None) in (None, h)


def test_registry_rejects_unknown():
    for ident in ("quilt.unknown.thing", "floer.cp2.", "floer.cp2.u0.ppX",
                  "floer.cp1.v2.pp", "quilt.maslov1.h0.7.v0.p.fxyz",
                  "quilt.const.h2.0.pp", "quilt.const.h-0.5.pp",
                  "quilt.const.h.pp"):
        with pytest.raises(KeyError):
            resolve(ident)


def test_registry_takes_an_empty_height_tag_from_the_argument():
    assert resolve("quilt.const.h.pm", h=0.7).label == "quilt.const.h0.7.pm"


def test_quilt_validation_rejects_uncovered_edges():
    # a CP^2 strip alone leaves its top edge without a seam partner
    u2 = make_floer_strip_cp2(0, +1, +1)
    with pytest.raises(ValueError):
        Quilt(label="broken", patches=(u2,), bottom=LagrangianId.RP2,
              family="test")


def test_quilt_validation_rejects_detached_seam():
    u2, u1 = make_acw_quilt(+1).patches
    detached = dataclasses.replace(u1, region=half_plane_above(1.5))
    with pytest.raises(ValueError):
        Quilt(label="broken", patches=(u2, detached),
              bottom=LagrangianId.L_AC, family="test")
