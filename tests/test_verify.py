import json
import math

import numpy as np
import pytest

from quiltlab import catalog
from quiltlab.analysis import BlaschkeData
from quiltlab.catalog import (BoundaryEdge, Quilt, all_floer_strips,
                              make_const_projection_quilt,
                              make_eight_bubble_sheet_switch, with_blaschke)
from quiltlab.floer import build_complex
from quiltlab.geometry import LagrangianId
from quiltlab.verify import (MASLOV1_PROFILE, STRICT_PROFILE,
                             _maslov1_limit_diagnostics,
                             boundary_residual_profile, default_profile,
                             limit_strip, patch_area, seam_residual_profile,
                             sweep_family, verify_quilt)


# ---------------------------------------------------------------------------
# residual profiles

def test_acw_seam_profile(acw_plus):
    res = seam_residual_profile(acw_plus, samples=1000, x_range=(-50, 50))
    assert res.max_residual <= 1e-12
    assert res.failures == 0


def test_acw_boundary_profile(acw_plus):
    res = boundary_residual_profile(acw_plus, 0, samples=1000,
                                    x_range=(-50, 50))
    assert res.max_residual <= 1e-12


def test_const_quilt_seam_profile():
    q = make_const_projection_quilt(math.pi / 4, +1, -1)
    res = seam_residual_profile(q, samples=1000)
    assert res.max_residual <= 1e-12


def test_floer_strip_boundary_profile():
    from quiltlab.catalog import make_floer_strip_cp2
    strip = make_floer_strip_cp2(1, +1, -1)
    from quiltlab.geometry import lagrangian_residual_rows
    x = np.linspace(-50, 50, 1000)
    res = lagrangian_residual_rows(LagrangianId.RP2, strip.values(x + 0j))
    assert np.max(res) <= 1e-12


def test_maslov1_seam_profile_within_extrapolation_budget(maslov1_pi4):
    res = seam_residual_profile(maslov1_pi4, samples=120)
    assert res.max_residual <= 1e-4


@pytest.mark.slow
def test_maslov1_seam_profile_full_sampling(maslov1_pi4):
    res = seam_residual_profile(maslov1_pi4, samples=1000,
                                x_range=(-50, 50))
    assert res.max_residual <= 1e-4
    assert res.failures == 0


def test_unconverged_extrapolation_fails_the_seam(monkeypatch):
    # Move the farthest extrapolation sample at one seam point by 2 %: the
    # extrapolated modulus moves by less than the seam tolerance, but its
    # Neville spread exceeds 1e-5 relative, so the point gives a NaN row,
    # which the seam check counts as a failure.
    quilt = catalog.make_maslov1_quilt(0.5, 0, +1, +1)
    extrapolate = catalog.extrapolate_to_edge
    moved = []

    def perturbed(eps, samples):
        original = extrapolate(eps, samples)[0][7]
        samples = samples.copy()
        samples[0, 7] *= 1.02
        value, spread, converged = extrapolate(eps, samples)
        moved.append(abs(value[7] / original - 1.0))
        return value, spread, converged

    monkeypatch.setattr(catalog, "extrapolate_to_edge", perturbed)
    res = seam_residual_profile(quilt, samples=MASLOV1_PROFILE.samples)
    assert res.failures == 1
    assert 0.0 < moved[0] <= MASLOV1_PROFILE.seam_tol
    report = verify_quilt(quilt)
    assert report.seams[0]["failures"] == 1
    assert not report.passed


def test_maslov1_bottom_boundary_profile(maslov1_pi4):
    res = boundary_residual_profile(maslov1_pi4, 0, samples=120)
    assert res.max_residual <= 1e-8


# ---------------------------------------------------------------------------
# areas

def test_acw_patch_areas(acw_plus):
    value, err = patch_area(acw_plus.patches[0])
    assert abs(value - 0.3) <= 1e-6
    value, err = patch_area(acw_plus.patches[1])
    assert abs(value - 0.2) <= 1e-6


def test_constant_patch_area_is_zero():
    q = make_eight_bubble_sheet_switch(+1, +1)
    assert patch_area(q.patches[1]) == (0.0, 0.0)


@pytest.mark.slow
def test_all_rigid_strips_have_area_half():
    for strip in all_floer_strips():
        value, err = patch_area(strip)
        assert abs(value - 0.5) <= 1e-5, strip.label


def test_area_stable_under_truncation_doubling(acw_plus):
    v1, e1 = patch_area(acw_plus.patches[1], y_cut=1e6)
    v2, e2 = patch_area(acw_plus.patches[1], y_cut=2e6)
    assert abs(v1 - v2) <= 2 * max(e1, e2)
    u2 = make_const_projection_quilt(1.0, +1, +1).patches[0]
    v1, e1 = patch_area(u2, x_cut=32.0)
    v2, e2 = patch_area(u2, x_cut=64.0)
    assert abs(v1 - v2) <= 2 * max(e1, e2) + 1e-12


# ---------------------------------------------------------------------------
# whole-quilt reports

def test_acw_report_passes(acw_plus):
    report = verify_quilt(acw_plus)
    assert report.passed
    assert abs(report.total_area - 0.5) <= 1e-6
    assert report.total_area == pytest.approx(
        sum(a["value"] for a in report.areas))


def test_const_quilt_report_passes():
    q = make_const_projection_quilt(math.pi / 3, +1, +1)
    report = verify_quilt(q)
    assert report.passed
    assert abs(report.total_area - 0.5) <= 1e-5


def test_tampered_seam_fails(acw_plus):
    report = verify_quilt(acw_plus, tamper=("seam", 0.01))
    assert not report.passed
    assert report.seams[0]["max"] > 1e-3


def test_perturbed_boundary_tag_fails(acw_plus):
    wrong = Quilt(label="acw.wrong-tag", patches=acw_plus.patches,
                  seams=acw_plus.seams,
                  boundaries=(BoundaryEdge(0, "bottom", 0.0,
                                           LagrangianId.RP2),),
                  family="acw", expected_area=0.5)
    report = verify_quilt(wrong)
    assert not report.passed
    assert report.boundaries[0]["max"] > 0.1


def test_report_is_deterministic(acw_plus):
    a = verify_quilt(acw_plus).to_json()
    b = verify_quilt(acw_plus).to_json()
    assert a == b


def test_report_schema_keys(acw_plus):
    payload = json.loads(verify_quilt(acw_plus).to_json())
    assert {"label", "seams", "boundaries", "areas", "total_area",
            "pass"} <= set(payload)
    assert {"index", "max", "at"} <= set(payload["seams"][0])
    assert {"patch", "value", "err"} <= set(payload["areas"][0])


def test_default_profile_selection(acw_plus, maslov1_pi4):
    assert default_profile(acw_plus) is STRICT_PROFILE
    assert default_profile(maslov1_pi4) is MASLOV1_PROFILE
    twisted = with_blaschke(maslov1_pi4, BlaschkeData((2.0,), maslov1_pi4.h))
    assert default_profile(twisted) is MASLOV1_PROFILE
    bubble = make_eight_bubble_sheet_switch(+1, -1)
    assert default_profile(bubble) is STRICT_PROFILE


@pytest.mark.slow
def test_maslov1_report_passes(maslov1_pi4):
    report = verify_quilt(maslov1_pi4)
    assert report.passed
    assert abs(report.total_area - 0.5) <= 5e-3
    assert all(hc["max"] <= MASLOV1_PROFILE.cr_tol
               for hc in report.holomorphy)


# ---------------------------------------------------------------------------
# sweep

@pytest.fixture(scope="module")
def sweep_h08():
    """sweep_family("all", [0.8]), the x of every top-edge extrapolation it
    asked the strip traces for, and the calls of the adaptive fallbacks."""
    edge_points = []
    fallbacks = []
    top_edge = catalog.StripTraces._top_edge

    def counted_edge(self, x):
        edge_points.extend(x)
        return top_edge(self, x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(catalog.StripTraces, "_top_edge", counted_edge)
        for name in ("log_f", "f_and_derivative", "boundary_modulus"):
            def counted(*args, _fn=getattr(catalog, name), _name=name,
                        **kwargs):
                fallbacks.append(_name)
                return _fn(*args, **kwargs)
            mp.setattr(catalog, name, counted)
        result = sweep_family("all", [0.8], limit_checks=True)
    return result, edge_points, fallbacks


@pytest.mark.slow
def test_sweep_single_height_all_components_pass(sweep_h08):
    result, edge_points, fallbacks = sweep_h08
    assert len(result.reports[0.8]) == 12
    assert result.passed
    # the eight index-one quilts share one top-edge trace: one batched
    # extrapolation per seam sample, and no point needs the adaptive engine
    assert len(edge_points) == MASLOV1_PROFILE.samples == 160
    assert fallbacks == []
    diag = result.diagnostics
    assert diag["const"]["h_to_0_rescale_max"] <= 1e-12
    assert diag["const"]["h_to_pi2_sup_distance"] <= 1e-2
    assert diag["maslov1"]["h_to_0_identity_max"] <= 1e-12
    assert diag["maslov1"]["h_to_pi2_sup_distance"] <= 1e-2


@pytest.mark.slow
def test_sweep_reports_equal_verify_of_their_ids(sweep_h08):
    result, _, _ = sweep_h08
    reports = {r.label: r for r in result.reports[0.8]}
    for label in ("quilt.const.h0.8.pm", "quilt.maslov1.h0.8.v1.m.fplus"):
        assert reports[label].to_dict() == \
            verify_quilt(catalog.resolve(label)).to_dict()


def test_h_to_0_limits_are_a_bijection_onto_the_cp1_strips():
    # Each index-one component's h -> 0 strip has the endpoints of its CP^2
    # patch, so the eight components reach the eight CP^1 strips once each.
    cp1 = build_complex("cp1")
    limits = [limit_strip(q, cp1) for q in catalog.sector_family(0.3)
              if q.family == "maslov1"]
    assert len(limits) == 8
    assert set(limits) == {m.label for m in all_floer_strips()
                           if m.target_dim == 1}
    # the CP^1 maps ignore the sheet sign, so the distance does not move
    assert _maslov1_limit_diagnostics()["h_to_0_identity_max"] == \
        1.6883057536160646e-16


def test_sweep_rejects_bad_heights(monkeypatch):
    def no_family(*args, **kwargs):
        raise AssertionError("a height was computed before the check")
    monkeypatch.setattr(catalog, "sector_family", no_family)
    with pytest.raises(ValueError):
        sweep_family("const", [0.5, 1.6])
    with pytest.raises(ValueError, match="maslov"):
        sweep_family("maslov", [0.5])


def test_sweep_serialization_round_trip():
    result = sweep_family("const", [0.9], limit_checks=False)
    payload = result.to_dict()
    text = json.dumps(payload, sort_keys=True)
    assert json.loads(text)["pass"] == result.passed
