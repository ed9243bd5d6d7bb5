from fractions import Fraction

import numpy as np
import pytest

from quiltlab.catalog import make_acw_quilt
from quiltlab.geometry import _fs_distance_rows, moment_cp2_rows
from quiltlab.moment_figure import (TRIANGLE, ellipse_residual,
                                    emit_moment_figure, figure_csv_strings,
                                    figure_svg, write_figure_csvs)


@pytest.fixture(scope="module")
def fig():
    return emit_moment_figure(grid=150)


def test_triangle_vertices():
    assert TRIANGLE == ((0.0, 0.0), (-0.5, 0.0), (0.0, -0.5))


def test_lambda_segment_endpoints(fig):
    ends = {tuple(np.round(fig.lambda_segment[i, :2], 14))
            for i in (0, -1)}
    assert ends == {(0.0, round(-1 / 6, 14)), (round(-1 / 3, 14),
                                               round(-1 / 6, 14))}
    assert np.max(np.abs(fig.lambda_segment[:, 2])) <= 1e-12


def test_lac_segment_endpoints(fig):
    pts = fig.lac_segment[:, :2]
    assert np.min(np.abs(pts - np.array([-0.5, 0.0])).sum(axis=1)) <= 1e-12
    assert np.min(np.abs(pts - np.array([0.0, -0.25])).sum(axis=1)) <= 1e-12
    assert np.max(np.abs(fig.lac_segment[:, 2])) <= 1e-12


def test_ellipse_vanishes_exactly_in_rational_arithmetic():
    assert ellipse_residual(Fraction(-1, 150), Fraction(-1, 6)) == 0
    assert ellipse_residual(Fraction(0), Fraction(-1, 4)) == 0


def test_right_edge_lies_on_ellipse(fig):
    assert np.max(np.abs(fig.u2_right_edge[:, 2])) <= 1e-12
    first = fig.u2_right_edge[0, :2]
    last = fig.u2_right_edge[-1, :2]
    assert first == pytest.approx((0.0, -0.25), abs=1e-14)
    assert last == pytest.approx((-1 / 150, -1 / 6), abs=1e-14)


def test_strip_corner_projection():
    q = make_acw_quilt(+1)
    m = moment_cp2_rows(q.patches[0].values(0.0))[0]
    assert tuple(m) == pytest.approx((0.0, -0.25), abs=1e-14)
    assert _fs_distance_rows(q.patches[0].values(np.array([0.0 + 0j])),
                             [[1, 0, -1]])[0] <= 1e-12


def test_patch_edges_lie_on_their_segments(fig):
    assert np.max(np.abs(fig.u2_bottom_edge[:, 2])) <= 1e-12
    assert np.max(np.abs(fig.u2_top_edge[:, 2])) <= 1e-12
    assert np.max(np.abs(fig.u1_segment[:, 2])) <= 1e-12


def test_mirror_symmetry_of_projections(fig):
    gap = np.abs(fig.symmetry_pairs[:, :2] - fig.symmetry_pairs[:, 2:])
    assert np.max(gap) <= 1e-12


def test_everything_inside_triangle(fig):
    assert fig.max_triangle_violation() <= 1e-12


def test_csv_output_is_deterministic(fig):
    again = emit_moment_figure(grid=150)
    a = figure_csv_strings(fig)
    b = figure_csv_strings(again)
    assert a.keys() == b.keys()
    for key in a:
        assert a[key] == b[key], key


def test_csv_format_is_rfc4180(fig):
    text = figure_csv_strings(fig)["figure_lambda.csv"]
    assert text.startswith("x,y,residual\r\n")
    assert text.endswith("\r\n")


def test_csv_files_written(tmp_path, fig):
    paths = write_figure_csvs(fig, tmp_path)
    assert len(paths) == 8
    for p in paths:
        assert p.exists() and p.stat().st_size > 0


def test_svg_is_pure_function_of_figure_data(fig):
    assert figure_svg(fig) == figure_svg(fig)
    text = figure_svg(fig)
    assert text.startswith("<svg") and text.endswith("</svg>")
    assert "<script" not in text
