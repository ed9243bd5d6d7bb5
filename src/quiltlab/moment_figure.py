"""Moment-triangle figure data: projections of the correspondence, the
torus-isotopic boundary Lagrangian, and the two quilt patches, with exact
residuals against the closed-form segments and ellipse arc.

All layers are produced by evaluating the catalog maps and applying the
moment maps; the closed forms enter only as residual checks.  CSV output is
RFC-4180 (CRLF, header row) and byte-deterministic for a fixed grid.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import catalog as cat
from .geometry import moment_cp1_lift_rows, moment_cp2_rows

TRIANGLE = ((0.0, 0.0), (-0.5, 0.0), (0.0, -0.5))
LAMBDA_SEGMENT = ((-1.0 / 3.0, -1.0 / 6.0), (0.0, -1.0 / 6.0))
LAC_SEGMENT = ((-0.5, 0.0), (0.0, -0.25))

# 100 x^2 + 16 x y + 16 y^2 + 20 x + 8 y + 1, vanishing on the right edge of
# the strip patch projection between (0, -1/4) and (-1/150, -1/6).
ELLIPSE_COEFFS = (100, 16, 16, 20, 8, 1)


def ellipse_residual(x, y):
    """The ellipse polynomial, exact on Fractions."""
    a, b, c, d, e, f = ELLIPSE_COEFFS
    return a * x * x + b * x * y + c * y * y + d * x + e * y + f


ellipse_residual_exact = ellipse_residual


def lac_line_residual(x, y):
    # the segment between (-1/2, 0) and (0, -1/4) lies on 2x + 4y + 1 = 0
    return 2.0 * x + 4.0 * y + 1.0


def lambda_line_residual(x, y):
    return y + 1.0 / 6.0


@dataclass
class FigureData:
    triangle: tuple
    lambda_segment: np.ndarray          # (n, 3): x, y, line residual
    lac_segment: np.ndarray             # (n, 3)
    u2_right_edge: np.ndarray           # (n, 3): x, y, ellipse residual
    u2_bottom_edge: np.ndarray          # (n, 3): x, y, lac-line residual
    u2_top_edge: np.ndarray             # (n, 3): x, y, lambda-line residual
    u1_segment: np.ndarray              # (n, 3): x, y, lambda-line residual
    symmetry_pairs: np.ndarray          # (n, 4): m(x+iy), m(-x+iy)

    def max_triangle_violation(self) -> float:
        worst = 0.0
        for layer in (self.lambda_segment, self.lac_segment,
                      self.u2_right_edge, self.u2_bottom_edge,
                      self.u2_top_edge, self.u1_segment):
            x, y = layer[:, 0], layer[:, 1]
            worst = max(worst, float(np.max(x)), float(np.max(y)),
                        float(np.max(-(x + y) - 0.5)))
        return worst


def emit_moment_figure(grid: int = 200) -> FigureData:
    """Project the positive-sign explicit quilted half-plane and the two
    Lagrangian loci to the moment triangle."""
    quilt = cat.make_acw_quilt(+1)
    u2, u1 = quilt.patches[0], quilt.patches[1]
    n = grid

    # correspondence locus: lifted CP^1 moment segment
    theta = np.linspace(0.0, math.pi / 2.0, n)
    cp1_pts = np.stack([np.cos(theta) + 0j, np.sin(theta) + 0j], axis=1)
    lam = moment_cp1_lift_rows(cp1_pts)
    lam_res = lambda_line_residual(lam[:, 0], lam[:, 1])
    lambda_layer = np.column_stack([lam, lam_res])

    # boundary Lagrangian locus [A+iB : i sqrt2 C : A-iB]
    tt = np.linspace(0.0, math.pi / 2.0, n)
    a = np.cos(tt)
    c = np.sin(tt)
    lac_pts = np.stack([a + 0j, 1j * math.sqrt(2.0) * c, a + 0j], axis=1)
    lac = moment_cp2_rows(lac_pts)
    lac_res = lac_line_residual(lac[:, 0], lac[:, 1])
    lac_layer = np.column_stack([lac, lac_res])

    # strip patch edges
    y_seam = quilt.seams[0].y
    ys = np.linspace(0.0, y_seam, n)
    right = moment_cp2_rows(u2.values(1j * ys))
    right_layer = np.column_stack(
        [right, ellipse_residual(right[:, 0], right[:, 1])])

    xs = np.tan(np.linspace(0.0, math.atan(150.0), n))
    bottom = moment_cp2_rows(u2.values(xs + 0j))
    bottom_layer = np.column_stack(
        [bottom, lac_line_residual(bottom[:, 0], bottom[:, 1])])
    top = moment_cp2_rows(u2.values(xs + 1j * y_seam))
    top_layer = np.column_stack(
        [top, lambda_line_residual(top[:, 0], top[:, 1])])

    # half-plane patch: its projection fills a sub-segment of the
    # correspondence segment
    ys1 = y_seam + np.tan(np.linspace(0.0, math.atan(200.0), n))
    u1_rows = moment_cp1_lift_rows(u1.values(1j * ys1))
    u1_layer = np.column_stack(
        [u1_rows, lambda_line_residual(u1_rows[:, 0], u1_rows[:, 1])])

    # mirror pairs m(u2(x+iy)) vs m(u2(-x+iy))
    xg = np.linspace(0.25, 40.0, 10)
    yg = np.linspace(0.05, y_seam * 0.95, 10)
    zz = (xg[:, None] + 1j * yg[None, :]).ravel()
    m_pos = moment_cp2_rows(u2.values(zz))
    m_neg = moment_cp2_rows(u2.values(-zz.real + 1j * zz.imag))
    pairs = np.column_stack([m_pos, m_neg])

    return FigureData(
        triangle=TRIANGLE, lambda_segment=lambda_layer,
        lac_segment=lac_layer, u2_right_edge=right_layer,
        u2_bottom_edge=bottom_layer, u2_top_edge=top_layer,
        u1_segment=u1_layer, symmetry_pairs=pairs)


# ---------------------------------------------------------------------------
# serialization

_LAYERS = (
    ("figure_triangle.csv", "triangle", ("x", "y")),
    ("figure_lambda.csv", "lambda_segment", ("x", "y", "residual")),
    ("figure_lac.csv", "lac_segment", ("x", "y", "residual")),
    ("figure_u2_right_edge.csv", "u2_right_edge", ("x", "y", "residual")),
    ("figure_u2_bottom_edge.csv", "u2_bottom_edge", ("x", "y", "residual")),
    ("figure_u2_top_edge.csv", "u2_top_edge", ("x", "y", "residual")),
    ("figure_u1_segment.csv", "u1_segment", ("x", "y", "residual")),
    ("figure_symmetry_pairs.csv", "symmetry_pairs",
     ("x_pos", "y_pos", "x_neg", "y_neg")),
)


def _fmt(v: float) -> str:
    return format(float(v), ".15g")


def figure_csv_strings(fig: FigureData) -> dict[str, str]:
    out = {}
    for fname, attr, header in _LAYERS:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\r\n")
        w.writerow(header)
        for row in getattr(fig, attr):
            w.writerow(tuple(_fmt(v) for v in row))
        out[fname] = buf.getvalue()
    return out


def write_figure_csvs(fig: FigureData, outdir) -> list[Path]:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, text in figure_csv_strings(fig).items():
        path = outdir / name
        path.write_text(text, encoding="ascii", newline="")
        paths.append(path)
    return paths


def figure_svg(fig: FigureData) -> str:
    """Static SVG of the triangle, the two Lagrangian segments, the strip
    patch projection boundary, and the half-plane patch segment."""
    width, height = 640, 640
    pad = 60.0
    xmin, xmax = -0.55, 0.05
    ymin, ymax = -0.55, 0.05
    sx = (width - 2 * pad) / (xmax - xmin)
    sy = (height - 2 * pad) / (ymax - ymin)

    def pt(x, y):
        return (pad + (x - xmin) * sx, height - pad - (y - ymin) * sy)

    def coords(rows):
        return " ".join(f"{px:.2f},{py:.2f}" for px, py in
                        (pt(r[0], r[1]) for r in rows))

    def poly(rows, color, swidth):
        return (f'<polyline points="{coords(rows)}" fill="none" '
                f'stroke="{color}" stroke-width="{swidth}"/>')

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<polygon points="{coords(fig.triangle)}" fill="#d8ecf7" '
        'stroke="#7fb2d6" stroke-width="1.5"/>',
    ]
    shade = np.vstack([fig.u2_bottom_edge[::-1, :2], fig.u2_right_edge[:, :2],
                       fig.u2_top_edge[:, :2]])
    parts.append(f'<polygon points="{coords(shade)}" fill="#c9c9c9" '
                 'fill-opacity="0.65" stroke="none"/>')
    parts.append(poly(fig.lambda_segment, "#2c62c9", "2.5"))
    parts.append(poly(fig.lac_segment, "#c93030", "2.5"))
    parts.append(poly(fig.u2_right_edge, "#555555", "1.5"))
    parts.append(poly(fig.u1_segment, "#2e9e4f", "3"))
    parts.append("</svg>")
    return "\n".join(parts)
