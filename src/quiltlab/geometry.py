"""Complex projective spaces with the monotone Fubini-Study normalization.

Points are stored as canonical unit representatives (first significant
coordinate real and positive).  Membership in the Lagrangians and in the
reduction correspondence is measured by scale-invariant residual functions
whose zero sets are exact; away from zero they are comparable to the chordal
Fubini-Study distance.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

TOL_MEMBERSHIP = 1e-9
TOL_EQUALITY = 1e-12


class InvalidPointError(ValueError):
    pass


class DimensionMismatchError(ValueError):
    pass


# ---------------------------------------------------------------------------
# points

def _unit_rows(rows: np.ndarray) -> np.ndarray:
    rows = np.atleast_2d(np.asarray(rows, dtype=complex))
    norms = np.linalg.norm(rows, axis=1)
    if np.any(norms == 0.0) or not np.all(np.isfinite(norms)):
        raise InvalidPointError("zero or non-finite homogeneous vector")
    return rows / norms[:, None]


def _canonical_rows(rows: np.ndarray) -> np.ndarray:
    rows = _unit_rows(rows)
    out = rows.copy()
    for i, row in enumerate(rows):
        idx = np.flatnonzero(np.abs(row) > 1e-9)
        j = idx[0] if idx.size else int(np.argmax(np.abs(row)))
        phase = row[j] / abs(row[j])
        out[i] = row / phase
    return out


@dataclass(frozen=True)
class ProjectivePoint:
    """A point of CP^n held as its canonical unit representative."""

    coords: tuple[complex, ...]

    @property
    def n(self) -> int:
        return len(self.coords) - 1

    def as_array(self) -> np.ndarray:
        return np.array(self.coords, dtype=complex)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProjectivePoint):
            return NotImplemented
        if len(self.coords) != len(other.coords):
            return False
        return max(abs(a - b) for a, b in
                   zip(self.coords, other.coords)) <= TOL_EQUALITY

    def __hash__(self):
        return hash(tuple(np.round(np.asarray(self.coords), 9).tolist()))


def normalize(raw) -> ProjectivePoint:
    """Canonical representative: unit norm, first significant coordinate
    real and positive."""
    row = _canonical_rows(np.asarray(raw, dtype=complex).reshape(1, -1))[0]
    return ProjectivePoint(tuple(row))


def fs_distance(p: ProjectivePoint, q: ProjectivePoint) -> float:
    if p.n != q.n:
        raise DimensionMismatchError(f"CP^{p.n} point vs CP^{q.n} point")
    return float(_fs_distance_rows(p.as_array()[None, :],
                                   q.as_array()[None, :])[0])


def _fs_distance_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sqrt(1 - |<a,b>|^2) for unit rows, via the wedge (Plucker) norm.

    The wedge form sums |a_j b_k - a_k b_j|^2, which cancels exactly for
    proportional vectors instead of amplifying roundoff through 1-|<a,b>|^2.
    """
    a = _unit_rows(a)
    b = _unit_rows(b)
    k = a.shape[1]
    acc = np.zeros(a.shape[0])
    for j in range(k):
        for l in range(j + 1, k):
            acc += np.abs(a[:, j] * b[:, l] - a[:, l] * b[:, j]) ** 2
    return np.sqrt(np.clip(acc, 0.0, 1.0))


# ---------------------------------------------------------------------------
# Fubini-Study pullback density (monotone normalization: CP^1 has area 2)

def pullback_density(n: int, affine_value, affine_derivative) -> float:
    """Local area density rho(z) of the pulled-back Fubini-Study form, from
    the value and z-derivative of a holomorphic map in an affine chart."""
    v = np.asarray(affine_value, dtype=complex).reshape(-1)
    dv = np.asarray(affine_derivative, dtype=complex).reshape(-1)
    if v.size != n or dv.size != n:
        raise DimensionMismatchError("chart data must have length n")
    s = 1.0 + float(np.sum(np.abs(v) ** 2))
    cross = complex(np.sum(dv * np.conj(v)))
    num = s * float(np.sum(np.abs(dv) ** 2)) - abs(cross) ** 2
    return (n + 1) / math.pi * max(num, 0.0) / (s * s)


def homogeneous_density(values: np.ndarray, derivs: np.ndarray) -> np.ndarray:
    """Density from a holomorphic homogeneous lift; invariant under constant
    rescaling of the lift (rows = sample points)."""
    values = np.atleast_2d(np.asarray(values, dtype=complex))
    derivs = np.atleast_2d(np.asarray(derivs, dtype=complex))
    n = values.shape[1] - 1
    nv = np.sum(np.abs(values) ** 2, axis=1)
    nd = np.sum(np.abs(derivs) ** 2, axis=1)
    cross = np.abs(np.sum(derivs * np.conj(values), axis=1)) ** 2
    num = np.clip(nv * nd - cross, 0.0, None)
    with np.errstate(invalid="ignore", divide="ignore"):
        rho = (n + 1) / math.pi * num / (nv * nv)
    return np.where(nv > 0, rho, 0.0)


# ---------------------------------------------------------------------------
# moment maps

@dataclass(frozen=True)
class MomentValue:
    m1: float
    m2: float

    def as_tuple(self) -> tuple[float, float]:
        return (self.m1, self.m2)


def moment_cp2(p: ProjectivePoint) -> MomentValue:
    if p.n != 2:
        raise DimensionMismatchError("moment_cp2 needs a CP^2 point")
    m = moment_cp2_rows(p.as_array()[None, :])[0]
    return MomentValue(float(m[0]), float(m[1]))


def moment_cp2_rows(rows: np.ndarray) -> np.ndarray:
    rows = np.atleast_2d(np.asarray(rows, dtype=complex))
    sq = np.abs(rows) ** 2
    total = np.sum(sq, axis=1)
    return np.stack([-0.5 * sq[:, 1] / total, -0.5 * sq[:, 2] / total],
                    axis=1)


def moment_cp1_lift(p: ProjectivePoint) -> MomentValue:
    """Moment interval of CP^1 lifted into the CP^2 moment triangle (the
    reduced space sits over the level segment at height -1/6)."""
    if p.n != 1:
        raise DimensionMismatchError("moment_cp1_lift needs a CP^1 point")
    m = moment_cp1_lift_rows(p.as_array()[None, :])[0]
    return MomentValue(float(m[0]), float(m[1]))


def moment_cp1_lift_rows(rows: np.ndarray) -> np.ndarray:
    rows = np.atleast_2d(np.asarray(rows, dtype=complex))
    sq = np.abs(rows) ** 2
    total = np.sum(sq, axis=1)
    m1 = -sq[:, 1] / (3.0 * total)
    return np.stack([m1, np.full_like(m1, -1.0 / 6.0)], axis=1)


# ---------------------------------------------------------------------------
# Lagrangians and the correspondence

class LagrangianId(enum.Enum):
    RP1 = "rp1"
    RP2 = "rp2"
    S1_CLIFFORD = "s1_clifford"
    T2_CLIFFORD = "t2_clifford"
    L_AC = "l_ac"
    GAMMA_IMAGE = "gamma_image"

    @property
    def ambient_dim(self) -> int:
        return {LagrangianId.RP1: 1, LagrangianId.S1_CLIFFORD: 1,
                LagrangianId.GAMMA_IMAGE: 1, LagrangianId.RP2: 2,
                LagrangianId.T2_CLIFFORD: 2, LagrangianId.L_AC: 2}[self]


def _real_up_to_phase_residual(rows: np.ndarray) -> np.ndarray:
    # min over a global phase of ||Im(e^{i phi} p)||, which equals
    # sqrt((1 - |sum p_k^2|)/2).  The minimizing rotation e^{2i phi} =
    # conj(S)/|S| is applied explicitly so near-real points do not lose half
    # their digits to the cancellation in 1 - |S|.
    s = np.sum(rows * rows, axis=1)
    phase = np.exp(-0.5j * np.angle(s))
    rotated = rows * phase[:, None]
    return np.linalg.norm(rotated.imag, axis=1)


def _clifford_residual(rows: np.ndarray) -> np.ndarray:
    # the largest gap between two coordinate moduli squared
    sq = np.abs(rows) ** 2
    return np.max(sq, axis=1) - np.min(sq, axis=1)


def _l_ac_residual(rows: np.ndarray) -> np.ndarray:
    # Membership in phase-normal form [A+iB : i sqrt(2) C : A-iB] is
    # equivalent to |p0| = |p2| and s = p1^2 conj(p0 p2) in R_{<=0}.
    sq = np.abs(rows) ** 2
    s = rows[:, 1] ** 2 * np.conj(rows[:, 0] * rows[:, 2])
    gap = np.abs(sq[:, 0] - sq[:, 2])
    phase = np.abs(s.imag) + np.clip(s.real, 0.0, None)
    return np.maximum(gap, phase)


def lagrangian_residual(lid: LagrangianId, p: ProjectivePoint) -> float:
    if p.n != lid.ambient_dim:
        raise DimensionMismatchError(
            f"{lid.name} lives in CP^{lid.ambient_dim}, got CP^{p.n} point")
    return float(lagrangian_residual_rows(lid, p.as_array()[None, :])[0])


def lagrangian_residual_rows(lid: LagrangianId, rows: np.ndarray) -> np.ndarray:
    rows = _unit_rows(rows)
    if rows.shape[1] != lid.ambient_dim + 1:
        raise DimensionMismatchError(
            f"{lid.name} expects vectors of length {lid.ambient_dim + 1}")
    if lid in (LagrangianId.RP1, LagrangianId.RP2, LagrangianId.GAMMA_IMAGE):
        # GAMMA_IMAGE is the immersed double cover; its image is RP^1, which
        # is all a pointwise residual can see (sheets live in the Floer side).
        return _real_up_to_phase_residual(rows)
    if lid in (LagrangianId.S1_CLIFFORD, LagrangianId.T2_CLIFFORD):
        return _clifford_residual(rows)
    if lid is LagrangianId.L_AC:
        return _l_ac_residual(rows)
    raise ValueError(lid)


def correspondence_residual_parts(p1, p2) -> tuple[float, float | None]:
    """(level residual, projection residual) for ((p1, p2) in the reduction
    correspondence); projection is None when p2 = [0:0:1]."""
    level, proj, defined = correspondence_residual_rows(*(
        np.asarray(p.as_array() if isinstance(p, ProjectivePoint) else p,
                   dtype=complex).reshape(1, -1) for p in (p1, p2)))
    return float(level[0]), (float(proj[0]) if defined[0] else None)


def correspondence_residual(p1, p2) -> float:
    level, proj = correspondence_residual_parts(p1, p2)
    return level if proj is None else max(level, proj)


def correspondence_residual_rows(rows1: np.ndarray, rows2: np.ndarray):
    """Vectorized parts: returns (level, projection, projection_defined).

    level = |2|Z|^2 - |X|^2 - |Y|^2| on the unit representative of the CP^2
    point; projection = chordal distance from [X:Y] to the CP^1 point.
    """
    rows1 = _unit_rows(rows1)
    rows2 = _unit_rows(rows2)
    sq = np.abs(rows2) ** 2
    level = np.abs(2.0 * sq[:, 2] - sq[:, 0] - sq[:, 1])
    head = rows2[:, :2]
    head_norm = np.linalg.norm(head, axis=1)
    defined = head_norm > 1e-9
    proj = np.zeros(rows2.shape[0])
    if np.any(defined):
        safe = head[defined] / head_norm[defined, None]
        proj[defined] = _fs_distance_rows(safe, rows1[defined])
    return level, proj, defined
