"""Mod-2 chain groups on the four intersection generators, with
differentials derived from the maps of the catalog's rigid strips.

``endpoints`` reads a strip's endpoints off its bottom edge, for a strip
into CP^1 through its lift to the double cover 2 C^2 = A^2 + B^2.  C never
vanishes, so the lift stays on one sheet, which a CP^1 strip's id names.

The CP^2 side pairs the real locus with the Clifford torus: its matrix is
all-ones minus identity and squares to the identity (a matrix
factorization, not a complex).  The CP^1 side pairs the immersed double
cover with the Clifford circle, and its differential squares to zero.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .catalog import SIGNS, AnalyticMap, all_floer_strips
from .geometry import _fs_distance_rows

GENERATORS = ("p++", "p+-", "p-+", "p--")
_GENERATOR_ROWS = np.array([[1, s1, s2] for s1 in (1, -1) for s2 in (1, -1)],
                           dtype=float)


class EndpointError(ValueError):
    """A strip end that lies on no generator."""


class FloerSide(enum.Enum):
    CP1_GAMMA = "cp1"
    CP2_RP2 = "cp2"


@dataclass(frozen=True)
class FloerComplex:
    side: FloerSide
    generators: tuple[str, ...]
    differential: tuple[tuple[int, ...], ...]   # rows; entry [i][j] = <d e_j, e_i>
    provenance: dict

    def index(self, generator: str) -> int:
        if generator not in self.generators:
            raise KeyError(f"unknown generator {generator!r}")
        return self.generators.index(generator)

    def matrix(self) -> np.ndarray:
        return np.array(self.differential, dtype=int)

    def column(self, generator: str) -> dict[str, int]:
        j = self.index(generator)
        m = self.matrix()
        return {g: int(m[i, j]) for i, g in enumerate(self.generators)}


def endpoints(m: AnalyticMap, sheet: int = +1) -> tuple[str, str]:
    """(source, target): the generators within 1e-10 in the Fubini-Study
    distance of the bottom edge at Re z = -40 and +40 (or -+``x_cap``),
    EndpointError if there is none.  For a CP^1 strip the ends are those of
    its lift (A, B, C): the real representative (A, B) on 1601 edge points,
    continued by the product of the signs of consecutive overlaps and taken
    with A > 0 at the target, and C = sheet * sqrt((A^2 + B^2) / 2)."""
    x = min(40.0, m.x_cap)
    if m.target_dim == 2:
        ends = m.values(np.array([-x, x]) + 0j)
    else:
        rows = m.values(np.linspace(-x, x, 1601) + 0j)
        big = rows[np.arange(len(rows)), np.argmax(np.abs(rows), axis=1)]
        real = (rows * (np.abs(big) / big)[:, None]).real
        turn = np.prod(np.sign(np.sum(real[1:] * real[:-1], axis=1)))
        ends = real[[0, -1]] * np.array([[turn], [1.0]]) * np.sign(real[-1, 0])
        ends = np.column_stack([ends, sheet * np.sqrt(
            np.sum(ends ** 2, axis=1) / 2.0)])
    dist = _fs_distance_rows(np.repeat(ends, 4, axis=0),
                             np.tile(_GENERATOR_ROWS, (2, 1))).reshape(2, 4)
    far = dist.min(axis=1).max()
    if far > 1e-10:
        raise EndpointError(f"{m.label}: a bottom-edge end lies {far:.3g} "
                            "from every generator")
    src, dst = np.argmin(dist, axis=1)
    return GENERATORS[src], GENERATORS[dst]


def build_complex(side: FloerSide | str) -> FloerComplex:
    """The differential of ``side``: one arrow per rigid strip, from the
    endpoints of its map; a CP^1 strip's lift ends on the sheet that the
    last sign of its id names."""
    side = FloerSide(side)
    counts = np.zeros((4, 4), dtype=int)
    provenance: dict[tuple[str, str], list[str]] = {}
    dim = 2 if side is FloerSide.CP2_RP2 else 1
    for strip in (s for s in all_floer_strips() if s.target_dim == dim):
        src, dst = endpoints(strip, SIGNS[strip.label[-1]])
        counts[GENERATORS.index(dst), GENERATORS.index(src)] += 1
        provenance.setdefault((src, dst), []).append(strip.label)
    matrix = tuple(tuple(int(v) % 2 for v in row) for row in counts)
    return FloerComplex(side=side, generators=GENERATORS,
                        differential=matrix, provenance=provenance)


def differential_square(complex_: FloerComplex) -> np.ndarray:
    m = complex_.matrix()
    return (m @ m) % 2


def strip_count(complex_: FloerComplex, src: str, dst: str):
    """Mod-2 strip count from src to dst, with the witnessing strip labels."""
    i, j = complex_.index(dst), complex_.index(src)
    witnesses = complex_.provenance.get((src, dst), [])
    return complex_.differential[i][j], list(witnesses)


def homology_dimension(complex_: FloerComplex) -> int:
    """dim ker d - rank d over Z/2; ValueError unless d squares to zero."""
    if differential_square(complex_).any():
        raise ValueError(f"the {complex_.side.value} differential does not "
                         "square to zero, so it has no homology")
    return len(complex_.generators) - 2 * _rank_mod2(complex_.matrix() % 2)


def _rank_mod2(m: np.ndarray) -> int:
    """Rank over Z/2 by elimination in place."""
    rows, cols = m.shape
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i, c]), None)
        if pivot is None:
            continue
        m[[r, pivot]] = m[[pivot, r]]
        for i in range(rows):
            if i != r and m[i, c]:
                m[i] = (m[i] + m[r]) % 2
        r += 1
    return r


def format_matrix(m: np.ndarray, generators=GENERATORS) -> str:
    head = "      " + "  ".join(f"{g:>4}" for g in generators)
    lines = [head]
    for g, row in zip(generators, np.asarray(m)):
        lines.append(f"{g:>4} | " + "  ".join(f"{int(v):>4}" for v in row))
    return "\n".join(lines)


def format_provenance(complex_: FloerComplex) -> str:
    lines = ["source -> target : strips"]
    for (src, dst), labels in sorted(complex_.provenance.items()):
        lines.append(f"{src} -> {dst} : {', '.join(labels)}")
    return "\n".join(lines)
