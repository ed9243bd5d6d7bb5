"""Mod-2 chain groups on the four intersection generators, with differentials
assembled from the catalog's rigid strips.

The CP^2 side pairs the real locus with the Clifford torus: every generator
receives one strip from each of the three coordinate families, the matrix is
all-ones minus identity, and it squares to the identity (a matrix
factorization, not a complex).  The CP^1 side pairs the immersed double cover
with the Clifford circle: the strip endpoints, with the boundary lift
tracked through the cover, flip the first sign (moving-coordinate family)
or both signs (sheet-switching family), and the differential squares to
zero.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .catalog import all_floer_strips

GENERATORS = ("p++", "p+-", "p-+", "p--")


class FloerSide(enum.Enum):
    CP1_GAMMA = "cp1"
    CP2_RP2 = "cp2"


@dataclass(frozen=True)
class FloerComplex:
    side: FloerSide
    generators: tuple[str, ...]
    differential: tuple[tuple[int, ...], ...]   # rows; entry [i][j] = <d e_j, e_i>
    provenance: dict

    def matrix(self) -> np.ndarray:
        return np.array(self.differential, dtype=int)

    def column(self, generator: str) -> dict[str, int]:
        j = self.generators.index(generator)
        m = self.matrix()
        return {g: int(m[i, j]) for i, g in enumerate(self.generators)}


def build_complex(side: FloerSide | str) -> FloerComplex:
    side = FloerSide(side) if not isinstance(side, FloerSide) else side
    counts = np.zeros((4, 4), dtype=int)
    provenance: dict[tuple[str, str], list[str]] = {}
    dim = 2 if side is FloerSide.CP2_RP2 else 1
    for strip in (s for s in all_floer_strips() if s.target_dim == dim):
        src, dst = strip.endpoints
        i, j = GENERATORS.index(dst), GENERATORS.index(src)
        counts[i, j] += 1
        provenance.setdefault((src, dst), []).append(strip.label)
    matrix = tuple(tuple(int(v) % 2 for v in row) for row in counts)
    return FloerComplex(side=side, generators=GENERATORS,
                        differential=matrix, provenance=provenance)


def differential_square(complex_: FloerComplex) -> np.ndarray:
    m = complex_.matrix()
    return (m @ m) % 2


def strip_count(complex_: FloerComplex, src: str, dst: str):
    """Mod-2 strip count from src to dst, with the witnessing strip labels."""
    for g in (src, dst):
        if g not in complex_.generators:
            raise KeyError(f"unknown generator {g!r}")
    i, j = complex_.generators.index(dst), complex_.generators.index(src)
    witnesses = complex_.provenance.get((src, dst), [])
    return complex_.differential[i][j], list(witnesses)


def homology_dimension(complex_: FloerComplex) -> int:
    """dim ker d - rank d over Z/2 (meaningful when d squares to zero)."""
    m = complex_.matrix() % 2
    rank = _rank_mod2(m.copy())
    return m.shape[0] - 2 * rank


def _rank_mod2(m: np.ndarray) -> int:
    rank = 0
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
        rank += 1
    return rank


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
