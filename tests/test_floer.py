"""Chain-group combinatorics, with every arrow derived from a map by
``floer.endpoints``: bottom-edge limits for the CP^2 side, and continuation
of the real boundary lift through the double cover for the CP^1 side."""

import dataclasses
import itertools

import numpy as np
import pytest

from quiltlab import floer
from quiltlab.catalog import (HALF_PI, _constant,
                              make_eight_bubble_sheet_switch,
                              make_floer_strip_cp1, make_floer_strip_cp2,
                              make_maslov1_quilt, sector_family, strip)
from quiltlab.cli import main
from quiltlab.floer import (GENERATORS, EndpointError, FloerSide,
                            build_complex, differential_square, endpoints,
                            format_matrix, format_provenance,
                            homology_dimension, strip_count)
from quiltlab.geometry import fs_distance, normalize


def _generator_point(label):
    s1 = +1 if label[1] == "+" else -1
    s2 = +1 if label[2] == "+" else -1
    return normalize([1.0, s1, s2])


# ---------------------------------------------------------------------------
# structure of the two complexes

def test_cp2_strip_count_is_twelve():
    cx = build_complex(FloerSide.CP2_RP2)
    assert sum(len(v) for v in cx.provenance.values()) == 12


def test_cp1_strip_count_is_eight():
    cx = build_complex(FloerSide.CP1_GAMMA)
    assert sum(len(v) for v in cx.provenance.values()) == 8


def test_cp2_differential_is_all_ones_minus_identity():
    cx = build_complex("cp2")
    expected = np.ones((4, 4), dtype=int) - np.eye(4, dtype=int)
    assert (cx.matrix() == expected).all()


def test_cp2_column_weights_are_three():
    cx = build_complex("cp2")
    assert (cx.matrix().sum(axis=0) == 3).all()


def test_cp1_column_weights_are_two():
    cx = build_complex("cp1")
    assert (cx.matrix().sum(axis=0) == 2).all()


def test_differential_squares():
    assert (differential_square(build_complex("cp2"))
            == np.eye(4, dtype=int)).all()
    assert not differential_square(build_complex("cp1")).any()


def test_square_matches_brute_force_double_sum():
    for side in ("cp1", "cp2"):
        cx = build_complex(side)
        m = cx.matrix()
        brute = np.zeros((4, 4), dtype=int)
        for i, j in itertools.product(range(4), repeat=2):
            brute[i, j] = sum(m[i, k] * m[k, j] for k in range(4)) % 2
        assert (differential_square(cx) == brute).all()


def test_every_nonzero_entry_has_exactly_one_witness():
    for side in ("cp1", "cp2"):
        cx = build_complex(side)
        for (src, dst), witnesses in cx.provenance.items():
            assert len(witnesses) == 1
        m = cx.matrix()
        for i, dst in enumerate(GENERATORS):
            for j, src in enumerate(GENERATORS):
                count, witnesses = strip_count(cx, src, dst)
                assert count == m[i, j]
                assert len(witnesses) == count


def test_strip_count_examples():
    cp2 = build_complex("cp2")
    count, via = strip_count(cp2, "p--", "p++")
    assert count == 1 and via == ["floer.cp2.u0.pp"]
    count, via = strip_count(cp2, "p+-", "p++")
    assert count == 1 and via == ["floer.cp2.u2.pp"]
    count, via = strip_count(cp2, "p-+", "p++")
    assert count == 1 and via == ["floer.cp2.u1.pp"]
    cp1 = build_complex("cp1")
    count, via = strip_count(cp1, "p++", "p++")
    assert count == 0 and via == []


def test_strip_count_rejects_unknown_labels():
    with pytest.raises(KeyError):
        strip_count(build_complex("cp1"), "p00", "p++")


def test_cp1_homology_vanishes():
    cx = build_complex("cp1")
    # rank 2 over Z/2, so ker = im and the homology is zero-dimensional
    assert homology_dimension(cx) == 0


def test_homology_needs_a_differential_that_squares_to_zero():
    # d_CP2 squares to the identity: 4 - 2 rank d would read -4
    with pytest.raises(ValueError, match="square to zero"):
        homology_dimension(build_complex("cp2"))


def test_column_rejects_unknown_generators():
    with pytest.raises(KeyError):
        build_complex("cp1").column("p00")


def test_formatters_render():
    cx = build_complex("cp2")
    text = format_matrix(cx.matrix())
    assert "p++" in text and "p--" in text
    assert "floer.cp2.u0.pp" in format_provenance(cx)


# ---------------------------------------------------------------------------
# endpoints derived from the maps

def test_cp2_endpoints_match_numerical_limits():
    for i in (0, 1, 2):
        for s1 in (+1, -1):
            for s2 in (+1, -1):
                strip_map = make_floer_strip_cp2(i, s1, s2)
                src, dst = endpoints(strip_map)
                for x, label in ((-40.0, src), (40.0, dst)):
                    assert fs_distance(strip_map.point(complex(x, 0.3)),
                                       _generator_point(label)) <= 1e-10


def test_cp1_arrows_match_cover_continuation_oracle():
    # The lift of one CP^1 formula ends on the sheet its id names, and the
    # continuation does not see the representative of each boundary point:
    # rows scaled by random complex numbers, signs included, give the same
    # arrows, also with B made the larger coordinate at both ends by 1e-12,
    # so that the largest entry fixes a representative with A < 0 there.
    rng = np.random.default_rng(8)
    for i in (0, 1):
        for s1 in (+1, -1):
            base = make_floer_strip_cp1(i, s1, +1)

            def scaled(z, deriv, _base=base):
                scale = rng.uniform(0.5, 2.0, z.size) * \
                    np.exp(2j * np.pi * rng.uniform(size=z.size))
                return _base.evaluate(z, deriv) * scale[:, None] * \
                    np.array([1.0, 1.0 + 1e-12])

            rescaled = dataclasses.replace(base, evaluate=scaled)
            arrows = set()
            for s2 in (+1, -1):
                src, dst = endpoints(make_floer_strip_cp1(i, s1, s2), s2)
                assert dst == f"p{'+-'[s1 < 0]}{'+-'[s2 < 0]}"
                assert endpoints(rescaled, s2) == (src, dst)
                arrows.add((src, dst))
            assert len(arrows) == 2


def test_cp1_differential_columns_frozen_from_oracle():
    # transcribed once from the cover continuation: both signs flip via the
    # sheet-switching strips, the first sign flips via the moving family
    cx = build_complex("cp1")
    assert cx.column("p++") == {"p++": 0, "p+-": 0, "p-+": 1, "p--": 1}
    assert cx.column("p+-") == {"p++": 0, "p+-": 0, "p-+": 1, "p--": 1}
    assert cx.column("p-+") == {"p++": 1, "p+-": 1, "p-+": 0, "p--": 0}
    assert cx.column("p--") == {"p++": 1, "p+-": 1, "p-+": 0, "p--": 0}


def test_an_end_off_the_generators_raises():
    region = strip(0.0, HALF_PI)
    # 1e-12 off the generator p++ is within the 1e-10 tolerance, 1e-8 is not
    assert endpoints(_constant("near", region, (1, 1, 1 + 1e-12))) == \
        ("p++", "p++")
    for signs in ((1, 1, 1 + 1e-8), (1, 0.5, 1), (1, 0.5)):
        with pytest.raises(EndpointError):
            endpoints(_constant("off", region, signs))


def test_endpoints_at_small_height_are_a_typed_edge():
    # a quadrature-backed patch's x_cap, 1280 h / pi, clips its ends short
    # of Re z = 40: at h = 0.05 they stop 1.2e-9 from their generators
    def ends(h):
        return endpoints(make_maslov1_quilt(h, 0, +1, -1).patches[0])

    with pytest.raises(EndpointError):
        ends(0.05)
    assert all(end in GENERATORS for end in ends(0.1))


def test_a_flipped_sign_moves_a_derived_column(monkeypatch, capsys):
    # the map of floer.cp2.u0.pp (p-- -> p++) with its second coordinate
    # negated runs p+- -> p-+: the arrow follows the map, not the id
    strips = floer.all_floer_strips()
    k = next(k for k, m in enumerate(strips) if m.label == "floer.cp2.u0.pp")
    base = strips[k]

    def flipped(z, deriv):
        return base.evaluate(z, deriv) * np.array([1, -1, 1])

    strips[k] = dataclasses.replace(base, evaluate=flipped)
    before = build_complex("cp2")
    monkeypatch.setattr(floer, "all_floer_strips", lambda: list(strips))
    after = build_complex("cp2")
    assert before.column("p--")["p++"] == 1
    assert after.column("p--")["p++"] == 0
    assert after.column("p+-")["p-+"] == 0    # two witnesses now
    assert main(["floer", "--side", "cp2"]) == 1
    out = capsys.readouterr().out
    assert "squares to identity with 12 strips: False" in out


def test_cobordism_ends_give_d_cp2_as_d_cp1_plus_bubbles():
    # Each of the twelve components at one height joins its CP^2 strip at
    # h -> pi/2 to a CP^1 strip or a sheet-switching bubble at h -> 0 with
    # the same endpoints, all read off the maps, so d_CP2 = d_CP1 + B.
    family = sector_family(0.5)
    arrows = {q.label: endpoints(q.patches[0]) for q in family}
    cp2, cp1 = build_complex("cp2"), build_complex("cp1")
    bubbles = [make_eight_bubble_sheet_switch(s1, s2)
               for s1 in (+1, -1) for s2 in (+1, -1)]
    bubble_arrows = [endpoints(b.patches[0]) for b in bubbles]

    assert sorted(arrows.values()) == sorted(cp2.provenance)
    assert sorted(arrows[q.label] for q in family
                  if q.family == "maslov1") == sorted(cp1.provenance)
    assert sorted(arrows[q.label] for q in family
                  if q.family == "const") == sorted(bubble_arrows)
    bubble = np.zeros((4, 4), dtype=int)
    for src, dst in bubble_arrows:
        bubble[GENERATORS.index(dst), GENERATORS.index(src)] += 1
    assert ((cp1.matrix() + bubble) % 2 == cp2.matrix()).all()
    assert (differential_square(cp2) == np.eye(4, dtype=int)).all()
    assert not differential_square(cp1).any()
