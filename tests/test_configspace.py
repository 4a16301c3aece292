import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envydiv.complexes import build_complex, chessboard, for_space, gorbushka_join, join_power
from envydiv.configspace import (
    DEGENERACY_TOL,
    ConfigPoint,
    Cut,
    ZPoint,
    _barycentric_point,
    _face_point,
    _known_cut,
    act,
    canonicalize,
    cut_to_z,
    degenerate_and_essential,
    partition_equivalent,
    point_from_barycentric,
    z_to_cut,
)

import oracles


def lengths() -> st.SearchStrategy:
    return st.integers(min_value=0, max_value=20)


@st.composite
def random_cuts(draw, max_tiles=6):
    n = draw(st.integers(min_value=2, max_value=max_tiles))
    weights = draw(
        st.lists(st.floats(0, 1, allow_nan=False), min_size=n, max_size=n).filter(
            lambda ws: sum(ws) > 0.1
        )
    )
    total = sum(weights)
    z = tuple(w / total for w in weights)
    return z_to_cut(ZPoint(z))


def test_cut_validation():
    with pytest.raises(ValueError):
        Cut((0.5, 0.4))
    with pytest.raises(ValueError):
        Cut((-0.2, 0.4))
    with pytest.raises(ValueError):
        Cut((0.5, 1.2))
    # every check states what valid input meets, so a NaN fails it
    for points in ((math.nan,), (0.2, math.nan, 0.5), (0.2, 0.5, math.nan)):
        with pytest.raises(ValueError):
            Cut(points)
    assert Cut(()).tile_count == 1


def test_cut_to_z_forced_differences():
    z = cut_to_z(Cut((0.25, 1 / 3, 2 / 3, 0.75)))
    expected = (0.25, 1 / 12, 1 / 3, 1 / 12, 0.25)
    assert np.allclose(z.lengths, expected, atol=1e-12)
    assert cut_to_z(Cut((0.0, 0.0))).lengths == (0.0, 0.0, 1.0)
    assert np.allclose(cut_to_z(Cut((1 / 3, 2 / 3))).lengths, (1 / 3, 1 / 3, 1 / 3))


def test_z_to_cut_examples():
    assert z_to_cut(ZPoint((1.0, 0.0, 0.0))).points == (1.0, 1.0)
    assert z_to_cut(ZPoint((0.0, 1.0, 0.0))).points == (0.0, 1.0)
    back = z_to_cut(ZPoint((0.25, 1 / 12, 1 / 3, 1 / 12, 0.25)))
    assert np.allclose(back.points, (0.25, 1 / 3, 2 / 3, 0.75), atol=1e-12)


def test_zpoint_rejects_bad_input():
    with pytest.raises(ValueError):
        ZPoint((0.5, 0.6))
    with pytest.raises(ValueError):
        ZPoint((-0.2, 1.2))
    with pytest.raises(ValueError, match="non-negative"):
        ZPoint((math.nan, 1.0))
    # finite lengths whose sum overflows
    with pytest.raises(ValueError, match="sum to 1"):
        ZPoint((1e308, 1e308))


@settings(max_examples=100, deadline=None)
@given(cut=random_cuts())
def test_cut_z_round_trip(cut):
    back = z_to_cut(cut_to_z(cut))
    assert np.allclose(back.points, cut.points, atol=1e-12)


def test_degenerate_and_essential_examples():
    deg, ess = degenerate_and_essential(Cut((0.25, 1 / 3, 1 / 3, 2 / 3, 2 / 3)))
    assert sorted(deg) == [3, 5]
    assert [label for _, label in ess] == [1, 2, 4, 6]

    deg, ess = degenerate_and_essential(Cut((1 / 3, 2 / 3)))
    assert deg == frozenset()

    deg, ess = degenerate_and_essential(Cut((0.0, 0.0)))
    assert sorted(deg) == [1, 2]
    assert ess == (((0.0, 1.0), 3),)


@settings(max_examples=100, deadline=None)
@given(cut=random_cuts())
def test_labels_partition(cut):
    deg, ess = degenerate_and_essential(cut)
    labels = sorted(deg) + [label for _, label in ess]
    assert sorted(labels) == list(range(1, cut.tile_count + 1))


def test_partition_equivalence_examples():
    assert partition_equivalent(
        Cut((0.25, 1 / 3, 2 / 3, 2 / 3)), Cut((0.25, 1 / 3, 2 / 3, 1.0))
    )
    assert partition_equivalent(Cut((1 / 3, 2 / 3)), Cut((1 / 3, 2 / 3)))
    assert not partition_equivalent(Cut((1 / 3, 2 / 3)), Cut((0.25, 2 / 3)))
    # differing tile counts are fine as long as the solid tiles agree
    assert partition_equivalent(Cut((0.5,)), Cut((0.0, 0.5, 0.5)))


def _repadded(cut, positions):
    """The cut with its degenerate tiles moved to ``positions`` among the
    solid ones, each keeping its length, so the lengths still sum to 1."""
    solid = [v for v in cut.lengths if v > DEGENERACY_TOL]
    degenerate = [v for v in cut.lengths if v <= DEGENERACY_TOL]
    for pos, v in zip(positions, degenerate):
        solid.insert(min(pos, len(solid)), v)
    return z_to_cut(ZPoint(tuple(solid)))


@settings(max_examples=60, deadline=None)
@given(cut=random_cuts(), data=st.data())
def test_partition_equivalence_relation(cut, data):
    # reflexive, symmetric, and stable under re-padding degenerate tiles
    assert partition_equivalent(cut, cut)
    zeros = sum(v <= DEGENERACY_TOL for v in cut.lengths)
    positions = data.draw(st.lists(st.integers(0, cut.tile_count - zeros), min_size=zeros, max_size=zeros))
    other = _repadded(cut, positions)
    assert partition_equivalent(cut, other)
    assert partition_equivalent(other, cut)


def test_partition_equivalence_survives_moving_two_degenerate_tiles():
    # two tiles of 5e-10 hold more than DEGENERACY_TOL together: dropping
    # them left lengths summing to 1 - 1e-9, which ``ZPoint`` refuses, and
    # moving them shifts the solid tiles by that much
    cut = Cut((0.49999999949999996, 0.9999999989999999, 0.9999999995))
    assert cut.lengths[2:] == (5.000000413701855e-10,) * 2
    for positions in itertools.product(range(3), repeat=2):
        other = _repadded(cut, positions)
        assert partition_equivalent(cut, other), positions
        assert partition_equivalent(other, cut), positions
    assert not partition_equivalent(cut, Cut((0.499999995, 0.9999999989999999, 0.9999999995)))


def test_partition_equivalence_survives_a_degenerate_tile_rounded_over_the_tolerance():
    # the tiny tile is under the tolerance; moved behind the solid tile, it
    # comes back as a difference of cut-points one rounding over it
    z = (0.23824138980298343, 9.999999717180685e-10, 0.7617586091970165)
    cut, other = z_to_cut(ZPoint(z)), _repadded(z_to_cut(ZPoint(z)), (2,))
    assert other.lengths == (z[0], z[2], 1.000000082740371e-09)
    assert partition_equivalent(cut, other)
    assert partition_equivalent(other, cut)
    # the tile itself still counts as essential outside this comparison
    assert degenerate_and_essential(other)[0] == frozenset()


def test_canonicalize_strips_degenerate_tiles():
    cut = Cut((0.25, 1 / 3, 1 / 3, 2 / 3, 2 / 3))
    allocation = {1: 1, 2: 1, 3: 1, 4: 4, 5: 5, 6: 6}
    point = canonicalize(cut, allocation, join_power(6))
    assert dict(point.allocation) == {1: 1, 2: 1, 4: 4, 6: 6}
    # equivalent inputs collapse to the same canonical point
    for move in ({3: 5, 5: 5}, {3: 2, 5: 5}):
        shuffled = dict(allocation)
        shuffled.update(move)
        assert canonicalize(cut, shuffled, join_power(6)) == point
    # idempotent: re-canonicalizing the canonical allocation changes nothing
    assert canonicalize(cut, dict(point.allocation), join_power(6)) == point


def test_canonicalize_no_degenerates_keeps_allocation():
    cut = Cut((1 / 3, 2 / 3))
    point = canonicalize(cut, {1: 2, 2: 3, 3: 1}, join_power(3))
    assert dict(point.allocation) == {1: 2, 2: 3, 3: 1}


def test_canonicalize_all_cuts_at_zero():
    point = canonicalize(Cut((0.0, 0.0)), {1: 1, 2: 1, 3: 1}, join_power(3))
    assert dict(point.allocation) == {3: 1}


def test_canonicalize_enforces_variant_constraint():
    cut = Cut((1 / 3, 2 / 3))
    with pytest.raises(ValueError):
        canonicalize(cut, {1: 1, 2: 1, 3: 2}, gorbushka_join(3))
    # the same doubling is fine when one of the sharers is the last tile
    point = canonicalize(cut, {1: 1, 3: 1, 2: 2}, gorbushka_join(3))
    assert dict(point.allocation) == {1: 1, 2: 2, 3: 1}
    with pytest.raises(ValueError):
        canonicalize(cut, {1: 1, 2: 2}, gorbushka_join(3))  # tile 3 missing
    with pytest.raises(ValueError):
        canonicalize(cut, {1: 1, 2: 2, 3: 9}, gorbushka_join(3))


def test_act_examples():
    point = canonicalize(Cut((0.5,)), {1: 1, 2: 2}, gorbushka_join(2))
    identity = act((1, 2), point)
    assert identity == point
    swapped = act((2, 1), point)
    assert dict(swapped.allocation) == {1: 2, 2: 1}
    with pytest.raises(ValueError):
        act((1, 1), point)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_act_composition_law(data):
    variant = data.draw(st.sampled_from([gorbushka_join(3), join_power(3), chessboard(3, 5)]))
    cx = build_complex(variant)
    facet = data.draw(st.sampled_from(list(cx.maximal_simplices)))
    weights = data.draw(
        st.lists(st.floats(0.01, 1, allow_nan=False), min_size=len(facet), max_size=len(facet))
    )
    total = sum(weights)
    point = point_from_barycentric(variant, facet, tuple(w / total for w in weights))
    sigma = tuple(data.draw(st.permutations(list(range(1, 4)))))
    rho = tuple(data.draw(st.permutations(list(range(1, 4)))))
    composed = tuple(sigma[rho[b - 1] - 1] for b in range(1, 4))
    assert act(composed, point) == act(sigma, act(rho, point))
    assert act((1, 2, 3), point) == point


def test_point_from_barycentric_examples():
    p = point_from_barycentric(gorbushka_join(2), [(1, 1), (2, 2)], (0.5, 0.5))
    assert p.cut.points == (0.5,)
    assert dict(p.allocation) == {1: 1, 2: 2}

    p = point_from_barycentric(gorbushka_join(3), [(1, 1), (1, 3)], (0.5, 0.5))
    assert p.cut.points == (0.5, 0.5)
    assert dict(p.allocation) == {1: 1, 3: 1}

    p = point_from_barycentric(
        chessboard(3, 5), [(1, 2), (2, 4), (3, 5)], (1 / 3, 1 / 3, 1 / 3)
    )
    assert p.cut.tile_count == 5
    deg, _ = degenerate_and_essential(p.cut)
    assert sorted(deg) == [1, 3]
    assert dict(p.allocation) == {2: 1, 4: 2, 5: 3}


def test_point_from_barycentric_rejects_bad_input():
    with pytest.raises(ValueError):
        point_from_barycentric(gorbushka_join(3), [(1, 1), (1, 2)], (0.5, 0.5))
    with pytest.raises(ValueError):
        point_from_barycentric(gorbushka_join(3), [(1, 1), (2, 2)], (0.5,))
    with pytest.raises(ValueError):
        point_from_barycentric(gorbushka_join(3), [(1, 1), (2, 2)], (0.9, 0.9))
    with pytest.raises(ValueError, match="non-negative"):
        point_from_barycentric(gorbushka_join(3), [(1, 1), (2, 2)], (1.5, -0.5))
    with pytest.raises(ValueError, match="non-negative"):
        point_from_barycentric(gorbushka_join(2), [(1, 1), (2, 2)], (math.nan, 1.0))
    with pytest.raises(ValueError, match="sum to 1"):
        point_from_barycentric(gorbushka_join(2), [(1, 1), (2, 2)], (1e308, 1e308))


def test_config_point_rejects_wrong_tile_count():
    for points in ((0.5,), (0.2, 0.4, 0.6)):
        with pytest.raises(ValueError, match="tiles"):
            ConfigPoint(gorbushka_join(3), Cut(points), ((1, 1),))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_barycentric_round_trip(data):
    variant = data.draw(
        st.sampled_from([gorbushka_join(2), gorbushka_join(3), join_power(3), chessboard(3, 5)])
    )
    cx = build_complex(variant)
    facet = data.draw(st.sampled_from(list(cx.maximal_simplices)))
    raw = data.draw(
        st.lists(st.floats(0, 1, allow_nan=False), min_size=len(facet), max_size=len(facet)).filter(
            lambda ws: sum(ws) > 0.1
        )
    )
    # weights are either solid or exactly zero; dust below the degeneracy
    # tolerance is legitimately dropped by canonicalization
    raw = [0.0 if w < 1e-6 else w for w in raw]
    total = sum(raw)
    point = point_from_barycentric(variant, facet, tuple(w / total for w in raw))
    cells, weights = point.support()
    again = point_from_barycentric(variant, cells, weights)
    assert again.allocation == point.allocation
    assert np.allclose(again.cut.points, point.cut.points, atol=1e-12)


def test_config_point_json():
    point = canonicalize(Cut((0.0, 0.0)), {1: 1, 2: 1, 3: 2}, join_power(3))
    doc = point.to_json()
    assert doc["allocation"] == {"3": 2}
    assert doc["cut"] == [0.0, 0.0]
    assert doc["variant"]["kind"] == "join_power"


BOARDS = [for_space(space, r) for space in ("c1", "c2", "c3") for r in (2, 3, 4)] + [chessboard(3, 2)]


@pytest.mark.parametrize("variant", BOARDS, ids=str)
def test_public_constructors_reject_non_faces(variant):
    # the first n tiles are essential and go to boxes 1..n
    n = min(variant.rows, variant.cols)
    cut = z_to_cut(ZPoint((1.0 / n,) * n + (0.0,) * (variant.cols - n)))
    identity = {tile: tile for tile in range(1, n + 1)}
    # one tile in two boxes is a face of no board
    with pytest.raises(ValueError):
        ConfigPoint(variant, cut, ((1, 1), (1, 2)) + tuple(identity.items())[1:])
    with pytest.raises(ValueError):
        point_from_barycentric(variant, [(1, 1), (2, 1)], (0.5, 0.5))
    # cells outside the board are faces of no board
    for tile, box in ((1, variant.rows + 1), (variant.cols + 1, 1), (1, 0)):
        with pytest.raises(ValueError):
            canonicalize(cut, {**identity, tile: box}, variant)
    with pytest.raises(ValueError):
        point_from_barycentric(variant, [(variant.rows + 1, 1)], (1.0,))
    if variant.kind == "chessboard" or variant.kind == "gorbushka_join" and variant.cols >= 3:
        # tiles 1 and 2 share a box only on a join power, or on a gorbushka
        # join where tile 2 is the last
        with pytest.raises(ValueError):
            canonicalize(cut, {**identity, 1: 1, 2: 1}, variant)
    point = canonicalize(cut, identity, variant)
    for sigma in ((1,) * variant.rows, tuple(range(2, variant.rows + 2)), tuple(range(1, variant.rows))):
        with pytest.raises(ValueError):
            act(sigma, point)


@pytest.mark.parametrize("variant", BOARDS, ids=str)
def test_unchecked_points_equal_checked_ones(variant):
    rng = np.random.default_rng(variant.rows * 10 + variant.cols)
    facets = build_complex(variant).maximal_simplices
    for i in range(200):
        facet = facets[int(rng.integers(0, len(facets)))]
        w = rng.dirichlet(np.ones(len(facet)))
        if i % 2:
            w[rng.choice(len(facet), size=int(rng.integers(1, len(facet) + 1)) - 1, replace=False)] = 0.0
            w /= w.sum()
        weights = tuple(float(v) for v in w)
        checked = point_from_barycentric(variant, facet, weights)
        unchecked = _barycentric_point(variant, facet, weights)
        assert unchecked == checked and hash(unchecked) == hash(checked)
        assert unchecked.to_json() == checked.to_json()
        sigma = tuple(int(v) + 1 for v in rng.permutation(variant.rows))
        moved = act(sigma, checked)
        relabelled = tuple((tile, sigma[box - 1]) for tile, box in checked.allocation)
        assert moved == ConfigPoint(variant, checked.cut, relabelled)
        assert _face_point(variant, checked.cut, checked.allocation) == checked


def _known_cut_cases(rng):
    """500 tile-length vectors: Dirichlet draws, half of them with forced
    zeros, and draws with tiles just below, at and just above the degeneracy
    tolerance."""
    for i in range(500):
        n = 2 + i % 7
        z = rng.dirichlet(np.ones(n))
        if i % 5 in (1, 2):
            z[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = 0.0
        elif i % 5 == 3:
            near = DEGENERACY_TOL * rng.choice([0.5, 1.0 - 1e-7, 1.0, 1.0 + 1e-7, 2.0], size=n)
            z = np.where(rng.random(n) < 0.5, near, z)
        z /= z.sum()
        yield [float(v) for v in z]


def test_known_cut_equals_checked_cut():
    rng = np.random.default_rng(9)
    straddling = 0
    for z in _known_cut_cases(rng):
        checked = oracles.checked_cut(z)
        for unchecked in (_known_cut(z), z_to_cut(ZPoint(tuple(z)))):
            assert unchecked.points == checked.points, z
            assert unchecked.lengths == checked.lengths, z
            assert unchecked == checked and hash(unchecked) == hash(checked)
            assert degenerate_and_essential(unchecked) == degenerate_and_essential(checked)
        straddling += any(0.5 * DEGENERACY_TOL <= v <= 2 * DEGENERACY_TOL for v in checked.lengths)
    assert straddling > 50

