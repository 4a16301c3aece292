import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from envydiv.complexes import (
    NotPureComplexError,
    ResourceCapExceeded,
    SimplicialComplex,
    Variant,
    boundary_matrix,
    build_complex,
    chessboard,
    facet_at,
    facet_count,
    for_space,
    gorbushka_join,
    is_face,
    is_pseudomanifold,
    join_power,
    reduced_homology,
    smith_invariants,
    sparse_invariants,
)

import oracles


def test_variant_validation():
    with pytest.raises(ValueError):
        chessboard(0, 3)
    with pytest.raises(ValueError):
        gorbushka_join(1)
    with pytest.raises(ValueError):
        join_power(1)
    with pytest.raises(ValueError):
        Variant("mystery", 3, 3)


def test_for_space_maps_to_boards():
    assert for_space("c1", 3) == gorbushka_join(3)
    assert for_space("c2", 3) == chessboard(3, 5)
    assert for_space("c3", 3) == join_power(3)
    with pytest.raises(ValueError):
        for_space("c9", 3)


def test_chessboard_2x1_two_isolated_vertices():
    cx = build_complex(chessboard(2, 1))
    assert cx.face_counts() == (2,)
    assert len(cx.maximal_simplices) == 2
    assert cx.dimension == 0


def test_chessboard_4x3_counts_match_exhaustive_enumeration():
    cx = build_complex(chessboard(4, 3))
    assert cx.face_counts() == (12, 36, 24)
    assert cx.euler_characteristic() == 0

    faces = oracles.enumerate_faces(4, 3, oracles.non_attacking)
    by_size = {}
    for f in faces:
        by_size[len(f)] = by_size.get(len(f), 0) + 1
    assert (by_size[1], by_size[2], by_size[3]) == (12, 36, 24)
    assert sorted(cx.maximal_simplices) == oracles.maximal_of(faces)


def test_gorbushka_join_2_is_a_four_cycle():
    cx = build_complex(gorbushka_join(2))
    assert cx.face_counts() == (4, 4)
    # the whole edge set is one closed walk
    faces = oracles.enumerate_faces(2, 2, lambda c: oracles.gorbushka_ok(c, 2))
    assert sorted(cx.maximal_simplices) == oracles.maximal_of(faces)
    assert is_pseudomanifold(cx)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_gorbushka_join_matches_brute_enumeration(r):
    cx = build_complex(gorbushka_join(r))
    faces = oracles.enumerate_faces(r, r, lambda c: oracles.gorbushka_ok(c, r))
    assert sorted(cx.maximal_simplices) == oracles.maximal_of(faces)


def test_join_power_facets_are_all_column_choices():
    cx = build_complex(join_power(3))
    assert len(cx.maximal_simplices) == 27
    assert cx.dimension == 2
    faces = oracles.enumerate_faces(3, 3, oracles.join_power_ok)
    assert sorted(cx.maximal_simplices) == oracles.maximal_of(faces)


@pytest.mark.parametrize(
    "variant", [chessboard(3, 4), gorbushka_join(3), join_power(3)]
)
def test_dimension_is_rows_minus_one(variant):
    assert build_complex(variant).dimension == variant.rows - 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_square_chessboard_has_factorial_facets(n):
    cx = build_complex(chessboard(n, n))
    assert len(cx.vertices) == n * n
    assert len(cx.maximal_simplices) == math.factorial(n)


UNRANKED = [for_space(space, r) for space in ("c1", "c3") for r in range(2, 7)]
UNRANKED += [for_space("c2", r) for r in range(2, 6)]
UNRANKED += [chessboard(m, n) for m in range(1, 7) for n in range(1, 7)]


@pytest.mark.parametrize("variant", UNRANKED, ids=lambda v: f"{v.kind}-{v.rows}x{v.cols}")
def test_facet_at_unranks_the_listed_facets(variant):
    listed = list(oracles.listed_facets(variant))
    assert facet_count(variant) == len(listed)
    assert [facet_at(variant, i) for i in range(len(listed))] == listed
    with pytest.raises(IndexError):
        facet_at(variant, len(listed))


def test_is_face_examples():
    assert is_face(chessboard(3, 2), [(1, 1), (2, 2)])
    assert is_face(gorbushka_join(3), [(1, 1), (1, 3)])
    assert not is_face(gorbushka_join(3), [(1, 1), (1, 2)])
    # one row may hold two tiles, one of them the last; a second row may not
    assert not is_face(gorbushka_join(4), [(1, 1), (1, 4), (2, 2), (2, 3)])
    assert is_face(join_power(3), [(1, 1), (1, 2), (1, 3)])
    assert not is_face(join_power(3), [(1, 1), (2, 1)])
    with pytest.raises(ValueError):
        is_face(chessboard(3, 2), [(4, 1)])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_face_predicate_is_monotone(data):
    variant = data.draw(
        st.sampled_from([chessboard(3, 4), gorbushka_join(3), join_power(3)])
    )
    cx = build_complex(variant)
    facet = data.draw(st.sampled_from(list(cx.maximal_simplices)))
    keep = data.draw(st.lists(st.booleans(), min_size=len(facet), max_size=len(facet)))
    subset = tuple(c for c, flag in zip(facet, keep) if flag)
    assert is_face(variant, facet)
    assert is_face(variant, subset)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_row_permutations_preserve_faces(data):
    variant = data.draw(
        st.sampled_from([chessboard(3, 4), gorbushka_join(3), join_power(3)])
    )
    cx = build_complex(variant)
    facet = data.draw(st.sampled_from(list(cx.maximal_simplices)))
    perm = data.draw(st.permutations(list(range(1, variant.rows + 1))))
    relabeled = [(perm[row - 1], col) for row, col in facet]
    assert is_face(variant, relabeled)


def test_smith_invariants_known_matrices():
    assert smith_invariants([[2, 0], [0, 3]]) == [1, 6]
    assert smith_invariants([[1, 0], [0, 0]]) == [1]
    assert smith_invariants([[0, 0], [0, 0]]) == []
    # boundary of a Klein-bottle-like relation keeps its 2-torsion
    assert smith_invariants([[2]]) == [2]


# A divisibility restart made this matrix's entries grow without end, past
# millions of bits; smallest-entry pivoting finishes it at once.
_RESTART_BLOWUP = [
    [2, 6, 3, 1, 6, -2, -2],
    [3, 0, 0, -1, 3, -2, -1],
    [1, 2, 0, 3, 0, 1, -2],
    [6, 3, -2, 3, 1, 0, -2],
    [2, -1, 0, 2, 6, 1, 3],
    [3, 0, 2, -1, 1, 3, -2],
    [6, -1, 0, 0, -1, 2, -1],
]


def test_smith_invariants_finish_the_restart_blowup_matrix():
    assert smith_invariants(_RESTART_BLOWUP) == [1] * 6 + [17179]
    assert sparse_invariants(_columns(_RESTART_BLOWUP)) == [1] * 6 + [17179]


def _det(rows):
    """Exact determinant by the Leibniz formula, sharing no code with the Smith form."""
    return sum(
        (-1) ** sum(a > b for a, b in itertools.combinations(order, 2))
        * math.prod(row[j] for row, j in zip(rows, order))
        for order in itertools.permutations(range(len(rows)))
    )


def _determinantal_divisors(matrix):
    """d_k = D_k / D_(k-1), with D_k the gcd of the k x k minors, while D_k != 0."""
    out, previous = [], 1
    for k in range(1, min(len(matrix), len(matrix[0])) + 1):
        d_k = 0
        for rows in itertools.combinations(matrix, k):
            for cols in itertools.combinations(range(len(matrix[0])), k):
                d_k = math.gcd(d_k, _det([[row[j] for j in cols] for row in rows]))
        if d_k == 0:
            break
        out.append(d_k // previous)
        previous = d_k
    return out


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(
            # mostly non-units, so many matrices have no unit entry to pivot on
            st.lists(st.sampled_from([0, 2, -2, 3, -3, 4, 6, -9]), min_size=n, max_size=n),
            min_size=1,
            max_size=5,
        )
    )
)
def test_smith_invariants_match_determinantal_divisors(matrix):
    before = [row[:] for row in matrix]
    invariants = smith_invariants(matrix)
    assert matrix == before
    assert invariants == _determinantal_divisors(matrix)
    assert all(b % a == 0 for a, b in zip(invariants, invariants[1:]))


def _columns(matrix):
    n_cols = len(matrix[0]) if matrix else 0
    return [{i: row[j] for i, row in enumerate(matrix) if row[j]} for j in range(n_cols)]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 7).flatmap(
        lambda n: st.lists(
            st.lists(st.sampled_from([0, 0, 1, -1, 2, -2, 3, 6]), min_size=n, max_size=n),
            min_size=1,
            max_size=7,
        )
    )
)
@example(_RESTART_BLOWUP)
def test_sparse_invariants_match_dense_smith_form(matrix):
    assert sparse_invariants(_columns(matrix)) == smith_invariants(matrix)


def test_sparse_invariants_of_empty_matrices():
    assert sparse_invariants([]) == []
    assert sparse_invariants([{}, {}]) == []


def test_sparse_invariants_cap_bounds_the_leftover_dense_block():
    twice_identity = [{i: 2} for i in range(20)]
    with pytest.raises(ResourceCapExceeded, match="20x20"):
        sparse_invariants(twice_identity, max_block=100)
    assert sparse_invariants(twice_identity, max_block=400) == [2] * 20


def test_sparse_invariants_pivot_on_units_made_by_elimination():
    # pivoting on either 1 in row 0 turns the other column's row-1 entry
    # into +-1, which must be pivoted too rather than left as a dense block
    assert sparse_invariants([{0: 1, 1: 2}, {0: 1, 1: 3}], max_block=0) == [1, 1]


def test_homology_hexagon():
    report = reduced_homology(build_complex(chessboard(3, 2)))
    assert report.betti == (0, 1)
    assert all(not t for t in report.torsion)
    assert report.euler == 0


def test_homology_torus_board():
    report = reduced_homology(build_complex(chessboard(4, 3)))
    assert report.betti == (0, 2, 1)
    assert report.euler == 0
    assert all(not t for t in report.torsion)


def test_homology_three_by_five_is_connected_through_degree_one():
    report = reduced_homology(build_complex(chessboard(3, 5)))
    assert report.betti[:2] == (0, 0)


@pytest.mark.parametrize(
    "variant",
    [chessboard(3, 2), chessboard(4, 3), chessboard(3, 5), gorbushka_join(2), gorbushka_join(3)],
)
def test_homology_agrees_with_rational_oracle(variant):
    cx = build_complex(variant)
    assert cx.total_faces() <= 500
    report = reduced_homology(cx)
    assert list(report.betti) == oracles.reduced_betti_rational(cx.maximal_simplices)


def test_homology_euler_consistency():
    for variant in (chessboard(3, 3), join_power(2), gorbushka_join(3), gorbushka_join(5)):
        cx = build_complex(variant)
        report = reduced_homology(cx)
        alternating = sum((-1) ** d * b for d, b in enumerate(report.betti))
        assert report.euler == 1 + alternating  # reduced vs plain homology


def test_homology_resource_cap():
    cx = build_complex(chessboard(4, 3))
    with pytest.raises(ResourceCapExceeded):
        reduced_homology(cx, max_simplices=10)


@pytest.mark.parametrize(
    "m, n",
    [(m, n) for m in range(2, 6) for n in range(2, 6)] + [(4, 6), (4, 7), (5, 6), (5, 7)],
)
def test_chessboard_homology_vanishes_below_connectivity_bound(m, n):
    # Bjorner-Lovasz-Vrecica-Zivaljevic: the m x n chessboard complex is
    # (nu - 2)-connected, so its reduced homology vanishes below nu - 1
    report = reduced_homology(build_complex(chessboard(m, n)))
    below = min(m, n, (m + n + 1) // 3) - 1
    assert report.betti[:below] == (0,) * below
    assert report.torsion[:below] == ((),) * below


def test_five_by_five_chessboard_has_three_torsion_in_degree_two():
    report = reduced_homology(build_complex(chessboard(5, 5)))
    assert report.torsion[2] == (3,)
    assert report.betti[2] == 0


def test_join_power_four_is_a_wedge_of_three_spheres():
    # the join of four 4-point sets is a wedge of 3^4 three-spheres
    report = reduced_homology(build_complex(join_power(4)))
    assert report.betti == (0, 0, 0, 81)
    assert all(not t for t in report.torsion)


@pytest.mark.parametrize("r", [3, 4, 5])
def test_square_minus_one_boards_are_pseudomanifolds(r):
    assert is_pseudomanifold(build_complex(chessboard(r, r - 1)))


def test_two_disjoint_triangles_are_not_a_pseudomanifold():
    tri1 = tuple((1, j) for j in (1, 2, 3))
    tri2 = tuple((2, j) for j in (4, 5, 6))
    cx = SimplicialComplex(None, tri1 + tri2, (tri1, tri2))
    assert not is_pseudomanifold(cx)


def test_open_disk_is_not_a_pseudomanifold():
    # one triangle: its edges lie in a single facet each
    tri = tuple((1, j) for j in (1, 2, 3))
    cx = SimplicialComplex(None, tri, (tri,))
    assert not is_pseudomanifold(cx)


def test_pseudomanifold_rejects_mixed_dimension():
    cx = SimplicialComplex(
        None,
        ((1, 1), (1, 2), (1, 3), (2, 1)),
        (((1, 1), (1, 2), (1, 3)), ((2, 1),)),
    )
    with pytest.raises(NotPureComplexError):
        is_pseudomanifold(cx)


def test_boundary_matrix_is_empty_outside_one_to_the_dimension():
    cx = build_complex(chessboard(3, 3))
    assert cx.dimension == 2 and len(boundary_matrix(cx, 2)) == cx.face_counts()[2]
    for dim in (-1, 0, 3):
        assert boundary_matrix(cx, dim) == []


def test_empty_complex_has_no_homology_and_is_no_pseudomanifold():
    cx = SimplicialComplex(None, (), ())
    report = reduced_homology(cx)
    assert (report.betti, report.torsion, report.euler) == ((), (), 0)
    assert not is_pseudomanifold(cx)


def test_zero_dimensional_pseudomanifold_is_two_points():
    # the 0-sphere: two points, and nothing else, bound every empty ridge
    points = [((1, j),) for j in (1, 2, 3)]
    assert is_pseudomanifold(SimplicialComplex(None, tuple(p[0] for p in points[:2]), tuple(points[:2])))
    for facets in (points[:1], points):
        assert not is_pseudomanifold(SimplicialComplex(None, tuple(p[0] for p in facets), tuple(facets)))
