import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest

from envydiv import complexes, solver
from envydiv.complexes import (
    ResourceCapExceeded,
    chessboard,
    for_space,
    gorbushka_join,
    join_power,
)
from envydiv.configspace import (
    Cut,
    _barycentric_point,
    _face_point,
    act,
    canonicalize,
    point_from_barycentric,
)
from envydiv.preferences import (
    BUILTIN_MODELS,
    PREFERENCE_TOL,
    PreferenceMatrix,
    PreferenceValidationError,
    make_builtin,
    piecewise_from_tables,
    row_shuffled,
    sample_config_point,
    validate,
)
from envydiv.reductions import phi, psi
from envydiv.solver import (
    BudgetExhausted,
    EnvyFreeDivision,
    RESIDUAL_TOL,
    MatchingError,
    SearchOptions,
    StochasticMatrix,
    average_matrix,
    birkhoff,
    bottleneck_assignment,
    brute_force,
    extract_assignment,
    search,
    solve,
    verify_division,
)
from envydiv.solver import (
    _barycentric_grid,
    _canonical_allocations,
    _face_sizes,
    _grid_points,
    _hypothesis_met,
    _is_prime_power,
    _kuhn_simplices,
    _grid_cuts,
    _normalized_weights,
    _orbit_facets,
    _pl_zeros,
    _scan_size,
)

import oracles


def random_doubly_stochastic(rng, r, max_terms=10, min_terms=1):
    k = int(rng.integers(min_terms, max_terms + 1))
    weights = np.maximum(rng.uniform(size=k), 0.01)
    weights /= weights.sum()
    out = np.zeros((r, r))
    for w in weights:
        perm = rng.permutation(r)
        for i, j in enumerate(perm):
            out[i, j] += w
    return out


def nudged(rng, m):
    """``m`` with 1e-9 to 1e-6 of each row's mass moved between two of its
    entries: rows still sum to 1, and the column averages miss 1/r by at
    most 1e-6, within RESIDUAL_TOL."""
    r = len(m)
    for row in m:
        j, k = rng.choice(r, size=2, replace=False)
        d = min(10 ** rng.uniform(-9, -6), row[k])
        row[j] += d
        row[k] -= d
    return m


def test_stochastic_matrix_validation():
    with pytest.raises(ValueError):
        StochasticMatrix(np.array([[0.5, 0.6], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        StochasticMatrix(np.array([[1.5, -0.5], [0.5, 0.5]]))
    m = StochasticMatrix(np.array([[0.25, 0.75], [0.75, 0.25]]))
    assert m.residual == 0.0
    skew = StochasticMatrix(np.array([[1.0, 0.0], [1.0, 0.0]]))
    assert skew.residual == pytest.approx(0.5)
    # a NaN entry would leave a NaN residual, which passes every tolerance test
    with pytest.raises(ValueError):
        StochasticMatrix(np.array([[math.nan, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match=r"expected a square matrix, got shape \(2, 3\)"):
        StochasticMatrix(np.full((2, 3), 1 / 3))


def test_search_rejects_a_nan_tolerance():
    prefs = make_builtin("hungry", 3, kind="new")
    with pytest.raises(ValueError, match="nan"):
        search(gorbushka_join(3), prefs, SearchOptions(tolerance=math.nan))


def test_average_matrix_rejects_a_point_where_a_player_accepts_no_box():
    variant = gorbushka_join(3)
    hungry = make_builtin("hungry", 3, kind="new", variant=variant)
    refusing = PreferenceMatrix(
        r=3,
        kind="new",
        model="refusing",
        raw=lambda player, point: [0.0] * 3 if player == 2 else hungry.raw(player, point),
        variant=variant,
    )
    point = point_from_barycentric(variant, ((1, 1), (2, 2), (3, 3)), (0.2, 0.3, 0.5))
    with pytest.raises(PreferenceValidationError, match="player 2 accepts nothing"):
        average_matrix(refusing, point)


def test_solve_refuses_a_player_who_accepts_nothing_at_a_grid_point():
    # the refusal sits at one cut of the search's grid, which the sampled
    # covering check never draws; met mid-search it is still a covering
    # failure, the error the CLI maps to exit 3
    variant = gorbushka_join(3)
    hungry = make_builtin("hungry", 3, kind="new", variant=variant)

    def raw(player, point):
        return [0.0] * 3 if player == 2 and point.cut.points == (0.25, 0.5) else hungry.raw(player, point)

    refusing = PreferenceMatrix(r=3, kind="new", model="refusing", raw=raw, variant=variant)
    with pytest.raises(PreferenceValidationError, match=r"player 2 accepts nothing at .*'cut': \[0.25, 0.5\]"):
        solve(variant, refusing)


def test_average_matrix_row_stochastic():
    variant = gorbushka_join(3)
    prefs = make_builtin("piecewise_random", 3, kind="new", variant=variant, seed=2)
    rng = np.random.default_rng(0)
    for _ in range(30):
        point = sample_config_point(rng, variant)
        m = average_matrix(prefs, point)
        assert np.abs(m.entries.sum(axis=1) - 1.0).max() < 1e-12


def test_average_matrix_equivariance_permutes_columns():
    variant = gorbushka_join(3)
    prefs = make_builtin("piecewise_random", 3, kind="new", variant=variant, seed=6)
    rng = np.random.default_rng(1)
    for _ in range(40):
        point = sample_config_point(rng, variant)
        sigma = tuple(int(v) + 1 for v in rng.permutation(3))
        before = average_matrix(prefs, point)
        after = average_matrix(prefs, act(sigma, point))
        for i in range(3):
            assert np.abs(after.entries[:, sigma[i] - 1] - before.entries[:, i]).max() <= 1e-12
        assert abs(after.residual - before.residual) <= 1e-12


def test_extract_assignment_examples():
    identity = StochasticMatrix(np.eye(3))
    assert extract_assignment(identity) == (1, 2, 3)

    uniform = StochasticMatrix(np.full((3, 3), 1 / 3))
    assert extract_assignment(uniform) == (1, 2, 3)  # lexicographically least

    mix = StochasticMatrix(0.5 * np.eye(3) + 0.5 * np.roll(np.eye(3), 1, axis=1))
    assignment = extract_assignment(mix)
    assert sorted(assignment) == [1, 2, 3]
    assert all(mix.entries[j, assignment[j] - 1] > PREFERENCE_TOL for j in range(3))


def test_extract_assignment_residual_precondition():
    skew = StochasticMatrix(np.array([[1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        extract_assignment(skew)


def test_bottleneck_assignment_maximizes_min_score():
    rng = np.random.default_rng(4)
    for _ in range(50):
        m = StochasticMatrix(random_doubly_stochastic(rng, 4))
        assignment = bottleneck_assignment(m)
        got = min(m.entries[j, assignment[j] - 1] for j in range(4))
        _, best = oracles.lex_least_bottleneck(m.entries.tolist())
        assert got == pytest.approx(best, abs=1e-12)


def test_birkhoff_examples():
    identity = birkhoff(StochasticMatrix(np.eye(3)))
    assert identity.terms == ((1.0, (1, 2, 3)),)

    uniform2 = birkhoff(StochasticMatrix(np.full((2, 2), 0.5)))
    assert [p for _, p in uniform2.terms] == [(1, 2), (2, 1)]
    assert [w for w, _ in uniform2.terms] == pytest.approx([0.5, 0.5])

    mix = StochasticMatrix(0.5 * np.eye(3) + 0.5 * np.roll(np.eye(3), 1, axis=1))
    decomposition = birkhoff(mix)
    assert sorted(decomposition.terms) == [(0.5, (1, 2, 3)), (0.5, (2, 3, 1))]


def test_birkhoff_rejects_unbalanced_input():
    skew = StochasticMatrix(np.array([[1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        birkhoff(skew)
    # column averages 0.5 +- 0.9e-6 pass the residual check, but two peels
    # leave 1.8e-6 of each row's mass in the first column
    lopsided = StochasticMatrix(np.array([[0.5 + 9e-7, 0.5 - 9e-7]] * 2))
    assert lopsided.residual <= RESIDUAL_TOL
    with pytest.raises(MatchingError, match="far from 1"):
        birkhoff(lopsided)


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_birkhoff_random_mixes(r):
    rng = np.random.default_rng(100 + r)
    # sparse mixes, then dense ones of 30-60 permutations, where greedy
    # peeling has the most room to exceed the bound
    mixes = [random_doubly_stochastic(rng, r) for _ in range(40)]
    mixes += [random_doubly_stochastic(rng, r, max_terms=60, min_terms=30) for _ in range(20)]
    for entries in mixes:
        m = StochasticMatrix(entries)
        decomposition = birkhoff(m)
        assert len(decomposition.terms) <= (r - 1) ** 2 + 1
        assert np.abs(decomposition.reconstruct() - m.entries).max() <= 1e-9
        assert sum(w for w, _ in decomposition.terms) == pytest.approx(1.0, abs=1e-9)
        assert all(w > 0 for w, _ in decomposition.terms)


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_birkhoff_and_extract_on_nudged_mixes(r):
    """Inputs off the Birkhoff polytope but within RESIDUAL_TOL: the peel
    keeps the term bound and drops at most RESIDUAL_TOL of each row's mass,
    or raises; extract_assignment always finds the lex-least matching."""
    rng = np.random.default_rng(300 + r)
    decomposed = 0
    for _ in range(40):
        entries = nudged(rng, random_doubly_stochastic(rng, r, max_terms=60, min_terms=10))
        m = StochasticMatrix(entries)
        assert m.residual <= RESIDUAL_TOL
        sigma = oracles.lex_least_above(entries.tolist(), PREFERENCE_TOL)
        assert extract_assignment(m) == tuple(b + 1 for b in sigma)
        try:
            decomposition = birkhoff(m)
        except MatchingError as exc:
            assert "far from 1" in str(exc)
            continue
        decomposed += 1
        assert len(decomposition.terms) <= (r - 1) ** 2 + 1
        assert np.abs(decomposition.reconstruct() - entries).max() <= 2 * RESIDUAL_TOL
    assert decomposed >= 10


def thirds_mix(rng, r):
    """Three random permutation matrices at weight 1/3 each: doubly
    stochastic, entries in {0, 1/3, 2/3, 1}, so ties and zeros abound."""
    out = np.zeros((r, r))
    for _ in range(3):
        out[np.arange(r), rng.permutation(r)] += 1 / 3
    return out


def thirds_rows(rng, r):
    """Rows of three random thirds each: row stochastic only."""
    out = np.zeros((r, r))
    for row in out:
        np.add.at(row, rng.integers(r, size=3), 1 / 3)
    return out


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_assignments_are_lex_least(r):
    rng = np.random.default_rng(200 + r)
    uniform = np.full((r, r), 1 / r)
    assert bottleneck_assignment(StochasticMatrix(uniform)) == tuple(range(1, r + 1))
    assert extract_assignment(StochasticMatrix(uniform)) == tuple(range(1, r + 1))
    for entries in [thirds_mix(rng, r) for _ in range(30)]:
        m = StochasticMatrix(entries)
        sigma, _ = oracles.lex_least_bottleneck(entries.tolist())
        assert bottleneck_assignment(m) == tuple(b + 1 for b in sigma)
        sigma = oracles.lex_least_above(entries.tolist(), PREFERENCE_TOL)
        assert extract_assignment(m) == tuple(b + 1 for b in sigma)
    for entries in [thirds_rows(rng, r) for _ in range(30)]:
        sigma, value = oracles.lex_least_bottleneck(entries.tolist())
        if value <= PREFERENCE_TOL:
            with pytest.raises(MatchingError):
                bottleneck_assignment(StochasticMatrix(entries))
        else:
            assert bottleneck_assignment(StochasticMatrix(entries)) == tuple(b + 1 for b in sigma)


def test_assignments_stop_at_eight_players():
    nine = StochasticMatrix(np.full((9, 9), 1 / 9))
    for assign in (extract_assignment, bottleneck_assignment, birkhoff):
        with pytest.raises(ResourceCapExceeded):
            assign(nine)
    rng = np.random.default_rng(8)
    eight = np.zeros((8, 8))
    for w in (0.5, 0.3, 0.2):
        eight[np.arange(8), rng.permutation(8)] += w
    decomposition = birkhoff(StochasticMatrix(eight))
    assert np.abs(decomposition.reconstruct() - eight).max() <= 1e-9


def test_search_is_deterministic():
    variant = gorbushka_join(3)
    prefs = make_builtin("piecewise_random", 3, kind="new", variant=variant, seed=9)
    a = search(variant, prefs, SearchOptions(seed=5))
    b = search(variant, prefs, SearchOptions(seed=5))
    assert a.residual == b.residual
    assert a.point == b.point


def test_kuhn_simplices_subdivide_the_simplex():
    for parts in (2, 3, 4, 5):
        for k in (1, 2, 3, 4):
            simplices = np.concatenate(list(_kuhn_simplices(parts, k, chunk=7)))
            assert simplices.shape == (k ** (parts - 1), parts, parts)
            assert (simplices >= 0).all() and (simplices.sum(axis=2) == k).all()
            # every small simplex has unit volume, and none repeats
            edges = (simplices[:, 1:, 1:] - simplices[:, :1, 1:]).astype(float)
            assert np.allclose(np.abs(np.linalg.det(edges)), 1.0)
            assert len({frozenset(map(tuple, s)) for s in simplices}) == len(simplices)
            vertices = {tuple(v) for s in simplices for v in s}
            assert vertices == set(_barycentric_grid(parts, k))
            # and they tile: a random point lies in exactly one of them
            corners = np.swapaxes(simplices, 1, 2).astype(float)
            rng = np.random.default_rng(10 * parts + k)
            for w in k * rng.dirichlet(np.ones(parts), size=20):
                lam = np.linalg.solve(corners, np.broadcast_to(w, (len(corners), parts))[..., None])
                assert (lam[..., 0] >= 0).all(axis=1).sum() == 1


@pytest.mark.parametrize(
    "space, r, reps, facets", [("c1", 4, 4, 96), ("c3", 4, 15, 256), ("c2", 3, 10, 60)]
)
def test_orbit_representatives_meet_every_orbit_once(space, r, reps, facets):
    variant = for_space(space, r)
    all_facets = list(oracles.listed_facets(variant))
    chosen = _orbit_facets(variant)
    assert (len(chosen), len(all_facets)) == (reps, facets)
    # each is a facet, its cells ordered by tile
    assert all(tuple(sorted(cells)) in all_facets for cells in chosen)
    assert all([tile for _, tile in cells] == sorted(tile for _, tile in cells) for cells in chosen)
    rep_sets = [frozenset(cells) for cells in chosen]
    for facet in all_facets:
        images = {
            frozenset((sigma[box - 1], tile) for box, tile in facet)
            for sigma in itertools.permutations(range(1, r + 1))
        }
        assert sum(rep in images for rep in rep_sets) == 1


@pytest.mark.parametrize("space, r", [(space, r) for space in ("c1", "c2", "c3") for r in (2, 3, 4, 5)])
def test_grid_points_count_the_distinct_points_of_a_grid(space, r):
    # the (cut, allocation) keys the search's point memo holds for one grid
    variant = for_space(space, r)
    reps = _orbit_facets(variant)
    faces = _face_sizes(reps)
    for k in (2, max(4, r), 2 * max(4, r)):
        keys = set()
        for counts in _barycentric_grid(r, k):
            w = _normalized_weights(np.array(counts) / k)
            for cells in reps:
                point = _barycentric_point(variant, cells, w)
                keys.add((point.cut.points, point.allocation))
        assert _grid_points(faces, k) == len(keys), k


def test_pl_zero_of_an_affine_map_is_its_zero():
    # an affine F is its own PL interpolation; the second target lies on
    # faces shared by several small simplices and is still reported once;
    # the third is a grid point, where F is exactly zero at a vertex
    points = np.array(list(_barycentric_grid(3, 4))) / 4
    index = {tuple(p): i for i, p in enumerate(np.round(points * 4).astype(int))}
    simplices = np.array(
        [[index[tuple(v)] for v in s] for s in np.concatenate(list(_kuhn_simplices(3, 4)))]
    )
    for target in ([0.21, 0.33, 0.46], [0.2, 0.3, 0.5], [0.25, 0.25, 0.5]):
        zeros = _pl_zeros(points, points - np.array(target), simplices, chunk=5)
        assert len(zeros) == 1
        assert np.allclose(zeros[0], target)


def test_search_rejects_facets_with_fewer_cells_than_boxes():
    variant = chessboard(3, 2)
    with pytest.raises(ValueError):
        search(variant, make_builtin("hungry", 3, kind="new", variant=variant))


def test_search_reports_its_counters():
    variant = gorbushka_join(4)
    prefs = make_builtin("piecewise_random", 4, kind="new", variant=variant, seed=0)
    result = search(variant, prefs, SearchOptions())
    assert result.converged
    assert result.orbit_representatives == 4
    assert result.denominator == result.pl_zeros[-1][0]
    assert [k for k, _ in result.pl_zeros] == [4 * 2**i for i in range(len(result.pl_zeros))]
    assert all(count >= 1 for _, count in result.pl_zeros)


def test_solve_requires_new_style():
    with pytest.raises(ValueError):
        solve(gorbushka_join(3), make_builtin("hungry", 3))


def test_solve_validates_preferences():
    variant = gorbushka_join(3)
    broken = row_shuffled(
        make_builtin("piecewise_random", 3, kind="new", variant=variant, seed=3)
    )
    with pytest.raises(PreferenceValidationError):
        solve(variant, broken)


def test_row_shuffled_oracle_is_rejected_before_the_search(monkeypatch):
    # the orbit reduction of the search is only sound for box-blind oracles
    def no_search(*args, **kwargs):
        raise AssertionError("search ran on an oracle that is not equivariant")

    monkeypatch.setattr(solver, "search", no_search)
    variant = gorbushka_join(4)
    broken = row_shuffled(
        make_builtin("piecewise_random", 4, kind="new", variant=variant, seed=1)
    )
    with pytest.raises(PreferenceValidationError):
        solve(variant, broken)


def test_solve_names_the_axiom_that_failed(monkeypatch):
    monkeypatch.setattr(solver, "search", lambda *args: pytest.fail("search ran on a refused oracle"))
    variant = gorbushka_join(3)
    shuffled = row_shuffled(make_builtin("piecewise_random", 3, kind="new", variant=variant, seed=3))
    count = len(validate(shuffled, "equivariance", 200, seed=0).violations)
    with pytest.raises(PreferenceValidationError, match=f"fail equivariance: {count} violations in 200"):
        solve(variant, shuffled)
    # a player who accepts nothing at every sample fails covering, which is
    # named before equivariance
    raw = shuffled.raw
    shuffled.raw = lambda player, point: [0.0] * 3 if player == 2 else raw(player, point)
    with pytest.raises(PreferenceValidationError, match="fail covering: 200 violations in 200"):
        solve(variant, shuffled)
    # brute force checks equivariance alone: it certifies non-covering
    # oracles infeasible
    plain = make_builtin("gorbushka", 3, kind="new", variant=variant, params={"dte": False})
    with pytest.raises(PreferenceValidationError, match="fail covering"):
        solve(variant, plain)
    assert not brute_force(variant, plain, 7).feasible


def test_solve_hungry_matches_equal_split():
    variant = gorbushka_join(3)
    prefs = make_builtin("hungry", 3, kind="new", variant=variant)
    division = solve(variant, prefs)
    assert division.residual <= 1e-6
    assert np.allclose(division.point.cut.points, [1 / 3, 2 / 3], atol=1e-6)
    assert verify_division(division, prefs)
    assert division.min_assigned_score() == pytest.approx(1 / 3, abs=1e-9)


def test_solve_leaves_an_unbound_oracle_unbound():
    variant = gorbushka_join(2)
    prefs = make_builtin("hungry", 2, kind="new", variant=variant)
    prefs.variant = None
    division = solve(variant, prefs)
    assert division.residual <= 1e-6
    assert prefs.variant is None


def test_solve_reports_budget_exhaustion():
    # a budget of 100 evaluations admits only the k=4 grid (35 distinct
    # points; k=8 would need 117); its one PL zero refines to a residual of
    # about 4e-3 only
    variant = gorbushka_join(3)
    prefs = make_builtin("piecewise_random", 3, kind="new", variant=variant, seed=3)
    with pytest.raises(BudgetExhausted) as err:
        solve(variant, prefs, SearchOptions(coarse_budget=100))
    best = err.value.best
    assert best is not None and not best.converged
    assert best.residual > 1e-6
    assert best.denominator == 4 and best.orbit_representatives == 3


# c1 is guaranteed for r prime or 4, c2 and c3 for prime powers
GUARANTEED = [("c1", 2), ("c1", 3), ("c1", 4), ("c1", 5), ("c2", 2), ("c2", 3),
              ("c3", 2), ("c3", 3), ("c3", 4)]


@pytest.mark.parametrize("space, r", GUARANTEED)
def test_solve_converges_on_random_oracles_where_guaranteed(space, r):
    variant = for_space(space, r)
    for seed in range(8):
        prefs = make_builtin("piecewise_random", r, kind="new", variant=variant, seed=seed)
        division = solve(variant, prefs)
        assert division.residual <= 1e-6, seed
        assert verify_division(division, prefs)


def test_solve_c1_r5_random_seed_2():
    # this oracle once exhausted a budget of 744,950 oracle calls
    variant = gorbushka_join(5)
    prefs = make_builtin("piecewise_random", 5, kind="new", variant=variant, seed=2)
    division = solve(variant, prefs)
    assert division.residual <= 1e-6
    assert verify_division(division, prefs)


def test_solve_c2_r8_random_seed_0():
    # the largest chessboard solve admits; 8 is a prime power, so a division
    # exists, and the k=5 grid (181,168 distinct points) fits the default budget
    variant = for_space("c2", 8)
    prefs = make_builtin("piecewise_random", 8, kind="new", variant=variant, seed=0)
    division = solve(variant, prefs)
    assert division.residual <= 1e-6
    assert verify_division(division, prefs)


def test_solve_psi_lift_of_random_tables():
    # tables that are zero up to epsilon and positive above it; this lift
    # once stopped at a best residual of 4.4e-5
    epsilon = 0.02
    rng = np.random.default_rng(0)
    xs = [0.0, epsilon] + [i / 6 for i in range(1, 7)]
    tables = {
        player: {
            tile: [[x, 0.0 if x <= epsilon else float(rng.uniform(0.2, 1.0))] for x in xs]
            for tile in range(1, 4)
        }
        for player in range(1, 4)
    }
    lifted = psi(piecewise_from_tables(3, tables), epsilon)
    division = solve(gorbushka_join(3), lifted)
    assert division.residual <= 1e-6
    assert verify_division(division, lifted)


def test_hypothesis_helpers():
    assert _is_prime_power(2) and _is_prime_power(9) and _is_prime_power(8)
    assert not _is_prime_power(6) and not _is_prime_power(12)
    assert _hypothesis_met(gorbushka_join(4))
    assert not _hypothesis_met(gorbushka_join(6))
    assert _hypothesis_met(join_power(9))


def test_solve_warns_outside_the_guarantee_and_still_searches(caplog):
    # c1 guarantees a division only for r prime or 4
    variant = gorbushka_join(6)
    prefs = make_builtin("hungry", 6, kind="new", variant=variant)
    with caplog.at_level("WARNING", logger="envydiv.solver"):
        division = solve(variant, prefs)
    assert "r=6 is outside the existence guarantee" in caplog.text
    assert verify_division(division, prefs)


def test_solve_does_not_warn_inside_the_guarantee(caplog):
    variant = gorbushka_join(5)
    prefs = make_builtin("hungry", 5, kind="new", variant=variant)
    with caplog.at_level("WARNING", logger="envydiv.solver"):
        solve(variant, prefs)
    assert "existence guarantee" not in caplog.text


def test_verify_division_detects_zero_scores():
    variant = gorbushka_join(2)
    prefs = make_builtin("hungry", 2, kind="new", variant=variant)
    point = point_from_barycentric(variant, [(1, 1), (2, 2)], (0.5, 0.5))
    matrix = average_matrix(prefs, point)
    good = EnvyFreeDivision(point, matrix, (1, 2))
    assert verify_division(good, prefs)
    # the certificate and the residual are read off the matrix, so neither
    # can disagree with it
    assert good.certificate == [[bool(v > PREFERENCE_TOL) for v in row] for row in matrix.entries]
    assert good.residual == good.to_json()["residual"] == matrix.residual
    # hand box 1 (all the cake in tile 1's box) to both... a swapped pairing
    # with a zero-score box must fail
    lopsided = point_from_barycentric(variant, [(1, 1), (1, 2)], (0.5, 0.5))
    m2 = average_matrix(prefs, lopsided)
    bad = EnvyFreeDivision(lopsided, m2, (2, 1))
    assert not verify_division(bad, prefs)
    assert bad.certificate == [[True, False], [True, False]]
    with pytest.raises(ValueError):
        EnvyFreeDivision(point, matrix, (1, 1))


def test_brute_force_hungry_r2_grid51():
    variant = gorbushka_join(2)
    prefs = make_builtin("hungry", 2, kind="new", variant=variant)
    result = brute_force(variant, prefs, 51)
    assert result.feasible
    assert result.max_min_score == pytest.approx(0.5)
    assert result.point.cut.points == (0.5,)


def test_brute_force_hungry_r3_grid31():
    variant = gorbushka_join(3)
    prefs = make_builtin("hungry", 3, kind="new", variant=variant)
    result = brute_force(variant, prefs, 31)
    assert result.max_min_score == pytest.approx(1 / 3, abs=1e-9)
    assert np.allclose(result.point.cut.points, [1 / 3, 2 / 3], atol=1 / 30 + 1e-12)


def test_brute_force_certifies_gorbushka_impossibility():
    variant = gorbushka_join(3)
    plain = make_builtin("gorbushka", 3, kind="new", params={"dte": False}, variant=variant)
    result = brute_force(variant, plain, 21)
    assert not result.feasible
    assert result.max_min_score <= PREFERENCE_TOL


def test_brute_force_c2_embedding():
    lifted = phi(make_builtin("hungry", 2))
    result = brute_force(for_space("c2", 2), lifted, 21)
    assert result.feasible
    assert result.max_min_score == pytest.approx(0.5)


def test_brute_force_resource_caps():
    variant = gorbushka_join(6)
    prefs = make_builtin("hungry", 6, kind="new", variant=variant)
    with pytest.raises(ResourceCapExceeded):
        brute_force(variant, prefs, 11)
    small = make_builtin("hungry", 2, kind="new", variant=gorbushka_join(2))
    with pytest.raises(ResourceCapExceeded):
        brute_force(gorbushka_join(2), small, 65)


@pytest.mark.parametrize("space", ["c1", "c2", "c3"])
@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_canonical_allocations_are_the_filtered_enumeration(space, r):
    variant = for_space(space, r)
    relabellings = list(itertools.permutations(range(1, r + 1)))

    @functools.cache
    def orbit_least(boxes):
        return min(tuple(s[b - 1] for b in boxes) for s in relabellings)

    for size in range(1, variant.cols + 1):
        for essential in itertools.combinations(range(1, variant.cols + 1), size):
            # the lexicographically least allocation of each box-relabelling orbit
            expected = [
                list(alloc.items())
                for alloc in oracles.all_allocations(variant, essential)
                if tuple(alloc.values()) == orbit_least(tuple(alloc.values()))
            ]
            direct = [list(alloc.items()) for alloc in _canonical_allocations(variant, essential)]
            assert direct == expected, essential


BRUTE_EQUIVALENCE = [("c1", r) for r in (2, 3, 4)] + [("c2", r) for r in (2, 3)] + [
    ("c3", r) for r in (2, 3, 4)
]


def _all_tie(variant):
    """Every player scores every box the same: every point ties."""
    r = variant.rows
    return PreferenceMatrix(r=r, kind="new", model="tie", raw=lambda player, point: [1.0] * r, variant=variant)


@pytest.mark.parametrize("space, r", BRUTE_EQUIVALENCE)
def test_brute_force_orbit_scan_matches_the_full_scan(space, r, monkeypatch):
    # the first strict maximum of the full scan is the first of its orbit,
    # so the orbit scan reports the same point, value and assignment; with
    # the gathered chunk cut to a point or two, every scan spans many chunks
    # and the first maximum must survive the chunk boundaries, also where
    # every point ties (all-tie) or none clears the threshold (gorbushka
    # without degenerate tiles, at r >= 3)
    variant = for_space(space, r)
    models = [make_builtin(model, r, kind="new", variant=variant, seed=0) for model in BUILTIN_MODELS]
    models += [_all_tie(variant), make_builtin("gorbushka", r, kind="new", params={"dte": False}, variant=variant)]
    fulls = [oracles.full_brute_scan(variant, prefs, 7) for prefs in models]
    evaluated = {full.pop("evaluated") for full in fulls}
    entries = math.factorial(r) * r
    for gather in (solver.BRUTE_GATHER, entries, 2 * entries + 1):
        monkeypatch.setattr(solver, "BRUTE_GATHER", gather)
        for prefs, full in zip(models, fulls):
            orbits = brute_force(variant, prefs, 7).to_json()
            assert orbits.pop("evaluated") < min(evaluated)
            assert orbits == full, (prefs.model, gather)
    # one or two points a chunk: every scan spans more than two chunks
    assert _scan_size(variant, 7) > 2 * 2
    assert brute_force(variant, models[-2], 7).max_min_score == 1.0 / r
    if r >= 3:
        assert not brute_force(variant, models[-1], 7).feasible


@pytest.mark.parametrize(
    "r, grids", [(4, {"c1": 9, "c2": 7, "c3": 7}), (5, {"c1": 9, "c2": 7, "c3": 7})]
)
def test_brute_force_agrees_with_solve_up_to_five_players(r, grids):
    for space, grid in grids.items():
        variant = for_space(space, r)
        prefs = make_builtin("piecewise_random", r, kind="new", variant=variant, seed=0)
        division = solve(variant, prefs)
        result = brute_force(variant, prefs, grid)
        assert result.feasible
        assert abs(result.max_min_score - division.min_assigned_score()) <= 0.05, space


def test_brute_force_rejects_a_row_shuffled_oracle():
    variant = gorbushka_join(3)
    broken = row_shuffled(make_builtin("piecewise_random", 3, kind="new", variant=variant))
    with pytest.raises(PreferenceValidationError):
        brute_force(variant, broken, 7)


def test_brute_force_binds_or_rejects_the_oracle_board():
    bound = make_builtin("piecewise_random", 3, kind="new", variant=gorbushka_join(3))
    with pytest.raises(ValueError, match="bound to"):
        brute_force(join_power(3), bound, 7)
    unbound = make_builtin("hungry", 3, kind="new", variant=join_power(3))
    unbound.variant = None
    assert brute_force(join_power(3), unbound, 7).feasible
    assert unbound.variant is None
    with pytest.raises(ValueError, match="new-style"):
        brute_force(gorbushka_join(3), make_builtin("hungry", 3), 7)


@pytest.mark.parametrize("model", ["piecewise_random", "row_shuffled"])
@pytest.mark.parametrize("run", [solve, lambda variant, prefs: brute_force(variant, prefs, 5)], ids=["solve", "brute"])
def test_an_oracle_of_another_player_count_is_refused_before_a_row_is_read(run, model):
    # an unbound r=3 oracle on an r=4 board: the gate would ask it for rows
    # at points of 4 boxes
    prefs = make_builtin("piecewise_random", 3, kind="new")
    if model == "row_shuffled":
        prefs = row_shuffled(prefs)
    calls = []
    raw = prefs.raw
    prefs = dataclasses.replace(prefs, variant=None, raw=lambda player, point: calls.append(player) or raw(player, point))
    with pytest.raises(ValueError, match="oracle has 3 players, the board .* has 4 rows"):
        run(gorbushka_join(4), prefs)
    assert calls == []


def test_division_json_fields():
    variant = gorbushka_join(2)
    prefs = make_builtin("hungry", 2, kind="new", variant=variant)
    division = solve(variant, prefs)
    doc = division.to_json()
    assert set(doc) == {"point", "assignment", "residual", "matrix"}
    assert doc["assignment"] == [1, 2] or doc["assignment"] == [2, 1]
    assert len(doc["matrix"]) == 2


def test_zero_residual_bounds_column_sums():
    # residual <= tol forces every column sum into [1 - r*tol, 1 + r*tol]
    rng = np.random.default_rng(9)
    for _ in range(30):
        r = int(rng.integers(2, 6))
        m = StochasticMatrix(random_doubly_stochastic(rng, r))
        tol = max(m.residual, 1e-12)
        cols = m.entries.sum(axis=0)
        assert ((cols >= 1 - r * tol - 1e-12) & (cols <= 1 + r * tol + 1e-12)).all()


def test_larger_coarse_budget_never_worsens_residual():
    variant = gorbushka_join(3)
    prefs = make_builtin("piecewise_random", 3, kind="new", variant=variant, seed=3)
    residuals = [
        search(variant, prefs, SearchOptions(coarse_budget=budget)).residual
        # the exact edges of the k = 4, 8 and 16 grids
        for budget in (35, 117, 425, 200_000)
    ]
    assert all(b <= a for a, b in zip(residuals, residuals[1:]))
    assert residuals[-1] <= 1e-6 < residuals[0]


def test_average_matrix_uniform_hungry_point():
    variant = gorbushka_join(3)
    prefs = make_builtin("hungry", 3, kind="new", variant=variant)
    point = point_from_barycentric(
        variant, [(1, 1), (2, 2), (3, 3)], (1 / 3, 1 / 3, 1 / 3)
    )
    m = average_matrix(prefs, point)
    assert np.allclose(m.entries, 1 / 3)
    assert m.residual == 0.0


@pytest.mark.parametrize("space, r", BRUTE_EQUIVALENCE)
def test_brute_force_counts_its_points_before_scanning(space, r):
    variant = for_space(space, r)
    prefs = make_builtin("piecewise_random", r, kind="new", variant=variant, seed=0)
    for grid in (2, 7, 12):
        points = _scan_size(variant, grid)
        assert brute_force(variant, prefs, grid).evaluated == points
        assert brute_force(variant, prefs, grid, work_cap=points).evaluated == points
        with pytest.raises(ResourceCapExceeded):
            brute_force(variant, prefs, grid, work_cap=points - 1)


def test_brute_force_cap_raises_before_the_oracle_is_called():
    variant = join_power(5)
    prefs, calls = _counted(make_builtin("piecewise_random", 5, kind="new", variant=variant))
    assert _scan_size(variant, 64) == 31_940_235
    with pytest.raises(ResourceCapExceeded, match="31940235 points"):
        brute_force(variant, prefs, 64)
    assert calls[0] == 0


@pytest.mark.parametrize("space, r", [("c1", 3), ("c2", 3), ("c3", 3)])
def test_brute_force_points_equal_checked_points(space, r):
    variant = for_space(space, r)
    for cut in _grid_cuts(variant, 7):
        essential = tuple(t for t, length in enumerate(cut.lengths, start=1) if length > 1e-9)
        for alloc in _canonical_allocations(variant, essential):
            assert _face_point(variant, cut, tuple(alloc.items())) == canonicalize(cut, alloc, variant)


#: (space, r, grid) of the brute_force scans in the tests and the benchmark
BRUTE_BOARDS = [
    ("c1", 2, 51), ("c1", 3, 31), ("c1", 3, 21), ("c2", 3, 21), ("c3", 3, 21),
    ("c1", 4, 9), ("c2", 4, 11), ("c3", 4, 7), ("c2", 2, 7), ("c2", 5, 7),
]


def _checked_grid_cuts(variant, grid):
    """``_grid_cuts`` through the public, checked constructors."""
    values = [i / (grid - 1) for i in range(grid)]
    for pts in itertools.combinations_with_replacement(values, variant.rows - 1):
        if variant.kind == "chessboard":
            z = [0.0] * variant.cols
            for i, length in enumerate(Cut(pts).lengths):
                z[2 * i] = length
            yield oracles.checked_cut(z)
        else:
            yield Cut(pts)


@pytest.mark.parametrize("space, r, grid", BRUTE_BOARDS)
def test_grid_cuts_equal_checked_cuts(space, r, grid):
    variant = for_space(space, r)
    count = 0
    for cut, checked in itertools.zip_longest(_grid_cuts(variant, grid), _checked_grid_cuts(variant, grid)):
        assert cut.points == checked.points
        assert cut.lengths == checked.lengths
        count += 1
    assert count == len(list(itertools.combinations_with_replacement(range(grid), r - 1)))


def _poisoned(prefs, value):
    """The oracle with player 1's first raw score replaced by ``value``."""
    raw = prefs.raw

    def poisoned(player, point):
        scores = list(raw(player, point))
        if player == 1:
            scores[0] = value
        return scores

    return PreferenceMatrix(
        r=prefs.r, kind=prefs.kind, model=f"{prefs.model}+poisoned", raw=poisoned,
        variant=prefs.variant, params=dict(prefs.params),
    )


@pytest.mark.parametrize(
    "value, message", [(float("nan"), "non-finite"), (float("inf"), "non-finite"), (-0.5, "negative")]
)
def test_non_finite_or_negative_scores_raise(value, message):
    # a NaN must not pass covering and equivariance: solve would then fail
    # on a TypeError, and brute_force would certify infeasibility falsely
    variant = gorbushka_join(3)
    bad = _poisoned(make_builtin("piecewise_random", 3, kind="new", variant=variant), value)
    with pytest.raises(ValueError, match=message) as raised:
        solve(variant, bad)
    assert not isinstance(raised.value, PreferenceValidationError)
    with pytest.raises(ValueError, match=message):
        brute_force(variant, bad, 7)
    for prop in ("covering", "equivariance", "continuity"):
        with pytest.raises(ValueError, match=message):
            validate(bad, prop, 20, seed=0)
    with pytest.raises(ValueError, match=message):
        validate(_poisoned(make_builtin("hungry", 3), value), "covering", 20, seed=0)
    # a phi source: rejected when lifted, and when it turns bad afterwards
    with pytest.raises(ValueError, match=message):
        phi(_poisoned(make_builtin("hungry", 3), value))
    source = make_builtin("hungry", 3)
    lifted = phi(source)
    source.raw = _poisoned(source, value).raw
    with pytest.raises(ValueError, match=message):
        solve(for_space("c2", 3), lifted)


def _counted(prefs):
    calls = [0]
    raw = prefs.raw

    def counting(player, point):
        calls[0] += 1
        return raw(player, point)

    prefs.raw = counting
    return prefs, calls


@pytest.mark.parametrize(
    "model, space, r, seed, evaluations", [("piecewise_random", "c3", 4, 1, 255), ("hungry", "c1", 5, 0, 386)]
)
def test_search_scores_each_point_once(model, space, r, seed, evaluations):
    # grid points on faces that orbit representatives share, and points of a
    # coarser grid, repeat; the search scores each (cut, allocation) once
    # and counts only what it scores (551 and 581 evaluations before)
    variant = for_space(space, r)
    prefs = make_builtin(model, r, kind="new", variant=variant, seed=seed)
    raw, seen = prefs.raw, []

    def recording(player, point):
        seen.append((player, point.cut.points, point.allocation))
        return raw(player, point)

    prefs.raw = recording
    result = search(variant, prefs)
    assert result.converged
    assert result.evaluations == evaluations
    assert len(seen) == r * evaluations
    assert len(set(seen)) == len(seen)


def _wrong_length(prefs, extra):
    """``prefs`` whose rows lose their last score (extra=-1) or gain one."""
    raw = prefs.raw

    def resized(player, point):
        row = list(raw(player, point))
        return row[:-1] if extra < 0 else row + [0.5] * extra

    return PreferenceMatrix(r=prefs.r, kind=prefs.kind, model="resized", raw=resized, variant=prefs.variant)


@pytest.mark.parametrize("extra", [-1, 1])
def test_wrong_length_rows_raise_naming_the_player_and_the_count(extra):
    # the row length is checked where a row is normalized, so every entry
    # point raises the same ValueError, not a numpy error, and covering no
    # longer passes such an oracle
    variant = gorbushka_join(3)
    prefs = _wrong_length(make_builtin("piecewise_random", 3, kind="new", variant=variant), extra)
    message = f"oracle returned {3 + extra} scores for player 1, expected 3"
    for prop in ("covering", "equivariance", "covering+equivariance"):
        with pytest.raises(ValueError, match=message):
            validate(prefs, prop, 10)
    with pytest.raises(ValueError, match=message):
        solve(variant, prefs)
    with pytest.raises(ValueError, match=message):
        brute_force(variant, prefs, 7)
    old = _wrong_length(make_builtin("hungry", 3), extra)
    for prop in ("covering", "p_dte", "p_pe", "continuity"):
        with pytest.raises(ValueError, match=message):
            validate(old, prop, 10)
    with pytest.raises(ValueError, match=message):
        psi(old, 1e-3)


def test_solve_caps_players_before_the_oracle_is_called():
    variant = gorbushka_join(9)
    prefs, calls = _counted(make_builtin("piecewise_random", 9, kind="new", variant=variant))
    with pytest.raises(ResourceCapExceeded, match="at most 8 players"):
        solve(variant, prefs)
    assert calls[0] == 0


def test_search_refuses_a_coarsest_grid_over_budget_before_the_oracle_is_called():
    variant = for_space("c2", 8)
    prefs, calls = _counted(make_builtin("piecewise_random", 8, kind="new", variant=variant))
    # the k=2 grid holds the 64 cells and the 1,008 distinct edges of the
    # 6,435 orbit representatives, a point each
    with pytest.raises(ResourceCapExceeded, match="needs 1072 evaluations"):
        search(variant, prefs, SearchOptions(coarse_budget=1071))
    assert calls[0] == 0


def test_sampling_and_search_set_up_need_no_facet_list(monkeypatch):
    def refuse(variant):
        raise AssertionError(f"the facet list of {variant} was built")

    monkeypatch.setattr(complexes, "build_complex", refuse)
    variant = for_space("c3", 7)
    prefs = make_builtin("piecewise_random", 7, kind="new", variant=variant)
    for prop in ("covering", "equivariance"):
        assert validate(prefs, prop, sample_count=200).passed
    # the 28 cells and 287 distinct edges of the 877 orbit representatives
    with pytest.raises(ResourceCapExceeded, match="needs 315 evaluations"):
        search(variant, prefs, SearchOptions(coarse_budget=314))


def test_solve_and_brute_force_make_a_fixed_number_of_oracle_calls():
    variant = gorbushka_join(3)
    prefs, calls = _counted(make_builtin("piecewise_random", 3, kind="new", variant=variant, seed=0))
    solve(variant, prefs)
    # 1,200 calls validate covering and equivariance in one pass (200
    # samples, 3 players, at the point and at its relabelling); then the
    # search scores 85 distinct points (of the 95 it reached, 10 repeat a
    # point on a face that two representatives share), 3 calls each, and
    # average and verify call 3 each: 3 x 85 + 6 = 261
    assert calls[0] == 1200 + 261
    calls[0] = 0
    # 1,200 calls validate equivariance, then 3 score each of the 101 points
    assert brute_force(variant, prefs, 9).evaluated == 101
    assert calls[0] == 1200 + 3 * 101
    source, calls = _counted(make_builtin("hungry", 3))
    lifted = phi(source)
    # the lift checks its source on 120 samples: covering, 3 players each,
    # and p_pe, 3 players at two points each
    assert calls[0] == 120 * 3 + 120 * 6
    calls[0] = 0
    # the lift is a box oracle, so validation reads its rows at the 200
    # unpermuted sample points only; the search then scores 16 points.  Each
    # of the 216 cuts, all distinct, calls the source once per player, and
    # again at the 15 + 3 cuts that reduce differently along the two
    # deletion orders: 3 x (216 + 18) = 702.  Average and verify query the
    # search's last cut again, which the memo still holds
    solve(for_space("c2", 3), lifted)
    assert calls[0] == 3 * (216 + 18)
