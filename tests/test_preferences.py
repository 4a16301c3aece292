import dataclasses
import json
import math

import numpy as np
import pytest

from envydiv import preferences
from envydiv.complexes import facet_at, for_space, gorbushka_join, join_power
from envydiv.configspace import (
    DEGENERACY_TOL,
    Cut,
    _face_point,
    act,
    canonicalize,
    point_from_barycentric,
)
from envydiv.preferences import (
    BUILTIN_MODELS,
    MAX_PLAN_SAMPLES,
    NEW,
    OLD,
    PREFERENCE_TOL,
    RANDOM_FLOOR,
    VALIDATION_PROPERTIES,
    BoxOracle,
    PreferenceMatrix,
    _normalized,
    _PiecewiseTable,
    _plan,
    _random_tables,
    _repad_zeros,
    _rows,
    _samples,
    _uniform_simplex,
    load_preference_file,
    make_builtin,
    piecewise_from_tables,
    row_shuffled,
    sample_config_point,
    sample_lengths,
    score_matrix,
    scores,
    validate,
)
from envydiv.reductions import phi, psi
from envydiv.solver import _canonical_allocations, solve


def test_make_builtin_rejects_unknowns():
    with pytest.raises(ValueError):
        make_builtin("caviar", 3)
    with pytest.raises(ValueError):
        make_builtin("hungry", 3, kind="sideways")
    with pytest.raises(ValueError):
        make_builtin("piecewise_random", 3, seed=-4)
    with pytest.raises(ValueError):
        make_builtin("burnt", 3, params={"plateau": 1.5})


def test_hungry_scores_match_lengths():
    prefs = make_builtin("hungry", 3)
    assert np.allclose(scores(prefs, 1, (1 / 3, 1 / 3, 1 / 3)), [1 / 3] * 3)
    assert np.allclose(scores(prefs, 2, (1.0, 0.0, 0.0)), [1, 0, 0])
    # a crumb below the margin is worthless
    s = scores(prefs, 1, (0.0005, 0.4995, 0.5))
    assert s[0] == 0.0 and s[1] > 0 and s[2] > 0


def test_gorbushka_scores_end_tiles_only():
    prefs = make_builtin("gorbushka", 3)
    s = scores(prefs, 1, (0.25, 0.25, 0.5))
    assert s[0] > 0 and s[2] > 0 and s[1] == 0.0


def test_gorbushka_degenerate_tiles_score_equally():
    prefs = make_builtin("gorbushka", 3)
    s = scores(prefs, 1, (0.0, 0.0, 1.0))
    assert s[0] == s[1] > 0


def test_burnt_prefers_degenerate_tiles():
    prefs = make_builtin("burnt", 3)
    s = scores(prefs, 1, (0.0, 0.0, 1.0))
    assert s[0] == s[1] == max(s)
    assert s[2] == min(s)


def test_scores_normalize_and_stay_nonnegative():
    for name in ("hungry", "gorbushka", "burnt", "piecewise_random"):
        prefs = make_builtin(name, 4, seed=3)
        rng = np.random.default_rng(0)
        for _ in range(50):
            z = rng.dirichlet(np.ones(4))
            s = scores(prefs, 1, tuple(z))
            assert (s >= 0).all()
            assert abs(s.sum() - 1.0) < 1e-12


def test_domain_mismatch_raises():
    old = make_builtin("hungry", 3)
    new = make_builtin("hungry", 3, kind=NEW, variant=gorbushka_join(3))
    point = point_from_barycentric(
        gorbushka_join(3), [(1, 1), (2, 2), (3, 3)], (1 / 3, 1 / 3, 1 / 3)
    )
    with pytest.raises(TypeError):
        scores(old, 1, point)
    with pytest.raises(TypeError):
        scores(new, 1, (1 / 3, 1 / 3, 1 / 3))
    with pytest.raises(ValueError):
        scores(old, 9, (1 / 3, 1 / 3, 1 / 3))


def test_new_style_hungry_scores_box_content():
    variant = gorbushka_join(3)
    prefs = make_builtin("hungry", 3, kind=NEW, variant=variant)
    point = point_from_barycentric(variant, [(1, 1), (2, 2), (3, 3)], (1 / 3, 1 / 3, 1 / 3))
    assert np.allclose(scores(prefs, 1, point), [1 / 3] * 3)
    # an empty box feeds nobody
    shared = point_from_barycentric(variant, [(1, 1), (2, 2), (1, 3)], (0.3, 0.3, 0.4))
    s = scores(prefs, 1, shared)
    assert s[2] == 0.0


def test_new_style_gorbushka_empty_boxes_when_all_cuts_at_zero():
    variant = gorbushka_join(3)
    prefs = make_builtin("gorbushka", 3, kind=NEW, variant=variant)
    point = canonicalize(Cut((0.0, 0.0)), {1: 3, 2: 3, 3: 3}, variant)
    s = scores(prefs, 1, point)
    assert s[0] == s[1] > PREFERENCE_TOL  # the two empty boxes
    assert np.allclose(s, [1 / 3] * 3)


def test_validate_covering_builtin_models():
    for name in ("hungry", "gorbushka", "burnt", "piecewise_random"):
        old = make_builtin(name, 3, seed=5)
        assert validate(old, "covering", 400, seed=1).passed
        new = make_builtin(name, 3, kind=NEW, variant=gorbushka_join(3), seed=5)
        assert validate(new, "covering", 400, seed=1).passed


def test_validate_covering_catches_non_covering_oracle():
    plain = make_builtin("gorbushka", 3, params={"dte": False})
    report = validate(plain, "covering", 600, seed=2)
    assert not report.passed
    assert report.violations


def test_validate_equivariance_builtin_models():
    for space in ("c1", "c2", "c3"):
        variant = for_space(space, 3)
        for name in ("hungry", "gorbushka", "burnt", "piecewise_random"):
            prefs = make_builtin(name, 3, kind=NEW, variant=variant, seed=4)
            report = validate(prefs, "equivariance", 300, seed=3, tol=1e-12)
            assert report.passed, (space, name, report.max_deviation)


def test_validate_equivariance_catches_shuffled_oracle():
    prefs = make_builtin("piecewise_random", 3, kind=NEW, variant=gorbushka_join(3), seed=4)
    broken = row_shuffled(prefs)
    report = validate(broken, "equivariance", 300, seed=3)
    assert not report.passed
    assert len(report.violations) >= 1


def test_validate_p_dte():
    assert validate(make_builtin("gorbushka", 3), "p_dte", 400, seed=0).passed
    assert validate(make_builtin("burnt", 3), "p_dte", 400, seed=0).passed
    assert validate(make_builtin("hungry", 3), "p_dte", 400, seed=0).passed
    # tables pin zero-length scores to 0, so even the random model treats
    # all degenerate tiles alike
    assert validate(make_builtin("piecewise_random", 3, seed=11), "p_dte", 400, seed=0).passed
    # an oracle that rates empty tiles differently per slot is caught
    flat = [[0.0, 1.0], [1.0, 1.0]]
    sloped = [[0.0, 0.2], [1.0, 1.0]]
    tables = {str(j): {"1": flat, "2": sloped, "3": flat} for j in (1, 2, 3)}
    report = validate(piecewise_from_tables(3, tables), "p_dte", 400, seed=0)
    assert not report.passed


def test_validate_p_pe():
    assert validate(make_builtin("hungry", 3), "p_pe", 300, seed=0).passed
    report = validate(make_builtin("gorbushka", 4), "p_pe", 300, seed=0)
    # moving a zero into the end slot flips which tiles count as gorbushkas
    assert not report.passed


def test_validate_p_pe_flags_a_degenerate_tile_liked_in_one_slot_only():
    # every solid tile is liked, so clause 1 holds; a degenerate tile is
    # liked in the first slot only, so repadding the zeros breaks clause 2
    def raw(player, z):
        return [1.0 if v > DEGENERACY_TOL or i == 0 else 0.0 for i, v in enumerate(z)]

    prefs = PreferenceMatrix(r=3, kind=OLD, model="first_crumb", raw=raw)
    report = validate(prefs, "p_pe", 200, seed=0)
    assert report.violations
    assert {v["clause"] for v in report.violations} == {2}


def test_validate_continuity_builtins():
    for name in ("hungry", "gorbushka", "burnt", "piecewise_random"):
        prefs = make_builtin(name, 3, seed=6)
        assert validate(prefs, "continuity", 300, seed=5).passed, name


def test_validate_continuity_flags_a_step():
    # a score that jumps as a tile leaves length zero
    step = PreferenceMatrix(r=3, kind=OLD, model="step", raw=lambda j, z: [2.0 if v > 0 else 1.0 for v in z])
    report = validate(step, "continuity", 20, seed=0)
    assert not report.passed
    assert all(v["deviation"] > 1e4 * v["distance"] for v in report.violations)


def test_finite_scores_overflowing_their_sum_raise():
    huge = PreferenceMatrix(r=2, kind=OLD, model="x", raw=lambda j, z: [1e308, 1e308])
    with pytest.raises(ValueError, match="overflow"):
        validate(huge, "covering", 5)


def _one_player_refuses(r=3, refusing=2):
    """A c1 ``piecewise_random`` oracle whose player ``refusing`` scores
    every box zero, everywhere; every other player accepts a box."""
    prefs = make_builtin("piecewise_random", r, kind=NEW, variant=for_space("c1", r))
    raw = prefs.raw
    prefs.raw = lambda player, point: [0.0] * r if player == refusing else raw(player, point)
    return prefs


def test_covering_is_per_player():
    # one player who accepts nothing breaks covering, although the others
    # accept a box at every point
    prefs = _one_player_refuses()
    report = validate(prefs, "covering", 200, seed=0)
    assert len(report.violations) == 200
    both = validate(prefs, "covering+equivariance", 200, seed=0)
    assert [v["player"] for v in both.violations] == [2] * 200
    assert {v["axiom"] for v in both.violations} == {"covering"}


def test_covering_and_equivariance_in_one_pass_match_the_two_checks():
    # one stream of samples: the equivariance witnesses are those of the
    # equivariance check, and the covering ones are its points where some
    # player accepts no box
    variant = for_space("c2", 3)
    cases = [
        make_builtin("gorbushka", 3, kind=NEW, variant=variant),
        make_builtin("gorbushka", 3, kind=NEW, variant=variant, params={"dte": False}),
        row_shuffled(make_builtin("piecewise_random", 3, kind=NEW, variant=variant, seed=4)),
        make_builtin("piecewise_random", 3, kind=NEW, variant=variant, seed=4),
    ]
    for prefs in cases:
        both = validate(prefs, "covering+equivariance", 200, seed=3)
        equivariance = validate(prefs, "equivariance", 200, seed=3)
        covering = [v for v in both.violations if v.pop("axiom") == "covering"]
        assert [v for v in both.violations if "sigma" in v] == equivariance.violations
        assert both.max_deviation == equivariance.max_deviation
        rng = np.random.default_rng(3)
        refused = []
        for i in range(200):
            point = sample_config_point(rng, variant, force_degenerate=i % 2 == 1)
            rng.permutation(3)
            players = np.flatnonzero(score_matrix(prefs, point).max(axis=1) <= PREFERENCE_TOL)
            if players.size:
                refused.append({"point": point.to_json(), "player": int(players[0]) + 1})
        assert covering == refused
    verdicts = [validate(prefs, "covering+equivariance", 200, seed=3).passed for prefs in cases]
    assert verdicts == [False, False, False, True]


@pytest.mark.parametrize("prop", VALIDATION_PROPERTIES)
@pytest.mark.parametrize("count", [0, -5])
def test_validation_needs_a_sample(prop, count):
    kind = OLD if prop.startswith("p_") else NEW
    prefs, calls = _counted(make_builtin("hungry", 3, kind=kind, variant=gorbushka_join(3)))
    with pytest.raises(ValueError, match="at least one sample"):
        validate(prefs, prop, count)
    assert calls[0] == 0


def test_validate_kind_checks():
    old = make_builtin("hungry", 3)
    new = make_builtin("hungry", 3, kind=NEW, variant=gorbushka_join(3))
    with pytest.raises(ValueError):
        validate(old, "equivariance")
    with pytest.raises(ValueError):
        validate(old, "covering+equivariance")
    with pytest.raises(ValueError):
        validate(new, "p_dte")
    with pytest.raises(ValueError):
        validate(old, "flavor")


def test_piecewise_from_tables():
    tables = {
        str(j): {str(t): [[0.0, 0.2], [0.5, 1.0], [1.0, 0.0]] for t in (1, 2)}
        for j in (1, 2)
    }
    prefs = piecewise_from_tables(2, tables)
    s = scores(prefs, 1, (0.5, 0.5))
    assert np.allclose(s, [0.5, 0.5])
    with pytest.raises(ValueError):
        piecewise_from_tables(3, tables)
    # a NaN breakpoint fails the checks when the table is read
    for pairs in ([[0.0, 0.2], [math.nan, 1.0], [1.0, 0.0]], [[0.0, 0.2], [0.5, math.nan], [1.0, 0.0]]):
        with pytest.raises(ValueError, match="breakpoints|non-negative"):
            piecewise_from_tables(2, {j: {t: pairs for t in (1, 2)} for j in (1, 2)})


def test_sample_config_point_respects_variant():
    rng = np.random.default_rng(0)
    for space in ("c1", "c2", "c3"):
        variant = for_space(space, 3)
        for _ in range(20):
            point = sample_config_point(rng, variant, force_degenerate=True)
            assert point.variant == variant


def test_load_preference_file(tmp_path):
    path = tmp_path / "prefs.json"
    path.write_text(json.dumps({"r": 3, "kind": "new", "model": "hungry"}))
    prefs = load_preference_file(path, space="c1")
    assert prefs.kind == NEW and prefs.variant == gorbushka_join(3)
    # a dict source is read as the file's JSON
    from_dict = load_preference_file({"r": 3, "kind": "new", "model": "hungry"}, space="c2")
    assert (from_dict.r, from_dict.kind, from_dict.variant) == (3, NEW, for_space("c2", 3))

    path.write_text(json.dumps({"r": 3, "kind": "old", "model": "hungry", "reduction": "psi"}))
    lifted = load_preference_file(path, space="c1")
    assert lifted.kind == NEW and lifted.model == "psi(hungry)"

    path.write_text(json.dumps({"r": 2, "model": "hungry"}))
    with pytest.raises(ValueError):
        load_preference_file(path, space="c1", r=3)

    path.write_text(json.dumps({"r": 3, "model": "mystery"}))
    with pytest.raises(ValueError):
        load_preference_file(path)


def test_old_oracle_accepts_cut_objects():
    prefs = make_builtin("hungry", 3)
    s = scores(prefs, 1, Cut((1 / 3, 2 / 3)))
    assert np.allclose(s, [1 / 3] * 3)


def _stacked_scores(prefs, point):
    return np.vstack([scores(prefs, j, point) for j in range(1, prefs.r + 1)])


@pytest.mark.parametrize("space", ["c1", "c2", "c3"])
@pytest.mark.parametrize("r", [2, 3, 4])
def test_score_matrix_rows_are_the_stacked_scores(space, r):
    variant = for_space(space, r)
    rng = np.random.default_rng(r)
    points = [sample_config_point(rng, variant, force_degenerate=i % 2 == 1) for i in range(30)]
    for model in BUILTIN_MODELS:
        prefs = make_builtin(model, r, kind="new", variant=variant, seed=3)
        for point in points:
            matrix = score_matrix(prefs, point)
            assert matrix.shape == (r, r)
            assert np.array_equal(matrix, _stacked_scores(prefs, point)), (model, point)
        old = make_builtin(model, r, seed=3)
        for i in range(30):
            z = sample_lengths(rng, r, force_degenerate=i % 2 == 1)
            assert np.array_equal(score_matrix(old, z), _stacked_scores(old, z)), (model, z)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_score_matrix_rows_are_the_stacked_scores_of_lifts(r):
    rng = np.random.default_rng(r)
    for lifted in (psi(make_builtin("hungry", r)), phi(make_builtin("hungry", r))):
        for i in range(30):
            point = sample_config_point(rng, lifted.variant, force_degenerate=i % 2 == 1)
            assert np.array_equal(score_matrix(lifted, point), _stacked_scores(lifted, point))


def test_score_matrix_checks_every_row():
    def raw(player, z):
        return [[1.0, 2.0, 1.0], [0.0, 0.0, 0.0], [1.0, -0.5, 1.0]][player - 1]

    prefs = PreferenceMatrix(r=3, kind=OLD, model="custom", raw=raw)
    with pytest.raises(ValueError, match="negative"):
        score_matrix(prefs, (0.2, 0.3, 0.5))
    zero_row = PreferenceMatrix(r=3, kind=OLD, model="custom", raw=lambda j, z: raw(min(j, 2), z))
    matrix = score_matrix(zero_row, (0.5, 0.5, 0.0))
    assert np.array_equal(matrix[0], [0.25, 0.5, 0.25])
    assert np.array_equal(matrix[1:], np.zeros((2, 3)))
    assert np.array_equal(matrix[1], scores(zero_row, 2, (0.5, 0.5, 0.0)))
    with pytest.raises(TypeError):
        score_matrix(make_builtin("hungry", 2, kind="new"), Cut((0.5,)))
    with pytest.raises(TypeError):
        score_matrix(make_builtin("hungry", 2), sample_config_point(np.random.default_rng(0), gorbushka_join(2)))


def _counted(prefs):
    calls = [0]
    raw = prefs.raw

    def counting(player, point):
        calls[0] += 1
        return raw(player, point)

    prefs.raw = counting
    return prefs, calls


@pytest.mark.parametrize(
    "model, params, space, prop, expected",
    [
        # covering reads every player's row at each sample, 3 x 200, also at
        # the 61 gorbushka samples where nobody accepts a box: 3 x 139 +
        # 3 x 61 (a reader stopping at the first refusing player made 478)
        ("piecewise_random", None, "c1", "covering", 600),
        ("gorbushka", {"dte": False}, "c2", "covering", 600),
        # equivariance scores every player at the point and at its relabelling
        ("piecewise_random", None, "c1", "equivariance", 1200),
        # and covering+equivariance reads covering off the first of the two
        ("piecewise_random", None, "c1", "covering+equivariance", 1200),
        ("burnt", None, "c2", "equivariance", 1200),
    ],
)
def test_validation_makes_a_fixed_number_of_oracle_calls(model, params, space, prop, expected):
    variant = for_space(space, 3)
    prefs, calls = _counted(make_builtin(model, 3, kind="new", params=params, variant=variant))
    validate(prefs, prop, sample_count=200, seed=0)
    assert calls[0] == expected


@pytest.mark.parametrize("prop, expected", [("equivariance", 0), ("covering+equivariance", 3 * 200)])
def test_validation_reads_a_box_oracle_at_the_unpermuted_point_only(monkeypatch, prop, expected):
    # a box oracle's rows at a relabelled point are its rows at the point,
    # permuted: equivariance alone draws and reads nothing, and covering
    # reads r rows per sample at the unpermuted point
    prefs = make_builtin("piecewise_random", 3, kind=NEW, variant=for_space("c1", 3))
    calls = [0]
    call = BoxOracle.__call__

    def counting(self, player, point):
        calls[0] += 1
        return call(self, player, point)

    monkeypatch.setattr(BoxOracle, "__call__", counting)
    if not expected:
        monkeypatch.setattr(preferences, "_samples", lambda *args: pytest.fail("a sample was drawn"))
    report = validate(prefs, prop, sample_count=200, seed=0)
    assert (report.samples, report.passed, report.max_deviation) == (200, True, 0.0)
    assert calls[0] == expected


def test_box_oracle_builds_a_scorer_per_player_and_cut_and_scores_a_content_once():
    built, scored = [], []

    def scorers(cut):
        built.append(cut.points)

        def scorer(player):
            def score(tiles, empty_boxes):
                scored.append((player, tiles, empty_boxes))
                return float(len(tiles) + empty_boxes)

            return score

        return [scorer(player) for player in (1, 2, 3)]

    raw = BoxOracle(scorers, 3)
    variant = join_power(3)
    cut = Cut((0.2, 0.5))
    # two relabellings of one allocation, then two of another
    allocations = ({1: 1, 2: 2, 3: 3}, {1: 2, 2: 3, 3: 1}, {1: 1, 2: 1, 3: 2}, {1: 2, 2: 2, 3: 1})
    points = [canonicalize(cut, alloc, variant) for alloc in allocations]
    rows = [raw(player, point) for point in points for player in (1, 2)]
    # every player's scorer in one build, which player 3 never queried
    assert built == [(0.2, 0.5)]
    assert rows[::2] == [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [3.0, 2.0, 1.0], [2.0, 3.0, 1.0]]
    # per player: three boxes of one tile and no empty box, then tiles 1
    # and 2, tile 3 and nothing, with one empty box
    assert sorted(scored) == sorted(
        (player, tiles, empty)
        for player in (1, 2)
        for tiles, empty in (((1,), 0), ((2,), 0), ((3,), 0), ((1, 2), 1), ((3,), 1), ((), 1))
    )
    # an equal cut rebuilt by value finds the scorers and their scores
    count = len(scored)
    assert raw(2, canonicalize(Cut((0.2, 0.5)), allocations[2], variant)) == rows[5]
    assert (built, len(scored)) == ([(0.2, 0.5)], count)
    # a query at another cut, or of another oracle, takes the memo; the
    # first cut then starts over
    raw(1, canonicalize(Cut((0.3, 0.6)), allocations[0], variant))
    raw(1, points[0])
    BoxOracle(scorers, 3)(1, points[0])
    raw(1, points[0])
    assert built == [(0.2, 0.5), (0.3, 0.6), (0.2, 0.5), (0.2, 0.5), (0.2, 0.5)]


def test_box_oracle_refuses_a_point_with_another_box_count():
    raw = BoxOracle(lambda player, cut: pytest.fail("a scorer was built"), 3)
    point = canonicalize(Cut((0.2, 0.5, 0.7)), {1: 1, 2: 2, 3: 3, 4: 4}, join_power(4))
    with pytest.raises(ValueError, match="expected a point with 3 boxes, got 4"):
        raw(1, point)


def test_box_oracle_refuses_a_player_outside_one_to_r():
    prefs = make_builtin("piecewise_random", 3, kind=NEW, variant=for_space("c1", 3))
    point = sample_config_point(np.random.default_rng(0), prefs.variant)
    for player in (0, 4):
        with pytest.raises(ValueError, match=f"player {player} outside 1..3"):
            prefs.raw(player, point)


@pytest.mark.parametrize("model", BUILTIN_MODELS)
def test_make_builtin_refuses_a_board_of_another_player_count(model):
    with pytest.raises(ValueError, match="a new-style oracle of 3 players needs a board of 3 rows"):
        make_builtin(model, 3, kind=NEW, variant=gorbushka_join(4))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: PreferenceMatrix(r=3, kind="sideways", model="x", raw=None), "kind must be 'old' or 'new'"),
        (lambda: PreferenceMatrix(r=1, kind=OLD, model="x", raw=None), "need at least two players"),
        (lambda: scores(make_builtin("hungry", 3), 1, (0.5, 0.5)), "expected 3 tile lengths, got 2"),
        (lambda: _PiecewiseTable([0.0, 1.0], [0.0]), "need matching x/y breakpoint lists"),
        (
            lambda: piecewise_from_tables(2, {"1": {"1": [[0.0, 1.0], [1.0, 1.0]], "2": [[0.0, 1.0], [1.0, 1.0]]}}),
            "missing piecewise table for player 2$",
        ),
        (lambda: row_shuffled(make_builtin("hungry", 3), (1, 1, 2)), "is not a permutation of 1..3"),
        (
            lambda: validate(dataclasses.replace(make_builtin("hungry", 3, kind=NEW), variant=None), "covering"),
            "needs a variant attached",
        ),
        (lambda: load_preference_file({"kind": "new", "model": "hungry"}), r"must declare r \(or pass --r\)"),
        (lambda: phi(make_builtin("hungry", 3, kind=NEW)), "phi expects an old-style oracle"),
    ],
    ids=["kind", "players", "tiles", "table", "player-table", "permutation", "variant", "r", "phi"],
)
def test_input_checks_name_what_is_wrong(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def _box_oracle(model, space, r):
    if model == "psi":
        return psi(make_builtin("hungry", r))
    if model == "phi":
        return phi(make_builtin("hungry", r))
    return make_builtin(model, r, kind=NEW, variant=for_space(space, r), seed=r)


@pytest.mark.parametrize(
    "model, space, r",
    [(model, space, r) for model in BUILTIN_MODELS for space in ("c1", "c2", "c3") for r in range(2, 6)]
    + [("psi", "c1", r) for r in range(2, 6)]
    + [("phi", "c2", r) for r in range(2, 6)],
)
def test_relabelled_rows_are_the_permuted_rows_bit_for_bit(model, space, r):
    # read at the relabelled point right after the point itself, and again
    # after a query at another cut has taken the memo
    prefs = _box_oracle(model, space, r)
    assert isinstance(prefs.raw, BoxOracle)
    rng = np.random.default_rng(r)
    elsewhere = sample_config_point(rng, prefs.variant)
    for i in range(30):
        point = sample_config_point(rng, prefs.variant, force_degenerate=i % 2 == 1)
        sigma = tuple(int(b) + 1 for b in rng.permutation(r))
        moved = act(sigma, point)
        for player in range(1, r + 1):
            want = [0.0] * r
            for box, v in enumerate(prefs.raw(player, point), start=1):
                want[sigma[box - 1] - 1] = v
            warm = prefs.raw(player, moved)
            prefs.raw(player, elsewhere)
            cold = prefs.raw(player, moved)
            assert [v.hex() for v in warm] == [v.hex() for v in want] == [v.hex() for v in cold]


def _wrapped(prefs):
    """A copy of ``prefs`` whose ``raw`` is a closure around the oracle's,
    as a caller's counter would be, and the players it was asked for."""
    asked = []
    raw = prefs.raw

    def counting(player, point):
        asked.append(player)
        return raw(player, point)

    return dataclasses.replace(prefs, raw=counting), asked


def _rebuilt(point):
    """An equal point built anew by value: another object, cut included."""
    return _face_point(point.variant, Cut(point.cut.points), point.allocation)


def _alone(prefs, player, point):
    """One player's normalized row, read by itself: one ``raw`` call."""
    return _normalized(prefs.raw(player, point))


@pytest.mark.parametrize(
    "model, space, r",
    [(model, space, r) for model in BUILTIN_MODELS for space in ("c1", "c2", "c3") for r in range(2, 6)]
    + [("psi", "c1", r) for r in range(2, 6)]
    + [("phi", "c2", r) for r in range(2, 6)],
)
def test_row_pass_is_the_rows_one_by_one_bit_for_bit(model, space, r):
    # against each player read alone at the point, and at an equal point
    # built anew for every player, which no memo of a point object reaches
    prefs = _box_oracle(model, space, r)
    wrapped, asked = _wrapped(prefs)
    points = [point for point, _ in _samples("equivariance", prefs.variant, 40, r)]
    for point in points + [act(tuple(range(r, 0, -1)), point) for point in points[:10]]:
        rows = _rows(prefs, point)
        one_by_one = [_alone(prefs, j, point) for j in range(1, r + 1)]
        fresh = [_alone(prefs, j, _rebuilt(point)) for j in range(1, r + 1)]
        del asked[:]
        assert _bits(_rows(wrapped, point)) == _bits(rows) == _bits(one_by_one) == _bits(fresh)
        assert asked == list(range(1, r + 1))
        del asked[:]
        assert _bits([_alone(wrapped, j, point) for j in range(1, r + 1)]) == _bits(rows)
        assert asked == list(range(1, r + 1))


@pytest.mark.parametrize("space", ["c1", "c2", "c3"])
def test_row_pass_holds_between_interleaved_queries(space):
    # another oracle at the same point object, an equal point built by
    # value, another cut: each between the players of one point, and each
    # row read as an oracle that saw nothing before reads it
    r = 4
    variant = for_space(space, r)

    def oracles():
        return [
            make_builtin("piecewise_random", r, kind=NEW, variant=variant, seed=1),
            make_builtin("piecewise_random", r, kind=NEW, variant=variant, seed=2),
            make_builtin("hungry", r, kind=NEW, variant=variant),
        ]

    first, other, third = oracles()
    points = [point for point, _ in _samples("covering", variant, 30, 4)]
    for point, elsewhere in zip(points, points[1:] + points[:1]):
        again = _rebuilt(point)
        got = {}
        for j in range(1, r + 1):
            for key, prefs, at in (
                ("first", first, point),
                ("other", other, point),
                ("third", third, point),
                ("again", first, again),
                ("elsewhere", first, elsewhere),
                ("first", first, point),
            ):
                got.setdefault(key, []).append(_alone(prefs, j, at))
        got["rows"] = _rows(first, point)

        def fresh(prefs, at):
            return [_alone(prefs, j, _rebuilt(at)) for j in range(1, r + 1)]

        fresh_first, fresh_other, fresh_third = oracles()
        want = {"first": fresh(fresh_first, point) * 2, "other": fresh(fresh_other, point)}
        want.update(third=fresh(fresh_third, point), elsewhere=fresh(fresh_first, elsewhere))
        want["again"] = want["rows"] = want["first"][:r]
        got["first"] = got["first"][0::2] + got["first"][1::2]
        assert {key: _bits(rows) for key, rows in got.items()} == {key: _bits(rows) for key, rows in want.items()}


def _table_reference(table, z):
    """``_PiecewiseTable.__call__`` as first written: bisect, then interpolate."""
    z = min(max(z, 0.0), 1.0)
    xs, ys = table.xs, table.ys
    hi = next((i for i, x in enumerate(xs) if x > z), len(xs))
    if hi >= len(xs):
        return ys[-1]
    x0, x1, y0, y1 = xs[hi - 1], xs[hi], ys[hi - 1], ys[hi]
    if x1 == x0:
        return y1
    return y0 + (y1 - y0) * (z - x0) / (x1 - x0)


def test_piecewise_table_matches_the_reference_formula():
    rng = np.random.default_rng(12)
    tables = [
        _PiecewiseTable([i / 7 for i in range(8)], rng.uniform(0, 1, 8)),
        _PiecewiseTable([0.0, 0.02, 0.02, 0.5, 1.0], [0.0, 0.0, 0.7, 0.3, 0.9]),
        _PiecewiseTable([0.0, 1.0], [0.4, 0.1]),
    ]
    inputs = [-0.3, -0.0, 0.0, 1e-12, 0.02, 0.5, 1.0 - 1e-16, 1.0, 1.7, float("nan")]
    inputs += [i / 7 for i in range(8)] + rng.uniform(0, 1, 300).tolist()
    for table in tables:
        for z in inputs:
            got, want = table(z), _table_reference(table, z)
            assert got == want or (math.isnan(got) and math.isnan(want)), (table.xs, z)


@pytest.mark.parametrize("space", ["c1", "c2", "c3"])
def test_piecewise_random_new_matches_the_box_map_formula(space):
    # the reference rebuilds the box map per player, as the model first did
    r, seed = 4, 7
    variant = for_space(space, r)
    prefs = make_builtin("piecewise_random", r, kind=NEW, variant=variant, seed=seed)
    table_rng = np.random.default_rng(seed)
    tile_tables = [_random_tables(table_rng, variant.cols, pin_zero=True) for _ in range(r)]
    content_tables = [_random_tables(table_rng, 1, pin_zero=False)[0] for _ in range(r)]
    rng = np.random.default_rng(5)
    for i in range(100):
        point = sample_config_point(rng, variant, force_degenerate=i % 2 == 1)
        z, boxes = point.cut.lengths, point.boxes()
        for player in range(1, r + 1):
            tables = tile_tables[player - 1]
            want = [
                RANDOM_FLOOR
                + content_tables[player - 1](length)
                + math.fsum(tables[t - 1](z[t - 1]) for t in boxes.get(box, ()))
                for box, length in enumerate(point.box_lengths(), start=1)
            ]
            assert prefs.raw(player, point) == want



@pytest.mark.parametrize("space", ["c1", "c2", "c3"])
def test_piecewise_random_memo_scores_as_a_fresh_oracle(space):
    # the oracle keeps each player's box scores at the last cut it saw, by
    # value; other allocations and relabellings of one cut, an equal cut
    # built anew by ``Cut``, and cuts that come back after others, must
    # score as they do on an oracle that saw nothing before
    r = 4
    variant = for_space(space, r)
    prefs = make_builtin("piecewise_random", r, kind=NEW, variant=variant, seed=3)
    rng = np.random.default_rng(9)
    queries = []
    for i in range(12):
        point = sample_config_point(rng, variant, force_degenerate=i % 2 == 1)
        essential = tuple(tile for tile, _ in point.allocation)
        queries += [
            _face_point(variant, point.cut, tuple(alloc.items()))
            for alloc in _canonical_allocations(variant, essential)
        ]
        queries.append(act(tuple(int(b) + 1 for b in rng.permutation(r)), point))
        queries.append(_face_point(variant, Cut(point.cut.points), point.allocation))
    queries += queries[::3]
    for point in queries:
        for player in (rng.permutation(r) + 1).tolist():
            fresh = make_builtin("piecewise_random", r, kind=NEW, variant=variant, seed=3)
            assert prefs.raw(player, point) == fresh.raw(player, point)


def _dirichlet_sample_lengths(rng, n, force_degenerate):
    """``sample_lengths`` as first written, on ``rng.dirichlet``."""
    z = rng.dirichlet(np.ones(n))
    if force_degenerate and n >= 2:
        k = int(rng.integers(1, n))
        z[rng.choice(n, size=k, replace=False)] = 0.0
        z /= z.sum()
    return tuple(z.tolist())


@pytest.mark.parametrize("n", range(2, 10))
def test_exponential_draws_are_the_dirichlet_draws(n):
    # bit for bit, and the generators stay in step; a numpy whose Dirichlet
    # loop differs fails here
    for seed in range(40):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for i in range(20):
            assert _uniform_simplex(ours, n).tobytes() == theirs.dirichlet(np.ones(n)).tobytes()
        assert ours.random() == theirs.random()


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 19, 40])
def test_sample_lengths_on_floats_match_the_numpy_steps(n):
    # Python floats, bit for bit, and the generators stay in step
    for seed in range(30):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for i in range(20):
            force = i % 2 == 1
            got = sample_lengths(ours, n, force)
            assert got == _dirichlet_sample_lengths(theirs, n, force), (seed, i)
            assert all(type(v) is float for v in got)
        assert ours.random() == theirs.random()


def _normalized_reference(raw):
    """``_normalized`` as it was before its fast path."""
    row = [float(v) for v in raw]
    if any(v < 0 for v in row):
        raise ValueError(f"oracle produced a negative score: {row}")
    try:
        total = math.fsum(row)
    except OverflowError:
        raise ValueError(f"oracle scores overflow in their sum: {row}") from None
    if not math.isfinite(total):
        raise ValueError(f"oracle produced a non-finite score: {row}")
    if total <= 0.0:
        return [0.0] * len(row)
    return [v / total for v in row]


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "row, message",
    [
        ([NAN, -1], "oracle produced a negative score: [nan, -1.0]"),
        ([-1, NAN], "oracle produced a negative score: [-1.0, nan]"),
        ([INF, -INF], "oracle produced a negative score: [inf, -inf]"),
        ([1e308, 1e308], "oracle scores overflow in their sum: [1e+308, 1e+308]"),
        ([INF], "oracle produced a non-finite score: [inf]"),
        ([INF, NAN], "oracle produced a non-finite score: [inf, nan]"),
    ],
)
def test_normalized_keeps_its_messages_on_edge_rows(row, message):
    with pytest.raises(ValueError) as raised:
        _normalized(row)
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "row, message",
    [
        ([2.0, -1.0], "oracle produced a negative score: [2.0, -1.0]"),
        ([-0.5, 0.5], "oracle produced a negative score: [-0.5, 0.5]"),
        ([-INF], "oracle produced a negative score: [-inf]"),
        ([NAN], "oracle produced a non-finite score: [nan]"),
        ([1.0, NAN], "oracle produced a non-finite score: [1.0, nan]"),
        ([1.0, INF], "oracle produced a non-finite score: [1.0, inf]"),
        ([1e308, 1e308, 1.0], "oracle scores overflow in their sum: [1e+308, 1e+308, 1.0]"),
    ],
)
def test_normalized_fall_back_rejects_what_the_fast_path_lets_through(row, message):
    # rows whose sum is finite and positive but hold a negative score, and
    # rows whose sum is not finite and positive, each with the reference's error
    for rejecting in (_normalized, _normalized_reference):
        with pytest.raises(ValueError) as raised:
            rejecting(row)
        assert str(raised.value) == message


def test_normalized_keeps_zero_and_empty_rows():
    assert _normalized([0.0, 0, -0.0]) == [0.0, 0.0, 0.0]
    assert _normalized([]) == []
    assert _normalized((v for v in [1, 3])) == [0.25, 0.75]


def test_normalized_matches_the_reference_on_random_rows():
    rng = np.random.default_rng(7)
    specials = [NAN, INF, -INF, -1.0, -0.0, 0.0, 1e308, 1e-320, 5e-324]
    for _ in range(3000):
        row = rng.uniform(0.0, 2.0, size=int(rng.integers(0, 6))).tolist()
        for _ in range(int(rng.integers(0, 3))):
            if row:
                row[int(rng.integers(0, len(row)))] = specials[int(rng.integers(0, len(specials)))]
        try:
            want = _normalized_reference(row)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                _normalized(row)
            assert str(raised.value) == str(exc)
        else:
            assert _normalized(row) == want


def _reference_draws(shape, space, sample_count, seed):
    """The samples of ``validate`` as its loop drew them before the plans:
    (point or z, extra) per sample, straight off one seeded generator."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(sample_count):
        degenerate = shape in ("p_dte", "p_pe") or i % 2 == 1
        if isinstance(space, int):
            point = sample_lengths(rng, space, degenerate)
        else:
            point = sample_config_point(rng, space, degenerate)
        extra = None
        if shape == "equivariance":
            extra = rng.permutation(space.rows).tolist()
        elif shape == "p_pe":
            extra = _repad_zeros(rng, point)
        elif shape == "continuity":
            weights = point if isinstance(space, int) else point.support()[1]
            extra = rng.normal(scale=1e-6, size=len(weights)).tolist()
        out.append((point, extra))
    return out


def _bits(values):
    return np.array(values, dtype=float).tobytes()


PLAN_SPACES = [for_space(space, r) for space in ("c1", "c2", "c3") for r in range(2, 6)] + list(range(2, 6))


@pytest.mark.parametrize("space", PLAN_SPACES, ids=str)
@pytest.mark.parametrize("sample_count", [120, 200])
def test_replayed_plans_are_the_live_draws(space, sample_count, monkeypatch):
    # every shape, bit for bit: the points rebuilt from a memoized plan,
    # a second replay of it, and the stream past the bound
    old = isinstance(space, int)
    shapes = ("covering", "p_dte", "p_pe", "continuity") if old else ("covering", "equivariance", "continuity")
    for shape in shapes:
        want = _reference_draws(shape, space, sample_count, seed=3)
        runs = [list(_samples(shape, space, sample_count, 3)) for _ in range(2)]
        with monkeypatch.context() as patched:
            patched.setattr(preferences, "MAX_PLAN_SAMPLES", sample_count - 1)
            runs.append(list(_samples(shape, space, sample_count, 3)))
        for run in runs:
            assert len(run) == sample_count
            for (got, extra), (point, ref_extra) in zip(run, want):
                if old:
                    assert _bits(got) == _bits(point)
                else:
                    assert got == point and got.variant is space
                    assert _bits(got.cut.points) == _bits(point.cut.points)
                    assert _bits(got.cut.lengths) == _bits(point.cut.lengths)
                if shape == "continuity":
                    assert _bits(extra[: len(ref_extra)]) == _bits(ref_extra)
                    assert all(math.isnan(v) for v in extra[len(ref_extra):])
                elif ref_extra is None:
                    assert extra is None
                else:
                    assert list(extra) == list(ref_extra) and _bits(extra) == _bits(ref_extra)


def test_two_solves_on_one_board_draw_one_plan():
    variant = for_space("c1", 3)
    solve(variant, make_builtin("hungry", 3, kind=NEW, variant=variant))
    before = _plan.cache_info()
    solve(variant, make_builtin("piecewise_random", 3, kind=NEW, variant=variant, seed=4))
    after = _plan.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_a_run_past_the_bound_streams_and_reports_as_a_replayed_run(monkeypatch):
    variant = for_space("c2", 3)
    shuffled = row_shuffled(make_builtin("piecewise_random", 3, kind=NEW, seed=2, variant=variant))
    ppe = make_builtin("gorbushka", 4)
    count = MAX_PLAN_SAMPLES + 1
    before = _plan.cache_info()
    streamed = validate(shuffled, "equivariance", count, seed=7)
    streamed_ppe = validate(ppe, "p_pe", count, seed=7)
    assert _plan.cache_info() == before
    # violation counts measured before the draws were memoized
    assert len(streamed.violations) == 210 and streamed.max_deviation == 0.10985586769000377
    assert len(streamed_ppe.violations) == 245
    monkeypatch.setattr(preferences, "MAX_PLAN_SAMPLES", count)
    assert validate(shuffled, "equivariance", count, seed=7).to_json() == streamed.to_json()
    assert validate(ppe, "p_pe", count, seed=7).to_json() == streamed_ppe.to_json()
    assert _plan.cache_info().currsize == min(before.currsize + 2, _plan.cache_info().maxsize)


def test_plan_arrays_are_read_only():
    # cut-points or tile lengths, box labels (new-style only) and extras
    for shape, space in (("equivariance", for_space("c3", 3)), ("p_pe", 3), ("continuity", for_space("c2", 2))):
        columns = [column for column in _plan(shape, space, 20, 0) if column is not None]
        assert len(columns) == (2 if isinstance(space, int) else 3)
        assert columns[0].dtype == np.float64
        if not isinstance(space, int):
            assert columns[1].dtype == np.uint8
        for column in columns:
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = column[1]


def test_a_c2_r8_plan_stores_the_bytes_validate_states():
    # 8(c - 1) + c + 8 max(r, w) bytes per sample at c = 15 tiles, r = 8
    # boxes and facets of w = 8 cells: 191, so 64 plans of 400 hold 4.9 MB
    variant = for_space("c2", 8)
    c, r, w = variant.cols, variant.rows, len(facet_at(variant, 0))
    bound = 8 * (c - 1) + c + 8 * max(r, w)
    assert bound == 191 and 64 * MAX_PLAN_SAMPLES * bound == 4_889_600
    stored = {}
    for shape in ("covering", "equivariance", "continuity"):
        plan = _plan(shape, variant, MAX_PLAN_SAMPLES, 0)
        stored[shape] = sum(column.nbytes for column in plan if column is not None) / MAX_PLAN_SAMPLES
    assert stored == {"covering": 8 * (c - 1) + c, "equivariance": bound, "continuity": bound}


@pytest.mark.parametrize("seed", [1.0, 1.5, "0", None, -1, True, np.random.default_rng(0)], ids=repr)
def test_validate_refuses_a_seed_that_is_not_a_non_negative_integer(seed):
    before = _plan.cache_info()
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        validate(make_builtin("hungry", 3), "covering", 20, seed=seed)
    assert _plan.cache_info() == before


def test_integer_seeds_of_any_integer_type_share_a_plan():
    prefs = make_builtin("hungry", 3)
    validate(prefs, "covering", 30, seed=11)
    before = _plan.cache_info()
    by_numpy_int = validate(prefs, "covering", 30, seed=np.int64(11))
    assert by_numpy_int.to_json() == validate(prefs, "covering", 30, seed=11).to_json()
    assert _plan.cache_info().hits == before.hits + 2
