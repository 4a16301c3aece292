import dataclasses
import gc
import math
import types

import numpy as np
import pytest

from envydiv.complexes import chessboard, for_space, gorbushka_join, join_power
from envydiv.configspace import (
    Cut,
    ZPoint,
    _face_point,
    canonicalize,
    partition_equivalent,
    point_from_barycentric,
    z_to_cut,
)
from envydiv.preferences import (
    OLD,
    PREFERENCE_TOL,
    PreferenceMatrix,
    PreferenceValidationError,
    make_builtin,
    sample_config_point,
    scores,
    validate,
)
from envydiv.reductions import (
    InadmissibleCutError,
    eliminate_superfluous,
    phi,
    psi,
)
from envydiv.solver import solve

from oracles import psi_preferred_boxes, trash_lover


# ---------------------------------------------------------------------------
# eliminate_superfluous


def test_eliminate_examples():
    assert eliminate_superfluous(Cut((0.0, 0.5, 0.5, 1.0))).points == (0.5, 1.0)
    assert eliminate_superfluous(Cut((0.5, 0.5))).points == (0.5,)
    assert eliminate_superfluous(Cut((0.0, 0.0, 1 / 3, 1 / 3))).points == (0.0, 1 / 3)


def test_eliminate_preserves_partition():
    cases = [
        (0.0, 0.5, 0.5, 1.0),
        (0.0, 0.0, 1 / 3, 1 / 3),
        (0.25, 0.25, 0.25, 0.25),
        (0.0, 0.25, 0.5, 0.5, 0.75, 1.0),
        (0.2, 0.2, 0.2, 0.6, 0.6, 0.6),
    ]
    for points in cases:
        cut = Cut(points)
        for keep in ("left", "right"):
            reduced = eliminate_superfluous(cut, keep=keep)
            r = len(points) // 2 + 1
            assert reduced.tile_count == r
            assert partition_equivalent(cut, reduced)


def test_eliminate_rejects_inadmissible():
    with pytest.raises(InadmissibleCutError):
        eliminate_superfluous(Cut((0.2, 0.4, 0.6, 0.8)))
    with pytest.raises(ValueError):
        eliminate_superfluous(Cut((0.2, 0.4, 0.6)))
    with pytest.raises(ValueError):
        eliminate_superfluous(Cut((0.5, 0.5)), keep="middle")


def test_eliminate_random_admissible_cuts():
    rng = np.random.default_rng(5)
    for _ in range(200):
        r = int(rng.integers(2, 5))
        solid = int(rng.integers(1, r + 1))
        lengths = rng.dirichlet(np.ones(solid))
        z = [0.0] * (2 * r - 1)
        slots = sorted(rng.choice(2 * r - 1, size=solid, replace=False))
        for slot, val in zip(slots, lengths):
            z[slot] = float(val)
        cut = z_to_cut(ZPoint(tuple(z)))
        for keep in ("left", "right"):
            reduced = eliminate_superfluous(cut, keep=keep)
            assert reduced.tile_count == r
            assert partition_equivalent(cut, reduced)


# ---------------------------------------------------------------------------
# psi


@pytest.mark.parametrize("source_factory", [lambda: make_builtin("hungry", 3), lambda: trash_lover(3)])
def test_psi_supports_match_case_rules(source_factory):
    source = source_factory()
    lifted = psi(source, epsilon=1e-3)
    rng = np.random.default_rng(17)
    variant = gorbushka_join(3)
    for i in range(300):
        point = sample_config_point(rng, variant, force_degenerate=i % 2 == 1)
        for player in range(1, 4):
            got = {
                b + 1
                for b, v in enumerate(scores(lifted, player, point))
                if v > PREFERENCE_TOL
            }
            assert got == psi_preferred_boxes(source, player, point)


def test_psi_memo_of_the_last_point_scores_as_a_fresh_lift():
    # every psi lift shares one memo of the first degenerate tile and the
    # boxes of the last point queried, by value; points taking turns, and
    # a point equal to the last but not the same object, score as they do
    # right after the memo moved to another point
    rng = np.random.default_rng(23)
    variant = gorbushka_join(3)
    lifted, reference = psi(make_builtin("hungry", 3)), psi(make_builtin("hungry", 3))
    other = sample_config_point(rng, variant)
    points = [sample_config_point(rng, variant, force_degenerate=i % 2 == 1) for i in range(20)]
    queries = points + points[::-2] + [dataclasses.replace(p) for p in points[:5]]
    for point in queries:
        for player in (rng.permutation(3) + 1).tolist():
            reference.raw(1, other)
            assert lifted.raw(player, point) == reference.raw(player, point)


def test_psi_rejects_a_source_that_accepts_nothing_at_a_queried_point():
    hungry = make_builtin("hungry", 2)
    # accepts nothing at the even cut, which the seeded checks never draw
    blind = PreferenceMatrix(
        r=2,
        kind=OLD,
        model="blind",
        raw=lambda player, z: [0.0, 0.0] if z == (0.5, 0.5) else hungry.raw(player, z),
    )
    lifted = psi(blind, epsilon=1e-3)
    point = point_from_barycentric(gorbushka_join(2), ((1, 1), (2, 2)), (0.5, 0.5))
    with pytest.raises(PreferenceValidationError, match="accepts nothing"):
        scores(lifted, 1, point)


@pytest.mark.parametrize("lift, tiles", [(psi, 3), (phi, 2)])
def test_lifts_refuse_a_point_with_the_wrong_tile_count(lift, tiles):
    lifted = lift(make_builtin("hungry", 2))
    cells = tuple((box, box) for box in (1, 2))
    point = point_from_barycentric(chessboard(2, tiles), cells, (0.4, 0.6))
    with pytest.raises(ValueError, match="expected a point with"):
        scores(lifted, 1, point)


def _builds(lifted):
    """The cuts at which ``lifted`` builds its scorers, as it builds them."""
    built, scorers = [], lifted.raw.scorers

    def counting(cut):
        built.append(cut)
        return scorers(cut)

    lifted.raw.scorers = counting
    return built


@pytest.mark.parametrize(
    "lift, cells",
    [(psi, ((1, 1), (2, 3), (3, 2))), (phi, ((1, 1), (2, 3), (3, 5)))],
    ids=["psi", "phi"],
)
def test_lift_memo_hits_an_equal_point_rebuilt_by_value(lift, cells):
    source = make_builtin("hungry", 3)
    lifted = lift(source)
    built = _builds(lifted)
    weights = (0.2, 0.3, 0.5)
    first = point_from_barycentric(lifted.variant, cells, weights)
    asked, raw = [], source.raw
    source.raw = lambda player, z: asked.append(player) or raw(player, z)
    rows = [scores(lifted, player, first).tolist() for player in (1, 2, 3)]
    # one build reads every player's source row, once per reduction (phi
    # reduces this cut the same way along both deletion orders)
    assert built == [first.cut] and asked == [1, 2, 3]
    rebuilt = point_from_barycentric(lifted.variant, cells, weights)
    assert rebuilt == first and rebuilt is not first and rebuilt.cut is not first.cut
    source.raw = lambda player, z: pytest.fail("the source was asked again at a memoized cut")
    assert [scores(lifted, player, rebuilt).tolist() for player in (1, 2, 3)] == rows
    assert built == [first.cut]


def test_psi_refuses_a_box_of_three_tiles():
    # a join-power point holds three tiles in box 1, which no c1 point does
    point = canonicalize(Cut((0.2, 0.5)), {1: 1, 2: 1, 3: 1}, join_power(3))
    with pytest.raises(ValueError, match="holds one tile, or the last and one other, not \\(1, 2, 3\\)"):
        psi(make_builtin("hungry", 3)).raw(1, point)


def test_phi_refuses_a_point_with_another_box_count():
    point = canonicalize(Cut((0.2, 0.5, 0.5, 0.5)), {1: 1, 2: 1, 5: 2}, join_power(5))
    with pytest.raises(ValueError, match="expected a point with 3 boxes, got 5"):
        phi(make_builtin("hungry", 3)).raw(1, point)


def test_phi_refuses_a_box_of_two_tiles():
    # no board of c2's shape lets tiles share a box, so build the point
    # past the face check: tiles 1 and 2 share box 1
    point = _face_point(chessboard(3, 5), Cut((0.2, 0.5, 0.5, 0.5)), ((1, 1), (2, 1), (5, 2)))
    with pytest.raises(ValueError, match="a c2 box holds one tile, not \\(1, 2\\)"):
        phi(make_builtin("hungry", 3)).raw(1, point)


def test_psi_requires_short_last_tile_margin():
    with pytest.raises(PreferenceValidationError):
        psi(make_builtin("gorbushka", 3), epsilon=1e-3)


def test_psi_requires_epsilon_for_unknown_models():
    with pytest.raises(ValueError):
        psi(trash_lover(3))
    for epsilon in (-1.0, math.nan):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            psi(make_builtin("hungry", 3), epsilon=epsilon)
    with pytest.raises(ValueError):
        psi(make_builtin("hungry", 3, kind="new"), epsilon=1e-3)


def test_psi_default_epsilon_for_hungry():
    lifted = psi(make_builtin("hungry", 3))
    assert lifted.params["epsilon"] == pytest.approx(1e-3)
    assert lifted.variant == gorbushka_join(3)


def test_psi_output_is_covering_and_equivariant():
    for factory in (lambda: make_builtin("hungry", 3), lambda: trash_lover(3)):
        lifted = psi(factory(), epsilon=1e-3)
        assert validate(lifted, "covering", 400, seed=2).passed
        assert validate(lifted, "equivariance", 400, seed=2, tol=1e-12).passed


def test_psi_empty_boxes_inherit_degenerate_score():
    source = trash_lover(3)
    lifted = psi(source, epsilon=1e-3)
    point = canonicalize(Cut((0.0, 0.0)), {1: 3, 2: 3, 3: 3}, gorbushka_join(3))
    s = scores(lifted, 1, point)
    # boxes 1 and 2 are empty and equally acceptable
    assert s[0] == s[1] > PREFERENCE_TOL


def test_psi_hungry_never_prefers_empty_boxes():
    lifted = psi(make_builtin("hungry", 3))
    point = canonicalize(Cut((0.4, 0.4)), {1: 1, 3: 2}, gorbushka_join(3))
    s = scores(lifted, 1, point)
    assert s[2] == 0.0  # box 3 is empty and hungry players want cake


def test_psi_scores_converge_as_last_tile_vanishes():
    # keep one degenerate tile around while the last tile shrinks; the box
    # holding the last tile must settle at the degenerate-tile value
    for source in (make_builtin("hungry", 3), trash_lover(3)):
        lifted = psi(source, epsilon=1e-3)
        variant = gorbushka_join(3)
        limit_point = canonicalize(Cut((1.0, 1.0)), {1: 1}, variant)
        limit = scores(lifted, 1, limit_point)
        deviations = []
        for k in range(1, 21):
            t = 2.0 ** -k
            cut = z_to_cut(ZPoint((1.0 - t, 0.0, t)))
            point = canonicalize(cut, {1: 1, 3: 2}, variant)
            deviations.append(float(np.abs(scores(lifted, 1, point) - limit).max()))
        tail = deviations[-5:]
        assert all(a >= b - 1e-15 for a, b in zip(tail, tail[1:]))
        assert tail[-1] <= 1e-5


# ---------------------------------------------------------------------------
# phi


def test_phi_rejects_non_ppe_sources():
    with pytest.raises(PreferenceValidationError):
        phi(make_builtin("gorbushka", 4))


def test_phi_box_scores_follow_reduced_cut():
    lifted = phi(make_builtin("hungry", 2))
    variant = chessboard(2, 3)
    point = canonicalize(Cut((0.5, 0.5)), {1: 1, 3: 2}, variant)
    s = scores(lifted, 1, point)
    assert np.allclose(s, [0.5, 0.5])


def test_phi_empty_boxes_share_degenerate_score():
    lifted = phi(trash_lover(3))
    variant = chessboard(3, 5)
    # only one solid tile: two empty boxes split the degenerate score
    point = canonicalize(Cut((0.0, 0.0, 0.0, 0.0)), {5: 1}, variant)
    s = scores(lifted, 1, point)
    assert s[1] == s[2] > PREFERENCE_TOL


def test_phi_eliminations_agree_for_partition_equivalent_sources():
    rng = np.random.default_rng(23)
    left = phi(make_builtin("hungry", 3), keep="left")
    right = phi(make_builtin("hungry", 3), keep="right")
    variant = for_space("c2", 3)
    for i in range(200):
        point = sample_config_point(rng, variant, force_degenerate=i % 2 == 1)
        for player in range(1, 4):
            a = scores(left, player, point)
            b = scores(right, player, point)
            assert float(np.abs(a - b).max()) <= 1e-12


def test_phi_flags_non_ppe_disagreement_at_query_time():
    # p_pe compares which tiles a player accepts, not their scores: this
    # source accepts every degenerate tile, so it passes the checks of
    # construction, but the score of a degenerate first tile is doubled,
    # which the per-query consistency check catches
    def raw(player, z):
        return [v if v > 0.0 else (0.6 if i == 0 else 0.3) for i, v in enumerate(z)]

    sneaky = PreferenceMatrix(r=2, kind=OLD, model="sneaky", raw=raw)
    lifted = phi(sneaky)
    variant = chessboard(2, 3)
    # deleting the 0 keeps the solid tile first; deleting the 1 keeps it last
    point = canonicalize(Cut((0.0, 1.0)), {2: 1}, variant)
    with pytest.raises(PreferenceValidationError, match="not partition-equivalent"):
        scores(lifted, 1, point)


def test_phi_output_is_covering_and_equivariant():
    lifted = phi(make_builtin("hungry", 3))
    assert validate(lifted, "covering", 300, seed=4).passed
    assert validate(lifted, "equivariance", 300, seed=4, tol=1e-12).passed


# ---------------------------------------------------------------------------
# the phi memo


def test_phi_memo_holds_one_entry():
    # lifts take turns at each point: the memo holds the last lift queried
    # only, so each turn builds that lift's scorers anew, and the last lift
    # asked again, by any player, builds nothing
    rng = np.random.default_rng(31)
    for r in (2, 3, 4):
        lifts = [phi(make_builtin(name, r), keep=keep) for name in ("hungry", "burnt") for keep in ("left", "right")]
        built = [_builds(lifted) for lifted in lifts]
        for i in range(40):
            point = sample_config_point(rng, lifts[0].variant, force_degenerate=i % 2 == 1)
            for lifted in lifts:
                lifted.raw(1 + i % r, point)
            for player in range(1, r + 1):
                lifts[-1].raw(player, point)
            assert [len(cuts) for cuts in built] == [i + 1] * len(lifts)
            assert all(cuts[-1] == point.cut for cuts in built)


def test_phi_memo_shared_by_lifts_matches_fresh_lifts():
    # lifts of different sources and deletion orders take turns at one cut,
    # player by player; each answer must equal that of a lift queried alone
    rng = np.random.default_rng(32)
    r = 3
    pairs = [
        (lambda: make_builtin("hungry", r), "left"),
        (lambda: make_builtin("burnt", r), "right"),
        (lambda: make_builtin("hungry", r), "right"),
        (lambda: make_builtin("burnt", r), "left"),
    ]
    shared = [phi(source(), keep=keep) for source, keep in pairs]
    fresh = [phi(source(), keep=keep) for source, keep in pairs]
    for i in range(60):
        point = sample_config_point(rng, shared[0].variant, force_degenerate=i % 2 == 1)
        alone = [[reference.raw(player, point) for player in range(1, r + 1)] for reference in fresh]
        for player in range(1, r + 1):
            for lifted, rows in zip(shared, alone):
                assert lifted.raw(player, point) == rows[player - 1]


def _reachable(root):
    """Objects reachable from ``root`` through instance data and closures,
    not through modules, classes or a function's globals."""
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        yield obj
        if isinstance(obj, types.FunctionType):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
            stack.extend(obj.__defaults__ or ())
        else:
            stack.extend(gc.get_referents(obj))


@pytest.mark.parametrize("lift, space", [(phi, "c2"), (psi, "c1")])
def test_lifted_oracle_keeps_no_cut_after_solve(lift, space):
    source = make_builtin("hungry", 3)
    lifted = lift(source)
    solve(for_space(space, 3), lifted)
    reached = list(_reachable(lifted))
    assert any(obj is source for obj in reached)
    assert not [obj for obj in reached if isinstance(obj, Cut)]
