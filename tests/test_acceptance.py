"""Acceptance suite: one test per exit criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the one-line
PASS/FAIL report per criterion.  Tolerances are pinned here and nowhere
else.
"""

import dataclasses
import json
import time

import numpy as np

from envydiv.cli import main as cli_main
from envydiv.complexes import (
    build_complex,
    chessboard,
    for_space,
    gorbushka_join,
    is_pseudomanifold,
    reduced_homology,
)
from envydiv.configspace import ZPoint, canonicalize, z_to_cut
from envydiv.preferences import (
    PREFERENCE_TOL,
    make_builtin,
    row_shuffled,
    sample_config_point,
    scores,
    validate,
)
from envydiv.reductions import phi, psi
from envydiv.solver import (
    SearchOptions,
    StochasticMatrix,
    birkhoff,
    brute_force,
    extract_assignment,
    solve,
    verify_division,
)

import oracles
from oracles import psi_preferred_boxes, trash_lover


def report(number, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {name}: {verdict}{suffix}")
    assert ok, f"criterion {number} {name} failed {suffix}"


def test_criterion_1_gale_scenario():
    worst_residual = 0.0
    slowest = 0.0
    for r in (2, 3, 4, 5):
        variant = gorbushka_join(r)
        prefs = make_builtin("hungry", r, kind="new", variant=variant)
        start = time.perf_counter()
        division = solve(variant, prefs, SearchOptions(seed=0))
        elapsed = time.perf_counter() - start
        slowest = max(slowest, elapsed)
        worst_residual = max(worst_residual, division.residual)
        assert division.residual <= 1e-6
        assert verify_division(division, prefs)
        lengths = division.point.cut.lengths
        allocated = dict(division.point.allocation)
        assert len(allocated) == r  # full division, one tile per box
        assert all(lengths[t - 1] >= 1e-3 for t in allocated)
        assert elapsed < 60.0
    report(
        1,
        "gale scenario (hungry, r=2..5, c1)",
        True,
        f"max residual {worst_residual:.2e}, slowest solve {slowest:.2f}s",
    )


def test_criterion_2_gorbushka_impossibility_and_resolution():
    variant = gorbushka_join(3)
    plain = make_builtin("gorbushka", 3, kind="new", params={"dte": False}, variant=variant)
    certificate = brute_force(variant, plain, grid_resolution=51)
    infeasible = (not certificate.feasible) and certificate.max_min_score <= PREFERENCE_TOL

    tolerant = make_builtin("gorbushka", 3, kind="new", params={"dte": True}, variant=variant)
    division = solve(variant, tolerant, SearchOptions(seed=0))
    verified = verify_division(division, tolerant)
    # up to reassigning degenerate tiles, the cut collapses to an endpoint
    collapsed = max(division.point.cut.lengths) >= 1.0 - 1e-3

    report(
        2,
        "gorbushka impossibility vs degenerate-tolerant resolution",
        infeasible and verified and collapsed,
        f"max-min without tolerance {certificate.max_min_score:.1e}, "
        f"solver cut {division.point.cut.points}",
    )


def test_criterion_3_topology_suite():
    ok = True
    details = []

    hexagon = build_complex(chessboard(3, 2))
    torus = build_complex(chessboard(4, 3))
    wide = build_complex(chessboard(3, 5))

    ok &= reduced_homology(hexagon).betti == (0, 1)
    torus_report = reduced_homology(torus)
    ok &= torus_report.betti == (0, 2, 1) and torus_report.euler == 0
    ok &= reduced_homology(wide).betti[:2] == (0, 0)

    for cx, label in ((hexagon, "3x2"), (torus, "4x3"), (wide, "3x5")):
        assert cx.total_faces() <= 500
        oracle = oracles.reduced_betti_rational(cx.maximal_simplices)
        agrees = list(reduced_homology(cx).betti) == oracle
        ok &= agrees
        details.append(f"{label} oracle {'ok' if agrees else 'MISMATCH'}")

    for r in (3, 4, 5):
        ok &= is_pseudomanifold(build_complex(chessboard(r, r - 1)))

    report(3, "topology suite with rational-rank oracle", bool(ok), ", ".join(details))


def test_criterion_4_birkhoff_on_random_mixes():
    rng = np.random.default_rng(2024)
    checked = 0
    for r in (2, 3, 4, 5, 6):
        bound = (r - 1) ** 2 + 1
        for _ in range(200):
            k = int(rng.integers(1, 11))
            weights = np.maximum(rng.uniform(size=k), 0.01)
            weights /= weights.sum()
            entries = np.zeros((r, r))
            for w in weights:
                perm = rng.permutation(r)
                for i, j in enumerate(perm):
                    entries[i, j] += w
            matrix = StochasticMatrix(entries)
            decomposition = birkhoff(matrix)
            assert np.abs(decomposition.reconstruct() - entries).max() <= 1e-9
            assert len(decomposition.terms) <= bound
            assignment = extract_assignment(matrix)
            assert all(entries[j, assignment[j] - 1] > PREFERENCE_TOL for j in range(r))
            checked += 1
    report(4, "birkhoff decomposition and assignment extraction", True, f"{checked} matrices")


def test_criterion_5_equivariance_of_builtins():
    worst = 0.0
    for name in ("hungry", "gorbushka", "burnt", "piecewise_random"):
        prefs = make_builtin(name, 3, kind="new", variant=gorbushka_join(3), seed=0)
        # the built-ins are box oracles, blind by construction; a plain
        # closure around one is sampled at both points of every sample
        wrapped = dataclasses.replace(prefs, raw=lambda player, point, raw=prefs.raw: raw(player, point))
        for oracle in (prefs, wrapped):
            result = validate(oracle, "equivariance", sample_count=1000, seed=0, tol=1e-12)
            assert result.passed, (name, result.max_deviation)
            worst = max(worst, result.max_deviation)

    broken = row_shuffled(
        make_builtin("piecewise_random", 3, kind="new", variant=gorbushka_join(3), seed=0)
    )
    caught = validate(broken, "equivariance", sample_count=1000, seed=0, tol=1e-12)
    assert len(caught.violations) >= 1
    report(
        5,
        "box-relabeling equivariance at 1e-12",
        True,
        f"max deviation {worst:.1e}, mutation caught with {len(caught.violations)} witnesses",
    )


def test_criterion_6_psi_case_rules_and_closedness():
    variant = gorbushka_join(3)
    rng = np.random.default_rng(6)
    for source in (make_builtin("hungry", 3), trash_lover(3)):
        lifted = psi(source, epsilon=1e-3)
        for i in range(500):
            point = sample_config_point(rng, variant, force_degenerate=i % 2 == 1)
            for player in range(1, 4):
                support = {
                    b + 1
                    for b, v in enumerate(scores(lifted, player, point))
                    if v > PREFERENCE_TOL
                }
                assert support == psi_preferred_boxes(source, player, point)

        # shrink the last tile toward a point while a degenerate tile exists
        limit_point = canonicalize(z_to_cut(ZPoint((1.0, 0.0, 0.0))), {1: 1}, variant)
        limit = scores(lifted, 1, limit_point)
        deviations = []
        for k in range(1, 21):
            t = 2.0 ** -k
            point = canonicalize(z_to_cut(ZPoint((1.0 - t, 0.0, t))), {1: 1, 3: 2}, variant)
            deviations.append(float(np.abs(scores(lifted, 1, point) - limit).max()))
        tail = deviations[-5:]
        assert all(a >= b - 1e-15 for a, b in zip(tail, tail[1:])), tail
        assert tail[-1] <= 1e-5
    report(6, "psi case rules on 500 samples plus closedness limit", True)


def test_criterion_7_phi_full_divisions_and_consistency():
    for r in (2, 3, 4):
        variant = for_space("c2", r)
        lifted = phi(make_builtin("hungry", r))
        division = solve(variant, lifted, SearchOptions(seed=0))
        assert division.residual <= 1e-6
        assert verify_division(division, lifted)
        boxes = {}
        for _, box in division.point.allocation:
            boxes[box] = boxes.get(box, 0) + 1
        assert all(count == 1 for count in boxes.values())

    left = phi(make_builtin("hungry", 3), keep="left")
    right = phi(make_builtin("hungry", 3), keep="right")
    rng = np.random.default_rng(7)
    variant = for_space("c2", 3)
    worst = 0.0
    for i in range(500):
        point = sample_config_point(rng, variant, force_degenerate=i % 2 == 1)
        for player in range(1, 4):
            gap = float(
                np.abs(scores(left, player, point) - scores(right, player, point)).max()
            )
            worst = max(worst, gap)
    assert worst <= 1e-12
    report(7, "phi full divisions (r=2,3,4) and elimination consistency", True, f"max gap {worst:.1e}")


def test_criterion_8_solver_brute_force_agreement():
    worst = 0.0
    for r in (2, 3):
        variant = gorbushka_join(r)
        for name in ("hungry", "gorbushka", "burnt", "piecewise_random"):
            prefs = make_builtin(name, r, kind="new", variant=variant, seed=0)
            division = solve(variant, prefs, SearchOptions(seed=0))
            assert verify_division(division, prefs)
            result = brute_force(variant, prefs, grid_resolution=31)
            gap = abs(result.max_min_score - division.min_assigned_score())
            worst = max(worst, gap)
            assert gap <= 0.05, (name, r, gap)
    report(8, "solver vs exhaustive oracle within 0.05", True, f"worst gap {worst:.3f}")


def test_criterion_9_seeded_runs_are_byte_identical(capsys, tmp_path):
    prefs = tmp_path / "prefs.json"
    prefs.write_text(json.dumps({"r": 3, "kind": "new", "model": "piecewise_random", "seed": 5}))
    argv = ["solve", "--r", "3", "--space", "c1", "--prefs", str(prefs), "--seed", "11"]
    assert cli_main(argv) == 0
    first = capsys.readouterr().out
    assert cli_main(argv) == 0
    second = capsys.readouterr().out
    identical = first == second and json.loads(first)["residual"] <= 1e-6
    with capsys.disabled():
        report(9, "byte-identical seeded division JSON", identical)
