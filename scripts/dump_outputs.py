#!/usr/bin/env python3
"""Print the JSON of a fixed set of runs, one line each, to compare trees.

Covers the demos of ``run_demo_suite.py``; ``brute_force``, ``solve`` and
the ``covering``, ``equivariance`` and ``continuity`` reports of
``validate`` (200 samples) on c1 r=2..4, c2 r=2,3 and c3 r=2..4 for every
built-in model and seeds 0 and 3; the old-style ``covering``, ``p_dte``
and ``p_pe`` reports (200 samples) for r=2..4 of every built-in model and
of the seeded psi and phi source tables, seeds 0 and 3; and ``solve`` of
psi lifts onto c1 and phi lifts onto c2 for r=2..4, from ``hungry`` and
from seeded breakpoint tables, and the ``equivariance`` and
``covering+equivariance`` reports (200 samples, seeds 0 and 3) of the same
lifts.  It also prints, without an oracle, the
Birkhoff terms, ``extract_assignment`` and ``bottleneck_assignment`` of
seeded sparse, dense and row-only-stochastic mixes of permutations for
r=2..6, and of dense mixes nudged off the Birkhoff polytope within the
residual tolerance, ``eliminate_superfluous`` of seeded doubled cuts in both deletion
orders, ``z_to_cut`` of the same tile lengths, and the first 20
``sample_config_point`` points, degenerate tiles forced on odd draws, of
c1 r=5,6, c2 r=4,5, c3 r=5,6 and chessboards 4x3 and 5x2.  Last come the
results of ``search`` alone (point, residual, convergence, last grid and PL
zeros per grid, not the evaluation count) on the boards of the benchmark's
native solves and on c2 r=5, c3 r=5, c1 r=7, c3 r=6, c2 r=8, c2 r=6 and
c2 r=7 ``piecewise_random`` seed 0, and then the reduced homology and
face counts of the benchmark's topology boards, of chessboards 4x7, 5x6
and 5x7, and of ``gorbushka_join(5)`` and ``join_power(5)``.  Five
refusals close it: psi and phi lifts of a source that fails p_dte and
p_pe, a solve of ``hungry`` on c1 r=3 whose player 2 accepts nothing at
the search's grid cut (0.25, 0.5), and solves of the psi lift onto c1 and
the phi lift onto c2, r=3, of a ``hungry`` source whose player 2 accepts
nothing at the tile lengths (0.25, 0.25, 0.5).  A run that raises prints
the exception instead.  Run it on two source trees and diff the
outputs:

    PYTHONPATH=src python scripts/dump_outputs.py > after.txt
    PYTHONPATH=../other/src python scripts/dump_outputs.py > before.txt
    cmp before.txt after.txt

``dump_outputs.expected.txt`` beside this script holds the output of the
committed tree (numpy 2.4.6); CI compares a fresh dump against it.
"""

import contextlib
import io
import json

import numpy as np

from envydiv import complexes, preferences, reductions, solver
from envydiv.cli import main as cli
from envydiv.configspace import ZPoint, z_to_cut

DEMOS = [("gale", 5), ("gale", 3), ("gorbushka", 3), ("burnt", 3), ("ppe", 4)]
SAMPLED = [
    *(complexes.for_space(space, r) for space, r in (("c1", 5), ("c1", 6), ("c2", 4), ("c2", 5), ("c3", 5), ("c3", 6))),
    complexes.chessboard(4, 3),
    complexes.chessboard(5, 2),
]
SPACES = [("c1", r) for r in (2, 3, 4)] + [("c2", r) for r in (2, 3)] + [("c3", r) for r in (2, 3, 4)]
BRUTE_GRID = 7
#: (model, space, r, oracle seed, params) of the ``search`` lines
SEARCHED = [
    *(("piecewise_random", space, r, seed, None) for space, r, seed in (
        ("c1", 2, 1), ("c1", 3, 1), ("c1", 4, 1), ("c1", 4, 0), ("c2", 2, 1), ("c2", 3, 1),
        ("c3", 3, 1), ("c3", 4, 1), ("c2", 5, 0), ("c3", 5, 0), ("c1", 7, 0), ("c3", 6, 0),
        ("c2", 8, 0), ("c2", 6, 0), ("c2", 7, 0),
    )),
    *(("hungry", "c1", r, 0, None) for r in (2, 3, 4, 5)),
    ("gorbushka", "c1", 3, 0, {"dte": True}),
    ("burnt", "c3", 3, 0, None),
]
#: (rule, rows, columns) of the ``topology`` lines
TOPOLOGY = [
    ("gorbushka_join", 3, 3), ("chessboard", 4, 3), ("chessboard", 3, 5), ("chessboard", 4, 4),
    ("gorbushka_join", 4, 4), ("chessboard", 4, 5), ("join_power", 4, 4), ("chessboard", 4, 6),
    ("chessboard", 5, 5), ("chessboard", 4, 7), ("chessboard", 5, 6), ("chessboard", 5, 7),
    ("gorbushka_join", 5, 5), ("join_power", 5, 5),
]
VALIDATED = ("covering", "equivariance", "continuity")
VALIDATED_OLD = ("covering", "p_dte", "p_pe")
VALIDATED_LIFTED = ("equivariance", "covering+equivariance")
LIFT_EPSILON = 0.02
#: (label, fewest and most permutations mixed, doubly stochastic, nudged)
MIXES = [
    ("sparse", 1, 4, True, False),
    ("dense", 10, 60, True, False),
    ("rows", 1, 4, False, False),
    ("near", 10, 60, True, True),
]


def _value(fn) -> str:
    try:
        return json.dumps(fn(), sort_keys=True)
    except Exception as exc:  # the failure is part of the output
        return f"{type(exc).__name__}: {exc}"


def _json(fn) -> str:
    return _value(lambda: fn().to_json())


def _mix(rng, r, fewest, most, balanced):
    """Random weights on random permutation matrices; with ``balanced``
    false, each row draws its own permutation, so only rows sum to 1."""
    weights = rng.uniform(0.01, 1.0, size=int(rng.integers(fewest, most + 1)))
    weights /= weights.sum()
    out = np.zeros((r, r))
    for w in weights:
        if balanced:
            out[np.arange(r), rng.permutation(r)] += w
        else:
            out[np.arange(r), rng.integers(r, size=r)] += w
    return out


def _nudged(rng, m):
    """``m`` with 1e-8 to 1e-6 of each row's mass moved between two of its
    entries: rows still sum to 1, and the column averages miss 1/r by at
    most 1e-6, within the residual tolerance."""
    r = len(m)
    for row in m:
        j, k = rng.choice(r, size=2, replace=False)
        d = min(10 ** rng.uniform(-8, -6), row[k])
        row[j] += d
        row[k] -= d
    return m


def _dump_assignments() -> None:
    for label, fewest, most, balanced, nudged in MIXES:
        for r in (2, 3, 4, 5, 6):
            rng = np.random.default_rng(r)
            for seed in range(4):
                entries = _mix(rng, r, fewest, most, balanced)
                if nudged:
                    entries = _nudged(rng, entries)
                m = solver.StochasticMatrix(entries)
                tag = f"{label} r={r} seed={seed}"
                print(f"birkhoff {tag} {_value(lambda: solver.birkhoff(m).terms)}")
                print(f"extract {tag} {_value(lambda: solver.extract_assignment(m))}")
                print(f"bottleneck {tag} {_value(lambda: solver.bottleneck_assignment(m))}")


def _doubled_lengths(rng, r, degenerate):
    """2r-1 tile lengths, ``degenerate`` of them exactly zero or 1e-10, below
    the degeneracy tolerance, so cut-points collide and pin to the ends."""
    z = rng.dirichlet(np.ones(2 * r - 1))
    small = rng.choice(2 * r - 1, size=degenerate, replace=False)
    z[small] = 0.0
    z /= z.sum()
    z[small[rng.uniform(size=degenerate) < 0.5]] = 1e-10
    return tuple(z.tolist())


def _dump_cuts() -> None:
    for r in (2, 3, 4, 5):
        rng = np.random.default_rng(10 + r)
        for seed in range(8):
            # the last seed has one degenerate tile too few to reduce
            degenerate = r - 2 if seed == 7 else int(rng.integers(r - 1, 2 * r - 1))
            z = _doubled_lengths(rng, r, degenerate)
            cut = z_to_cut(ZPoint(z))
            print(f"z_to_cut {json.dumps(z)} {json.dumps([cut.points, cut.lengths])}")
            for keep in ("left", "right"):
                reduced = _value(lambda: reductions.eliminate_superfluous(cut, keep=keep).points)
                print(f"eliminate keep={keep} r={r} seed={seed} {reduced}")


def _dump_samples() -> None:
    for variant in SAMPLED:
        rng = np.random.default_rng(0)
        board = f"{variant.kind} {variant.rows}x{variant.cols}"
        for i in range(20):
            point = _json(lambda: preferences.sample_config_point(rng, variant, i % 2 == 1))
            print(f"sample {board} i={i} {point}")


def _dump_searches() -> None:
    for model, space, r, seed, params in SEARCHED:
        variant = complexes.for_space(space, r)
        prefs = preferences.make_builtin(model, r, kind="new", params=params, seed=seed, variant=variant)

        def run():
            result = solver.search(variant, prefs)
            return {
                "point": result.point.to_json(),
                "residual": result.residual,
                "converged": result.converged,
                "denominator": result.denominator,
                "pl_zeros": result.pl_zeros,
            }

        print(f"search {space} r={r} {model} seed={seed} {_value(run)}")


def _dump_topology() -> None:
    for kind, rows, cols in TOPOLOGY:
        cx = complexes.build_complex(complexes.Variant(kind, rows, cols))

        def run():
            return {**complexes.reduced_homology(cx).to_json(), "face_counts": list(cx.face_counts())}

        print(f"topology {kind} {rows}x{cols} {_value(run)}")


def _psi_source(r, seed):
    """Tables that score nothing up to LIFT_EPSILON, as psi requires."""
    rng = np.random.default_rng(seed)
    xs = [0.0, LIFT_EPSILON] + [i / 4 for i in range(1, 5)]
    tables = {
        player: {tile: [[x, 0.0 if x <= LIFT_EPSILON else float(rng.uniform(0.2, 1.0))] for x in xs]
                 for tile in range(1, r + 1)}
        for player in range(1, r + 1)
    }
    return preferences.piecewise_from_tables(r, tables)


def _phi_source(r, seed):
    """One table per player for every tile: partition-equivalent, as phi requires."""
    rng = np.random.default_rng(seed)
    xs = [i / 5 for i in range(6)]
    tables = {}
    for player in range(1, r + 1):
        table = [[x, float(rng.uniform(0.0, 1.0))] for x in xs]
        tables[player] = {tile: table for tile in range(1, r + 1)}
    return preferences.piecewise_from_tables(r, tables)


def _first_degenerate_scored(r):
    """Tile lengths as scores, plus 0.3 for a degenerate first tile alone:
    covering holds, but p_dte and p_pe fail."""

    def raw(player, z):
        return [v if v > 0.0 or i else 0.3 for i, v in enumerate(z)]

    return preferences.PreferenceMatrix(r=r, kind="old", model="first-degenerate", raw=raw)


def _dump_refusals() -> None:
    source = _first_degenerate_scored(3)
    print(f"lift psi refuses p_dte {_value(lambda: reductions.psi(source, LIFT_EPSILON).model)}")
    print(f"lift phi refuses p_pe {_value(lambda: reductions.phi(source).model)}")
    variant = complexes.for_space("c1", 3)
    hungry = preferences.make_builtin("hungry", 3, kind="new", variant=variant)

    def raw(player, point):
        return [0.0] * 3 if player == 2 and point.cut.points == (0.25, 0.5) else hungry.raw(player, point)

    refusing = preferences.PreferenceMatrix(r=3, kind="new", model="refusing", raw=raw, variant=variant)
    print(f"solve c1 r=3 refusing at (0.25, 0.5) {_json(lambda: solver.solve(variant, refusing))}")
    tiles = preferences.make_builtin("hungry", 3)

    def source_raw(player, z):
        return [0.0] * 3 if player == 2 and tuple(z) == (0.25, 0.25, 0.5) else tiles.raw(player, z)

    source = preferences.PreferenceMatrix(r=3, kind="old", model="refusing", raw=source_raw)
    lifts = [("psi", "c1", lambda: reductions.psi(source, tiles.params["margin"])), ("phi", "c2", lambda: reductions.phi(source))]
    for name, space, lift in lifts:
        run = lambda: solver.solve(complexes.for_space(space, 3), lift())  # noqa: E731
        print(f"solve {name}(refusing) {space} r=3 source refusing at (0.25, 0.25, 0.5) {_json(run)}")


def _lifted_solve(lift, space, r, source):
    def run():
        return solver.solve(complexes.for_space(space, r), lift(source()))

    return _json(run)


def _dump_lifted_reports() -> None:
    for r in (2, 3, 4):
        for seed in (0, 3):
            lifts = [
                ("psi(hungry) c1", reductions.psi(preferences.make_builtin("hungry", r))),
                ("psi(tables) c1", reductions.psi(_psi_source(r, seed), LIFT_EPSILON)),
                ("phi(hungry) c2", reductions.phi(preferences.make_builtin("hungry", r))),
                ("phi(tables) c2", reductions.phi(_phi_source(r, seed))),
            ]
            for name, lifted in lifts:
                for prop in VALIDATED_LIFTED:
                    report = _json(lambda: preferences.validate(lifted, prop, 200, seed=seed))
                    print(f"validate {prop} {name} r={r} seed={seed} {report}")


def main() -> None:
    _dump_assignments()
    _dump_cuts()
    _dump_samples()
    for name, r in DEMOS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli(["demo", name, "--r", str(r)])
        print(f"demo {name} r={r} exit {code} {out.getvalue().strip()}")
    for space, r in SPACES:
        variant = complexes.for_space(space, r)
        for model in preferences.BUILTIN_MODELS:
            for seed in (0, 3):
                prefs = preferences.make_builtin(model, r, kind="new", seed=seed, variant=variant)
                label = f"{space} r={r} {model} seed={seed}"
                for prop in VALIDATED:
                    report = _json(lambda: preferences.validate(prefs, prop, 200, seed=seed))
                    print(f"validate {prop} {label} {report}")
                print(f"brute {label} {_json(lambda: solver.brute_force(variant, prefs, BRUTE_GRID))}")
                print(f"solve {label} {_json(lambda: solver.solve(variant, prefs))}")
    for r in (2, 3, 4):
        for seed in (0, 3):
            sources = [(m, preferences.make_builtin(m, r, seed=seed)) for m in preferences.BUILTIN_MODELS]
            sources += [("psi-tables", _psi_source(r, seed)), ("phi-tables", _phi_source(r, seed))]
            for name, old in sources:
                for prop in VALIDATED_OLD:
                    report = _json(lambda: preferences.validate(old, prop, 200, seed=seed))
                    print(f"validate {prop} old r={r} {name} seed={seed} {report}")
    for r in (2, 3, 4):
        hungry = lambda: preferences.make_builtin("hungry", r)  # noqa: E731
        print(f"solve psi(hungry) c1 r={r} {_lifted_solve(reductions.psi, 'c1', r, hungry)}")
        print(f"solve phi(hungry) c2 r={r} {_lifted_solve(reductions.phi, 'c2', r, hungry)}")
        for seed in (0, 3):
            psi = lambda old: reductions.psi(old, LIFT_EPSILON)  # noqa: E731
            psi_source = lambda: _psi_source(r, seed)  # noqa: E731
            phi_source = lambda: _phi_source(r, seed)  # noqa: E731
            print(f"solve psi(tables) c1 r={r} seed={seed} {_lifted_solve(psi, 'c1', r, psi_source)}")
            print(f"solve phi(tables) c2 r={r} seed={seed} {_lifted_solve(reductions.phi, 'c2', r, phi_source)}")
    _dump_lifted_reports()
    _dump_searches()
    _dump_topology()
    _dump_refusals()


if __name__ == "__main__":
    main()
