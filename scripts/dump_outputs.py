#!/usr/bin/env python3
"""Print the JSON of a fixed set of runs, one line each, to compare trees.

Covers the demos of ``run_demo_suite.py``; ``brute_force``, ``solve`` and
the ``covering``, ``equivariance`` and ``continuity`` reports of
``validate`` (200 samples) on c1 r=2..4, c2 r=2,3 and c3 r=2..4 for every
built-in model and seeds 0 and 3; the old-style ``covering``, ``p_dte``
and ``p_pe`` reports (200 samples) for r=2..4 of every built-in model and
of the seeded psi and phi source tables, seeds 0 and 3; and ``solve`` of
psi lifts onto c1 and phi lifts onto c2 for r=2..4, from ``hungry`` and
from seeded breakpoint tables.  A run that raises prints the exception
instead.  Run it on two source trees and diff the outputs:

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

DEMOS = [("gale", 5), ("gale", 3), ("gorbushka", 3), ("burnt", 3), ("ppe", 4)]
SPACES = [("c1", r) for r in (2, 3, 4)] + [("c2", r) for r in (2, 3)] + [("c3", r) for r in (2, 3, 4)]
BRUTE_GRID = 7
VALIDATED = ("covering", "equivariance", "continuity")
VALIDATED_OLD = ("covering", "p_dte", "p_pe")
LIFT_EPSILON = 0.02


def _json(fn) -> str:
    try:
        return json.dumps(fn().to_json(), sort_keys=True)
    except Exception as exc:  # the failure is part of the output
        return f"{type(exc).__name__}: {exc}"


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


def _lifted_solve(lift, space, r, source):
    def run():
        return solver.solve(complexes.for_space(space, r), lift(source()))

    return _json(run)


def main() -> None:
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


if __name__ == "__main__":
    main()
