#!/usr/bin/env python3
"""Print the JSON of a fixed set of runs, one line each, to compare trees.

Covers the demos of ``run_demo_suite.py`` and ``brute_force`` and ``solve``
on c1 r=2..4, c2 r=2,3 and c3 r=2..4 for every built-in model and seeds
0 and 3; a run that raises prints the exception instead.  Run it on two
source trees and diff the outputs:

    PYTHONPATH=src python scripts/dump_outputs.py > after.txt
    PYTHONPATH=../other/src python scripts/dump_outputs.py > before.txt
    cmp before.txt after.txt
"""

import contextlib
import io
import json

from envydiv import complexes, preferences, solver
from envydiv.cli import main as cli

DEMOS = [("gale", 5), ("gale", 3), ("gorbushka", 3), ("burnt", 3), ("ppe", 4)]
SPACES = [("c1", r) for r in (2, 3, 4)] + [("c2", r) for r in (2, 3)] + [("c3", r) for r in (2, 3, 4)]
BRUTE_GRID = 7


def _json(fn) -> str:
    try:
        return json.dumps(fn().to_json(), sort_keys=True)
    except Exception as exc:  # the failure is part of the output
        return f"{type(exc).__name__}: {exc}"


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
                print(f"brute {label} {_json(lambda: solver.brute_force(variant, prefs, BRUTE_GRID))}")
                print(f"solve {label} {_json(lambda: solver.solve(variant, prefs))}")


if __name__ == "__main__":
    main()
