#!/usr/bin/env python3
"""Run every canned scenario plus the topology checks and summarize.

Exit status is the number of failing stages, so `echo $?` after a run
tells you at a glance whether the suite is healthy.
"""

import sys

from envydiv.cli import main as cli

STAGES = [
    ("gale r=5", ["demo", "gale", "--r", "5"]),
    ("gale r=3", ["demo", "gale", "--r", "3"]),
    ("gorbushka r=3", ["demo", "gorbushka", "--r", "3"]),
    ("burnt r=3", ["demo", "burnt", "--r", "3"]),
    ("ppe r=4", ["demo", "ppe", "--r", "4"]),
    ("hexagon homology", ["topology", "--complex", "chessboard", "--m", "3", "--n", "2"]),
    ("torus homology", ["topology", "--complex", "chessboard", "--m", "4", "--n", "3"]),
    ("wide board connectivity", ["topology", "--complex", "chessboard", "--m", "3", "--n", "5"]),
    ("5x5 board 3-torsion", ["topology", "--complex", "chessboard", "--m", "5", "--n", "5"]),
    (
        "circle pseudomanifold",
        ["topology", "--complex", "gorbushka-join", "--r", "2", "--pseudomanifold"],
    ),
]


def run() -> int:
    failures = 0
    results = []
    for label, argv in STAGES:
        print(f"=== {label}: envydiv {' '.join(argv)}", file=sys.stderr)
        code = cli(argv)
        results.append((label, code))
        failures += code != 0
    print("\n--- summary ---", file=sys.stderr)
    for label, code in results:
        status = "ok" if code == 0 else f"exit {code}"
        print(f"{label:28s} {status}", file=sys.stderr)
    return failures


if __name__ == "__main__":
    sys.exit(run())
