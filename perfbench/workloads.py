"""The two benchmark workloads: their inputs, their ops and each op's check.

``oracle`` holds three groups of ops that query oracles the benchmark
built: ``solve()`` on native oracles, ``solve()`` on lifted old-style
oracles, and ``brute_force()`` scans.  ``topology`` queries no oracle.
The three groups and ``topology`` were first four workloads.  On a
2-vCPU host whose speed drifts by up to twice within twenty minutes, four
workloads left each run too short to average the drift out, so the three
oracle groups share one workload and its longer runs.

An op is one timed call into the program (a solve, a lift plus a solve, a
brute-force scan, or a homology and pseudomanifold report).  A round runs
every op of a workload ``reps`` times, once for most ops; a run repeats
whole rounds.  Everything the program receives is built here: oracles
wrapped so that the benchmark counts each call into ``raw``, and boards
as plain variants.

The scenario matrix is fixed per workload, so every round does the same
work and the oracle-call count of a round repeats exactly.  The workload
seed shuffles the op order of every round and draws the random oracles
of the brute group, whose scan visits the same grid points whatever their
values.  Random instances of the solve groups use the fixed instance
seed ``INSTANCE_SEED``: the work of a solve changes several-fold from one
random oracle to the next, so drawing them from the workload seed would
make the run-to-run spread wider than any bound worth having.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
from envydiv import complexes, preferences, reductions, solver

#: seed of the random oracles and breakpoint tables of the solve groups
INSTANCE_SEED = 1
#: length below which the psi sources never score the last tile
PSI_EPSILON = 0.02

WORKLOADS = ("oracle", "topology")


@dataclass
class Op:
    """One timed call into the program and the check of its output."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    #: times the op runs in one round; above 1 for ops far shorter than the
    #: round, so their median latency rests on more than two or three samples
    reps: int = 1


class OracleCounter:
    """Counts the calls into ``raw`` of every oracle the benchmark builds."""

    def __init__(self):
        self.calls = 0
        self.oracles: list[preferences.PreferenceMatrix] = []

    def wrap(self, prefs: preferences.PreferenceMatrix) -> preferences.PreferenceMatrix:
        raw = prefs.raw

        def counted(player, point):
            self.calls += 1
            return raw(player, point)

        prefs.raw = counted
        self.oracles.append(prefs)
        return prefs


def _board(space: str, r: int) -> tuple[str, int, int]:
    """The benchmark's own map from a space label to (rule, rows, columns)."""
    return {
        "c1": ("gorbushka_join", r, r),
        "c2": ("chessboard", r, 2 * r - 1),
        "c3": ("join_power", r, r),
    }[space]


def _solve_op(name, space, r, prefs, showcase=None, lift=None):
    variant = complexes.for_space(space, r)
    board = _board(space, r)

    def run():
        oracle = lift(prefs) if lift is not None else prefs
        return solver.solve(variant, oracle), oracle

    def check(result):
        division, oracle = result
        problems = checks.check_division(division, board, oracle.raw)
        if showcase is not None and not problems:
            problems = showcase(division)
        return problems

    return Op(name, run, check)


def _native(counter, model, space, r, params=None, seed=INSTANCE_SEED):
    variant = complexes.for_space(space, r)
    return counter.wrap(
        preferences.make_builtin(model, r, kind="new", params=params, seed=seed, variant=variant)
    )


def _psi_tables(rng, r):
    """Per-player, per-tile tables, zero up to PSI_EPSILON and positive above."""
    xs = [0.0, PSI_EPSILON] + [i / 6 for i in range(1, 7)]
    return {
        player: {
            tile: [[x, 0.0 if x <= PSI_EPSILON else float(rng.uniform(0.2, 1.0))] for x in xs]
            for tile in range(1, r + 1)
        }
        for player in range(1, r + 1)
    }


def _phi_tables(rng, r):
    """One table per player shared by all tiles: partition-equivalent by construction."""
    xs = [i / 7 for i in range(8)]
    tables = {}
    for player in range(1, r + 1):
        table = [[x, float(rng.uniform(0.0, 1.0))] for x in xs]
        tables[player] = {tile: table for tile in range(1, r + 1)}
    return tables


#: (space, r, oracle seed) of the random instances of native solves; the
#: second c1 r=4 instance balances the cheap built-ins below the median op
NATIVE_RANDOM = (
    ("c1", 2, INSTANCE_SEED),
    ("c1", 3, INSTANCE_SEED),
    ("c1", 4, INSTANCE_SEED),
    ("c1", 4, 0),
    ("c2", 2, INSTANCE_SEED),
    ("c2", 3, INSTANCE_SEED),
    ("c3", 3, INSTANCE_SEED),
    ("c3", 4, INSTANCE_SEED),
)


def solve_native(seed: int, counter: OracleCounter) -> list[Op]:
    ops = []
    for space, r, oracle_seed in NATIVE_RANDOM:
        prefs = _native(counter, "piecewise_random", space, r, seed=oracle_seed)
        ops.append(_solve_op(f"random {space} r={r} seed={oracle_seed}", space, r, prefs))
    for r in (2, 3, 4, 5):
        prefs = _native(counter, "hungry", "c1", r)
        ops.append(_solve_op(f"hungry c1 r={r}", "c1", r, prefs, checks.gale(r)))
    prefs = _native(counter, "gorbushka", "c1", 3, {"dte": True})
    ops.append(_solve_op("gorbushka-dte c1 r=3", "c1", 3, prefs, checks.collapsed_cut))
    prefs = _native(counter, "burnt", "c3", 3)
    ops.append(_solve_op("burnt c3 r=3", "c3", 3, prefs, checks.preferred_empty_box))
    return ops


def solve_lifted(seed: int, counter: OracleCounter) -> list[Op]:
    ops = []
    for r in (3, 4):
        rng = np.random.default_rng(INSTANCE_SEED)
        sources = {
            "hungry": preferences.make_builtin("hungry", r),
            "tables": preferences.piecewise_from_tables(r, _psi_tables(rng, r)),
        }
        epsilon = {"hungry": None, "tables": PSI_EPSILON}
        for label, source in sources.items():
            counter.wrap(source)
            ops.append(
                _solve_op(
                    f"psi {label} c1 r={r}", "c1", r, source,
                    lift=lambda p, e=epsilon[label]: reductions.psi(p, e),
                )
            )
    for r in (2, 3, 4):
        rng = np.random.default_rng(INSTANCE_SEED)
        sources = {
            "hungry": preferences.make_builtin("hungry", r),
            "burnt": preferences.make_builtin("burnt", r),
            "tables": preferences.piecewise_from_tables(r, _phi_tables(rng, r)),
        }
        for label, source in sources.items():
            counter.wrap(source)
            ops.append(
                _solve_op(
                    f"phi {label} c2 r={r}", "c2", r, source,
                    showcase=checks.one_tile_per_box, lift=lambda p: reductions.phi(p),
                )
            )
    return ops


def _brute_op(name, space, r, prefs, grid, feasible):
    variant = complexes.for_space(space, r)
    board = _board(space, r)

    def run():
        return solver.brute_force(variant, prefs, grid_resolution=grid)

    def check(result):
        return checks.check_brute(result, board, prefs.raw, feasible)

    return Op(name, run, check)


#: (space, r, grid) of the brute scans over seeded random oracles
BRUTE_RANDOM = (("c1", 3, 21), ("c2", 3, 21), ("c3", 3, 21), ("c1", 4, 9), ("c2", 4, 11), ("c3", 4, 7))


def brute(seed: int, counter: OracleCounter) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for space, r, grid in BRUTE_RANDOM:
        variant = complexes.for_space(space, r)
        prefs = counter.wrap(
            preferences.make_builtin(
                "piecewise_random", r, kind="new", seed=rng.randrange(2**31), variant=variant
            )
        )
        ops.append(_brute_op(f"random {space} r={r} grid={grid}", space, r, prefs, grid, True))
    plain = _native(counter, "gorbushka", "c1", 3, {"dte": False})
    ops.append(_brute_op("gorbushka-plain c1 r=3 grid=31", "c1", 3, plain, 31, False))
    hungry = _native(counter, "hungry", "c1", 3)
    ops.append(_brute_op("hungry c1 r=3 grid=21", "c1", 3, hungry, 21, True))
    burnt = _native(counter, "burnt", "c3", 3)
    ops.append(_brute_op("burnt c3 r=3 grid=21", "c3", 3, burnt, 21, True))
    return ops


#: boards of the topology workload, as (rule, rows, columns), with the
#: op's repetitions per round: chessboard 5x5 alone takes 6-12 s, so a run
#: holds three or four rounds, and the boards that take milliseconds to a
#: few tenths of a second repeat within each round
TOPOLOGY_BOARDS = (
    (("gorbushka_join", 3, 3), 10),
    (("chessboard", 4, 3), 10),
    (("chessboard", 3, 5), 10),
    (("chessboard", 4, 4), 10),
    (("gorbushka_join", 4, 4), 10),
    (("chessboard", 4, 5), 2),
    (("join_power", 4, 4), 1),
    (("chessboard", 4, 6), 1),
    (("chessboard", 5, 5), 1),
)


def _topology_op(board, reps):
    kind, rows, cols = board
    variant = complexes.Variant(kind, rows, cols)
    reference = checks.TopologyReference(board)

    def run():
        cx = complexes.build_complex(variant)
        return complexes.reduced_homology(cx), complexes.is_pseudomanifold(cx)

    def check(result):
        return reference.check(*result)

    return Op(f"{kind} {rows}x{cols}", run, check, reps)


def topology(seed: int, counter: OracleCounter) -> list[Op]:
    return [_topology_op(board, reps) for board, reps in TOPOLOGY_BOARDS]


def oracle(seed: int, counter: OracleCounter) -> list[Op]:
    return solve_native(seed, counter) + solve_lifted(seed, counter) + brute(seed, counter)


BUILDERS = {"oracle": oracle, "topology": topology}


def build(workload: str, seed: int) -> tuple[list[Op], OracleCounter]:
    """Generate the inputs of one workload from its seed."""
    counter = OracleCounter()
    return BUILDERS[workload](seed, counter), counter


def to_json(result) -> object:
    """A comparable form of an op's output, used to check run-to-run determinism."""
    if isinstance(result, tuple) and isinstance(result[0], solver.EnvyFreeDivision):
        return result[0].to_json()
    if isinstance(result, tuple):
        return [result[0].to_json(), result[1]]
    return result.to_json()
