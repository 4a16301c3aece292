"""Tests of the benchmark itself: its checks catch corrupted outputs, its
tracing leaves outputs alone, and its metric names match BENCHMARK.json.

Run from the root of the repository:  python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import checks  # noqa: E402
import envydiv  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from envydiv import configspace, solver  # noqa: E402
from tracing import OP, Tracer  # noqa: E402


def _op(workload, name, seed=0):
    ops, counter = workloads.build(workload, seed)
    return next(op for op in ops if op.name == name), counter


@pytest.fixture(scope="module")
def random_c1():
    op, _ = _op("oracle", "random c1 r=3 seed=1")
    result = op.run()
    assert op.check(result) == []
    return op, result


def test_swapped_assignment_is_rejected(random_c1):
    op, (division, oracle) = random_c1
    a = list(division.assignment)
    rejected = []
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            swapped = a[:]
            swapped[i], swapped[j] = swapped[j], swapped[i]
            corrupt = dataclasses.replace(division, assignment=tuple(swapped))
            rejected.append(bool(op.check((corrupt, oracle))))
    assert all(rejected)


def test_perturbed_cut_is_rejected(random_c1):
    op, (division, oracle) = random_c1
    point = division.point
    moved = [min(1.0, p + 1e-3) for p in point.cut.points]
    shifted = configspace.canonicalize(configspace.Cut(tuple(moved)), dict(point.allocation), point.variant)
    assert op.check((dataclasses.replace(division, point=shifted), oracle))


def test_board_rules():
    board = ("gorbushka_join", 3, 3)
    assert checks.board_ok(board, [(1, 1), (1, 3), (2, 2)])
    assert not checks.board_ok(board, [(1, 1), (1, 2), (2, 3)])
    assert not checks.board_ok(("chessboard", 3, 5), [(1, 1), (1, 3)])


def test_wrong_homology_is_rejected():
    op, _ = _op("topology", "chessboard 4x3")
    report, manifold = op.run()
    assert op.check((report, manifold)) == []
    assert op.check((dataclasses.replace(report, betti=(0, 2, 2)), manifold))
    assert op.check((dataclasses.replace(report, torsion=((), (3,), ())), manifold))
    assert op.check((report, not manifold))


def test_brute_value_and_verdict_are_checked():
    op, _ = _op("oracle", "random c2 r=3 grid=21")
    result = op.run()
    assert op.check(result) == []
    assert op.check(dataclasses.replace(result, max_min_score=result.max_min_score + 1e-6))
    assert op.check(dataclasses.replace(result, feasible=False))


def test_brute_oracles_follow_the_seed():
    def seeds(seed):
        _, counter = workloads.build("oracle", seed)
        return [prefs.params.get("seed") for prefs in counter.oracles]

    assert seeds(4) == seeds(4)
    assert seeds(4) != seeds(5)


def test_tracing_keeps_outputs_and_restores_functions():
    op, counter = _op("oracle", "phi hungry c2 r=2")
    original = solver.point_from_barycentric
    plain = workloads.to_json(op.run())
    calls = counter.calls

    tracer = Tracer()
    tracer.install(envydiv, counter.oracles)
    assert solver.point_from_barycentric is not original
    traced = workloads.to_json(tracer.run_op(op.name, op.run))
    tracer.uninstall()

    assert solver.point_from_barycentric is original
    assert traced == plain
    assert counter.calls == 2 * calls
    totals = tracer.totals()
    assert totals["preferences.oracle"]["calls"] == calls
    assert totals["reductions.phi"]["calls"] == 1
    for stats in totals.values():
        assert 0 <= stats["self_s"] <= stats["total_s"] + 1e-9
    op_total = totals[OP]["total_s"]
    assert sum(s["self_s"] for s in totals.values()) == pytest.approx(op_total)


def test_rounds_repeat_ops_and_stop_near_the_run_length():
    def sleeper(seconds):
        def run():
            time.sleep(seconds)
            return seconds

        return run

    ops = [
        workloads.Op("short", sleeper(0.001), lambda _: [], reps=3),
        workloads.Op("long", sleeper(0.02), lambda _: []),
    ]
    rounds, outputs, failed = worker.run_rounds(ops, workloads.OracleCounter(), 0.2, seed=0)
    assert failed == 0
    assert all(sorted(r.order) == [0, 0, 0, 1] for r in rounds)
    assert [len(o) for o in outputs] == [3 * len(rounds), len(rounds)]
    # a round lasts about 0.023 s: the run ends within half a round of 0.2 s,
    # give or take the sleeps' own jitter
    assert 0.2 - 0.03 < sum(r.wall_s for r in rounds) < 0.2 + 0.05
    short, long = worker.op_means(ops, rounds)
    assert short < long


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == worker.layer_metric_units()
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_s", "op_p50_s", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "0", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
