"""One workload in one process: set up, run whole rounds, check, report.

Started by ``run.py`` from the root of a checkout.  It prints ``ready``
once the inputs exist, so the parent can time set-up from process start,
and with ``--setup-only`` it stops there.  Otherwise it runs whole rounds
for about ``--seconds``, checks every output outside the timed region,
and prints one JSON object as its last line.

Times are reported from each op's mean latency over the run: ``wall_s``
is their sum, one call of every op, and ``op_p50_s`` their median.

With ``--trace 1`` the rounds alternate untraced and traced, starting
untraced; per-layer figures come from the traced rounds, and the tracing
overhead is ``wall_s`` of the traced rounds minus that of the untraced.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path.cwd()
OUT = ROOT / "perfbench" / "out"

#: per-layer metrics read off the spans: span name -> fields
SPAN_METRICS = {
    "complexes.build_complex": ("calls", "s"),
    "complexes.is_face": ("calls", "s"),
    "complexes.boundary_matrix": ("s",),
    "complexes.smith_invariants": ("calls", "s"),
    "complexes.reduced_homology": ("s",),
    "complexes.is_pseudomanifold": ("s",),
    "configspace.point_from_barycentric": ("calls", "s"),
    "configspace.canonicalize": ("calls", "s"),
    "preferences.scores": ("calls", "s"),
    "preferences.oracle": ("s",),
    "preferences.validate": ("calls", "s"),
    "reductions.psi": ("s", "total_s"),
    "reductions.phi": ("s", "total_s"),
    "reductions.eliminate_superfluous": ("calls", "s"),
    "solver.search": ("s", "total_s"),
    "solver.average_matrix": ("calls", "s"),
    "solver.bottleneck_assignment": ("s",),
    "solver.verify_division": ("s",),
    "solver.brute_force": ("s", "total_s"),
}
FIELD = {"calls": ("calls", "count"), "s": ("self_s", "s"), "total_s": ("total_s", "s")}


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {
        f"{span}.{field}": FIELD[field][1]
        for span, fields in SPAN_METRICS.items()
        for field in fields
    }
    units.update({name: "count" for name in _result_metrics()})
    units.update({"oracle_calls": "count", "trace.spans": "count", "trace.overhead_s": "s"})
    return units


def _result_metrics() -> list[str]:
    """Per-layer counts read off the results of traced functions."""
    from tracing import RESULT_COUNTS

    return [f"{span}.{field}" for span, (field, _) in RESULT_COUNTS.items()]


@dataclass
class Round:
    traced: bool
    wall_s: float
    order: list[int]
    op_s: list[float]
    oracle_calls: int


def _more_rounds(rounds, elapsed, seconds, least) -> bool:
    """Start another round while the run would end nearer ``seconds`` with it.

    A run of rounds lasting several seconds each then ends within half a
    round of ``seconds``, rather than up to a whole round past it.
    """
    if len(rounds) < least:
        return True
    return elapsed + statistics.median(r.wall_s for r in rounds) / 2 < seconds


def run_rounds(ops, counter, seconds, seed, tracer=None, package=None):
    """Whole rounds of every op, in a seeded order, for about ``seconds``."""
    rng = random.Random(seed)
    rounds: list[Round] = []
    outputs: list[list] = [[] for _ in ops]
    failed = 0
    begin = time.perf_counter()
    while _more_rounds(rounds, time.perf_counter() - begin, seconds, 2 if tracer else 1):
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install(package, counter.oracles)
        order = [i for i, op in enumerate(ops) for _ in range(op.reps)]
        rng.shuffle(order)
        calls = counter.calls
        times = []
        start = time.perf_counter()
        for i in order:
            op = ops[i]
            t = time.perf_counter()
            try:
                result = tracer.run_op(op.name, op.run) if traced else op.run()
            except Exception:
                failed += 1
                result = None
                print(f"perfbench: op {op.name!r} failed\n{traceback.format_exc()}", file=sys.stderr)
            times.append(time.perf_counter() - t)
            outputs[i].append(result)
        wall = time.perf_counter() - start
        if traced:
            tracer.uninstall()
        rounds.append(Round(traced, wall, order, times, counter.calls - calls))
        print(f"perfbench: round {len(rounds)} {'traced' if traced else 'untraced'} {wall:.3f} s", file=sys.stderr)
    return rounds, outputs, failed


def op_means(ops, rounds) -> list[float]:
    """Each op's mean latency over every call of it in the rounds.

    The host this was tuned on runs at two speeds about 1.45 times apart
    and switches between them every 10-30 s.  A mean follows the share of
    the run spent at each speed; the median of an op's few calls jumps from
    one speed to the other when that share is near a half.
    """
    samples: list[list[float]] = [[] for _ in ops]
    for r in rounds:
        for i, t in zip(r.order, r.op_s):
            samples[i].append(t)
    return [statistics.fmean(s) for s in samples]


def check_outputs(ops, outputs, rounds, to_json) -> list[str]:
    problems = []
    for op, results in zip(ops, outputs):
        done = [r for r in results if r is not None]
        for result in done:
            problems += [f"{op.name}: {p}" for p in op.check(result)]
        if len({json.dumps(to_json(r), sort_keys=True) for r in done}) > 1:
            problems.append(f"{op.name}: output differs between rounds")
    if len({r.oracle_calls for r in rounds}) > 1:
        problems.append(f"oracle calls differ between rounds: {[r.oracle_calls for r in rounds]}")
    return problems


def layer_metrics(tracer, ops, rounds) -> dict[str, float]:
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    n = len(traced)
    totals = tracer.totals()
    values = {}
    for span, fields in SPAN_METRICS.items():
        stats = totals.get(span, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for field in fields:
            values[f"{span}.{field}"] = stats[FIELD[field][0]] / n
    for name in _result_metrics():
        values[name] = tracer.counts.get(name, 0) / n
    values["oracle_calls"] = rounds[0].oracle_calls
    values["trace.spans"] = len(tracer.start) / n
    values["trace.overhead_s"] = sum(op_means(ops, traced)) - sum(op_means(ops, plain))
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import envydiv

    if Path(envydiv.__file__).resolve().parent != (ROOT / "src" / "envydiv").resolve():
        print(f"perfbench: imported envydiv from {envydiv.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import workloads

    ops, counter = workloads.build(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    # exempt the import-time objects of numpy and scipy from every later full
    # collection, so an op's time does not depend on where in the seeded op
    # order the collector's thresholds happen to fall
    gc.collect()
    gc.freeze()

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    rounds, outputs, failed = run_rounds(ops, counter, args.seconds, args.seed, tracer, envydiv)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"rounds-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps([vars(r) | {"ops": [ops[i].name for i in r.order]} for r in rounds])
    )
    problems = check_outputs(ops, outputs, rounds, workloads.to_json)
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)

    if tracer is None:
        means = op_means(ops, rounds)
        metrics = {
            "wall_s": (sum(means), "s"),
            "op_p50_s": (statistics.median(means), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        tracer.save(OUT / f"trace-{args.workload}-seed{args.seed}.npz")
        units = layer_metric_units()
        values = layer_metrics(tracer, ops, rounds)
        metrics = {name: (value, units[name]) for name, value in values.items()}
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": sum(len(r.order) for r in rounds),
                "failed": failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
