"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload oracle --seed 0 --seconds 58 --trace 0

The workload itself runs in one worker process (``worker.py``).  Set-up
time is measured from outside: this process starts ``SETUP_PROBES``
workers that stop once their inputs exist, times each from spawn to its
``ready`` line, does the same for the measuring worker, and reports the
median.  The last line of standard output is the result object; it is
also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

WORKER = Path(__file__).resolve().with_name("worker.py")
WORKLOADS = ("oracle", "topology")
SETUP_PROBES = 3
#: every run ends within this, set-up probes and checks included
DEADLINE_S = 170.0


class RunFailed(RuntimeError):
    pass


def _worker(args, deadline, setup_only):
    """Start a worker, return (seconds until it is ready, its remaining stdout)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        rest, _ = proc.communicate()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RunFailed(f"worker {' '.join(cmd[2:])} exited with {proc.returncode}")
    return ready_s, rest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "envydiv" / "__init__.py").is_file():
        print("perfbench: no src/envydiv here; run from the root of an envydiv checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        # the traced run reports per-layer metrics only, so it skips the set-up probes
        setups = [] if args.trace else [_worker(args, deadline, True)[0] for _ in range(SETUP_PROBES)]
        ready_s, out = _worker(args, deadline, False)
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    result = json.loads(out.strip().splitlines()[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups + [ready_s]), "unit": "s"}
    line = json.dumps(result)
    out_dir = root / "perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
