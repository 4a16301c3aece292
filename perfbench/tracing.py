"""Spans around the program's public functions, recorded from outside it.

``Tracer.install`` replaces each traced function on every envydiv module
that holds it, which is where its callers look it up (``solver`` calls
``point_from_barycentric``, ``scores`` and ``validate`` through its own
namespace, ``configspace`` calls ``is_face`` through its own).  It also
wraps ``raw`` of the oracles the benchmark built.  ``uninstall`` puts the
originals back.

Spans stay in memory as flat arrays (name, parent, op, start, end) and are
written out once, at the end of the run.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter_ns

import numpy as np

#: traced functions by the module that defines them
TRACED = {
    "complexes": (
        "build_complex",
        "is_face",
        "boundary_matrix",
        "smith_invariants",
        "reduced_homology",
        "is_pseudomanifold",
    ),
    "configspace": ("point_from_barycentric", "canonicalize"),
    "preferences": ("scores", "validate"),
    "reductions": ("psi", "phi", "eliminate_superfluous"),
    "solver": ("search", "average_matrix", "bottleneck_assignment", "verify_division", "brute_force"),
}

ORACLE = "preferences.oracle"
OP = "bench.op"


def _matrix_entries(matrix):
    return len(matrix) * (len(matrix[0]) if matrix else 0)


#: counts read off a traced function's result
RESULT_COUNTS = {
    "solver.search": ("evaluations", lambda result: result.evaluations),
    "solver.brute_force": ("evaluated", lambda result: result.evaluated),
    "preferences.validate": ("samples", lambda result: result.samples),
    "complexes.boundary_matrix": ("entries", _matrix_entries),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts: dict[str, int] = {}
        self.ops: list[str] = []
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(len(self.ops) - 1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def run_op(self, label: str, fn):
        """Run one op under a root span; every span it causes carries its op id."""
        self.ops.append(label)
        idx = self.begin(self._name_id(OP))
        try:
            return fn()
        finally:
            self.finish(idx)

    def wrap(self, fn, name: str):
        nid = self._name_id(name)
        counted = RESULT_COUNTS.get(name)
        key = f"{name}.{counted[0]}" if counted else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(idx)
            if key is not None:
                self.counts[key] = self.counts.get(key, 0) + counted[1](result)
            return result

        return traced

    def install(self, package, oracles) -> None:
        modules = [package] + [
            m for n, m in sys.modules.items() if n.startswith(package.__name__ + ".") and m is not None
        ]
        for module_name, functions in TRACED.items():
            home = getattr(package, module_name)
            for fn_name in functions:
                original = getattr(home, fn_name, None)
                if original is None:
                    print(f"perfbench: {module_name}.{fn_name} is gone; its metrics read 0", file=sys.stderr)
                    continue
                traced = self.wrap(original, f"{module_name}.{fn_name}")
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, attr, original))
                            setattr(module, attr, traced)
        for prefs in oracles:
            self._restore.append((prefs, "raw", prefs.raw))
            prefs.raw = self.wrap(prefs.raw, ORACLE)

    def uninstall(self) -> None:
        while self._restore:
            obj, attr, original = self._restore.pop()
            setattr(obj, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def totals(self) -> dict[str, dict[str, float]]:
        """Calls, total seconds and self seconds per span name."""
        a = self.arrays()
        duration = (a["end_ns"] - a["start_ns"]) / 1e9
        child = a["parent"] >= 0
        children = np.bincount(a["parent"][child], weights=duration[child], minlength=len(duration))
        own = duration - children
        n = len(self.names)
        calls = np.bincount(a["name"], minlength=n)
        total = np.bincount(a["name"], weights=duration, minlength=n)
        self_s = np.bincount(a["name"], weights=own, minlength=n)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), ops=np.array(self.ops), **self.arrays())
