"""Output checks, computed by the benchmark apart from the program.

Every check returns a list of problems; an empty list means the output
passed.  Checks read the program's outputs and the oracles' ``raw``
functions only: board rules, tile lengths, normalization, the best
assignment, faces, boundary matrices and their ranks are all recomputed
here.  Nothing is compared against a stored copy of earlier output.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

#: scores above this count as preferred; tiles longer than this are solid
PREFERENCE_TOL = 1e-9
#: the solver's default residual tolerance on the column averages
AVERAGE_TOL = 1e-6
#: slack for the same float recomputed along another summation order
RECOMPUTE_TOL = 1e-12
#: a prime larger than any invariant factor of these boards: rank over Q
LARGE_PRIME = 2_147_483_647


def board_ok(board: tuple[str, int, int], cells) -> bool:
    """The placement rule of a board, on (box, tile) cells."""
    kind, rows, cols = board
    if any(not (1 <= box <= rows and 1 <= tile <= cols) for box, tile in cells):
        return False
    tiles = [tile for _, tile in cells]
    if len(set(tiles)) != len(tiles):
        return False
    per_box: dict[int, list[int]] = {}
    for box, tile in cells:
        per_box.setdefault(box, []).append(tile)
    if kind == "join_power":
        return True
    if kind == "chessboard":
        return all(len(ts) == 1 for ts in per_box.values())
    shared = [ts for ts in per_box.values() if len(ts) > 1]
    return not shared or (len(shared) == 1 and len(shared[0]) == 2 and cols in shared[0])


def tile_lengths(points) -> list[float]:
    bounds = [0.0, *points, 1.0]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def score_matrix(raw, point, r: int) -> list[list[float]]:
    """Every player's raw scores at a point, normalized to sum 1."""
    rows = []
    for player in range(1, r + 1):
        values = [float(v) for v in raw(player, point)]
        total = math.fsum(values)
        rows.append([v / total for v in values] if total > 0 else [0.0] * len(values))
    return rows


def best_bottleneck(matrix) -> float:
    """The largest smallest-assigned score over all r! assignments."""
    r = len(matrix)
    return max(
        min(matrix[j][sigma[j]] for j in range(r)) for sigma in itertools.permutations(range(r))
    )


def check_point(point, board) -> list[str]:
    """Cut in [0, 1] and non-decreasing, allocation covering exactly the solid tiles."""
    kind, rows, cols = board
    points = list(point.cut.points)
    problems = []
    if len(points) != cols - 1:
        return [f"cut has {len(points)} points, board needs {cols - 1}"]
    if any(b < a for a, b in zip(points, points[1:])) or (points and (points[0] < 0 or points[-1] > 1)):
        problems.append(f"cut {points} is not non-decreasing in [0, 1]")
    lengths = tile_lengths(points)
    solid = {t for t, length in enumerate(lengths, start=1) if length > PREFERENCE_TOL}
    allocation = dict(point.allocation)
    if set(allocation) != solid:
        problems.append(f"allocation covers tiles {sorted(allocation)}, solid tiles are {sorted(solid)}")
    if not board_ok(board, [(box, tile) for tile, box in allocation.items()]):
        problems.append(f"allocation {allocation} breaks the {kind} board rule")
    return problems


def check_division(division, board, raw) -> list[str]:
    """A solve's output: a valid point where the averages are uniform and an optimal assignment."""
    r = board[1]
    problems = check_point(division.point, board)
    if problems:
        return problems
    matrix = score_matrix(raw, division.point, r)
    averages = [math.fsum(row[b] for row in matrix) / r for b in range(r)]
    worst = max(abs(a - 1.0 / r) for a in averages)
    if worst > AVERAGE_TOL:
        problems.append(f"column averages are {worst:.3g} away from 1/r")
    assignment = list(division.assignment)
    if sorted(assignment) != list(range(1, r + 1)):
        return problems + [f"assignment {assignment} is not a permutation"]
    assigned = [matrix[j][assignment[j] - 1] for j in range(r)]
    if min(assigned) <= PREFERENCE_TOL:
        problems.append(f"assigned scores {assigned} include an unwanted box")
    best = best_bottleneck(matrix)
    if abs(min(assigned) - best) > RECOMPUTE_TOL:
        problems.append(f"smallest assigned score {min(assigned)} is below the best {best}")
    return problems


def gale(r: int):
    """Hungry players on c1: r solid tiles of at least 1e-3, one per box."""

    def check(division) -> list[str]:
        lengths = tile_lengths(division.point.cut.points)
        boxes = [box for _, box in division.point.allocation]
        if len(boxes) == r and len(set(boxes)) == r and min(lengths) >= 1e-3:
            return []
        return [f"Gale division lacks r solid tiles in distinct boxes: lengths {lengths}"]

    return check


def collapsed_cut(division) -> list[str]:
    """Gorbushka with degenerate tolerance: the whole cake is one end slice."""
    lengths = tile_lengths(division.point.cut.points)
    if max(lengths) >= 1.0 - 1e-3:
        return []
    return [f"gorbushka cut does not collapse to an endpoint: lengths {lengths}"]


def preferred_empty_box(division) -> list[str]:
    """Burnt cake: some player is handed an empty box it scores positively."""
    occupied = {box for _, box in division.point.allocation}
    entries = division.matrix.entries
    for player, box in enumerate(division.assignment):
        if box not in occupied and entries[player, box - 1] > PREFERENCE_TOL:
            return []
    return ["no player is handed a preferred empty box"]


def one_tile_per_box(division) -> list[str]:
    """phi divisions hand every occupied box exactly one solid tile."""
    boxes = [box for _, box in division.point.allocation]
    if len(set(boxes)) == len(boxes):
        return []
    return [f"a box holds several tiles: {division.point.allocation}"]


def check_brute(result, board, raw, feasible: bool) -> list[str]:
    """The reported max-min value comes back from raw; the verdict matches the paper."""
    r = board[1]
    problems = []
    if result.feasible != feasible:
        problems.append(f"verdict feasible={result.feasible}, expected {feasible}")
    if result.point is None or result.assignment is None:
        return problems + ["no point or assignment reported"]
    problems += check_point(result.point, board)
    if problems:
        return problems
    assignment = list(result.assignment)
    if sorted(assignment) != list(range(1, r + 1)):
        return [f"assignment {assignment} is not a permutation"]
    matrix = score_matrix(raw, result.point, r)
    value = min(matrix[j][assignment[j] - 1] for j in range(r))
    if abs(value - result.max_min_score) > RECOMPUTE_TOL:
        problems.append(f"reported value {result.max_min_score} recomputes to {value}")
    return problems


# ---------------------------------------------------------------------------
# topology


def enumerate_faces(board) -> dict[int, list[tuple]]:
    """Every non-empty face, by dimension, as sorted (row, column) tuples.

    Each column holds at most one rook, so a face is a choice of a row or
    nothing per column, kept when the board rule accepts it.
    """
    kind, rows, cols = board
    faces: dict[int, list[tuple]] = {}
    for choice in itertools.product(range(rows + 1), repeat=cols):
        cells = tuple(sorted((row, col) for col, row in enumerate(choice, start=1) if row))
        if cells and board_ok(board, cells):
            faces.setdefault(len(cells) - 1, []).append(cells)
    return {d: sorted(fs) for d, fs in sorted(faces.items())}


def boundary(faces, dim: int) -> np.ndarray:
    """Oriented boundary matrix from dim-faces to (dim-1)-faces."""
    lower = {f: i for i, f in enumerate(faces[dim - 1])}
    upper = faces[dim]
    out = np.zeros((len(lower), len(upper)), dtype=np.int64)
    for col, simplex in enumerate(upper):
        for i in range(len(simplex)):
            out[lower[simplex[:i] + simplex[i + 1:]], col] = (-1) ** i
    return out


def rank_mod(matrix: np.ndarray, p: int) -> int:
    """Rank over the field with p elements, by Gaussian elimination."""
    a = np.array(matrix, dtype=np.int64) % p
    rank = 0
    n_rows, n_cols = a.shape
    for c in range(n_cols):
        if rank == n_rows:
            break
        nonzero = np.flatnonzero(a[rank:, c])
        if nonzero.size == 0:
            continue
        pivot = rank + nonzero[0]
        if pivot != rank:
            a[[rank, pivot]] = a[[pivot, rank]]
        a[rank] = a[rank] * pow(int(a[rank, c]), p - 2, p) % p
        below = rank + 1 + np.flatnonzero(a[rank + 1:, c])
        if below.size:
            a[below] = (a[below] - np.outer(a[below, c], a[rank]) % p) % p
        rank += 1
    return rank


def is_pseudomanifold(facets) -> bool:
    """Every ridge in exactly two facets, and the facets connected through ridges."""
    hosts: dict[tuple, list[int]] = {}
    for idx, facet in enumerate(facets):
        for i in range(len(facet)):
            hosts.setdefault(facet[:i] + facet[i + 1:], []).append(idx)
    if any(len(h) != 2 for h in hosts.values()):
        return False
    neighbours: dict[int, set[int]] = {}
    for a, b in hosts.values():
        neighbours.setdefault(a, set()).add(b)
        neighbours.setdefault(b, set()).add(a)
    seen, stack = {0}, [0]
    while stack:
        for nxt in neighbours.get(stack.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == len(facets)


class TopologyReference:
    """Homology facts of one board, computed once and compared with every output."""

    #: primes whose torsion is checked against ranks over their fields
    TORSION_PRIMES = (2, 3)

    def __init__(self, board):
        self.board = board
        self._facts = None

    def _compute(self):
        faces = enumerate_faces(self.board)
        top = max(faces)
        counts = [len(faces[d]) for d in range(top + 1)]
        ranks = {p: {0: 1, top + 1: 0} for p in (LARGE_PRIME, *self.TORSION_PRIMES)}
        for d in range(1, top + 1):
            matrix = boundary(faces, d)
            for p in ranks:
                ranks[p][d] = rank_mod(matrix, p)
        rational = ranks[LARGE_PRIME]
        betti = [counts[k] - rational[k] - rational[k + 1] for k in range(top + 1)]
        # invariant factors of d_{k+1} divisible by p = rank over Q minus rank over F_p
        p_torsion = {
            p: [rational[k + 1] - ranks[p][k + 1] for k in range(top + 1)]
            for p in self.TORSION_PRIMES
        }
        euler = sum((-1) ** k * n for k, n in enumerate(counts))
        return betti, p_torsion, euler, is_pseudomanifold(faces[top])

    def check(self, report, pseudomanifold) -> list[str]:
        if self._facts is None:
            self._facts = self._compute()
        betti, p_torsion, euler, manifold = self._facts
        kind, rows, cols = self.board
        problems = []
        if list(report.betti) != betti:
            problems.append(f"Betti numbers {list(report.betti)}, ranks give {betti}")
        for p, expected in p_torsion.items():
            got = [sum(1 for d in t if d % p == 0) for t in report.torsion]
            if got != expected:
                problems.append(f"{p}-torsion counts {got}, ranks over F_{p} give {expected}")
        if sum((-1) ** k * b for k, b in enumerate(report.betti)) != report.euler - 1 or report.euler != euler:
            problems.append(f"reduced Euler relation fails: betti {report.betti}, euler {report.euler}")
        if pseudomanifold != manifold:
            problems.append(f"pseudomanifold verdict {pseudomanifold}, ridge count gives {manifold}")
        if kind == "join_power":
            want = [0] * rows
            want[rows - 1] = (rows - 1) ** rows
            if list(report.betti) != want or any(report.torsion):
                problems.append(f"join_power({rows}) homology {report.to_json()} is not Z^{want[-1]} in degree {rows - 1}")
        if kind == "chessboard":
            nu = min(rows, cols, (rows + cols + 1) // 3)
            if any(report.betti[k] or report.torsion[k] for k in range(nu - 1)):
                problems.append(f"chessboard {rows}x{cols} has reduced homology below degree {nu - 1}")
            if {rows, cols} == {3, 4} and not (pseudomanifold and list(report.betti) == [0, 2, 1] and not any(report.torsion)):
                problems.append("the 4x3 chessboard is not a torus pseudomanifold")
            if (rows, cols) == (5, 5) and 3 not in report.torsion[2]:
                problems.append("the 5x5 chessboard lacks Z/3 in H_2")
        return problems
