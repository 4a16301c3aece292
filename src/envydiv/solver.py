"""Search for envy-free divisions on the configuration spaces.

The solver evaluates every player's box scores at a configuration point and
averages them per box; a point is a solution when that average is the
uniform vector, i.e. when the player/box score matrix is doubly stochastic.
Such a matrix is a convex mix of permutation matrices, so some permutation
assigns every player a box they score positively, and that permutation is
the envy-free assignment.

The search is a simplicial (PL) approximation of the averaged test map
F(x) = column average - 1/r.  Box-label blindness makes F equivariant,
F(sigma x) = sigma F(x), so the search scans one facet per box-relabelling
orbit: a canonical allocation of the tiles, as brute force scans.  On each
it evaluates F on a barycentric grid, solves the linear system of every
small simplex of the grid's Freudenthal subdivision for the zeros of the PL
interpolation of F, and refines those zeros by simplex-secant steps,
doubling the grid when they stall.  Exhausting the budget without reaching
the tolerance is a distinguished outcome: it may mean a genuine obstruction
(for player counts where existence fails) or just too small a budget, and
the solver cannot tell the two apart.
"""

from __future__ import annotations

import dataclasses
import itertools
import logging
import math
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .complexes import (
    CHESSBOARD,
    GORBUSHKA_JOIN,
    JOIN_POWER,
    Cell,
    ResourceCapExceeded,
    Variant,
)
from .configspace import (
    DEGENERACY_TOL,
    ConfigPoint,
    _barycentric_point,
    _face_point,
    _known_cut,
    _known_points,
    _tile_lengths,
    point_from_barycentric,
)
from .preferences import (
    NEW,
    PREFERENCE_TOL,
    PreferenceMatrix,
    _accepting_rows,
    _rows,
    require_axioms,
    score_matrix,
)

logger = logging.getLogger(__name__)


class MatchingError(RuntimeError):
    """No acceptable perfect matching; the residual tolerance was too loose."""


class BudgetExhausted(RuntimeError):
    """Search ended without reaching the residual tolerance."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


#: How far the column averages of a score matrix may sit from 1/r for it to
#: count as doubly stochastic, and the residual the search aims for.
RESIDUAL_TOL = 1e-6


@dataclass
class SearchOptions:
    """Knobs for the search, which is deterministic; ``seed`` only seeds the
    sampled validation in ``solve``.  ``coarse_budget`` caps the distinct
    points one grid may score: the grid stops doubling before one that holds
    more, and a board whose k=2 grid does is refused before the search starts."""

    tolerance: float = RESIDUAL_TOL
    coarse_budget: int = 200_000
    seed: int = 0


@dataclass(frozen=True, eq=False, slots=True)
class StochasticMatrix:
    """Per-player box scores (rows) with their per-box averages.

    Rows are partition-of-unity score vectors; the residual measures how
    far the column averages sit from the uniform vector, and vanishes
    exactly when the matrix is doubly stochastic.
    """

    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {e.shape}")
        # each check states what valid entries meet, so a NaN fails it
        if not (e >= -1e-12).all():
            raise ValueError("matrix entries must be non-negative")
        rows = e.sum(axis=1)
        if not np.abs(rows - 1.0).max() <= 1e-9:
            raise ValueError(f"rows must sum to 1, got sums {rows}")
        object.__setattr__(self, "entries", e)

    @property
    def r(self) -> int:
        return self.entries.shape[0]

    @property
    def averages(self) -> np.ndarray:
        return self.entries.mean(axis=0)

    @property
    def residual(self) -> float:
        return float(np.abs(self.averages - 1.0 / self.r).max())

    def to_lists(self) -> list[list[float]]:
        return [[float(v) for v in row] for row in self.entries]


def average_matrix(prefs: PreferenceMatrix, point: ConfigPoint) -> StochasticMatrix:
    """Stack every player's score vector at the point and average per box."""
    return StochasticMatrix(np.array(_accepting_rows(prefs, point)))


# ---------------------------------------------------------------------------
# assignments and Birkhoff decomposition


#: the assignment helpers tabulate all r! permutations, r! * r entries, so
#: they stop at this many players (8! * 8 = 322,560 entries)
MAX_ASSIGNMENT_PLAYERS = 8

#: ``brute_force`` gathers the assigned scores of as many points at once as
#: keep the gathered array within this many entries (and at least one point)
BRUTE_GATHER = 4096


@lru_cache(maxsize=None)
def _permutation_table(r: int) -> tuple[np.ndarray, np.ndarray]:
    """The r! permutations of range(r) in lexicographic order, one per row,
    and the same table as flat indices into an r x r matrix."""
    if r > MAX_ASSIGNMENT_PLAYERS:
        raise ResourceCapExceeded(
            f"assignments are tabulated for at most {MAX_ASSIGNMENT_PLAYERS} players, got {r}"
        )
    perms = np.array(list(itertools.permutations(range(r))))
    return perms, perms + r * np.arange(r)


def _assigned_minima(flat: np.ndarray, r: int) -> np.ndarray:
    """For each row of ``flat``, an r x r score matrix read row by row, the
    smallest entry each permutation of ``_permutation_table`` assigns."""
    return flat.take(_permutation_table(r)[1], axis=1).min(axis=2)


def _first_above(entries: np.ndarray, threshold: float) -> np.ndarray | None:
    """Lex-least permutation handing every player more than ``threshold``:
    the first whose smallest assigned entry exceeds it.

    Row i of the permutation table is the i-th permutation in lexicographic
    order, so the first qualifying row is the lex-least one.
    """
    r = len(entries)
    ok = _assigned_minima(entries.reshape(1, r * r), r)[0] > threshold
    first = int(ok.argmax())
    return _permutation_table(r)[0][first] if ok[first] else None


def _max_mins(flat: np.ndarray, r: int) -> tuple[list[float], list[int]]:
    """For each row of ``flat``, an r x r score matrix read row by row: the
    largest smallest-assigned score over all permutations, and the row of
    ``_permutation_table`` of the lex-least permutation reaching it."""
    worst = _assigned_minima(flat, r)
    best = worst.argmax(axis=1)  # the first maximum: lex-least on ties
    return worst[np.arange(len(worst)), best].tolist(), best.tolist()


def _one_based(perm: np.ndarray) -> tuple[int, ...]:
    return tuple(int(b) + 1 for b in perm)


def extract_assignment(matrix: StochasticMatrix) -> tuple[int, ...]:
    """Permutation giving every player a positively scored box (1-based).

    Requires column averages within RESIDUAL_TOL of 1/r; ties are broken by
    returning the lexicographically least valid permutation.  Such a
    matrix always has one: k rows whose entries above PREFERENCE_TOL sat in
    k - 1 columns would put nearly k units of mass where at most
    (k - 1)(1 + r * RESIDUAL_TOL) fits (Hall's condition).
    """
    if matrix.residual > RESIDUAL_TOL:
        raise ValueError(
            f"residual {matrix.residual:.3g} exceeds tolerance {RESIDUAL_TOL:.3g}"
        )
    return _one_based(_first_above(matrix.entries, PREFERENCE_TOL))


def bottleneck_assignment(matrix: StochasticMatrix) -> tuple[int, ...]:
    """Permutation maximizing the smallest assigned score, lex-least on ties."""
    r = matrix.r
    (value,), (best,) = _max_mins(matrix.entries.reshape(1, r * r), r)
    if value <= PREFERENCE_TOL:
        raise MatchingError("no assignment with all scores above the preference threshold")
    return _one_based(_permutation_table(r)[0][best])


@dataclass(frozen=True)
class BirkhoffDecomposition:
    """Convex combination of permutations reconstructing a matrix."""

    terms: tuple[tuple[float, tuple[int, ...]], ...]  # (weight, boxes 1-based)

    def reconstruct(self) -> np.ndarray:
        r = len(self.terms[0][1])
        out = np.zeros((r, r))
        for w, perm in self.terms:
            for player, box in enumerate(perm):
                out[player, box - 1] += w
        return out


def birkhoff(matrix: StochasticMatrix) -> BirkhoffDecomposition:
    """Greedy peeling into at most (r-1)^2 + 1 permutations.

    Each round takes the lex-least permutation inside the positive support
    and subtracts the smallest entry it picks, which empties that entry.
    The remainder keeps equal row sums, and its column sums keep their
    offsets d from them, so it lies in the span of matrices on its support
    whose row sums are equal and whose column sums differ from them by a
    multiple of d.  That span has dimension at most (r-1)^2 + 2, one more
    than the doubly stochastic one (a support of s entries in c components
    spans a face of dimension s - 2r + c; Brualdi and Gibson, 1977), and it
    shrinks every round, since the peeled permutation leaves it.  With
    d = 0 the last round leaves nothing; otherwise the remainder is never
    zero and keeps a dimension.  Either way the bound holds without
    pruning.  Weights that miss a total of 1 by more than RESIDUAL_TOL
    raise MatchingError.
    """
    if matrix.residual > RESIDUAL_TOL:
        raise ValueError(f"matrix is not doubly stochastic within {RESIDUAL_TOL:.3g}")
    r = matrix.r
    a = matrix.entries.copy()
    weights: list[float] = []
    perms: list[tuple[int, ...]] = []
    for _ in range((r - 1) ** 2 + 1):
        if a.max() <= 1e-11:
            break
        match = _first_above(a, 1e-12)
        if match is None:
            if a.max() > 10 * RESIDUAL_TOL:
                raise MatchingError(
                    "support lost a perfect matching before the mass was "
                    "exhausted; input is not doubly stochastic within tolerance"
                )
            break
        w = float(min(a[p, match[p]] for p in range(r)))
        weights.append(w)
        perms.append(_one_based(match))
        for p in range(r):
            a[p, match[p]] -= w
        np.clip(a, 0.0, None, out=a)

    total = math.fsum(weights)
    if abs(total - 1.0) > RESIDUAL_TOL:
        raise MatchingError(f"decomposed mass {total} is far from 1")
    weights = [w / total for w in weights]
    return BirkhoffDecomposition(tuple(zip(weights, perms)))


# ---------------------------------------------------------------------------
# residual search


def _barycentric_grid(parts: int, denominator: int):
    """All integer weight vectors summing to the denominator, ``parts`` long."""
    for cuts in itertools.combinations(range(denominator + parts - 1), parts - 1):
        bounds = (-1,) + cuts + (denominator + parts - 1,)
        yield tuple(b - a - 1 for a, b in zip(bounds, bounds[1:]))


def _grid_points(face_sizes: dict[int, int], k: int) -> int:
    """Distinct points of the k-th grids of the faces ``face_sizes`` counts by
    size: a face of d cells holds C(k-1, d-1), the compositions of k into d positive parts."""
    return sum(n * comb(k - 1, d - 1) for d, n in face_sizes.items())


def _face_sizes(facets: list[tuple[Cell, ...]]) -> dict[int, int]:
    """How many distinct faces of each size d the facets, cells in tile order, have."""
    return {d: len({face for facet in facets for face in itertools.combinations(facet, d)})
            for d in range(1, len(facets[0]) + 1)}


def _coarse_denominator(face_sizes: dict[int, int], budget: int, preferred: int) -> int:
    """The largest k from ``preferred`` down to 2 whose grid fits in
    ``budget`` distinct points; raises ResourceCapExceeded when none does."""
    for k in range(preferred, 1, -1):
        if _grid_points(face_sizes, k) <= budget:
            return k
    raise ResourceCapExceeded(
        f"the coarsest grid (k=2) needs {_grid_points(face_sizes, 2)} evaluations, "
        f"over the coarse budget of {budget}"
    )


def _kuhn_simplices(parts: int, k: int, chunk: int = 4096):
    """The k^n simplices of the Freudenthal (Kuhn) subdivision of the
    n-simplex, n = parts - 1, as int arrays (simplex, vertex, corner) of
    integer weights summing to k, ``chunk`` simplices at a time.

    With x_i = m_i + ... + m_n the simplex is k >= x_1 >= ... >= x_n >= 0.
    A word a in {0..k-1}^n encodes one small simplex: it starts at a sorted
    non-increasingly, and step t raises the x_i that a_t lands on in a
    stable sort, which moves one unit of weight from corner i-1 to corner i.
    """
    n = parts - 1
    unit = np.eye(parts, dtype=np.int64)
    for start in range(0, k**n, chunk):
        index = np.arange(start, min(start + chunk, k**n))
        a = np.stack(np.unravel_index(index, (k,) * n), axis=1).reshape(len(index), n)
        order = np.argsort(-a, axis=1, kind="stable")
        raised = 1 + np.argsort(order, axis=1)
        x = np.take_along_axis(a, order, axis=1)
        bounded = np.concatenate([np.full((len(a), 1), k), x, np.zeros_like(x[:, :1])], axis=1)
        m = -np.diff(bounded, axis=1)
        steps = np.cumsum(unit[raised] - unit[raised - 1], axis=1)
        yield np.concatenate([m[:, None, :], m[:, None, :] + steps], axis=1)


def _pl_zeros(points: np.ndarray, values: np.ndarray, simplices: np.ndarray, chunk: int = 4096):
    """Zeros of the piecewise-linear interpolation of F over small simplices.

    ``values[i]`` is F at ``points[i]``, and row s of ``simplices`` lists the
    point indices of the vertices of simplex s.  A zero solves
    sum_v lam_v F(v) = 0 with sum_v lam_v = 1 and lam >= 0; F sums to zero,
    so its last component gives way to the normalization row.  Returns the
    zeros in simplex order, each once, in the coordinates of ``points``.
    """
    parts = values.shape[1]
    # a zero needs min <= 0 <= max over the vertices in each solved coordinate;
    # lam >= -1e-12 on at most 8 vertices, |F| < 1, moves a sum by < 8e-12.
    # A point's mask has bit c set if F_c <= 1e-11, bit c + parts - 1 if F_c >= -1e-11
    signs = np.concatenate([values[:, :-1] <= 1e-11, values[:, :-1] >= -1e-11], axis=1)
    mask = signs @ (1 << np.arange(signs.shape[1]))
    near = simplices[np.bitwise_or.reduce(mask[simplices], axis=1) == (1 << signs.shape[1]) - 1]
    found = [points[:0]]
    for start in range(0, len(near), chunk):
        rows = near[start:start + chunk]
        system = np.swapaxes(values[rows], 1, 2)
        system[:, -1, :] = 1.0
        # skip simplices whose interpolation is singular, relative to the
        # scale of F so that fine grids near a zero are not skipped
        scale = np.prod(np.linalg.norm(system, axis=2), axis=1)
        regular = np.abs(np.linalg.det(system)) > 1e-12 * scale
        rhs = np.zeros((int(regular.sum()), parts, 1))
        rhs[:, -1, 0] = 1.0
        lam = np.linalg.solve(system[regular], rhs)[:, :, 0]
        inside = (lam >= -1e-12).all(axis=1)
        found.append(np.einsum("sv,svc->sc", lam[inside], points[rows[regular][inside]]))
    zeros = np.concatenate(found)
    # + 0.0 turns -0.0 into 0.0, which unique() would tell apart
    _, first = np.unique(np.round(zeros, 9) + 0.0, axis=0, return_index=True)
    return zeros[np.sort(first)]


def _orbit_facets(variant: Variant) -> list[tuple[Cell, ...]]:
    """One facet per box-relabelling orbit, cells in tile order: the canonical
    allocations of all tiles (c1, c3) or of each min(m, n) tiles (chessboards)."""
    size = min(variant.rows, variant.cols) if variant.kind == CHESSBOARD else variant.cols
    return [
        tuple((box, tile) for tile, box in alloc.items())
        for tiles in itertools.combinations(range(1, variant.cols + 1), size)
        for alloc in _canonical_allocations(variant, tiles)
    ]


@dataclass
class SearchResult:
    """Best point found, and deterministic counters of the search's work.

    ``evaluations`` counts the points the oracle scored, each (cut,
    allocation) once however many grids and representatives reach it;
    ``orbit_representatives`` counts the facets searched, one per
    box-relabelling orbit (a failed search scans each on every grid);
    ``denominator`` is the last grid's k; ``pl_zeros`` pairs every k tried
    with the PL zeros found on it.
    """

    point: ConfigPoint
    residual: float
    converged: bool
    evaluations: int
    orbit_representatives: int
    denominator: int
    pl_zeros: tuple[tuple[int, int], ...]


def _normalized_weights(weights: np.ndarray) -> tuple[float, ...]:
    """Barycentric weights clipped at 0 and divided by their sum."""
    w = np.clip(weights, 0.0, None)
    return tuple((w / w.sum()).tolist())


def _secant_refine(evaluate, cells, w, h, tolerance, steps=12, retries=2):
    """Simplex-secant steps from a PL zero; returns the best (residual, weights).

    Each step interpolates F linearly on the simplex with vertices
    (1-h) w + h e_i, moves w to that simplex's PL zero, and shrinks h to the
    length of the move.  A step that does not lower the residual is retried
    on a simplex 8 times smaller, at most ``retries`` times in all.
    """
    parts = len(cells)
    _, v, at = evaluate(cells, w)
    for _ in range(steps):
        if v <= tolerance:
            break
        vertices = (1.0 - h) * w + h * np.eye(parts)
        system = np.array([evaluate(cells, u)[0] for u in vertices]).T
        system[-1, :] = 1.0
        try:
            lam = np.linalg.solve(system, np.eye(parts)[-1])
        except np.linalg.LinAlgError:
            break
        moved = np.clip(lam @ vertices, 0.0, None)
        moved /= moved.sum()
        _, v_moved, at_moved = evaluate(cells, moved)
        if v_moved < v:
            h = max(float(np.abs(moved - w).max()), 1e-12)
            w, v, at = moved, v_moved, at_moved
        elif retries:
            retries -= 1
            h /= 8.0
        else:
            break
    return v, at


def search(variant: Variant, prefs: PreferenceMatrix, options: SearchOptions | None = None) -> SearchResult:
    """Find a zero of F = column average - 1/r by simplicial approximation.

    Preconditions: facets hold one cell per box (every board but a
    chessboard with more rows than columns), and ``prefs`` is box-label
    blind (the ``equivariance`` axiom, which ``solve`` validates first).
    Then F(sigma x) = sigma F(x), zeros come in S_r orbits, and scanning one
    facet per orbit misses none.

    On every representative facet, with its corners ordered by tile so that
    the subdivision is equivariant too, F is evaluated on the k-th
    barycentric grid; the Freudenthal subdivision of that grid carries the
    piecewise-linear (PL) interpolation of F, whose zeros cost no further
    evaluations.  Simplex-secant steps refine each PL zero in turn.  When
    none reaches the tolerance, k doubles, facets that held PL zeros first,
    as long as the next grid holds at most ``coarse_budget`` distinct
    points.  Returns at the first point within tolerance; otherwise reports
    the best point seen with ``converged=False``.  Raises ResourceCapExceeded,
    before the oracle is first called, when even the k=2 grid exceeds the
    budget, which bounds neither the secant steps' points (``evaluations``
    counts them too) nor each representative's PL pass and memo lookups.
    """
    opts = options or SearchOptions()
    if math.isnan(opts.tolerance):  # no residual meets it, so the search could only run out
        raise ValueError("tolerance must be a number, got nan")
    reps = _orbit_facets(variant)
    parts = len(reps[0])
    if parts != variant.rows:
        raise ValueError(
            f"facets of {variant} have {parts} cells; the PL search needs one per box"
        )
    faces = _face_sizes(reps)
    k = _coarse_denominator(faces, opts.coarse_budget, max(4, variant.rows))
    evaluations = 0
    best = (math.inf, None, None)  # (residual, facet, barycentric weights)
    pl_zeros: dict[int, int] = {}  # grid denominator -> PL zeros found
    # (cut-points, allocation) -> (F, residual): a point on a face that
    # several representatives share, or on a coarser grid, is scored once
    scored = {}
    zeros_seen = [0] * len(reps)

    def score(cells, w):
        """F = column averages - 1/r at normalized barycentric weights on one
        facet, and its residual, evaluated once per point of the search."""
        nonlocal evaluations
        point = _barycentric_point(variant, cells, w)
        key = (point.cut.points, point.allocation)
        found = scored.get(key)
        if found is None:
            evaluations += 1
            # the column means as numpy's ``mean(axis=0)`` takes them: rows
            # added in order, then divided by their count
            sums = [0.0] * parts
            for row in _accepting_rows(prefs, point):
                for box, v in enumerate(row):
                    sums[box] += v
            f = [total / parts - 1.0 / parts for total in sums]
            found = scored[key] = (f, max(map(abs, f)))
        return found

    def evaluate(cells, weights):
        """``score`` at barycentric weights, with the weights, normalized,
        that the point was built from."""
        w = _normalized_weights(weights)
        return (*score(cells, w), w)

    def result(converged):
        # the point leaves the search through the public, checked constructor
        point = point_from_barycentric(variant, best[1], best[2])
        return SearchResult(
            point, best[0], converged, evaluations, len(reps), k, tuple(pl_zeros.items())
        )

    while True:
        pl_zeros[k] = 0
        grid = np.array(list(_barycentric_grid(parts, k)))
        # base-(k+1) codes of the grid points, which come in increasing order
        place = (k + 1) ** np.arange(parts)[::-1]
        codes = grid @ place
        simplices = np.concatenate(
            [np.searchsorted(codes, s @ place) for s in _kuhn_simplices(parts, k)]
        )
        grid_weights = [_normalized_weights(counts / k) for counts in grid]
        # facets that held PL zeros on the coarser grid go first
        for idx in sorted(range(len(reps)), key=lambda i: zeros_seen[i] == 0):
            cells = reps[idx]
            values = []
            for w in grid_weights:
                f, v = score(cells, w)
                # a point scored before left ``best`` at or below its residual
                if v < best[0]:
                    best = (v, cells, w)
                if v <= opts.tolerance:
                    return result(True)
                values.append(f)
            zeros = _pl_zeros(grid / k, np.array(values), simplices)
            zeros_seen[idx] = len(zeros)
            pl_zeros[k] += len(zeros)
            for w in zeros:
                v, at = _secant_refine(evaluate, cells, w, 1.0 / k, opts.tolerance)
                if v < best[0]:
                    best = (v, cells, at)
                if v <= opts.tolerance:
                    return result(True)
        if _grid_points(faces, 2 * k) > opts.coarse_budget:
            return result(False)
        k *= 2


# ---------------------------------------------------------------------------
# divisions


@dataclass(slots=True)
class EnvyFreeDivision:
    """A verified division: point, score matrix and assignment."""

    point: ConfigPoint
    matrix: StochasticMatrix
    assignment: tuple[int, ...]  # assignment[j-1] = box handed to player j

    def __post_init__(self):
        if sorted(self.assignment) != list(range(1, len(self.assignment) + 1)):
            raise ValueError(f"assignment {self.assignment} is not a permutation")

    @property
    def residual(self) -> float:
        return self.matrix.residual

    @property
    def certificate(self) -> list[list[bool]]:
        """Which boxes each player prefers: row j-1 marks the boxes player j
        scores above ``PREFERENCE_TOL`` in the matrix."""
        return [[bool(v > PREFERENCE_TOL) for v in row] for row in self.matrix.entries]

    def min_assigned_score(self) -> float:
        e = self.matrix.entries
        return float(min(e[j, self.assignment[j] - 1] for j in range(len(self.assignment))))

    def to_json(self) -> dict:
        return {
            "point": self.point.to_json(),
            "assignment": list(self.assignment),
            "residual": self.residual,
            "matrix": self.matrix.to_lists(),
        }


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % p for p in range(2, int(n**0.5) + 1))


def _is_prime_power(n: int) -> bool:
    if n < 2:
        return False
    p = next(d for d in range(2, n + 1) if n % d == 0)  # the least prime factor
    while n % p == 0:
        n //= p
    return n == 1


def _hypothesis_met(variant: Variant) -> bool:
    r = variant.rows
    if variant.kind == GORBUSHKA_JOIN:
        return _is_prime(r) or r == 4
    return _is_prime_power(r)


def _checked_oracle(variant: Variant, prefs: PreferenceMatrix, prop: str, seed: int) -> PreferenceMatrix:
    """The oracle bound to ``variant``, after ``prop`` passed 200 samples of
    ``require_axioms`` seeded with ``seed``.

    An unbound oracle is bound on a copy, and one of another player count
    or bound to another board is rejected, before the gate reads a row;
    either way the caller's oracle is left as it was.
    """
    if prefs.kind != NEW:
        raise ValueError("the solver needs a new-style oracle; lift tile-level preferences first")
    if prefs.r != variant.rows:
        raise ValueError(f"oracle has {prefs.r} players, the board {variant} has {variant.rows} rows")
    if prefs.variant is None:
        prefs = dataclasses.replace(prefs, variant=variant)
    elif prefs.variant != variant:
        raise ValueError(f"oracle is bound to {prefs.variant}, not to {variant}")
    require_axioms(prefs, (prop,), 200, seed)
    return prefs


def solve(
    variant: Variant,
    prefs: PreferenceMatrix,
    options: SearchOptions | None = None,
) -> EnvyFreeDivision:
    """Search, average, and extract an envy-free assignment.

    The division's assignment maximizes the smallest assigned score (ties
    broken lexicographically), which in particular is a valid positive-score
    matching.  When the player count misses the variant's existence
    guarantee this logs a warning and searches anyway; non-existence is
    never claimed, only budget exhaustion.  Over MAX_ASSIGNMENT_PLAYERS
    players raise ResourceCapExceeded before the oracle is first called.
    """
    if variant.rows > MAX_ASSIGNMENT_PLAYERS:
        raise ResourceCapExceeded(
            f"solve assigns at most {MAX_ASSIGNMENT_PLAYERS} players, got {variant.rows}"
        )
    opts = options or SearchOptions()
    prefs = _checked_oracle(variant, prefs, "covering+equivariance", opts.seed)

    if not _hypothesis_met(variant):
        logger.warning(
            "r=%d is outside the existence guarantee for %s; searching anyway",
            variant.rows,
            variant.kind,
        )

    result = search(variant, prefs, opts)
    if not result.converged:
        raise BudgetExhausted(
            f"best residual {result.residual:.3g} did not reach "
            f"{opts.tolerance:.3g}; this is either a genuine obstruction or an "
            "insufficient budget -- the search cannot tell which",
            best=result,
        )
    matrix = average_matrix(prefs, result.point)
    assignment = bottleneck_assignment(matrix)
    division = EnvyFreeDivision(result.point, matrix, assignment)
    if not verify_division(division, prefs):
        raise MatchingError("extracted assignment failed verification")
    return division


def verify_division(division: EnvyFreeDivision, prefs: PreferenceMatrix) -> bool:
    """Recompute scores at the division point and check the assignment.

    True iff every player's assigned box scores above the preference
    threshold; by box-label blindness this is the same check in any
    relabeling of the boxes.
    """
    entries = score_matrix(prefs, division.point)
    return all(
        float(entries[j - 1, division.assignment[j - 1] - 1]) > PREFERENCE_TOL
        for j in range(1, prefs.r + 1)
    )


# ---------------------------------------------------------------------------
# exhaustive oracle


@dataclass(slots=True)
class BruteForceResult:
    """Best division over a finite scan, or a certificate that none clears
    the preference threshold on the scanned set."""

    feasible: bool
    max_min_score: float
    point: ConfigPoint | None
    assignment: tuple[int, ...] | None
    grid_resolution: int
    evaluated: int

    def to_json(self) -> dict:
        return {
            "feasible": self.feasible,
            "max_min_score": self.max_min_score,
            "grid_resolution": self.grid_resolution,
            "evaluated": self.evaluated,
            "point": self.point.to_json() if self.point else None,
            "assignment": list(self.assignment) if self.assignment else None,
        }


def _canonical_allocations(variant: Variant, essential: tuple[int, ...]):
    """The admissible allocations of the essential tiles whose boxes, read
    tile by tile, are canonical: one per box-relabelling orbit, in
    lexicographic order of their boxes.

    A tile takes an existing box only where the board lets tiles share one
    (every tile of a join power, the last tile of a gorbushka join, none on
    a chessboard); otherwise it takes the next new box, while one is left.
    """
    if variant.kind == JOIN_POWER:
        shared = set(essential)
    elif variant.kind == CHESSBOARD:
        shared = set()
    else:
        shared = {variant.cols}

    def grow(boxes, used):
        if len(boxes) == len(essential):
            yield dict(zip(essential, boxes))
            return
        tile = essential[len(boxes)]
        for box in range(1 if tile in shared else used + 1, min(used + 1, variant.rows) + 1):
            yield from grow(boxes + (box,), max(used, box))

    yield from grow((), 0)


def _grid_cuts(variant: Variant, grid_resolution: int):
    """Grid configuration cuts; for c2 boards the essential tiles sit in the
    odd columns and the even columns stay degenerate.  The grid values are
    sorted and lie in [0, 1], so the cuts skip the ``Cut`` checks."""
    values = [i / (grid_resolution - 1) for i in range(grid_resolution)]
    free_points = variant.rows - 1
    for pts in itertools.combinations_with_replacement(values, free_points):
        if variant.kind == CHESSBOARD:
            z = [0.0] * variant.cols
            z[::2] = _tile_lengths(pts)
            yield _known_cut(z)
        else:
            yield _known_points(pts)


def _scan(variant: Variant, grid_resolution: int):
    """The (cut, allocation) of every point ``brute_force`` scores, in scan
    order: each grid cut with the canonical allocations of its essential tiles."""
    allocations = {}  # essential tiles -> their canonical allocations
    for cut in _grid_cuts(variant, grid_resolution):
        essential = tuple(tile for tile, length in enumerate(cut.lengths, start=1) if length > DEGENERACY_TOL)
        if essential not in allocations:
            allocations[essential] = [tuple(a.items()) for a in _canonical_allocations(variant, essential)]
        for alloc in allocations[essential]:
            yield cut, alloc


def _scan_size(variant: Variant, grid_resolution: int) -> int:
    """The points ``brute_force`` scores, counted without scoring: the grid
    points, k = g - 1, of the faces that canonical allocations of essential
    tiles (odd columns on a chessboard) span."""
    tiles = range(1, variant.cols + 1, 2 if variant.kind == CHESSBOARD else 1)
    faces = {
        size: sum(len(list(_canonical_allocations(variant, e))) for e in itertools.combinations(tiles, size))
        for size in range(1, variant.rows + 1)
    }
    return _grid_points(faces, grid_resolution - 1)


def brute_force(
    variant: Variant,
    prefs: PreferenceMatrix,
    grid_resolution: int = 31,
    work_cap: int = 3_000_000,
    seed: int = 0,
) -> BruteForceResult:
    """Exhaustive max-min scan over grid cuts, allocations and assignments.

    Independent of the residual search: it never averages, it simply
    maximizes the smallest assigned score.  Infeasibility on the scanned
    set is certified by ``max_min_score <= PREFERENCE_TOL``.

    Precondition: ``prefs`` is box-label blind (the ``equivariance`` axiom,
    validated first on 200 samples seeded with ``seed``, or held by every
    ``BoxOracle`` by construction, so not sampled there).  Relabelling the
    boxes then permutes the columns of the score matrix and leaves its
    max-min unchanged, so each grid cut scores one allocation per
    box-relabelling orbit, the first of its orbit in lexicographic order.
    The first strict maximum is therefore the one a scan of every
    allocation would report, and ``evaluated`` counts the points scored;
    more than ``work_cap`` of them raise before the oracle is first called.
    """
    if variant.rows > 5:
        raise ResourceCapExceeded("brute force supports at most 5 players")
    if not 2 <= grid_resolution <= 64:
        raise ResourceCapExceeded("grid resolution must lie in 2..64")
    points = _scan_size(variant, grid_resolution)
    if points > work_cap:
        raise ResourceCapExceeded(
            f"brute force would score {points} points, over the work cap of {work_cap}"
        )
    prefs = _checked_oracle(variant, prefs, "equivariance", seed)

    best_value = -1.0
    best_point = None
    best_sigma = None
    evaluated = 0
    r = variant.rows
    chunk = max(1, BRUTE_GATHER // (math.factorial(r) * r))
    scan = _scan(variant, grid_resolution)
    while batch := list(itertools.islice(scan, chunk)):
        evaluated += len(batch)
        rows = [row for cut, alloc in batch for row in _rows(prefs, _face_point(variant, cut, alloc))]
        values, firsts = _max_mins(np.array(rows).reshape(len(batch), r * r), r)
        # the first strict maximum of the batch, in scan order
        for (cut, alloc), value, first in zip(batch, values, firsts):
            if value > best_value:
                best_value, best_point = value, _face_point(variant, cut, alloc)
                best_sigma = _one_based(_permutation_table(r)[0][first])

    return BruteForceResult(
        feasible=best_value > PREFERENCE_TOL,
        max_min_score=best_value,
        point=best_point,
        assignment=best_sigma,
        grid_resolution=grid_resolution,
        evaluated=evaluated,
    )
