"""Search for envy-free divisions on the configuration spaces.

The solver evaluates every player's box scores at a configuration point and
averages them per box; a point is a solution when that average is the
uniform vector, i.e. when the player/box score matrix is doubly stochastic.
Such a matrix is a convex mix of permutation matrices, so some permutation
assigns every player a box they score positively, and that permutation is
the envy-free assignment.

The search enumerates the maximal simplices of the variant's complex,
scores a coarse barycentric grid inside each, then refines the most
promising simplices by a shrinking pattern search followed by a
Nelder-Mead polish.  Deepening the refinement never worsens the best
residual found.  Exhausting the budget without reaching the tolerance is a
distinguished outcome: it may mean a genuine obstruction (for player counts
where existence fails) or just too small a budget, and the solver cannot
tell the two apart.

Simplex scans are independent pure computations; with ``threads > 1`` they
run on a thread pool and the results are combined by a commutative
min-reduction keyed on (residual, simplex index), so scheduling order never
changes the reported best.
"""

from __future__ import annotations

import dataclasses
import itertools
import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from math import comb

import numpy as np
from scipy.optimize import minimize

from .complexes import (
    CHESSBOARD,
    GORBUSHKA_JOIN,
    JOIN_POWER,
    ResourceCapExceeded,
    Variant,
    build_complex,
)
from .configspace import (
    ConfigPoint,
    Cut,
    ZPoint,
    canonicalize,
    point_from_barycentric,
    z_to_cut,
)
from .preferences import (
    NEW,
    PREFERENCE_TOL,
    PreferenceMatrix,
    PreferenceValidationError,
    scores,
    validate,
)

logger = logging.getLogger(__name__)


class MatchingError(RuntimeError):
    """No acceptable perfect matching; the residual tolerance was too loose."""


class BudgetExhausted(RuntimeError):
    """Search ended without reaching the residual tolerance."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


@dataclass
class SearchOptions:
    """Knobs for the residual search; every run is reproducible per seed."""

    tolerance: float = 1e-6
    max_depth: int = 12
    multistarts: int = 32
    seed: int = 0
    threads: int = 1
    coarse_budget: int = 200_000


@dataclass(frozen=True, eq=False)
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
        if (e < -1e-12).any():
            raise ValueError("matrix entries must be non-negative")
        rows = e.sum(axis=1)
        if np.abs(rows - 1.0).max() > 1e-9:
            raise ValueError(f"rows must sum to 1, got sums {rows}")
        object.__setattr__(self, "entries", e)

    @property
    def r(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def averages(self) -> np.ndarray:
        return self.entries.mean(axis=0)

    @property
    def residual(self) -> float:
        return float(np.abs(self.averages - 1.0 / self.r).max())

    def to_lists(self) -> list[list[float]]:
        return [[float(v) for v in row] for row in self.entries]


def average_matrix(prefs: PreferenceMatrix, point: ConfigPoint) -> StochasticMatrix:
    """Stack every player's score vector at the point and average per box."""
    rows = []
    for player in range(1, prefs.r + 1):
        row = scores(prefs, player, point)
        if float(row.sum()) <= 0.0:
            raise ValueError(f"player {player} accepts no box at {point.to_json()}")
        rows.append(row)
    return StochasticMatrix(np.vstack(rows))


# ---------------------------------------------------------------------------
# matchings and Birkhoff decomposition


def _kuhn_matching(adjacency: list[list[int]], n_boxes: int | None = None) -> list[int] | None:
    """Perfect matching players -> boxes by augmenting paths; None if absent."""
    r = len(adjacency)
    if n_boxes is None:
        n_boxes = max((max(row) + 1 for row in adjacency if row), default=r)
        n_boxes = max(n_boxes, r)
    box_owner = [-1] * n_boxes

    def assign(player, seen):
        for box in adjacency[player]:
            if not seen[box]:
                seen[box] = True
                if box_owner[box] < 0 or assign(box_owner[box], seen):
                    box_owner[box] = player
                    return True
        return False

    for player in range(r):
        if not assign(player, [False] * n_boxes):
            return None
    out = [-1] * r
    for box, player in enumerate(box_owner):
        if player >= 0:
            out[player] = box
    return out


def _adjacency(ok: np.ndarray) -> list[list[int]]:
    return [[b for b in range(ok.shape[1]) if ok[p, b]] for p in range(ok.shape[0])]


def _lex_least_matching(ok: np.ndarray) -> tuple[int, ...] | None:
    """Lexicographically least perfect matching on an admissibility mask."""
    r = ok.shape[0]
    if _kuhn_matching(_adjacency(ok)) is None:
        return None
    chosen: list[int] = []
    used: set[int] = set()
    for player in range(r):
        for box in range(r):
            if box in used or not ok[player, box]:
                continue
            rest = [
                [b for b in range(r) if ok[p, b] and b not in used and b != box]
                for p in range(player + 1, r)
            ]
            if _kuhn_matching(rest) is not None or player == r - 1:
                chosen.append(box)
                used.add(box)
                break
        else:
            return None
    return tuple(chosen)


def extract_assignment(matrix: StochasticMatrix, tol: float = 1e-6) -> tuple[int, ...]:
    """Permutation giving every player a positively scored box (1-based).

    Requires an approximately doubly stochastic input; ties are broken by
    returning the lexicographically least valid permutation.
    """
    if matrix.residual > tol:
        raise ValueError(
            f"residual {matrix.residual:.3g} exceeds tolerance {tol:.3g}"
        )
    match = _lex_least_matching(matrix.entries > PREFERENCE_TOL)
    if match is None:
        raise MatchingError(
            "no perfect matching on positive entries; the residual tolerance "
            "was too loose -- tighten it and search again"
        )
    return tuple(b + 1 for b in match)


def bottleneck_assignment(matrix: StochasticMatrix) -> tuple[int, ...]:
    """Permutation maximizing the smallest assigned score, lex-least on ties."""
    e = matrix.entries
    levels = sorted(set(float(v) for v in e.flatten()))
    feasible_level = None
    lo, hi = 0, len(levels) - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        if _kuhn_matching(_adjacency(e >= levels[mid])) is not None:
            feasible_level = levels[mid]
            lo = mid + 1
        else:
            hi = mid - 1
    if feasible_level is None or feasible_level <= PREFERENCE_TOL:
        raise MatchingError("no assignment with all scores above the preference threshold")
    match = _lex_least_matching(e >= feasible_level)
    return tuple(b + 1 for b in match)


@dataclass(frozen=True)
class BirkhoffDecomposition:
    """Convex combination of permutations reconstructing a matrix."""

    terms: tuple[tuple[float, tuple[int, ...]], ...]  # (weight, boxes 1-based)

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(w for w, _ in self.terms)

    def reconstruct(self) -> np.ndarray:
        r = len(self.terms[0][1])
        out = np.zeros((r, r))
        for w, perm in self.terms:
            for player, box in enumerate(perm):
                out[player, box - 1] += w
        return out

    def to_json(self) -> dict:
        return {"terms": [{"weight": w, "permutation": list(p)} for w, p in self.terms]}


def _prune_affine_dependency(weights, perms, r):
    """Drop one term of an over-long decomposition without moving its sum."""
    k = len(perms)
    mats = np.zeros((r * r + 1, k))
    for idx, perm in enumerate(perms):
        for player, box in enumerate(perm):
            mats[player * r + (box - 1), idx] = 1.0
        mats[-1, idx] = 1.0
    _, _, vt = np.linalg.svd(mats)
    c = vt[-1]
    positive = [(weights[i] / c[i], i) for i in range(k) if c[i] > 1e-12]
    if not positive:
        c = -c
        positive = [(weights[i] / c[i], i) for i in range(k) if c[i] > 1e-12]
    t, _ = min(positive)
    new_weights = [w - t * ci for w, ci in zip(weights, c)]
    kept = [(w, p) for w, p in zip(new_weights, perms) if w > 1e-13]
    return [w for w, _ in kept], [p for _, p in kept]


def birkhoff(matrix: StochasticMatrix, tol: float = 1e-6) -> BirkhoffDecomposition:
    """Greedy peeling into permutations, bounded to (r-1)^2 + 1 terms.

    Each round finds the lex-least perfect matching on the positive support
    and subtracts the smallest matched entry.  If peeling leaves more terms
    than the bound, affinely dependent terms are merged away.
    """
    if matrix.residual > tol:
        raise ValueError(f"matrix is not doubly stochastic within {tol:.3g}")
    r = matrix.r
    a = matrix.entries.copy()
    weights: list[float] = []
    perms: list[tuple[int, ...]] = []
    for _ in range(r * r + 1):
        if a.max() <= 1e-11:
            break
        match = _lex_least_matching(a > 1e-12)
        if match is None:
            if a.max() > 10 * max(tol, 1e-9):
                raise MatchingError(
                    "support lost a perfect matching before the mass was "
                    "exhausted; input is not doubly stochastic within tolerance"
                )
            break
        w = float(min(a[p, match[p]] for p in range(r)))
        if w <= 0.0:
            break
        weights.append(w)
        perms.append(tuple(b + 1 for b in match))
        for p in range(r):
            a[p, match[p]] -= w
        np.clip(a, 0.0, None, out=a)

    bound = (r - 1) ** 2 + 1
    while len(perms) > bound:
        weights, perms = _prune_affine_dependency(weights, perms, r)

    total = math.fsum(weights)
    if abs(total - 1.0) > 1e-6:
        raise MatchingError(f"decomposed mass {total} is far from 1")
    weights = [w / total for w in weights]
    return BirkhoffDecomposition(tuple(zip(weights, perms)))


# ---------------------------------------------------------------------------
# residual search


def _barycentric_grid(parts: int, denominator: int):
    """All weight vectors with the given denominator on the (parts-1)-simplex."""
    for cuts in itertools.combinations(range(denominator + parts - 1), parts - 1):
        prev = -1
        counts = []
        for c in cuts + (denominator + parts - 1,):
            counts.append(c - prev - 1)
            prev = c
        yield tuple(v / denominator for v in counts)


def _coarse_denominator(n_facets: int, parts: int, budget: int, preferred: int) -> int:
    for k in range(preferred, 2, -1):
        if n_facets * comb(k + parts - 1, parts - 1) <= budget:
            return k
    return 2


@dataclass
class SearchResult:
    point: ConfigPoint
    residual: float
    converged: bool
    evaluations: int


class _Evaluator:
    """Residual of the averaged score matrix over one facet's weights."""

    def __init__(self, prefs, variant, facet):
        self.prefs = prefs
        self.variant = variant
        self.facet = facet
        self.count = 0

    def __call__(self, weights):
        w = np.clip(np.asarray(weights, dtype=float), 0.0, None)
        total = w.sum()
        w = w / total if total > 0 else np.full(len(self.facet), 1.0 / len(self.facet))
        point = point_from_barycentric(self.variant, self.facet, tuple(float(v) for v in w))
        self.count += 1
        return average_matrix(self.prefs, point).residual, point


def _pattern_refine(evaluate, w0, depth):
    """Shrinking edgewise moves toward/away from each corner of the simplex."""
    best_w = np.asarray(w0, dtype=float)
    best_v, best_pt = evaluate(best_w)
    h = 0.5
    n = len(best_w)
    for _ in range(depth):
        improved = False
        for i in range(n):
            corner = np.zeros(n)
            corner[i] = 1.0
            toward = (1.0 - h) * best_w + h * corner
            away = np.clip(best_w - h * corner, 0.0, None)
            for cand in (toward, away):
                if cand.sum() <= 0:
                    continue
                v, pt = evaluate(cand / cand.sum())
                if v < best_v:
                    best_v, best_w, best_pt = v, cand / cand.sum(), pt
                    improved = True
        if not improved:
            h *= 0.5
    return best_w, best_v, best_pt


def _polish(evaluate, w0, maxfev):
    """Nelder-Mead on clipped-and-renormalized weights, tracking the best."""
    state = {}

    def objective(v):
        val, pt = evaluate(v)
        if "best" not in state or val < state["best"][0]:
            state["best"] = (val, pt)
        return val

    objective(np.asarray(w0, dtype=float))
    minimize(
        objective,
        np.asarray(w0, dtype=float),
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxfev": maxfev},
    )
    return state["best"]


def _bisect_two_player(prefs, variant, facets, opts):
    """Intermediate-value bisection over the edges of a two-player complex."""
    steps = 32
    count = 0

    def gap(facet, t):
        nonlocal count
        count += 1
        point = point_from_barycentric(variant, facet, (t, 1.0 - t))
        m = average_matrix(prefs, point)
        return float(m.averages[0] - 0.5), point

    for facet in facets:
        values = []
        for i in range(steps + 1):
            values.append(gap(facet, i / steps))
        for i in range(steps):
            lo, hi = i / steps, (i + 1) / steps
            g_lo, g_hi = values[i][0], values[i + 1][0]
            for g, pt in (values[i], values[i + 1]):
                if abs(g) <= opts.tolerance:
                    return abs(g), pt, count
            if g_lo * g_hi > 0:
                continue
            best_g, best_pt = values[i]
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                g_mid, pt_mid = gap(facet, mid)
                if abs(g_mid) < abs(best_g):
                    best_g, best_pt = g_mid, pt_mid
                if abs(g_mid) <= opts.tolerance or hi - lo < 1e-15:
                    return abs(best_g), best_pt, count
                if g_lo * g_mid <= 0:
                    hi = mid
                else:
                    lo, g_lo = mid, g_mid
            return abs(best_g), best_pt, count
    return None


def search(variant: Variant, prefs: PreferenceMatrix, options: SearchOptions | None = None) -> SearchResult:
    """Minimize the residual over the variant's complex.

    Best-first over maximal simplices: a coarse grid ranks them, then the
    top ``multistarts`` get pattern-search refinement and a Nelder-Mead
    polish.  Returns as soon as the tolerance is met; otherwise reports the
    best point seen with ``converged=False``.
    """
    opts = options or SearchOptions()
    cx = build_complex(variant)
    facets = cx.maximal_simplices
    parts = len(facets[0])
    k = _coarse_denominator(len(facets), parts, opts.coarse_budget, max(4, variant.rows))
    grid = list(_barycentric_grid(parts, k))

    evaluations = 0
    best = None  # (residual, facet_idx, weights, point)

    def scan(idx):
        evaluate = _Evaluator(prefs, variant, facets[idx])
        local = None
        for w in grid:
            v, pt = evaluate(w)
            if local is None or v < local[0]:
                local = (v, w, pt)
            if v <= opts.tolerance:
                break
        return idx, local, evaluate.count

    if opts.threads > 1:
        with ThreadPoolExecutor(max_workers=opts.threads) as pool:
            results = list(pool.map(scan, range(len(facets))))
    else:
        results = []
        for idx in range(len(facets)):
            results.append(scan(idx))
            v = results[-1][1][0]
            if v <= opts.tolerance:
                break

    per_facet = []
    for idx, local, count in results:
        evaluations += count
        per_facet.append((local[0], idx, local[1], local[2]))
        if best is None or (local[0], idx) < (best[0], best[1]):
            best = (local[0], idx, local[1], local[2])

    if best[0] <= opts.tolerance:
        return SearchResult(best[3], best[0], True, evaluations)

    if variant.rows == 2:
        # the complex is a circle and the signed gap F_1 - 1/2 flips sign
        # along it, so bisection inside one edge pins the zero down exactly
        found = _bisect_two_player(prefs, variant, facets, opts)
        if found is not None:
            v, pt, count = found
            evaluations += count
            if v < best[0]:
                best = (v, -1, None, pt)
            if best[0] <= opts.tolerance:
                return SearchResult(best[3], best[0], True, evaluations)

    rng = np.random.default_rng(opts.seed)
    ranked = sorted(per_facet, key=lambda item: (item[0], item[1]))[: opts.multistarts]
    for _, idx, w0, _ in ranked:
        evaluate = _Evaluator(prefs, variant, facets[idx])
        starts = [np.asarray(w0), rng.dirichlet(np.ones(parts))]
        for w_start in starts:
            w, v, pt = _pattern_refine(evaluate, w_start, opts.max_depth)
            if v < best[0]:
                best = (v, idx, w, pt)
            if v > opts.tolerance:
                v, pt = _polish(evaluate, w, maxfev=400 * parts)
                if v < best[0]:
                    best = (v, idx, w, pt)
            evaluations += evaluate.count
            evaluate.count = 0
            if best[0] <= opts.tolerance:
                return SearchResult(best[3], best[0], True, evaluations)
    return SearchResult(best[3], best[0], False, evaluations)


# ---------------------------------------------------------------------------
# divisions


@dataclass
class EnvyFreeDivision:
    """A verified division: point, score matrix, assignment and certificate."""

    point: ConfigPoint
    matrix: StochasticMatrix
    assignment: tuple[int, ...]  # assignment[j-1] = box handed to player j
    residual: float
    certificate: list[list[bool]]

    def __post_init__(self):
        if sorted(self.assignment) != list(range(1, len(self.assignment) + 1)):
            raise ValueError(f"assignment {self.assignment} is not a permutation")

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
    if n < 2:
        return False
    for p in range(2, int(n**0.5) + 1):
        if n % p == 0:
            return False
    return True


def _is_prime_power(n: int) -> bool:
    if n < 2:
        return False
    for p in range(2, n + 1):
        if _is_prime(p):
            m = n
            while m % p == 0:
                m //= p
            if m == 1:
                return True
            if n % p == 0:
                return False
    return False


def _hypothesis_met(variant: Variant) -> bool:
    r = variant.rows
    if variant.kind == GORBUSHKA_JOIN:
        return _is_prime(r) or r == 4
    return _is_prime_power(r)


def solve(
    variant: Variant,
    prefs: PreferenceMatrix,
    options: SearchOptions | None = None,
    validate_prefs: bool = True,
) -> EnvyFreeDivision:
    """Search, average, and extract an envy-free assignment.

    The division's assignment maximizes the smallest assigned score (ties
    broken lexicographically), which in particular is a valid positive-score
    matching.  When the player count misses the variant's existence
    guarantee this logs a warning and searches anyway; non-existence is
    never claimed, only budget exhaustion.
    """
    opts = options or SearchOptions()
    if prefs.kind != NEW:
        raise ValueError("the solver needs a new-style oracle; lift tile-level preferences first")
    if prefs.variant is None:
        prefs = dataclasses.replace(prefs, variant=variant)
    elif prefs.variant != variant:
        raise ValueError(f"oracle is bound to {prefs.variant}, asked to solve {variant}")

    if validate_prefs:
        for prop in ("covering", "equivariance"):
            report = validate(prefs, prop, sample_count=200, seed=opts.seed)
            if not report.passed:
                raise PreferenceValidationError(
                    f"preferences fail {prop}: {len(report.violations)} violations in "
                    f"{report.samples} samples"
                )

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
    certificate = [[bool(v > PREFERENCE_TOL) for v in row] for row in matrix.entries]
    division = EnvyFreeDivision(result.point, matrix, assignment, matrix.residual, certificate)
    if not verify_division(division, prefs):
        raise MatchingError("extracted assignment failed verification")
    return division


def verify_division(division: EnvyFreeDivision, prefs: PreferenceMatrix) -> bool:
    """Recompute scores at the division point and check the assignment.

    True iff every player's assigned box scores above the preference
    threshold; by box-label blindness this is the same check in any
    relabeling of the boxes.
    """
    matrix = average_matrix(prefs, division.point)
    return all(
        float(matrix.entries[j - 1, division.assignment[j - 1] - 1]) > PREFERENCE_TOL
        for j in range(1, prefs.r + 1)
    )


# ---------------------------------------------------------------------------
# exhaustive oracle


@dataclass
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


def _admissible_allocations(variant: Variant, essential: tuple[int, ...]):
    boxes = range(1, variant.rows + 1)
    if variant.kind == JOIN_POWER:
        for combo in itertools.product(boxes, repeat=len(essential)):
            yield dict(zip(essential, combo))
    elif variant.kind == CHESSBOARD:
        for combo in itertools.permutations(boxes, len(essential)):
            yield dict(zip(essential, combo))
    else:  # gorbushka join: last tile may share, everything else is injective
        last = variant.cols
        others = tuple(t for t in essential if t != last)
        if len(others) == len(essential):
            for combo in itertools.permutations(boxes, len(others)):
                yield dict(zip(others, combo))
        else:
            for combo in itertools.permutations(boxes, len(others)):
                base = dict(zip(others, combo))
                for b in boxes:
                    alloc = dict(base)
                    alloc[last] = b
                    yield alloc


def _grid_cuts(variant: Variant, grid_resolution: int):
    """Grid configuration cuts; for c2 boards the essential tiles sit in the
    odd columns and the even columns stay degenerate."""
    values = [i / (grid_resolution - 1) for i in range(grid_resolution)]
    free_points = variant.rows - 1
    for pts in itertools.combinations_with_replacement(values, free_points):
        if variant.kind == CHESSBOARD:
            base = Cut(pts)
            z = [0.0] * variant.cols
            for i, length in enumerate(base.lengths):
                z[2 * i] = length
            yield z_to_cut(ZPoint(tuple(z)))
        else:
            yield Cut(pts)


def brute_force(
    variant: Variant,
    prefs: PreferenceMatrix,
    grid_resolution: int = 31,
    work_cap: int = 3_000_000,
) -> BruteForceResult:
    """Exhaustive max-min scan over grid cuts, allocations and assignments.

    Independent of the residual search: it never averages, it simply
    maximizes the smallest assigned score.  Infeasibility on the scanned
    set is certified by ``max_min_score <= PREFERENCE_TOL``.
    """
    r = variant.rows
    if r > 4:
        raise ResourceCapExceeded("brute force supports at most 4 players")
    if not 2 <= grid_resolution <= 64:
        raise ResourceCapExceeded("grid resolution must lie in 2..64")
    if prefs.kind != NEW:
        raise ValueError("brute force scores boxes; supply a new-style oracle")

    perms = list(itertools.permutations(range(r)))
    best_value = -1.0
    best_point = None
    best_sigma = None
    evaluated = 0

    for cut in _grid_cuts(variant, grid_resolution):
        essential = tuple(
            label for label, length in enumerate(cut.lengths, start=1) if length > 1e-9
        )
        for alloc in _admissible_allocations(variant, essential):
            point = canonicalize(cut, alloc, variant)
            rows = [scores(prefs, j, point) for j in range(1, r + 1)]
            evaluated += 1
            if evaluated > work_cap:
                raise ResourceCapExceeded(
                    f"brute force exceeded the work cap of {work_cap} evaluations"
                )
            matrix = np.vstack(rows)
            for sigma in perms:
                value = min(float(matrix[j, sigma[j]]) for j in range(r))
                if value > best_value:
                    best_value = value
                    best_point = point
                    best_sigma = tuple(b + 1 for b in sigma)

    return BruteForceResult(
        feasible=best_value > PREFERENCE_TOL,
        max_min_score=best_value,
        point=best_point,
        assignment=best_sigma,
        grid_resolution=grid_resolution,
        evaluated=evaluated,
    )
