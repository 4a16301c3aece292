"""Independent oracles the tests check the package against.

Everything here recomputes results from first principles: exhaustive
subset enumeration instead of backtracking, rational Gaussian elimination
instead of integer normal forms, every allocation instead of one per
box-relabelling orbit.  Keep this module free of clever reuse of
the code under test.  It also holds the tile-level fixtures that several
test modules share, so that no test module imports another.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from envydiv.configspace import Cut, canonicalize, degenerate_and_essential
from envydiv.preferences import OLD, PREFERENCE_TOL, PreferenceMatrix, scores
from envydiv.solver import BruteForceResult, _grid_cuts


def checked_cut(z) -> Cut:
    """The cut of tile lengths ``z`` through ``Cut``'s checks: running sums,
    clamped to [0, 1]."""
    points = []
    acc = 0.0
    for v in z[:-1]:
        acc += v
        points.append(min(max(acc, 0.0), 1.0))
    return Cut(tuple(points))


def listed_facets(variant):
    """Every facet of the variant's complex, as a sorted cell tuple, in the
    order of the itertools products, permutations and combinations of the
    boxes and columns that place one rook per tile (per box on a chessboard
    with fewer rows than columns)."""
    m, n = variant.rows, variant.cols
    boxes = range(1, m + 1)
    if variant.kind == "join_power":
        for rows in itertools.product(boxes, repeat=n):
            yield tuple(sorted(zip(rows, range(1, n + 1))))
    elif variant.kind == "gorbushka_join":
        for rows in itertools.permutations(boxes, m - 1):
            for extra in boxes:
                yield tuple(sorted(zip(rows + (extra,), range(1, n + 1))))
    elif m > n:
        for rows in itertools.permutations(boxes, n):
            yield tuple(sorted(zip(rows, range(1, n + 1))))
    else:
        for cols in itertools.combinations(range(1, n + 1), m):
            for rows in itertools.permutations(boxes):
                yield tuple(sorted(zip(rows, cols)))


def non_attacking(cells) -> bool:
    rows = [c[0] for c in cells]
    cols = [c[1] for c in cells]
    return len(set(rows)) == len(rows) and len(set(cols)) == len(cols)


def gorbushka_ok(cells, r) -> bool:
    cols = [c[1] for c in cells]
    if len(set(cols)) != len(cols):
        return False
    by_row = {}
    for row, col in cells:
        by_row.setdefault(row, []).append(col)
    heavy = [v for v in by_row.values() if len(v) > 1]
    if not heavy:
        return True
    return len(heavy) == 1 and len(heavy[0]) == 2 and r in heavy[0]


def join_power_ok(cells) -> bool:
    cols = [c[1] for c in cells]
    return len(set(cols)) == len(cols)


def enumerate_faces(m, n, predicate, max_size=None):
    """Every face of the complex on an m x n board by brute subset scan."""
    board = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
    cap = max_size if max_size is not None else len(board)
    faces = []
    for k in range(1, cap + 1):
        found_any = False
        for combo in itertools.combinations(board, k):
            if predicate(combo):
                faces.append(tuple(sorted(combo)))
                found_any = True
        if not found_any:
            break
    return faces


def maximal_of(faces):
    face_set = set(faces)
    out = []
    for f in faces:
        extendable = any(
            g != f and set(f) <= set(g) for g in face_set if len(g) == len(f) + 1
        )
        if not extendable:
            # check against all strict supersets, not just one size up
            if not any(set(f) < set(g) for g in face_set):
                out.append(f)
    return sorted(out)


def rational_rank(matrix) -> int:
    """Rank over the rationals by exact Gaussian elimination."""
    m = [[Fraction(v) for v in row] for row in matrix]
    if not m or not m[0]:
        return 0
    rows, cols = len(m), len(m[0])
    rank = 0
    pivot_row = 0
    for col in range(cols):
        pivot = None
        for i in range(pivot_row, rows):
            if m[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[pivot_row], m[pivot] = m[pivot], m[pivot_row]
        inv = 1 / m[pivot_row][col]
        m[pivot_row] = [v * inv for v in m[pivot_row]]
        for i in range(rows):
            if i != pivot_row and m[i][col] != 0:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[pivot_row])]
        rank += 1
        pivot_row += 1
        if pivot_row == rows:
            break
    return rank


def faces_by_dim(facets):
    seen = {}
    for facet in facets:
        for k in range(1, len(facet) + 1):
            for sub in itertools.combinations(facet, k):
                seen.setdefault(k - 1, set()).add(sub)
    return {d: sorted(s) for d, s in seen.items()}


def boundary(faces_low, faces_high):
    index = {f: i for i, f in enumerate(faces_low)}
    matrix = [[0] * len(faces_high) for _ in faces_low]
    for col, simplex in enumerate(faces_high):
        for i in range(len(simplex)):
            sub = simplex[:i] + simplex[i + 1:]
            matrix[index[sub]][col] = (-1) ** i
    return matrix


def reduced_betti_rational(facets) -> list[int]:
    """Reduced Betti numbers from rational ranks of the boundary maps."""
    by_dim = faces_by_dim(facets)
    top = max(by_dim)
    ranks = {0: 1 if by_dim.get(0) else 0, top + 1: 0}
    for d in range(1, top + 1):
        ranks[d] = rational_rank(boundary(by_dim[d - 1], by_dim[d]))
    return [len(by_dim[d]) - ranks[d] - ranks[d + 1] for d in range(top + 1)]


def lex_least_bottleneck(matrix):
    """First permutation (0-based boxes), scanning all r! in lexicographic
    order, whose smallest assigned score is the largest; with that score."""
    r = len(matrix)
    best, best_sigma = None, None
    for sigma in itertools.permutations(range(r)):
        value = min(matrix[j][sigma[j]] for j in range(r))
        if best is None or value > best:
            best, best_sigma = value, sigma
    return best_sigma, best


def lex_least_above(matrix, threshold):
    """First permutation in lexicographic order handing every player more
    than ``threshold``, or None."""
    r = len(matrix)
    for sigma in itertools.permutations(range(r)):
        if all(matrix[j][sigma[j]] > threshold for j in range(r)):
            return sigma
    return None


def all_allocations(variant, essential):
    """Every admissible allocation of the essential tiles, in lexicographic
    order of their boxes read tile by tile: injective on a chessboard, free
    on a join power, and on a gorbushka join injective except that the last
    tile may share a box."""
    boxes = range(1, variant.rows + 1)
    if variant.kind == "join_power":
        combos = itertools.product(boxes, repeat=len(essential))
    elif variant.kind == "chessboard" or variant.cols not in essential:
        combos = itertools.permutations(boxes, len(essential))
    else:
        combos = (
            combo + (b,)
            for combo in itertools.permutations(boxes, len(essential) - 1)
            for b in boxes
        )
    for combo in combos:
        yield dict(zip(essential, combo))


def full_brute_scan(variant, prefs, grid_resolution):
    """JSON of the max-min scan over every admissible allocation of every
    grid cut, with no orbit reduction and no validation; the first strict
    maximum wins, with the lex-least permutation reaching it."""
    best_value, best_point, best_sigma, evaluated = -1.0, None, None, 0
    for cut in _grid_cuts(variant, grid_resolution):
        essential = tuple(i for i, length in enumerate(cut.lengths, start=1) if length > 1e-9)
        for alloc in all_allocations(variant, essential):
            point = canonicalize(cut, alloc, variant)
            matrix = np.vstack([scores(prefs, j, point) for j in range(1, prefs.r + 1)])
            evaluated += 1
            sigma, value = lex_least_bottleneck(matrix)
            if value > best_value:
                best_value, best_point, best_sigma = value, point, tuple(b + 1 for b in sigma)
    return BruteForceResult(
        best_value > PREFERENCE_TOL, float(best_value), best_point, best_sigma,
        grid_resolution, evaluated,
    ).to_json()


def trash_lover(r):
    """Old-style fixture: hungry for solid tiles, happy with exact crumbs.

    The last tile scores zero at any small positive length (the margin the
    psi lift needs) yet every exactly-degenerate tile is worth 0.5.
    """

    def ramp(z):
        if z <= 1e-3:
            return 0.0
        if z < 2e-3:
            return 2.0 * (z - 1e-3)
        return z

    def raw(player, z):
        return [ramp(v) + (0.5 if v == 0.0 else 0.0) for v in z]

    return PreferenceMatrix(r=r, kind=OLD, model="trash_lover", raw=raw)


def psi_preferred_boxes(source, player, point):
    """Support-level restatement of the lift rules, kept independent of the
    score arithmetic under test."""
    r = source.r
    s = scores(source, player, point.cut.lengths)
    deg, _ = degenerate_and_essential(point.cut)
    likes_degenerate = bool(deg) and any(s[d - 1] > PREFERENCE_TOL for d in deg)
    boxes = point.boxes()
    preferred = set()
    for box in range(1, r + 1):
        tiles = boxes.get(box, ())
        if not tiles:
            if likes_degenerate:
                preferred.add(box)
        elif len(tiles) == 2:
            if any(s[t - 1] > PREFERENCE_TOL for t in tiles):
                preferred.add(box)
        elif tiles[0] != r:
            if s[tiles[0] - 1] > PREFERENCE_TOL:
                preferred.add(box)
        else:
            if s[r - 1] > PREFERENCE_TOL or likes_degenerate:
                preferred.add(box)
    return preferred
