"""Configuration-space complexes built from rook placements on a board.

Three board variants are used throughout the package.  Cells are ``(row,
column)`` pairs with 1-based indices; rows stand for boxes and columns for
tiles of a cut:

* ``chessboard(m, n)`` -- placements with at most one rook per row and per
  column (non-attacking rooks).
* ``gorbushka_join(r)`` -- the r x r board where columns are still occupied
  at most once, and rows at most once except that a single row may hold two
  rooks provided one of them sits in column ``r`` (the last tile may share
  a box with one other tile).
* ``join_power(r)`` -- the r x r board with at most one rook per column and
  no row restriction (a box may receive any number of tiles).

The module also provides integer reduced homology (sparse elimination on
unit pivots, then a smallest-entry Smith normal form of the block left)
and a pseudomanifold check, both used by the verification suite.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb, factorial, gcd, inf, lcm, perm

Cell = tuple[int, int]
Simplex = tuple[Cell, ...]

CHESSBOARD = "chessboard"
GORBUSHKA_JOIN = "gorbushka_join"
JOIN_POWER = "join_power"

#: default cap for a homology computation: it bounds the total face count,
#: and the entries (rows x columns) of each dense block left over after
#: unit-pivot elimination, the only dense matrix the computation allocates
MAX_SIMPLICES = 100_000


class ResourceCapExceeded(RuntimeError):
    """A complex is too large for the requested desk-scale computation."""


class NotPureComplexError(ValueError):
    """Raised when an operation requires a pure complex and gets a mixed one."""


@dataclass(frozen=True)
class Variant:
    """Descriptor of one board variant: which face rule, and the board size."""

    kind: str
    rows: int
    cols: int

    def __post_init__(self):
        if self.kind not in (CHESSBOARD, GORBUSHKA_JOIN, JOIN_POWER):
            raise ValueError(f"unknown variant kind {self.kind!r}")
        if self.kind == CHESSBOARD:
            if self.rows < 1 or self.cols < 1:
                raise ValueError("chessboard dimensions must be at least 1")
        else:
            if self.rows < 2 or self.rows != self.cols:
                raise ValueError(f"{self.kind} requires a square board with r >= 2")

    def cells(self) -> tuple[Cell, ...]:
        return tuple(
            (i, j)
            for i in range(1, self.rows + 1)
            for j in range(1, self.cols + 1)
        )

    def to_json(self) -> dict:
        return {"kind": self.kind, "rows": self.rows, "cols": self.cols}


def chessboard(m: int, n: int) -> Variant:
    return Variant(CHESSBOARD, m, n)


def gorbushka_join(r: int) -> Variant:
    return Variant(GORBUSHKA_JOIN, r, r)


def join_power(r: int) -> Variant:
    return Variant(JOIN_POWER, r, r)


def for_space(space: str, r: int) -> Variant:
    """Map a solver space label (c1, c2, c3) to its board variant."""
    space = space.lower()
    if space == "c1":
        return gorbushka_join(r)
    if space == "c2":
        return chessboard(r, 2 * r - 1)
    if space == "c3":
        return join_power(r)
    raise ValueError(f"unknown space {space!r}; expected c1, c2 or c3")


def is_face(variant: Variant, placement) -> bool:
    """True iff the placement of cells satisfies the variant's face rule.

    The predicate is monotone: every subset of a face is again a face.
    Raises ValueError for cells outside the board.
    """
    cells = set()
    for cell in placement:
        i, j = cell
        if not (1 <= i <= variant.rows and 1 <= j <= variant.cols):
            raise ValueError(f"cell {cell} is outside the {variant.rows}x{variant.cols} board")
        cells.add((i, j))

    col_counts: dict[int, int] = {}
    row_cells: dict[int, list[int]] = {}
    for i, j in cells:
        col_counts[j] = col_counts.get(j, 0) + 1
        row_cells.setdefault(i, []).append(j)

    if any(c > 1 for c in col_counts.values()):
        return False
    if variant.kind == JOIN_POWER:
        return True
    if variant.kind == CHESSBOARD:
        return all(len(js) == 1 for js in row_cells.values())
    # gorbushka_join: at most one doubled row, and only with a column-r cell
    doubled = [js for js in row_cells.values() if len(js) > 1]
    if not doubled:
        return True
    if len(doubled) > 1:
        return False
    js = doubled[0]
    return len(js) == 2 and variant.cols in js


def _arrangement(m: int, length: int, index: int) -> list[int]:
    """The index-th of ``itertools.permutations(range(1, m + 1), length)``, by Lehmer code."""
    pool = list(range(1, m + 1))
    out = []
    for place in range(length - 1, -1, -1):
        digit, index = divmod(index, perm(len(pool) - 1, place))
        out.append(pool.pop(digit))
    return out


def _combination(n: int, size: int, index: int) -> list[int]:
    """The index-th of ``itertools.combinations(range(1, n + 1), size)``, by rank."""
    out, c = [], 0
    while len(out) < size:
        c += 1
        below = comb(n - c, size - len(out) - 1)  # subsets whose next element is c
        if index < below:
            out.append(c)
        else:
            index -= below
    return out


def facet_count(variant: Variant) -> int:
    """The number of maximal simplices of the variant's complex."""
    m, n = variant.rows, variant.cols
    if variant.kind == CHESSBOARD:
        return perm(max(m, n), min(m, n))
    return m**n if variant.kind == JOIN_POWER else factorial(m) * m


def facet_at(variant: Variant, index: int) -> Simplex:
    """The index-th maximal simplex, a sorted cell tuple: the order is the
    lexicographic one of the boxes the tiles take, read tile by tile, but a
    chessboard with m <= n first orders its m occupied columns likewise."""
    if not 0 <= index < facet_count(variant):
        raise IndexError(f"facet index {index} is outside {variant}")
    m, n = variant.rows, variant.cols
    cols = range(1, n + 1)
    if variant.kind == JOIN_POWER:
        rows = [index // m**place % m + 1 for place in range(n - 1, -1, -1)]
    elif variant.kind == GORBUSHKA_JOIN:
        rows = _arrangement(m, m - 1, index // m) + [index % m + 1]
    elif m > n:
        rows = _arrangement(m, n, index)
    else:
        cols = _combination(n, m, index // factorial(m))
        rows = _arrangement(m, m, index % factorial(m))
    return tuple(sorted(zip(rows, cols)))


@dataclass(frozen=True)
class SimplicialComplex:
    """A complex given by its vertices and enumerated maximal simplices."""

    variant: Variant | None
    vertices: tuple[Cell, ...]
    maximal_simplices: tuple[Simplex, ...]

    @cached_property
    def faces(self) -> dict[int, list[Simplex]]:
        """All faces keyed by dimension, each as a sorted cell tuple."""
        seen: dict[int, set[Simplex]] = {}
        for facet in self.maximal_simplices:
            for k in range(1, len(facet) + 1):
                bucket = seen.setdefault(k - 1, set())
                for sub in itertools.combinations(facet, k):
                    bucket.add(sub)
        return {d: sorted(faces) for d, faces in sorted(seen.items())}

    @property
    def dimension(self) -> int:
        return max((len(f) - 1 for f in self.maximal_simplices), default=-1)

    def face_counts(self) -> tuple[int, ...]:
        return tuple(len(self.faces[d]) for d in range(self.dimension + 1))

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * n for d, n in enumerate(self.face_counts()))

    def total_faces(self) -> int:
        return sum(self.face_counts())


@lru_cache(maxsize=64)
def build_complex(variant: Variant) -> SimplicialComplex:
    """Enumerate the complex for a variant, memoized per process.

    The maximal simplices are :func:`facet_at` of every index, in order.
    Only topology reads them; sampling and the search reach facets singly.
    """
    facets = tuple(facet_at(variant, i) for i in range(facet_count(variant)))
    return SimplicialComplex(variant, variant.cells(), facets)


# ---------------------------------------------------------------------------
# integer homology


def smith_invariants(matrix: list[list[int]]) -> list[int]:
    """Nonzero diagonal invariant factors d1 | d2 | ... of an integer matrix.

    Pivots at a least nonzero |entry|, first in row-major order, and reduces
    its column and row by floor division; a remainder, smaller than the
    pivot, pivots next, so every pass either lowers |pivot| or, with both
    clear, moves |pivot| to the diagonal and deletes its row and column.
    Each pair of diagonal entries then becomes their gcd and lcm.  Exact
    integers throughout, so torsion is never lost to overflow.  The rank
    of the matrix is ``len(result)``; the input is not modified.
    """
    m, diagonal = matrix, []
    while m := [row for row in m if any(row)]:
        pi = min(range(len(m)), key=lambda i: min(map(abs, filter(None, m[i]))))
        pivot = m[pi]
        pj = min(range(len(pivot)), key=lambda j: abs(pivot[j]) or inf)
        p = pivot[pj]
        clear = not any(v % p for v in pivot) and not any(row[pj] % p for row in m)
        quotients = [v // p for v in pivot]
        quotients[pj] = 0
        for i, row in enumerate(m):  # row operation, then column operations
            if i != pi and row[pj]:
                q = row[pj] // p
                row = m[i] = [a - q * b for a, b in zip(row, pivot)]
            if c := row[pj]:
                m[i] = [a - c * q for a, q in zip(row, quotients)]
        if clear:
            diagonal.append(abs(p))
            m = [row[:pj] + row[pj + 1:] for i, row in enumerate(m) if i != pi]
    for i, j in itertools.combinations(range(len(diagonal)), 2):
        diagonal[i], diagonal[j] = gcd(diagonal[i], diagonal[j]), lcm(diagonal[i], diagonal[j])
    return diagonal


def boundary_matrix(cx: SimplicialComplex, dim: int) -> list[dict[int, int]]:
    """Sparse oriented boundary matrix from dim-faces to (dim-1)-faces.

    One column per dim-face, as a ``{row index: sign}`` dict with dim+1
    entries.  Faces are ordered lexicographically by their sorted cell
    tuples; the sign of a facet of a simplex is (-1)^i for removal of the
    i-th vertex.
    """
    if dim <= 0 or dim > cx.dimension:
        return []
    lower = {f: idx for idx, f in enumerate(cx.faces[dim - 1])}
    return [
        {lower[simplex[:i] + simplex[i + 1:]]: -1 if i % 2 else 1 for i in range(len(simplex))}
        for simplex in cx.faces[dim]
    ]


def sparse_invariants(columns: list[dict[int, int]], max_block: int = MAX_SIMPLICES) -> list[int]:
    """Nonzero invariant factors of a sparse integer matrix given by columns.

    Eliminates on unit (+-1) pivots while any remain; every such pivot
    contributes an invariant factor 1.  Pivots come off a heap keyed by
    Markowitz cost (column nonzeros - 1) x (row nonzeros - 1), with one
    push rule: a unit entry is pushed when it becomes a unit, at the start
    or by a column operation, and again only when its item surfaces with a
    cost that has since changed.  The block left without unit entries goes
    to :func:`smith_invariants`, which pivots on its smallest entries.
    Invariant factors are unique, so the result equals ``smith_invariants``
    of the dense matrix whatever the pivot order.  Raises
    ResourceCapExceeded, before allocating it, when that block has more
    than ``max_block`` entries.
    """
    cols = {j: dict(col) for j, col in enumerate(columns) if col}
    rows: dict[int, set[int]] = {}
    for j, col in cols.items():
        for i in col:
            rows.setdefault(i, set()).add(j)

    # A unit entry gets one heap item when it becomes a unit, keyed by its
    # cost at that moment.  An item that surfaces is dropped if its entry is
    # gone or no longer a unit, and pushed again if its cost has changed, so
    # the heap never holds more items than entries have become units.
    heap = [
        ((len(col) - 1) * (len(rows[i]) - 1), i, j)
        for j, col in cols.items()
        for i, v in col.items()
        if v in (1, -1)
    ]
    heapq.heapify(heap)

    units = 0
    while heap:
        key, i, j = heapq.heappop(heap)
        pivot_col = cols.get(j)
        if pivot_col is None or pivot_col.get(i) not in (1, -1):
            continue
        current = (len(pivot_col) - 1) * (len(rows[i]) - 1)
        if current != key:
            heapq.heappush(heap, (current, i, j))
            continue

        # clear row i by column operations; column j and row i then leave
        units += 1
        del cols[j]
        sign = pivot_col.pop(i)
        for r in pivot_col:
            rows[r].discard(j)
        updated = rows.pop(i)
        updated.discard(j)
        for k in updated:
            target = cols[k]
            factor = target.pop(i) * sign
            for r, v in pivot_col.items():
                old = target.get(r, 0)
                value = old - factor * v
                if value:
                    target[r] = value
                    rows[r].add(k)
                    if value in (1, -1) and old not in (1, -1):
                        heapq.heappush(heap, ((len(target) - 1) * (len(rows[r]) - 1), r, k))
                else:
                    del target[r]
                    rows[r].discard(k)
            if not target:
                del cols[k]
        for r in pivot_col:
            if not rows[r]:
                del rows[r]

    if not cols:
        return [1] * units
    if len(rows) * len(cols) > max_block:
        raise ResourceCapExceeded(
            f"dense block left after unit-pivot elimination is {len(rows)}x{len(cols)}, "
            f"cap is {max_block} entries"
        )
    row_index = {i: idx for idx, i in enumerate(sorted(rows))}
    block = [[0] * len(cols) for _ in row_index]
    for c, j in enumerate(sorted(cols)):
        for i, v in cols[j].items():
            block[row_index[i]][c] = v
    return [1] * units + smith_invariants(block)


@dataclass(frozen=True)
class HomologyReport:
    """Reduced integer homology: Betti numbers, torsion, Euler characteristic."""

    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]
    euler: int

    def to_json(self) -> dict:
        return {
            "betti": list(self.betti),
            "torsion": [list(t) for t in self.torsion],
            "euler": self.euler,
        }


def reduced_homology(cx: SimplicialComplex, max_simplices: int = MAX_SIMPLICES) -> HomologyReport:
    """Reduced homology over the integers from sparse boundary matrices.

    Each boundary matrix is reduced by unit-pivot elimination, and only the
    block left gets a dense smallest-entry Smith form (:func:`sparse_invariants`).
    Deterministic.  ``max_simplices`` caps both the total face count and the
    entries of each leftover dense block; going past either raises
    ResourceCapExceeded.
    """
    if cx.dimension < 0:
        return HomologyReport((), (), 0)
    if cx.total_faces() > max_simplices:
        raise ResourceCapExceeded(
            f"complex has {cx.total_faces()} faces, cap is {max_simplices}"
        )
    counts = cx.face_counts()
    dim = cx.dimension
    invariants = {
        k: sparse_invariants(boundary_matrix(cx, k), max_simplices) for k in range(1, dim + 1)
    }
    ranks = {k: len(invariants[k]) for k in invariants}
    ranks[0] = 1 if counts[0] else 0  # augmentation map onto the integers
    ranks[dim + 1] = 0

    betti = tuple(counts[k] - ranks[k] - ranks[k + 1] for k in range(dim + 1))
    torsion = tuple(
        tuple(d for d in invariants.get(k + 1, []) if d > 1) for k in range(dim + 1)
    )
    return HomologyReport(betti, torsion, cx.euler_characteristic())


def is_pseudomanifold(cx: SimplicialComplex) -> bool:
    """Every ridge in exactly two facets, with a connected facet graph.

    Raises NotPureComplexError when facets have mixed dimensions, so a
    non-pure complex is never silently reported as ``False``.
    """
    facets = cx.maximal_simplices
    if not facets:
        return False
    sizes = {len(f) for f in facets}
    if len(sizes) > 1:
        raise NotPureComplexError(f"facet dimensions are mixed: {sorted(sizes)}")
    d1 = sizes.pop()
    if d1 == 1:
        return len(facets) == 2

    ridge_hosts: dict[Simplex, list[int]] = {}
    for idx, facet in enumerate(facets):
        for i in range(d1):
            ridge = facet[:i] + facet[i + 1:]
            ridge_hosts.setdefault(ridge, []).append(idx)
    if any(len(hosts) != 2 for hosts in ridge_hosts.values()):
        return False

    # connectivity of the facet-adjacency graph, via union-find
    parent = list(range(len(facets)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for hosts in ridge_hosts.values():
        ra, rb = find(hosts[0]), find(hosts[1])
        if ra != rb:
            parent[ra] = rb
    return len({find(i) for i in range(len(facets))}) == 1
