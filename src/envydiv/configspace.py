"""Cuts of the unit interval, tile allocations, and configuration points.

A cut with k interior cut-points splits [0, 1] into k+1 closed tiles, some
of which may be degenerate (zero length).  A configuration point pairs a cut
with an allocation of its non-degenerate tiles into boxes; degenerate tiles
are discarded, so two allocations that differ only on degenerate tiles give
the same canonical point.  Canonical points correspond one-to-one with
weighted faces of the variant's complex: cell (box, tile) carries the tile's
length as barycentric weight.

All types are immutable values and every operation is pure.  A tile is
degenerate when its length is at most ``DEGENERACY_TOL``, the one length
threshold of the package.  The public constructors (``Cut``, ``ZPoint``,
``ConfigPoint``, ``canonicalize``, ``point_from_barycentric``) check their
input, and ``z_to_cut`` takes a checked ``ZPoint``; points on faces a
caller already knows (sampled or searched facets, canonical allocations,
relabellings) skip the face check, and their cuts, built from lengths known
to lie on the simplex, skip the cut checks too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .complexes import Variant, is_face

#: tiles at or below this length count as degenerate
DEGENERACY_TOL = 1e-9

Interval = tuple[float, float]


def _clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)


def _tile_lengths(points: tuple[float, ...]) -> tuple[float, ...]:
    bounds = (0.0,) + points + (1.0,)
    return tuple(max(0.0, b - a) for a, b in zip(bounds, bounds[1:]))


@dataclass(frozen=True, slots=True)
class Cut:
    """Non-decreasing cut-points in [0, 1]; tile i is [x_{i-1}, x_i].

    Equality, hash and repr read ``points``; ``lengths`` follows from them.
    """

    points: tuple[float, ...]
    lengths: tuple[float, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        pts = tuple(float(p) for p in self.points)
        # each check states what valid input meets, so a NaN fails it
        if not all(a <= b for a, b in zip(pts, pts[1:])):
            raise ValueError(f"cut-points must be non-decreasing: {pts}")
        if pts and not (-1e-12 <= pts[0] and pts[-1] <= 1 + 1e-12):
            raise ValueError(f"cut-points must lie in [0, 1]: {pts}")
        object.__setattr__(self, "points", tuple(_clamp01(p) for p in pts))
        object.__setattr__(self, "lengths", _tile_lengths(self.points))

    @property
    def tile_count(self) -> int:
        return len(self.points) + 1


def _fsum(values) -> float:
    """``math.fsum``, or NaN for a sum past the float range or inf - inf,
    which every check of a finite sum then rejects."""
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        return math.nan


@dataclass(frozen=True)
class ZPoint:
    """Tile-length vector: a point of the standard simplex."""

    lengths: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.lengths)
        if not all(v >= -1e-12 for v in vals):
            raise ValueError(f"tile lengths must be non-negative: {vals}")
        total = _fsum(vals)
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"tile lengths must sum to 1, got {total}")
        object.__setattr__(self, "lengths", tuple(max(0.0, v) for v in vals))


def cut_to_z(cut: Cut) -> ZPoint:
    return ZPoint(cut.lengths)


def z_to_cut(z: ZPoint) -> Cut:
    return _known_cut(z.lengths)


def degenerate_and_essential(cut: Cut) -> tuple[frozenset[int], tuple[tuple[Interval, int], ...]]:
    """Split tile labels into degenerate ones and essential (interval, label) pairs."""
    bounds = (0.0,) + cut.points + (1.0,)
    deg = []
    ess = []
    for label, length in enumerate(cut.lengths, start=1):
        if length <= DEGENERACY_TOL:
            deg.append(label)
        else:
            ess.append(((bounds[label - 1], bounds[label]), label))
    return frozenset(deg), tuple(ess)


def partition_equivalent(a: Cut, b: Cut) -> bool:
    """True iff both cuts produce the same set of non-degenerate tiles.

    A degenerate tile may be up to ``DEGENERACY_TOL`` long, so moving the
    degenerate tiles shifts an essential one by as much as their total:
    the ends agree within ``DEGENERACY_TOL`` plus both cuts' degenerate length.
    Here alone a tile up to c ulps of 1 over the tolerance, on a cut of c
    tiles, is degenerate too: ``z_to_cut`` rounds a re-padded one over it.
    """
    degenerate, essential = [], []
    for cut in (a, b):
        limit = DEGENERACY_TOL + cut.tile_count * 2.0**-52
        bounds = (0.0,) + cut.points + (1.0,)
        degenerate += [v for v in cut.lengths if v <= limit]
        essential.append([(x, y) for x, y, v in zip(bounds, bounds[1:], cut.lengths) if v > limit])
    slack = DEGENERACY_TOL + math.fsum(degenerate)
    ess_a, ess_b = essential
    return len(ess_a) == len(ess_b) and all(abs(p - q) <= slack for x, y in zip(ess_a, ess_b) for p, q in zip(x, y))


@dataclass(frozen=True, slots=True)
class ConfigPoint:
    """Canonical (cut, allocation) pair on one of the board variants.

    The allocation covers exactly the non-degenerate tiles; its support cells
    (box, tile) always form a face of the variant's complex.
    """

    variant: Variant
    cut: Cut
    allocation: tuple[tuple[int, int], ...]  # sorted (tile, box) pairs

    def __post_init__(self):
        if self.cut.tile_count != self.variant.cols:
            raise ValueError(
                f"cut has {self.cut.tile_count} tiles, variant expects {self.variant.cols}"
            )
        alloc = tuple(sorted((int(t), int(b)) for t, b in self.allocation))
        object.__setattr__(self, "allocation", alloc)
        if not is_face(self.variant, self.support_cells):
            raise ValueError(
                f"allocation {dict(alloc)} violates the {self.variant.kind} constraint"
            )

    @property
    def r(self) -> int:
        return self.variant.rows

    @property
    def support_cells(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted((box, tile) for tile, box in self.allocation))

    def boxes(self) -> dict[int, tuple[int, ...]]:
        """Box label -> sorted tiles it holds (occupied boxes only); only the
        tests read it, as the independent reference for psi's box rules."""
        out: dict[int, list[int]] = {}
        for tile, box in self.allocation:
            out.setdefault(box, []).append(tile)
        return {b: tuple(sorted(ts)) for b, ts in out.items()}

    def box_lengths(self) -> tuple[float, ...]:
        """Total essential length inside each box, indexed 0..r-1; only the tests
        read it, as the independent reference for ``piecewise_random``'s box map."""
        lengths = self.cut.lengths
        totals = [0.0] * self.r
        for tile, box in self.allocation:
            totals[box - 1] += lengths[tile - 1]
        return tuple(totals)

    def support(self) -> tuple[tuple[tuple[int, int], ...], tuple[float, ...]]:
        """Barycentric representation: support cells with the tile lengths as weights."""
        lengths = self.cut.lengths
        cells = self.support_cells
        return cells, tuple(lengths[tile - 1] for _, tile in cells)

    def to_json(self) -> dict:
        return {
            "variant": self.variant.to_json(),
            "cut": list(self.cut.points),
            "allocation": {str(t): b for t, b in self.allocation},
        }


def canonicalize(cut: Cut, allocation: Mapping[int, int], variant: Variant) -> ConfigPoint:
    """Drop degenerate tiles from an allocation and validate the remainder.

    Idempotent, and constant on the equivalence class generated by
    reassigning degenerate tiles.
    """
    _, ess = degenerate_and_essential(cut)
    for tile, box in allocation.items():
        if not (1 <= tile <= variant.cols):
            raise ValueError(f"tile label {tile} outside 1..{variant.cols}")
        if not (1 <= box <= variant.rows):
            raise ValueError(f"box label {box} outside 1..{variant.rows}")
    kept = {}
    for _, label in ess:
        if label not in allocation:
            raise ValueError(f"allocation missing non-degenerate tile {label}")
        kept[label] = allocation[label]
    return ConfigPoint(variant, cut, tuple(kept.items()))


def _face_point(variant: Variant, cut: Cut, allocation: tuple[tuple[int, int], ...]) -> ConfigPoint:
    """``ConfigPoint`` without its checks, for an allocation known to be a face:
    (tile, box) pairs sorted by tile, one per essential tile of the cut."""
    point = object.__new__(ConfigPoint)
    object.__setattr__(point, "variant", variant)
    object.__setattr__(point, "cut", cut)
    object.__setattr__(point, "allocation", allocation)
    return point


def _known_points(points: tuple[float, ...]) -> Cut:
    """``Cut`` without its checks, for float cut-points already known to be
    non-decreasing and in [0, 1], such as a subsequence of a cut's points."""
    return _unchecked_cut(points, _tile_lengths(points))


def _known_cut(z: Sequence[float]) -> Cut:
    """The cut of non-negative float tile lengths summing to 1, without the
    ``Cut`` checks: one cumulative pass sets the cut-points, clamped to
    [0, 1], and the tile lengths, bit for bit those ``Cut`` would compute."""
    points = []
    lengths = []
    acc = prev = 0.0
    for v in z[:-1]:
        acc += v
        point = _clamp01(acc)
        points.append(point)
        lengths.append(max(0.0, point - prev))
        prev = point
    lengths.append(max(0.0, 1.0 - prev))
    return _unchecked_cut(tuple(points), tuple(lengths))


def _unchecked_cut(points: tuple[float, ...], lengths: tuple[float, ...]) -> Cut:
    """A ``Cut`` holding the given points and their tile lengths, unchecked."""
    cut = object.__new__(Cut)
    object.__setattr__(cut, "points", points)
    object.__setattr__(cut, "lengths", lengths)
    return cut


def act(sigma: Sequence[int], point: ConfigPoint) -> ConfigPoint:
    """Relabel boxes by a permutation: box b becomes sigma[b-1]; cut unchanged.
    Relabelling rows maps faces to faces on every board, so no face check."""
    r = point.r
    if sorted(sigma) != list(range(1, r + 1)):
        raise ValueError(f"{sigma!r} is not a permutation of 1..{r}")
    moved = tuple((tile, int(sigma[box - 1])) for tile, box in point.allocation)
    return _face_point(point.variant, point.cut, moved)


def point_from_barycentric(
    variant: Variant,
    placement: Iterable[tuple[int, int]],
    weights: Sequence[float],
) -> ConfigPoint:
    """Rebuild the canonical point of a weighted face of the complex.

    Columns absent from the placement (and columns whose weight falls below
    the degeneracy tolerance) become zero-length tiles, positioned where the
    cut-point ordering forces them; adjacent cut-points then simply collide.
    """
    cells = tuple(placement)
    if len(cells) != len(weights):
        raise ValueError("placement and weights must have equal length")
    if not is_face(variant, cells):
        raise ValueError(f"placement {cells} is not a face of {variant.kind}")
    w = [float(x) for x in weights]
    if not all(x >= -1e-12 for x in w):
        raise ValueError(f"weights must be non-negative: {w}")
    total = _fsum(w)
    if not abs(total - 1.0) <= 1e-9:
        raise ValueError(f"weights must sum to 1, got {total}")
    return _barycentric_point(variant, tuple((int(i), int(j)) for i, j in cells), w)


def _barycentric_point(variant: Variant, face, weights: Sequence[float]) -> ConfigPoint:
    """``point_from_barycentric`` without its checks, for a known face and weights summing to 1."""
    z = [0.0] * variant.cols
    box_of = {}
    for (row, col), weight in zip(face, weights):
        z[col - 1] = max(0.0, float(weight))
        box_of[col] = row
    cut = _known_cut(z)
    # degeneracy is decided from the reconstructed lengths, so a weight
    # straddling the tolerance cannot leave an essential tile behind
    allocation = tuple(
        (tile, box_of[tile]) for tile, length in enumerate(cut.lengths, start=1) if length > DEGENERACY_TOL
    )
    return _face_point(variant, cut, allocation)
