"""Player preferences as continuous score oracles.

An oracle assigns every player, at every domain point, a non-negative score
vector that normalizes to sum 1; a box or tile counts as *preferred* when
its score exceeds ``PREFERENCE_TOL``.  Old-style oracles are functions of a
tile-length vector (r tiles); new-style oracles are functions of a
configuration point and score the r boxes.

Built-in models:

* ``hungry`` -- score grows with length, and pieces shorter than a margin
  score exactly zero, so nobody wants a crumb.
* ``gorbushka`` -- players only want an end slice of the loaf; with
  ``dte=True`` every degenerate tile is equally acceptable as well.
* ``burnt`` -- score falls with length (a mostly-burnt cake), with all
  sufficiently small pieces, including degenerate ones, maximally scored.
* ``piecewise_random`` -- seeded piecewise-linear scores with a positive
  floor, covering and box-label-blind by construction.

Every score row is read through ``_rows``, every player at one point in
one pass: the ``raw`` scores, normalized by ``_normalized``, which rejects
negative, NaN and infinite scores, and checked to hold one score per box
(new-style) or tile (old-style), so a row of the wrong length names the
player and the count.  The hot loops work on these plain rows, a list per
player, because at r <= 8 an array costs more to build than the arithmetic
it would hold.  ``score_matrix`` stacks the rows at one checked point into
an array, for verification and the ``continuity`` check; ``scores`` is its
row of one player.  ``_refusing`` names the first player whose row accepts
nothing, wherever that is asked.  Points are checked where they enter from
outside, in the public constructors of ``configspace``; the hot loops
build points and cuts on faces they already know without the checks.

Oracles must be pure and deterministic per (player, point): the solver
evaluates them one at a time, in one thread, and reuses the averages it
computed at a grid point instead of asking again.  Validation is
statistical (seeded sampling) and can only falsify a property, never prove
it; in particular closedness of preferred sets has no finite certificate
for a black-box oracle, so the ``continuity`` check is a documented
heuristic stand-in.

Every new-style oracle the library builds, the built-ins and the
``reductions`` lifts, is a ``BoxOracle``: box-label blind by construction,
so ``validate`` samples the equivariance of other oracles only.

Covering is per player: a sample violates it when any one player accepts
no box there, because every player's preferred sets must cover the space.
``solver.solve`` checks covering and equivariance in one pass, the
``covering+equivariance`` property: covering is read off every player's
scores at each equivariance sample, before its relabelling.

Where checks run: ``require_axioms`` is the gate of the sampled axiom
checks, and psi's short-last-tile check (``reductions``) the one other
sampled check; both draw through ``sample_lengths``.  ``solve`` and
``brute_force`` pass their oracle through the gate, and each lift its
source, once, before the first query; it names the first failing axiom and
its count.  Past the gate, the search, ``average_matrix`` and the lifts'
source queries read every player's row at a point through
``_accepting_rows``, which raises the same ``PreferenceValidationError``
for the first player who accepts nothing there: a covering failure that no
sample drew.  The gate's samples depend only on the check, the board or
tile count, the sample count and the seed, so ``validate`` draws each such
plan once per process (``_plan``, up to 64 plans of at most
``MAX_PLAN_SAMPLES`` samples) and replays it; the seed still selects the
stream, and the points are those the stream gives, bit for bit.  A plan
keeps each point as built, its cut-points and the box of each tile, which
longer runs build from too, so a replay decodes no facet and sums no
weights into a cut.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import complexes
from .complexes import Variant
from .configspace import (
    DEGENERACY_TOL,
    ConfigPoint,
    Cut,
    ZPoint,
    _barycentric_point,
    _face_point,
    _known_points,
    point_from_barycentric,
)

#: scores above this threshold count as "preferred"
PREFERENCE_TOL = 1e-9

#: ``continuity`` flags a score change above this multiple of the move
MAX_SCORE_SLOPE = 1e4

OLD = "old"
NEW = "new"

HUNGRY_MARGIN = 1e-3
GORBUSHKA_WIDTH = 1e-3
BURNT_PLATEAU = 0.6
RANDOM_FLOOR = 1.0
RANDOM_AMPLITUDE = 0.25

BUILTIN_MODELS = ("hungry", "gorbushka", "burnt", "piecewise_random")

#: ``covering+equivariance`` checks both on the samples of ``equivariance``
VALIDATION_PROPERTIES = ("covering", "equivariance", "covering+equivariance", "p_dte", "p_pe", "continuity")


class PreferenceValidationError(ValueError):
    """An oracle failed a property it was required to satisfy."""


@dataclass
class PreferenceMatrix:
    """Score oracle for r players; ``raw`` returns unnormalized scores."""

    r: int
    kind: str
    model: str
    raw: Callable
    variant: Variant | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in (OLD, NEW):
            raise ValueError(f"kind must be {OLD!r} or {NEW!r}, got {self.kind!r}")
        if self.r < 2:
            raise ValueError("need at least two players")


def _domain(prefs: PreferenceMatrix, point):
    """The point in the form this oracle's ``raw`` takes, after the checks."""
    if prefs.kind == NEW:
        if not isinstance(point, ConfigPoint):
            raise TypeError("new-style oracle queried with a bare cut")
        return point
    if isinstance(point, ConfigPoint):
        raise TypeError("old-style oracle queried with a configuration point")
    z = point.lengths if isinstance(point, (Cut, ZPoint)) else tuple(float(v) for v in point)
    if len(z) != prefs.r:
        raise ValueError(f"expected {prefs.r} tile lengths, got {len(z)}")
    return z


def _normalized(raw) -> list[float]:
    """Raw scores divided by their ``math.fsum``; all zeros stay zero.

    A negative score raises, and so does a NaN or infinite one, which would
    otherwise pass every ``> PREFERENCE_TOL`` test as a score nobody wants,
    and so do finite scores whose sum overflows.  A finite sum rules out
    NaN and infinite scores, so a row with a positive finite sum and no
    negative score is normalized at once; other rows go through the checks.
    """
    row = list(map(float, raw))
    try:
        total = math.fsum(row)
    except (OverflowError, ValueError):  # a sum past the float range, or inf - inf
        total = math.nan
    if 0.0 < total < math.inf and min(row) >= 0.0:
        return [v / total for v in row]
    if not (math.isfinite(total) and min(row, default=0.0) >= 0.0):
        _reject(row)
    return [0.0] * len(row)  # finite, non-negative and summing to zero


def _reject(row: list[float]):
    """Raise the error of the first check that ``row`` fails: a negative
    score, then a sum that overflows, then a non-finite score."""
    # not ``min(row) < 0``: a NaN hides a negative that follows it
    if any(v < 0 for v in row):
        raise ValueError(f"oracle produced a negative score: {row}")
    try:
        math.fsum(row)
    except OverflowError:
        raise ValueError(f"oracle scores overflow in their sum: {row}") from None
    raise ValueError(f"oracle produced a non-finite score: {row}")


def _rows(prefs: PreferenceMatrix, domain) -> list[list[float]]:
    """Every player's normalized scores at a point ``_domain`` passed,
    player j in row j-1, one ``raw`` call each: a row that does not hold
    one score per box or tile raises before the next player is asked."""
    raw, r = prefs.raw, prefs.r
    rows = []
    for player in range(1, r + 1):
        row = _normalized(raw(player, domain))
        if len(row) != r:
            raise ValueError(f"oracle returned {len(row)} scores for player {player}, expected {r}")
        rows.append(row)
    return rows


def _refusing(rows) -> int | None:
    """The first player whose normalized row accepts nothing, or None: such
    a row is all zeros, any other holds a score of at least 1/r."""
    for player, row in enumerate(rows, start=1):
        if not any(row):
            return player
    return None


def _accepting_rows(prefs: PreferenceMatrix, domain) -> list[list[float]]:
    """``_rows``, refusing the first player who accepts nothing at the
    point: the covering failure met outside the sampled checks."""
    rows = _rows(prefs, domain)
    if (player := _refusing(rows)) is not None:
        raise PreferenceValidationError(f"player {player} accepts nothing at {_witness(domain)}")
    return rows


def score_matrix(prefs: PreferenceMatrix, point) -> np.ndarray:
    """Every player's normalized scores at one domain point, player j in
    row j-1: one check of the point, then r ``raw`` calls."""
    return np.array(_rows(prefs, _domain(prefs, point)))


def scores(prefs: PreferenceMatrix, player: int, point) -> np.ndarray:
    """Normalized score vector of one player at one domain point: row
    ``player - 1`` of ``score_matrix``.

    Sums to 1 whenever any raw score is positive; an all-zero vector is
    returned otherwise (the player accepts nothing there, which a covering
    oracle never produces).
    """
    if not 1 <= player <= prefs.r:
        raise ValueError(f"player {player} outside 1..{prefs.r}")
    return score_matrix(prefs, point)[player - 1]


# ---------------------------------------------------------------------------
# built-in models


def _ramp(z: float, margin: float) -> float:
    # zero below the margin, identity above twice the margin, linear between
    if z <= margin:
        return 0.0
    if z < 2.0 * margin:
        return 2.0 * (z - margin)
    return z


def _bump(z: float, width: float) -> float:
    # 1 at zero length, fading out linearly by ``width``
    return max(0.0, 1.0 - z / width)


def _plateau(z: float, knee: float) -> float:
    return 1.0 if z <= knee else (1.0 - z) / (1.0 - knee)


class BoxOracle:
    """A new-style ``raw(player, point)`` that cannot see box labels.

    ``scorers(cut)`` returns every player's scorer at the cut, player j's
    at index j-1: ``score(tiles, empty_boxes)`` scores one box by the tiles
    it holds, in tile order, and the number of empty boxes.  No box label
    reaches it, so relabelling the boxes of a point permutes its row
    exactly.  The r players of a point query in turn, and the points of a
    cut, such as its relabellings, come together: ``_memo``, one entry at
    module level, keeps the scorers of the last oracle and cut queried (an
    equal cut rebuilt by value counts as the same) and their scores by box
    content, so an oracle holds no cut.
    """

    __slots__ = ("scorers", "r")

    def __init__(self, scorers: Callable, r: int):
        self.scorers = scorers
        self.r = r

    def __call__(self, player: int, point: ConfigPoint) -> list[float]:
        if not 0 < player <= self.r:
            raise ValueError(f"player {player} outside 1..{self.r}")
        oracle, last, cut, contents, at_cut = _memo
        if oracle is not self or last is not point:
            if point.r != self.r:
                raise ValueError(f"expected a point with {self.r} boxes, got {point.r}")
            if oracle is not self or point.cut != cut:
                cut = point.cut
                at_cut = [(score, {}) for score in self.scorers(cut)]
            held = [()] * self.r
            for tile, box in point.allocation:
                held[box - 1] += (tile,)
            empty = held.count(())
            contents = [(tiles, empty) for tiles in held]
            _memo[:] = self, point, cut, contents, at_cut
        score, scored = at_cut[player - 1]
        out = []
        for content in contents:
            value = scored.get(content)
            if value is None:
                value = scored[content] = score(*content)
            out.append(value)
        return out


#: the last oracle, point and cut queried, the point's box contents (tiles, empty boxes), and
#: per player (scorer, {content: score}); holding the objects keeps their ids from being reused
_memo = [None, None, None, None, None]


def _content(z, tiles) -> float:
    """A box's length: its tiles' lengths added in tile order (not ``sum``,
    which compensates its rounding from Python 3.12)."""
    total = 0.0
    for tile in tiles:
        total += z[tile - 1]
    return total


def _by_length(score, param, kind, r):
    """Scores each tile (old-style) or box (new-style) by its length alone."""
    if kind == OLD:
        return lambda player, z: [score(v, param) for v in z]

    def scorers(cut):
        z = cut.lengths
        return [lambda tiles, empty_boxes: score(_content(z, tiles), param)] * r

    return BoxOracle(scorers, r)


def _gorbushka_old(width, dte):
    def raw(player, z):
        ends = (1, len(z))
        return [(v if label in ends else 0.0) + (_bump(v, width) if dte else 0.0) for label, v in enumerate(z, start=1)]

    return raw


def _gorbushka_new(r, width, dte):
    def scorers(cut):
        z = cut.lengths
        last = len(z)
        degenerate_signal = max(_bump(v, width) for v in z) if dte else 0.0

        def score(tiles, empty_boxes):
            end = 0.0  # the box's longest end tile
            for tile in tiles:
                if (tile == 1 or tile == last) and z[tile - 1] > end:
                    end = z[tile - 1]
            return max(end, degenerate_signal * _bump(_content(z, tiles), width)) if dte else end

        return [score] * r

    return BoxOracle(scorers, r)


class _PiecewiseTable:
    """Piecewise-linear function on [0, 1] over a fixed breakpoint grid."""

    def __init__(self, xs: Sequence[float], ys: Sequence[float]):
        if len(xs) != len(ys) or len(xs) < 2:
            raise ValueError("need matching x/y breakpoint lists of length >= 2")
        if not (xs[0] == 0.0 and xs[-1] == 1.0 and all(a <= b for a, b in zip(xs, xs[1:]))):
            raise ValueError("breakpoints must be sorted and span [0, 1]")
        if not all(y >= 0 for y in ys):
            raise ValueError("piecewise values must be non-negative")
        self.xs = tuple(float(x) for x in xs)
        self.ys = tuple(float(y) for y in ys)
        # per segment: its left end, left value, rise and run
        self._segments = tuple(
            (x0, y0, y1 - y0, x1 - x0)
            for x0, x1, y0, y1 in zip(self.xs, self.xs[1:], self.ys, self.ys[1:])
        )

    def __call__(self, z: float) -> float:
        z = 0.0 if z < 0.0 else (1.0 if z > 1.0 else z)
        # xs[hi - 1] <= z < xs[hi], so the segment has a positive run
        hi = bisect_right(self.xs, z)
        if hi == len(self.xs):
            return self.ys[-1]
        x0, y0, rise, run = self._segments[hi - 1]
        return y0 + rise * (z - x0) / run


_RANDOM_GRID = tuple(i / 7.0 for i in range(8))


def _random_tables(rng, count, pin_zero):
    tables = []
    for _ in range(count):
        ys = rng.uniform(0.0, RANDOM_AMPLITUDE, size=len(_RANDOM_GRID))
        if pin_zero:
            ys[0] = 0.0  # vanishing tiles must not leave a score behind
        tables.append(_PiecewiseTable(_RANDOM_GRID, ys))
    return tables


def _piecewise_random_old(r, seed):
    rng = np.random.default_rng(seed)
    per_tile = [_random_tables(rng, r, pin_zero=True) for _ in range(r)]

    def raw(player, z):
        tables = per_tile[player - 1]
        return [RANDOM_FLOOR + tables[i](v) for i, v in enumerate(z)]

    return raw


def _piecewise_random_new(r, n_tiles, seed):
    rng = np.random.default_rng(seed)
    tile_tables = [_random_tables(rng, n_tiles, pin_zero=True) for _ in range(r)]
    content_tables = [_random_tables(rng, 1, pin_zero=False)[0] for _ in range(r)]

    def scorer(z, tables, content_table):
        def score(tiles, empty_boxes):
            # the tile scores by ``fsum``, which is exact
            return RANDOM_FLOOR + content_table(_content(z, tiles)) + math.fsum(tables[t - 1](z[t - 1]) for t in tiles)

        return score

    def scorers(cut):
        return [scorer(cut.lengths, *player_tables) for player_tables in zip(tile_tables, content_tables)]

    return BoxOracle(scorers, r)


def make_builtin(
    name: str,
    r: int,
    kind: str = OLD,
    params: dict | None = None,
    seed: int = 0,
    variant: Variant | None = None,
) -> PreferenceMatrix:
    """Construct one of the built-in preference models.

    New-style oracles score boxes of a configuration point on any board
    variant; attach ``variant`` so the validators know what to sample.
    """
    params = dict(params or {})
    if name not in BUILTIN_MODELS:
        raise ValueError(f"unknown model {name!r}; expected one of {BUILTIN_MODELS}")
    if kind not in (OLD, NEW):
        raise ValueError(f"kind must be {OLD!r} or {NEW!r}")
    if kind == NEW and variant is None:
        variant = complexes.gorbushka_join(r)
    elif kind == NEW and variant.rows != r:
        raise ValueError(f"a new-style oracle of {r} players needs a board of {r} rows, not {variant}")

    if name == "hungry":
        margin = float(params.setdefault("margin", HUNGRY_MARGIN))
        raw = _by_length(_ramp, margin, kind, r)
    elif name == "gorbushka":
        width = float(params.setdefault("width", GORBUSHKA_WIDTH))
        dte = bool(params.setdefault("dte", True))
        raw = _gorbushka_old(width, dte) if kind == OLD else _gorbushka_new(r, width, dte)
    elif name == "burnt":
        knee = float(params.setdefault("plateau", BURNT_PLATEAU))
        if not 0.0 < knee < 1.0:
            raise ValueError("burnt plateau must lie strictly inside (0, 1)")
        raw = _by_length(_plateau, knee, kind, r)
    else:  # piecewise_random
        if not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ValueError("piecewise_random needs a non-negative integer seed")
        params.setdefault("seed", int(seed))
        if kind == OLD:
            raw = _piecewise_random_old(r, seed)
        else:
            raw = _piecewise_random_new(r, variant.cols, seed)

    return PreferenceMatrix(
        r=r,
        kind=kind,
        model=name,
        raw=raw,
        variant=variant if kind == NEW else None,
        params=params,
    )


def piecewise_from_tables(r: int, tables: dict) -> PreferenceMatrix:
    """Custom old-style model from explicit breakpoint tables.

    ``tables[player][tile]`` is a list of [length, value] pairs per player
    (1..r) and tile (1..r).
    """
    parsed = {}
    for player in range(1, r + 1):
        per_player = tables.get(str(player), tables.get(player))
        if per_player is None:
            raise ValueError(f"missing piecewise table for player {player}")
        row = []
        for tile in range(1, r + 1):
            pairs = per_player.get(str(tile), per_player.get(tile))
            if pairs is None:
                raise ValueError(f"missing piecewise table for player {player}, tile {tile}")
            xs = [p[0] for p in pairs]
            ys = [p[1] for p in pairs]
            row.append(_PiecewiseTable(xs, ys))
        parsed[player] = row

    def raw(player, z):
        row = parsed[player]
        return [row[i](v) for i, v in enumerate(z)]

    return PreferenceMatrix(r=r, kind=OLD, model="piecewise", raw=raw)


def row_shuffled(prefs: PreferenceMatrix, sigma: Sequence[int] | None = None) -> PreferenceMatrix:
    """Mutation fixture: permute the output vector by a fixed relabeling.

    The result deliberately breaks box-label blindness so validators can be
    shown to catch the defect.
    """
    r = prefs.r
    if sigma is None:
        sigma = tuple(range(2, r + 1)) + (1,)
    if sorted(sigma) != list(range(1, r + 1)):
        raise ValueError(f"{sigma!r} is not a permutation of 1..{r}")

    def raw(player, point):
        vals = list(prefs.raw(player, point))
        return [vals[sigma[i] - 1] for i in range(len(vals))]

    return PreferenceMatrix(
        r=r,
        kind=prefs.kind,
        model=f"{prefs.model}+shuffled",
        raw=raw,
        variant=prefs.variant,
        params=dict(prefs.params),
    )


# ---------------------------------------------------------------------------
# sampling and validation


@dataclass
class ValidationReport:
    """Outcome of a statistical property check on an oracle."""

    property: str
    samples: int
    violations: list
    max_deviation: float

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "property": self.property,
            "samples": self.samples,
            "violations": self.violations[:50],
            "violation_count": len(self.violations),
            "max_deviation": self.max_deviation,
            "passed": self.passed,
        }


def _uniform_simplex(rng, n: int) -> np.ndarray:
    """``rng.dirichlet(np.ones(n))`` bit for bit, for less: the same standard
    exponential draws, times the reciprocal of their sum accumulated left to
    right, which is numpy's own loop for alpha = 1."""
    z = rng.standard_exponential(n)
    total = 0.0  # not ``sum``, which compensates its rounding from Python 3.12
    for v in z.tolist():
        total += v
    z *= 1.0 / total
    return z


def sample_lengths(rng, n_tiles: int, force_degenerate: bool = False) -> tuple[float, ...]:
    z = _uniform_simplex(rng, n_tiles)
    if force_degenerate and n_tiles >= 2:
        k = int(rng.integers(1, n_tiles))
        z[rng.choice(n_tiles, size=k, replace=False)] = 0.0
        z /= z.sum()
    return tuple(z.tolist())


def sample_config_point(rng, variant: Variant, force_degenerate: bool = False) -> ConfigPoint:
    facet = complexes.facet_at(variant, int(rng.integers(0, complexes.facet_count(variant))))
    return _barycentric_point(variant, facet, sample_lengths(rng, len(facet), force_degenerate))


#: ``validate`` replays memoized draws for runs of at most this many samples
MAX_PLAN_SAMPLES = 400


def _draws(shape: str, domain, sample_count: int, seed: int):
    """Every sample of one property shape, in the order the seeded stream
    draws it: (x, boxes, extra) per sample.

    ``domain`` is the board of a new-style oracle, whose samples are
    ``sample_config_point``s given as built: x holds the point's cut-points
    and boxes the box of each tile (0 for a degenerate tile).  For an
    old-style oracle ``domain`` is the tile count r, x the
    ``sample_lengths`` z and boxes None.  Degenerate tiles are forced on
    odd samples, and on every sample of ``p_dte`` and ``p_pe``.  The extra
    draw is the relabelling of ``equivariance`` (a 0-based permutation of
    the boxes), the re-padded z of ``p_pe``, or the weight move of
    ``continuity``: one normal draw per support weight of the point, padded
    with NaN to the width of the weights.  ``covering`` and ``p_dte`` draw
    no extra.
    """
    rng = np.random.default_rng(seed)
    old = not isinstance(domain, Variant)
    width = domain if old else len(complexes.facet_at(domain, 0))
    for i in range(sample_count):
        degenerate = shape in ("p_dte", "p_pe") or i % 2 == 1
        boxes, support = None, width
        if old:
            x = sample_lengths(rng, width, degenerate)
        else:
            point = sample_config_point(rng, domain, degenerate)
            box_of = dict(point.allocation)
            x, support = point.cut.points, len(box_of)
            boxes = [box_of.get(tile, 0) for tile in range(1, domain.cols + 1)]
        extra = None
        if shape == "equivariance":
            extra = rng.permutation(domain.rows).tolist()
        elif shape == "p_pe":
            extra = _repad_zeros(rng, x)
        elif shape == "continuity":
            extra = rng.normal(scale=1e-6, size=support).tolist() + [math.nan] * (width - support)
        yield x, boxes, extra


@lru_cache(maxsize=64)
def _plan(shape: str, domain, sample_count: int, seed: int) -> tuple:
    """``_draws`` as read-only columns, one row per sample: x in float64,
    boxes in the smallest unsigned type that holds a box label, and extras,
    with None for a column the shape or oracle kind does not draw."""
    plan = []
    labels = np.min_scalar_type(domain.rows) if isinstance(domain, Variant) else None
    for column, dtype in zip(zip(*_draws(shape, domain, sample_count, seed)), (np.float64, labels, None)):
        array = None
        if column[0] is not None:
            array = np.array(column, dtype=dtype)
            array.flags.writeable = False
        plan.append(array)
    return tuple(plan)


def _samples(shape: str, domain, sample_count: int, seed: int):
    """(point or z, extra) per sample of ``_draws``, replayed from the
    memoized plan when the run is at most ``MAX_PLAN_SAMPLES`` long and
    streamed otherwise; either way a point is built from its two columns."""
    if sample_count > MAX_PLAN_SAMPLES:
        draws = _draws(shape, domain, sample_count, seed)
    else:
        plan = _plan(shape, domain, sample_count, seed)
        draws = zip(*(repeat(None) if column is None else column.tolist() for column in plan))
    if not isinstance(domain, Variant):
        return ((z, extra) for z, _, extra in draws)
    return (
        (_face_point(domain, _known_points(tuple(x)), tuple((t, b) for t, b in enumerate(boxes, 1) if b)), extra)
        for x, boxes, extra in draws
    )


def validate(
    prefs: PreferenceMatrix,
    property: str,
    sample_count: int = 1000,
    seed: int = 0,
    tol: float = 1e-9,
) -> ValidationReport:
    """Falsification-only check of one preference axiom on seeded samples.

    ``covering`` and ``continuity`` apply to both kinds, ``equivariance``
    and ``covering+equivariance`` to new-style oracles only, ``p_dte`` and
    ``p_pe`` to old-style only.  ``covering+equivariance`` draws the
    samples of ``equivariance`` and reads covering off the scores at each
    unpermuted point; each of its violations names its ``axiom``.  A
    ``BoxOracle`` is blind by construction: its ``equivariance`` passes
    without a sample, and ``covering+equivariance`` reads it at the
    unpermuted point only.

    The draws depend only on the property's shape, the board (or tile
    count), ``sample_count`` and ``seed``, never on the oracle, so a run
    of at most ``MAX_PLAN_SAMPLES`` samples replays a plan drawn once per
    process (``_plan``, at most 64 kept).  A plan holds per sample c - 1
    cut-points (8 bytes each) and c box labels (1 byte each up to 255
    boxes) on a board of c tiles, or r tile lengths (8 bytes each), and an
    extra of r (relabelling, re-padded z) or w (weight move) 8-byte numbers,
    w the facet size or tile count: on a board at worst 64 x 400 x
    (8(c - 1) + c + 8 max(r, w)) bytes in all, 4.9 MB at c2 r = 8.  Longer
    runs draw their samples as they go, from the same generator.  The seed
    must be a non-negative integer.
    """
    if property not in VALIDATION_PROPERTIES:
        raise ValueError(f"unknown property {property!r}")
    if "equivariance" in property and prefs.kind != NEW:
        raise ValueError(f"{property} applies to new-style oracles only")
    if property in ("p_dte", "p_pe") and prefs.kind != OLD:
        raise ValueError(f"{property} applies to old-style oracles only")
    if sample_count < 1:
        raise ValueError(f"need at least one sample, got {sample_count}")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    variant = prefs.variant
    if prefs.kind == NEW and variant is None:
        raise ValueError("new-style oracle needs a variant attached for sampling")

    if property == "equivariance" and isinstance(prefs.raw, BoxOracle):
        return ValidationReport(property, sample_count, [], 0.0)
    shape = "equivariance" if "equivariance" in property else property
    space = prefs.r if prefs.kind == OLD else variant
    violations = []
    max_dev = 0.0

    for point, extra in _samples(shape, space, sample_count, int(seed)):
        if property == "covering":
            if _refusing(_rows(prefs, _domain(prefs, point))) is not None:
                violations.append(_witness(point))
        elif shape == "equivariance":
            # sigma, 0-based: box b + 1 becomes box perm[b] + 1
            perm = extra
            before = _rows(prefs, _domain(prefs, point))
            # the two-axiom property tags each violation with its axiom
            tag = {} if property == "equivariance" else {"axiom": "equivariance"}
            if tag and (refusing := _refusing(before)) is not None:
                violations.append({"axiom": "covering", "point": _witness(point), "player": refusing})
            if isinstance(prefs.raw, BoxOracle):  # its relabelled rows are these, permuted
                continue
            # ``act`` without its permutation check: relabelled boxes, same cut
            moved = tuple((tile, perm[box - 1] + 1) for tile, box in point.allocation)
            after = _rows(prefs, _face_point(point.variant, point.cut, moved))
            dev = max(abs(a[p] - b) for a, row in zip(after, before) for p, b in zip(perm, row))
            max_dev = max(max_dev, dev)
            if dev > tol:
                sigma = [p + 1 for p in perm]
                violations.append({**tag, "point": _witness(point), "sigma": sigma, "deviation": dev})
        elif property == "p_dte":
            deg = [i for i, v in enumerate(point) if v <= DEGENERACY_TOL]
            if len(deg) < 2:
                continue
            dev = max(
                max(row[d] for d in deg) - min(row[d] for d in deg) for row in _rows(prefs, _domain(prefs, point))
            )
            max_dev = max(max_dev, dev)
            if dev > tol:
                violations.append({"lengths": list(point), "deviation": dev})
        elif property == "p_pe":
            bad = _ppe_clause_violation(prefs, point, extra)
            if bad is not None:
                violations.append({"lengths": list(point), "repadded": list(extra), "clause": bad})
        else:  # continuity
            dev, dist = _continuity_probe(prefs, point, extra)
            if dist > 0:
                max_dev = max(max_dev, dev)
                if dev > MAX_SCORE_SLOPE * dist + 1e-12:
                    violations.append({"point": _witness(point), "deviation": dev, "distance": dist})

    return ValidationReport(property, sample_count, violations, max_dev)


def require_axioms(prefs: PreferenceMatrix, properties: Sequence[str], sample_count: int, seed: int = 0):
    """Raise ``PreferenceValidationError`` naming the first axiom that
    ``validate`` finds violated, and its count.  Each property runs on its
    own stream seeded with ``seed``, in order; the axioms of a property
    such as ``covering+equivariance`` are named in its order too."""
    for prop in properties:
        violations = validate(prefs, prop, sample_count, seed).violations
        for axiom in prop.split("+"):
            count = len(violations) if axiom == prop else sum(v["axiom"] == axiom for v in violations)
            if count:
                raise PreferenceValidationError(
                    f"preferences fail {axiom}: {count} violations in {sample_count} samples"
                )


def _witness(point):
    return point.to_json() if isinstance(point, ConfigPoint) else list(point)


def _repad_zeros(rng, z):
    """Move the zero-length tiles to random slots, preserving the partition."""
    out = [v for v in z if v > DEGENERACY_TOL]
    for _ in range(len(z) - len(out)):
        out.insert(int(rng.integers(0, len(out) + 1)), 0.0)
    return tuple(out)


def _ppe_clause_violation(prefs, z, z_alt):
    """The first p_pe clause a player breaks between the two paddings, or
    None; every player's rows are read at both."""
    ess = [i for i, v in enumerate(z) if v > DEGENERACY_TOL]
    ess_alt = [i for i, v in enumerate(z_alt) if v > DEGENERACY_TOL]
    deg = [i for i, v in enumerate(z) if v <= DEGENERACY_TOL]
    deg_alt = [i for i, v in enumerate(z_alt) if v <= DEGENERACY_TOL]
    for s, s_alt in zip(_rows(prefs, _domain(prefs, z)), _rows(prefs, _domain(prefs, z_alt))):
        for a, b in zip(ess, ess_alt):
            if (s[a] > PREFERENCE_TOL) != (s_alt[b] > PREFERENCE_TOL):
                return 1
        likes_deg = any(s[d] > PREFERENCE_TOL for d in deg)
        likes_deg_alt = any(s_alt[d] > PREFERENCE_TOL for d in deg_alt)
        if deg and deg_alt:
            all_deg = all(s[d] > PREFERENCE_TOL for d in deg)
            all_deg_alt = all(s_alt[d] > PREFERENCE_TOL for d in deg_alt)
            if (likes_deg and not all_deg_alt) or (likes_deg_alt and not all_deg):
                return 2
    return None


def _continuity_probe(prefs, point, move):
    """The largest score change when the weights of a sampled point move by
    ``move`` (about 1e-6 each, NaN past the support), and the size of the move."""
    cells, weights = (None, point) if prefs.kind == OLD else point.support()
    w = np.array(weights)
    w_alt = np.clip(w + move[: len(w)], 0.0, None)
    w_alt /= w_alt.sum()
    if cells is None:
        moved = tuple(w_alt)
    else:
        moved = point_from_barycentric(point.variant, cells, tuple(float(v) for v in w_alt))
    dev = float(np.abs(score_matrix(prefs, moved) - score_matrix(prefs, point)).max())
    return dev, float(np.abs(w_alt - w).max())


# ---------------------------------------------------------------------------
# preference files


def load_preference_file(source, space: str | None = None, r: int | None = None) -> PreferenceMatrix:
    """Build an oracle from a JSON preference file (or an equivalent dict).

    Recognized keys: r, kind, model, params, seed, tables (for the custom
    piecewise model) and reduction/epsilon to lift an old-style oracle onto
    a configuration space ("psi" targets c1, "phi" targets c2).
    """
    if isinstance(source, (str, Path)):
        spec = json.loads(Path(source).read_text())
    else:
        spec = dict(source)

    file_r = spec.get("r")
    if file_r is None and r is None:
        raise ValueError("preference file must declare r (or pass --r)")
    if file_r is not None and r is not None and int(file_r) != int(r):
        raise ValueError(f"preference file has r={file_r}, command line says r={r}")
    r = int(file_r if file_r is not None else r)

    kind = spec.get("kind", OLD)
    model = spec.get("model")
    params = spec.get("params", {})
    seed = int(spec.get("seed", 0))
    variant = complexes.for_space(space, r) if (space and kind == NEW) else None

    if model == "piecewise":
        prefs = piecewise_from_tables(r, spec["tables"])
    elif model in BUILTIN_MODELS:
        prefs = make_builtin(model, r, kind=kind, params=params, seed=seed, variant=variant)
    else:
        raise ValueError(f"unknown model {model!r}")

    reduction = spec.get("reduction")
    if reduction is not None:
        from . import reductions  # deferred: reductions imports this module

        if reduction == "psi":
            if space is not None and space.lower() != "c1":
                raise ValueError("the psi reduction targets space c1")
            prefs = reductions.psi(prefs, spec.get("epsilon"))
        elif reduction == "phi":
            if space is not None and space.lower() != "c2":
                raise ValueError("the phi reduction targets space c2")
            prefs = reductions.phi(prefs)
        else:
            raise ValueError(f"unknown reduction {reduction!r}")
    return prefs
