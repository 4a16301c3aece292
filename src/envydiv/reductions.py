"""Lift tile-level preferences onto the configuration spaces.

``psi`` turns an old-style oracle into a box oracle on the shared-last-tile
space (c1): a box inherits the best score of the tiles it holds, and empty
boxes inherit the common degenerate-tile score whenever degenerate tiles
exist.  It requires a source that never prefers a short-but-positive last
tile; that margin is what keeps the lifted scores consistent as the last
tile shrinks to a point.

``phi`` turns a partition-equivalence oracle into a box oracle on the
one-tile-per-box space (c2): the doubled cut is first reduced back to r
tiles by deleting superfluous cut-points, each box is scored by its tile's
score in the reduced cut, and empty boxes split the degenerate score.  The
cut is reduced along two deletion orders.  Where they give different
reduced cuts, a query scores both and reports any disagreement as a
partition-equivalence violation of the source; where they give the same
one, it is scored once: a pure source (as ``preferences`` requires) cannot
disagree with itself there, and an impure one is not caught there.

Both lifts are ``preferences.BoxOracle``s, so box-label blind by
construction, and build the r players' scorers at a cut in one pass: psi
reads its source's rows once per cut, phi reduces the cut once and reads
the source's rows once per reduction.

Where checks run: each lift passes its source through the sampled gate of
``preferences``, ``require_axioms``, once, when it is built: psi checks
covering and p_dte on ``PSI_CHECK_SAMPLES`` samples, phi covering and
p_pe on ``PHI_CHECK_SAMPLES``.  Queries of a lifted oracle check only the
box and tile counts of the point, and that a box holds at most two tiles
(psi) or one (phi); the source's rows at the cut's own lengths (psi) or
at the reduced lengths (phi), r tiles by construction, then go through
``preferences``' ``_accepting_rows``, which rejects negative and
non-finite scores, rows of the wrong length, and a player who accepts
nothing there.  A reduced cut keeps a subsequence of the checked cut's
points, so ``eliminate_superfluous`` builds it without the ``Cut`` checks.
"""

from __future__ import annotations

import numpy as np

from .complexes import chessboard, gorbushka_join
from .configspace import (
    DEGENERACY_TOL,
    Cut,
    _known_points,
    degenerate_and_essential,
)
from .preferences import (
    NEW,
    OLD,
    PREFERENCE_TOL,
    BoxOracle,
    PreferenceMatrix,
    PreferenceValidationError,
    _accepting_rows,
    _rows,
    require_axioms,
    sample_lengths,
)


#: seeded samples psi and phi check their source on
PSI_CHECK_SAMPLES = 200
PHI_CHECK_SAMPLES = 120


class InadmissibleCutError(ValueError):
    """The cut has too few degenerate tiles to be reduced."""


def eliminate_superfluous(cut: Cut, keep: str = "left") -> Cut:
    """Reduce a 2r-2 point cut to r-1 points with the same essential tiles.

    Deletion is deterministic: duplicate cut-points lose all but their
    ``keep`` ("left" or "right") representative, and leftover quota falls on
    cut-points pinned to the interval ends, which only ever bound degenerate
    tiles.  The output is always partition-equivalent to the input.
    """
    if keep not in ("left", "right"):
        raise ValueError("keep must be 'left' or 'right'")
    points = cut.points
    if len(points) < 2 or len(points) % 2:
        raise ValueError(f"expected 2r-2 cut-points, got {len(points)}")
    quota = len(points) // 2

    at_zero = points[0] <= DEGENERACY_TOL
    at_one = points[-1] >= 1.0 - DEGENERACY_TOL
    # "right" is "left" read from 1 down to 0
    if keep == "left":
        order, start_pinned, end_pinned = range(len(points)), at_zero, at_one
    else:
        order, start_pinned, end_pinned = range(len(points) - 1, -1, -1), at_one, at_zero

    # maximal runs of (tolerance-)equal values, in reading order
    blocks: list[list[int]] = [[order[0]]]
    for prev, i in zip(order, order[1:]):
        if abs(points[i] - points[prev]) <= DEGENERACY_TOL:
            blocks[-1].append(i)
        else:
            blocks.append([i])

    # every point of a block but the first read; then the first point read
    # of the first and of the last block, where pinned to its interval end
    candidates = [i for block in blocks for i in block[1:]]
    if start_pinned:
        candidates.append(blocks[0][0])
    if end_pinned:
        candidates.append(blocks[-1][0])

    if len(candidates) < quota:
        raise InadmissibleCutError(
            f"cut needs at least {quota} degenerate tiles to reduce, found {len(candidates)}"
        )
    drop = set(candidates[:quota])
    # a subsequence of a checked cut's points needs no checks
    return _known_points(tuple(p for i, p in enumerate(points) if i not in drop))


def psi(old_prefs: PreferenceMatrix, epsilon: float | None = None) -> PreferenceMatrix:
    """Lift an old-style oracle to boxes on the shared-last-tile space (c1).

    Box rules, given the source scores at the point's cut: every empty box
    gets the degenerate-tile score whenever degenerate tiles exist; a box
    with one tile gets that tile's score; a box holding the last tile and
    another tile gets the larger of the two scores.  A box holding the last
    tile alone additionally inherits the degenerate score when degenerate
    tiles exist.  Rows are then normalized to sum 1.

    ``epsilon`` is the length below which the source must give the last
    tile a zero score.  ``PSI_CHECK_SAMPLES`` seeded samples check this and
    the source's covering and p_dte; a breach raises.
    """
    if old_prefs.kind != OLD:
        raise ValueError("psi expects an old-style oracle")
    r = old_prefs.r
    if epsilon is None:
        if old_prefs.model == "hungry":
            epsilon = float(old_prefs.params.get("margin", 1e-3))
        else:
            raise ValueError("psi needs an explicit epsilon for this model")
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")

    require_axioms(old_prefs, ("covering", "p_dte"), PSI_CHECK_SAMPLES)
    _check_short_last_tile(old_prefs, epsilon)

    def scorer(s, deg_score):
        def score(tiles, empty_boxes):
            if len(tiles) > 2 or (len(tiles) == 2 and tiles[1] != r):
                raise ValueError(f"a c1 box holds one tile, or the last and one other, not {tiles}")
            if not tiles:
                # every empty box carries the full degenerate score; the row
                # normalization spreads the mass, and the value of a box that
                # empties out stays continuous in the empty-box count
                return deg_score
            # with no degenerate tile, max(s, 0.0) is the last tile's own score s >= 0
            return max(s[r - 1], deg_score) if tiles == (r,) else max(s[t - 1] for t in tiles)

        return score

    def scorers(cut):
        if cut.tile_count != r:
            raise ValueError(f"expected a point with {r} tiles")
        z = cut.lengths
        first_deg = next((label for label, v in enumerate(z, start=1) if v <= DEGENERACY_TOL), None)
        return [scorer(s, 0.0 if first_deg is None else s[first_deg - 1]) for s in _accepting_rows(old_prefs, z)]

    return PreferenceMatrix(
        r=r,
        kind=NEW,
        model=f"psi({old_prefs.model})",
        raw=BoxOracle(scorers, r),
        variant=gorbushka_join(r),
        params={"epsilon": epsilon},
    )


def _check_short_last_tile(old_prefs, epsilon):
    """Sample last-tile lengths in (0, epsilon), the rest by ``sample_lengths``,
    and demand a zero score: psi's sampled check besides ``require_axioms``."""
    r = old_prefs.r
    rng = np.random.default_rng(0)
    lows = max(10 * DEGENERACY_TOL, epsilon * 1e-3)
    for i in range(PSI_CHECK_SAMPLES):
        t = float(lows + (epsilon - lows) * (i + 0.5) / PSI_CHECK_SAMPLES)
        z = tuple(v * (1.0 - t) for v in sample_lengths(rng, r - 1)) + (t,)
        if any(row[r - 1] > PREFERENCE_TOL for row in _rows(old_prefs, z)):
            raise PreferenceValidationError(
                f"source prefers the last tile at length {t:.3g} < epsilon={epsilon:.3g}"
            )


def _reductions(cut: Cut, keep: str) -> tuple:
    """The reduction along ``keep``, and the one along the other order where
    it differs (None where it is the same).  A reduction is the reduced
    lengths, the reduced label of each essential tile by its full label,
    and the first degenerate reduced label."""
    _, ess_full = degenerate_and_essential(cut)
    found = []
    for which in (keep, "right" if keep == "left" else "left"):
        reduced = eliminate_superfluous(cut, keep=which)
        deg_reduced, ess_reduced = degenerate_and_essential(reduced)
        labels = {full: ess_reduced[k][1] for k, (_, full) in enumerate(ess_full)}
        found.append((reduced.lengths, labels, min(deg_reduced, default=None)))
    primary, mirror = found
    return primary, (None if mirror == primary else mirror)


def phi(old_prefs: PreferenceMatrix, keep: str = "left") -> PreferenceMatrix:
    """Lift a partition-equivalence oracle to boxes on the c2 space.

    The doubled cut is reduced with the requested deletion order and with
    the mirrored one, once per cut for all players; where the two
    reductions differ, box scores that disagree beyond ``PREFERENCE_TOL``
    mean the source is not partition-equivalent and raise an error.

    ``PHI_CHECK_SAMPLES`` seeded samples check the source's covering and
    p_pe first; a breach raises.
    """
    if old_prefs.kind != OLD:
        raise ValueError("phi expects an old-style oracle")
    r = old_prefs.r
    require_axioms(old_prefs, ("covering", "p_pe"), PHI_CHECK_SAMPLES)

    def scorer(s, labels, deg_score):
        def score(tiles, empty_boxes):
            if len(tiles) > 1:
                raise ValueError(f"a c2 box holds one tile, not {tiles}")
            if tiles:
                return s[labels[tiles[0]] - 1]
            return deg_score / empty_boxes if deg_score > PREFERENCE_TOL else 0.0

        return score

    def reduced_scorers(reduction):
        lengths, labels, first = reduction
        return [scorer(s, labels, 0.0 if first is None else s[first - 1]) for s in _accepting_rows(old_prefs, lengths)]

    def agreeing(primary, mirror):
        """A scorer that raises where the two reductions' scorers disagree."""

        def score(tiles, empty_boxes):
            value = primary(tiles, empty_boxes)
            drift = abs(value - mirror(tiles, empty_boxes))
            if drift > PREFERENCE_TOL:
                raise PreferenceValidationError(
                    f"superfluous-cut eliminations disagree by {drift:.3g}; source is not partition-equivalent"
                )
            return value

        return score

    def scorers(cut):
        if cut.tile_count != 2 * r - 1:
            raise ValueError(f"expected a point with {2 * r - 1} tiles")
        reduction, mirror_reduction = _reductions(cut, keep)
        primary = reduced_scorers(reduction)
        if mirror_reduction is None:  # a pure source scores it the same
            return primary
        return list(map(agreeing, primary, reduced_scorers(mirror_reduction)))

    return PreferenceMatrix(
        r=r,
        kind=NEW,
        model=f"phi({old_prefs.model})",
        raw=BoxOracle(scorers, r),
        variant=chessboard(r, 2 * r - 1),
        params={"keep": keep},
    )
