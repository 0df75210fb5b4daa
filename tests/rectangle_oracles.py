"""References for ``rectangles``, each computed the general way, with no
assumption on how the boxes sit.

``merged_corner_points`` files every drawn edge by the line it lies on,
merges each line's intervals and walks the merged chain through each
corner; ``rectangles.corner_points`` takes the hull of the boxes sharing
the corner.  ``grid_diagonal_counts`` marks each (u-band, w-band) cell
inside some box and counts cells per band; ``rectangles.diagonal_counts``
counts the boxes spanning each band.  ``parity_centre`` searches the
diagonal counts for their odd/even split, the definition of the centre;
``rectangles.centre_and_central_line`` reads it off the nested chain.
``corner_off_side`` tests that each left corner has u <= u0 and w <= w0,
not both equalities, and each right corner the mirror, which
``rectangles.corner_root_sets`` relies on.

    PYTHONPATH=src python -O tests/rectangle_oracles.py

runs the four checks on every partial quiver at ranks 2 to 13 and exits
non-zero on a failure; the check does not rely on ``assert``, so ``-O``
keeps it.
"""

import sys
from fractions import Fraction

from wordcones.polyhedra import InvariantError
from wordcones.quivers import enumerate_partial_quivers
from wordcones.rectangles import (CornerPoint, centre_and_central_line,
                                  configuration_for_quiver, corner_points,
                                  diagonal_counts)


def _merge_intervals(intervals):
    merged = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged]


def merged_corner_points(config):
    """Deduplicated left/right corners with their maximal rectangles.

    The maximal rectangle of a corner V extends V's two edges along
    contiguous chains of drawn rectangle edges as far as possible, away from
    V; it may stick out of the drawn union.
    """
    v_lines = {}
    h_lines = {}
    for p in config.placed:
        v_lines.setdefault(p.u_lo, []).append((p.w_lo, p.w_hi))
        v_lines.setdefault(p.u_hi, []).append((p.w_lo, p.w_hi))
        h_lines.setdefault(p.w_lo, []).append((p.u_lo, p.u_hi))
        h_lines.setdefault(p.w_hi, []).append((p.u_lo, p.u_hi))
    v_merged = {u: _merge_intervals(iv) for u, iv in v_lines.items()}
    h_merged = {w: _merge_intervals(iv) for w, iv in h_lines.items()}

    def span(merged, value):
        for lo, hi in merged:
            if lo <= value <= hi:
                return lo, hi
        raise InvariantError("corner not on any drawn segment")

    out = []
    seen = set()
    for p in config.placed:
        for side in ("left", "right"):
            u, w = (p.u_lo, p.w_lo) if side == "left" else (p.u_hi, p.w_hi)
            if (u, w, side) in seen:
                continue
            seen.add((u, w, side))
            ulo, uhi = span(h_merged[w], u)
            wlo, whi = span(v_merged[u], w)
            if side == "left":
                box = (u, uhi, w, whi)
            else:
                box = (ulo, u, wlo, w)
            out.append(CornerPoint(u, w, side, box))
    return sorted(out, key=lambda c: (c.u, c.w, c.side))


def band_cuts(config):
    """The sorted u and w values of the box sides."""
    return (sorted({v for p in config.placed for v in (p.u_lo, p.u_hi)}),
            sorted({v for p in config.placed for v in (p.w_lo, p.w_hi)}))


def grid_diagonal_counts(config):
    """Cells per u-band and per w-band, a cell being a (u-band, w-band)
    pair inside some box."""
    u_cuts, w_cuts = band_cuts(config)
    nu, nw = len(u_cuts) - 1, len(w_cuts) - 1
    cells = {(ui, wi) for ui in range(nu) for wi in range(nw)
             if any(p.u_lo <= u_cuts[ui] and u_cuts[ui + 1] <= p.u_hi
                    and p.w_lo <= w_cuts[wi] and w_cuts[wi + 1] <= p.w_hi
                    for p in config.placed)}
    return (tuple(sum(1 for wi in range(nw) if (ui, wi) in cells)
                  for ui in range(nu)),
            tuple(sum(1 for ui in range(nu) if (ui, wi) in cells)
                  for wi in range(nw)))


def parity_boundary(counts):
    """Index b splitting counts into an odd block and an even block.

    Returns None for a single band (degenerate case).  At most one such b
    exists; its absence for a multi-band list raises ValueError.
    """
    if len(counts) == 1:
        return None
    for b in range(1, len(counts)):
        left = {c % 2 for c in counts[:b]}
        right = {c % 2 for c in counts[b:]}
        if len(left) == 1 and len(right) == 1 and left != right:
            return b
    raise ValueError(f"diagonal counts {tuple(counts)} admit no "
                     "odd/even boundary")


def parity_centre(config):
    """The centre (u0, w0) and the central line's x, as the cuts between
    the odd and even diagonal blocks; a single-band direction (lone
    rectangle) falls back to the band midpoint."""
    def cut(counts, cuts):
        b = parity_boundary(counts)
        return Fraction(cuts[0] + cuts[-1], 2) if b is None else Fraction(cuts[b])
    u_counts, w_counts = diagonal_counts(config)
    u_cuts, w_cuts = band_cuts(config)
    u0, w0 = cut(u_counts, u_cuts), cut(w_counts, w_cuts)
    return (u0, w0), (u0 + w0) / 2


def corners_differ(config):
    return corner_points(config) != merged_corner_points(config)


def counts_differ(config):
    return diagonal_counts(config) != grid_diagonal_counts(config)


def centres_differ(config):
    return centre_and_central_line(config) != parity_centre(config)


def corner_off_side(config):
    """Whether a corner sits off its side of the centre (u0, w0)."""
    (u0, w0), _ = centre_and_central_line(config)
    for c in corner_points(config):
        near, far = ((c.u, c.w), (u0, w0)) if c.side == "left" else ((u0, w0), (c.u, c.w))
        if not (near[0] <= far[0] and near[1] <= far[1] and near != far):
            return True
    return False


CHECKS = (corners_differ, counts_differ, centres_differ, corner_off_side)


def mismatches(rank, checks=CHECKS):
    """(check, quiver text) for each check a quiver of the rank fails."""
    out = []
    for quiver in enumerate_partial_quivers(rank):
        config = configuration_for_quiver(quiver)
        out += [(check.__name__, quiver.text) for check in checks if check(config)]
    return out


if __name__ == "__main__":
    bad = [m for rank in range(2, 14) for m in mismatches(rank)]
    sys.exit(None if not bad else f"{len(bad)} failures: {bad[:20]}")
