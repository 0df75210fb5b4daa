"""A corner's maximal rectangle by merging the drawn edges on each line, the
reference for ``rectangles.corner_points``, which takes the hull of the
boxes sharing the corner.

``merged_corner_points`` files every drawn edge by the line it lies on,
merges each line's intervals and walks the merged chain through each
corner, the general way, with no assumption on how the boxes sit.

    PYTHONPATH=src python -O tests/rectangle_oracles.py

compares the two on every partial quiver at ranks 2 to 13 and exits
non-zero on a mismatch; the check does not rely on ``assert``, so ``-O``
keeps it.
"""

import sys

from wordcones.polyhedra import InvariantError
from wordcones.quivers import enumerate_partial_quivers
from wordcones.rectangles import (CornerPoint, configuration_for_quiver,
                                  corner_points)


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


def mismatches(rank):
    """Texts of the rank's quivers whose corners differ from the oracle's."""
    out = []
    for quiver in enumerate_partial_quivers(rank):
        config = configuration_for_quiver(quiver)
        if corner_points(config) != merged_corner_points(config):
            out.append(quiver.text)
    return out


if __name__ == "__main__":
    bad = {rank: m for rank in range(2, 14) if (m := mismatches(rank))}
    sys.exit(None if not bad
             else f"corners differ from the interval merge: {bad}")
