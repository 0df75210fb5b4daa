"""Wiring diagrams of reduced words and their bounded-chamber sets.

Strings are numbered 1..n+1 top to bottom on the left edge; "below" means a
larger position index.  A crossing with letter g swaps the strings at
positions g and g+1.  The chamber set of the bounded chamber at gap g between
two consecutive letter-g crossings is the set of string labels strictly below
the gap during that interval (it cannot change there: only letter-g crossings
move labels across the gap).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, NamedTuple

from .polyhedra import InvariantError
from .words import ReducedWord, format_letters, wiring


class ChamberSet(NamedTuple):
    """Labels below gap ``gap`` between two consecutive occurrences of it.

    ``interval`` is the 1-based ordinal of the chamber among those at the same
    gap; ``start``/``end`` are the word positions (1-based) of the bracketing
    crossings.
    """

    gap: int
    interval: int
    members: frozenset[int]
    start: int
    end: int


def chamber_sets(word: ReducedWord) -> list[ChamberSet]:
    """The n(n-1)/2 bounded-chamber sets of a reduced word's wiring diagram."""
    return list(_chambers(word))


def _chambers(word: ReducedWord) -> Iterator[ChamberSet]:
    """The ChamberSet of each bounded chamber by end, in one pass.  The labels
    below the gap, kept after crossing x, are checked again before z (0-based);
    as distinct labels of 1..n+1, they are an initial (terminal) segment iff
    max (min) is their count (n + 2 - count).  Counted when done."""
    n, w = word.rank, word.letters
    order, made = list(range(1, n + 2)), 0
    last, below, seen = [0] * (n + 1), [None] * (n + 1), [0] * (n + 1)
    for z, g in enumerate(w):
        if seen[g]:
            members = frozenset(below[g])
            if not members.issuperset(order[g:]):
                raise InvariantError("below-set drifted between crossings")
            if max(members) == len(members):
                raise InvariantError(
                    f"chamber set {sorted(members)} is an initial segment")
            if min(members) == n + 2 - len(members):
                raise InvariantError(
                    f"chamber set {sorted(members)} is a terminal segment")
            made += 1
            yield ChamberSet(g, seen[g], members, last[g] + 1, z + 1)
        order[g - 1], order[g] = order[g], order[g - 1]
        last[g], below[g], seen[g] = z, order[g:], seen[g] + 1
    if made != n * (n - 1) // 2:
        raise InvariantError(f"{made} chamber sets at rank {n}")


def members_str(members: frozenset[int], rank: int) -> str:
    return format_letters(tuple(sorted(members)), rank + 1)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render_wiring(word: ReducedWord, fmt: str = "ascii") -> str:
    if fmt == "ascii":
        return _render_ascii(word)
    if fmt == "svg":
        return _render_svg(word)
    raise ValueError(f"unknown format {fmt!r} (want 'ascii' or 'svg')")


def _render_ascii(word: ReducedWord) -> str:
    n, k = word.rank, len(word.letters)
    width = 4 * k + 4
    grid = [[" "] * width for _ in range(2 * n + 1)]
    for p in range(n + 1):
        grid[2 * p][0] = str(p + 1) if n + 1 <= 9 else "*"
        for c in range(2, width):
            grid[2 * p][c] = "-"
    for t, g in enumerate(word.letters):
        c0 = 4 * t + 4
        r = 2 * (g - 1)
        grid[r][c0] = "\\"
        grid[r][c0 + 1] = " "
        grid[r + 1][c0] = " "
        grid[r + 1][c0 + 1] = "X"
        grid[r + 2][c0] = "/"
        grid[r + 2][c0 + 1] = " "
        grid[r][c0 - 1] = grid[r + 2][c0 - 1] = "."
        grid[r][c0 + 2] = grid[r + 2][c0 + 2] = "."
    for cs in chamber_sets(word):
        label = members_str(cs.members, word.rank)
        mid = 4 * ((cs.start + cs.end) // 2)
        col = max(3, mid - len(label) // 2)
        row = 2 * cs.gap - 1
        for i, ch in enumerate(label):
            if col + i < width:
                grid[row][col + i] = ch
    return "\n".join("".join(row).rstrip() for row in grid) + "\n"


def _render_svg(word: ReducedWord) -> str:
    n, k = word.rank, len(word.letters)
    orders = wiring(word.letters, n)
    xstep, ystep, pad = 40, 30, 20
    width = pad * 2 + xstep * (k + 1)
    height = pad * 2 + ystep * (n + 1)

    def xy(t: int, pos: int) -> tuple[int, int]:
        return pad + xstep * t, pad + ystep * (pos - 1) + ystep // 2

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        '<style>text{font-family:monospace;font-size:12px}'
        'polyline{fill:none;stroke:#000;stroke-width:1.5}</style>',
    ]
    for label in range(1, n + 2):
        pts = []
        for t, order in enumerate(orders):
            x, y = xy(t, order.index(label) + 1)
            if t and y != yprev:
                pts.append(f"{x - xstep // 4 * 3},{yprev}")
                pts.append(f"{x - xstep // 4},{y}")
            pts.append(f"{x},{y}")
            yprev = y
        x0, y0 = xy(0, label)
        parts.append(f'<text x="{x0 - 14}" y="{y0 + 4}">{label}</text>')
        parts.append(f'<polyline points="{" ".join(pts)}"/>')
    for cs in chamber_sets(word):
        label = members_str(cs.members, word.rank)
        x = pad + xstep * Fraction(cs.start + cs.end, 2)
        y = pad + ystep * cs.gap
        parts.append(
            f'<text x="{_fmt(x)}" y="{y + 4}" text-anchor="middle" '
            f'fill="#b00">{label}</text>')
    for t, g in enumerate(word.letters, start=1):
        x, _ = xy(t, 1)
        parts.append(
            f'<text x="{x - xstep // 2}" y="{height - 4}" '
            f'text-anchor="middle">{g}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _fmt(value) -> str:
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return str(f.numerator / f.denominator)
