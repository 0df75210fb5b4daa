"""Rectangle configurations attached to partial quivers.

Rectangles have sides of slope +-1 in the (x, level) plane, with levels
growing downwards; corners sit on levels i (top) < j (left), k (right) <
l (bottom) with i + l = j + k.  In the rotated frame

    u = x - level,   w = x + level

each rectangle becomes the axis-aligned box [u-, u+] x [w-, w+] with
u+ - u- = 2(j - i) and w+ - w- = 2(l - j), and all corner coordinates stay
integers (the first rectangle's left corner is pinned to x = 0).  The
original coordinates are recovered by x = (u + w) / 2, level = (w - u) / 2.

Integer root columns sit at half-integer x offsets from the left corner;
to stay in integer arithmetic they are handled as doubled x throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Optional, Sequence

from .chambers import _fmt
from .polyhedra import InvariantError
from .quivers import PartialQuiver
from .words import Root, ReducedWord, positive_root_order, standard_words


class AmbiguousCentreError(ValueError):
    """No odd/even boundary in a multi-band diagonal count list."""


@dataclass(frozen=True)
class Component:
    """Maximal run of equal arrows; a/b are the edge numbers just outside it.

    a = edge following the rightmost arrow, b = edge preceding the leftmost.
    """

    kind: str
    a: int
    b: int

    def __post_init__(self):
        if self.kind not in ("L", "R"):
            raise ValueError(f"component kind {self.kind!r}")
        if not self.a < self.b:
            raise ValueError(f"component needs a < b, got a={self.a}, b={self.b}")


def components(quiver: PartialQuiver) -> list[Component]:
    """Components left to right (decreasing edge numbers), alternating kinds."""
    runs: list[tuple[str, list[int]]] = []
    for edge in quiver.labelled_edges():
        kind = quiver.label(edge)
        if runs and runs[-1][0] == kind:
            runs[-1][1].append(edge)
        else:
            runs.append((kind, [edge]))
    out = [Component(kind, a=edges[-1] - 1, b=edges[0] + 1) for kind, edges in runs]
    for left, right in zip(out, out[1:]):
        if left.kind == right.kind:
            raise InvariantError("components must alternate")
        if left.a != right.b - 1:
            raise InvariantError("adjacent components must interlock")
    return out


@dataclass(frozen=True)
class Rectangle:
    """Corner levels (top, left, right, bottom) with top + bottom = left + right."""

    top: int
    left: int
    right: int
    bottom: int

    def __post_init__(self):
        i, j, k, l = self.top, self.left, self.right, self.bottom
        if not (i < j < l and i < k < l and i + l == j + k):
            raise ValueError(f"({i},{j},{k},{l}) is not a valid rectangle")

    @property
    def u_width(self) -> int:
        return 2 * (self.left - self.top)

    @property
    def w_width(self) -> int:
        return 2 * (self.bottom - self.left)


def rectangle_for_component(comp: Component, rank: int) -> Rectangle:
    a, b = comp.a, comp.b
    if not 1 <= a < b <= rank + 1:
        raise ValueError(f"component bounds ({a},{b}) out of range for rank {rank}")
    if comp.kind == "L":
        return Rectangle(0, a, rank + 2 - b, rank + a - b + 2)
    return Rectangle(b - a - 1, b - 1, rank + 1 - a, rank + 1)


@dataclass(frozen=True)
class PlacedRectangle:
    """A rectangle anchored by its left corner (u-, w-) in the rotated frame."""

    rect: Rectangle
    u_lo: int
    w_lo: int

    @property
    def u_hi(self) -> int:
        return self.u_lo + self.rect.u_width

    @property
    def w_hi(self) -> int:
        return self.w_lo + self.rect.w_width

    @property
    def left_corner(self) -> tuple[int, int]:
        return (self.u_lo, self.w_lo)

    @property
    def right_corner(self) -> tuple[int, int]:
        return (self.u_hi, self.w_hi)


@dataclass(frozen=True)
class CornerPoint:
    """A left or right corner with its maximal rectangle (u/w box)."""

    u: int
    w: int
    side: str  # "left" | "right"
    box: tuple[int, int, int, int]  # (u_lo, u_hi, w_lo, w_hi)

    @property
    def doubled_x(self) -> int:
        return self.u + self.w


@dataclass(frozen=True)
class Configuration:
    """Placed rectangles of one quiver plus derived cell geometry."""

    rank: int
    placed: tuple[PlacedRectangle, ...]
    u_cuts: tuple[int, ...]
    w_cuts: tuple[int, ...]
    cells: frozenset[tuple[int, int]]  # (u-band index, w-band index)


def _configuration_from_placed(rank: int, placed: Sequence[PlacedRectangle]
                               ) -> Configuration:
    u_cuts = sorted({v for p in placed for v in (p.u_lo, p.u_hi)})
    w_cuts = sorted({v for p in placed for v in (p.w_lo, p.w_hi)})
    cells = set()
    for ui in range(len(u_cuts) - 1):
        for wi in range(len(w_cuts) - 1):
            if any(p.u_lo <= u_cuts[ui] and u_cuts[ui + 1] <= p.u_hi
                   and p.w_lo <= w_cuts[wi] and w_cuts[wi + 1] <= p.w_hi
                   for p in placed):
                cells.add((ui, wi))
    return Configuration(rank, tuple(placed), tuple(u_cuts), tuple(w_cuts),
                         frozenset(cells))


def place_configuration(comps: Sequence[Component], rank: int) -> Configuration:
    """Fit the component rectangles together; L-then-R pairs share left
    corners, R-then-L pairs share right corners (levels agree because
    a(left) = b(right) - 1)."""
    if not comps:
        raise ValueError("no components to place")
    placed: list[PlacedRectangle] = []
    first = rectangle_for_component(comps[0], rank)
    placed.append(PlacedRectangle(first, u_lo=-first.left, w_lo=first.left))
    for prev_comp, comp in zip(comps, comps[1:]):
        rect = rectangle_for_component(comp, rank)
        prev = placed[-1]
        if prev_comp.kind == "L":
            if prev.rect.left != rect.left:
                raise ValueError("shared left corners disagree in level")
            placed.append(PlacedRectangle(rect, prev.u_lo, prev.w_lo))
        else:
            if prev.rect.right != rect.right:
                raise ValueError("shared right corners disagree in level")
            placed.append(PlacedRectangle(rect, prev.u_hi - rect.u_width,
                                          prev.w_hi - rect.w_width))
    return _configuration_from_placed(rank, placed)


def configuration_for_quiver(quiver: PartialQuiver) -> Configuration:
    return place_configuration(components(quiver), quiver.rank)


def diagonal_counts(config: Configuration) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Cells per u-band and per w-band, in increasing coordinate order.

    A u-band is one north-west/south-east diagonal of the unrotated picture,
    a w-band one north-east/south-west diagonal.
    """
    nu, nw = len(config.u_cuts) - 1, len(config.w_cuts) - 1
    u_counts = tuple(sum(1 for wi in range(nw) if (ui, wi) in config.cells)
                     for ui in range(nu))
    w_counts = tuple(sum(1 for ui in range(nu) if (ui, wi) in config.cells)
                     for wi in range(nw))
    if not all(c > 0 for c in u_counts + w_counts):
        raise InvariantError("a band of the configuration has no cell")
    return u_counts, w_counts


def parity_boundary(counts: Sequence[int]) -> Optional[int]:
    """Index b splitting counts into an odd block and an even block.

    Returns None for a single band (degenerate case).  At most one such b
    exists; its absence for a multi-band list is an error.
    """
    if len(counts) == 1:
        return None
    for b in range(1, len(counts)):
        left = {c % 2 for c in counts[:b]}
        right = {c % 2 for c in counts[b:]}
        if len(left) == 1 and len(right) == 1 and left != right:
            return b
    raise AmbiguousCentreError(f"diagonal counts {tuple(counts)} admit no "
                               "odd/even boundary")


def centre_and_central_line(config: Configuration) -> tuple[tuple[Fraction, Fraction], Fraction]:
    """The centre (u0, w0) and the x-coordinate of the vertical central line.

    u0/w0 are the cut lines between the odd and even diagonal blocks; a
    single-band direction (lone rectangle) falls back to the band midpoint.
    """
    u_counts, w_counts = diagonal_counts(config)
    bu = parity_boundary(u_counts)
    bw = parity_boundary(w_counts)
    if bu is None:
        u0 = Fraction(config.u_cuts[0] + config.u_cuts[-1], 2)
    else:
        u0 = Fraction(config.u_cuts[bu])
    if bw is None:
        w0 = Fraction(config.w_cuts[0] + config.w_cuts[-1], 2)
    else:
        w0 = Fraction(config.w_cuts[bw])
    return (u0, w0), (u0 + w0) / 2


def _merge_intervals(intervals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    merged: list[list[int]] = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged]


def corner_points(config: Configuration) -> list[CornerPoint]:
    """Deduplicated left/right corners with their maximal rectangles.

    The maximal rectangle of a corner V extends V's two edges along
    contiguous chains of drawn rectangle edges as far as possible, away from
    V; it may stick out of the drawn union.
    """
    v_lines: dict[int, list[tuple[int, int]]] = {}
    h_lines: dict[int, list[tuple[int, int]]] = {}
    for p in config.placed:
        v_lines.setdefault(p.u_lo, []).append((p.w_lo, p.w_hi))
        v_lines.setdefault(p.u_hi, []).append((p.w_lo, p.w_hi))
        h_lines.setdefault(p.w_lo, []).append((p.u_lo, p.u_hi))
        h_lines.setdefault(p.w_hi, []).append((p.u_lo, p.u_hi))
    v_merged = {u: _merge_intervals(iv) for u, iv in v_lines.items()}
    h_merged = {w: _merge_intervals(iv) for w, iv in h_lines.items()}

    def span(merged: list[tuple[int, int]], value: int) -> tuple[int, int]:
        for lo, hi in merged:
            if lo <= value <= hi:
                return lo, hi
        raise InvariantError("corner not on any drawn segment")

    out: list[CornerPoint] = []
    seen: set[tuple[int, int, str]] = set()
    for p in config.placed:
        for side in ("left", "right"):
            u, w = p.left_corner if side == "left" else p.right_corner
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


def roots_of_box(box: tuple[int, int, int, int]) -> list[tuple[int, Root]]:
    """(doubled x, root) for the alternate integer columns of a u/w box.

    Column d (1-based from the left corner) spans the levels strictly between
    the box edges; the first column holds the single level j (the left-corner
    level) and columns with d = j (mod 2) are the ones carrying roots.
    """
    u_lo, u_hi, w_lo, w_hi = box
    i = (w_lo - u_hi) // 2
    j = (w_lo - u_lo) // 2
    l = (w_hi - u_lo) // 2
    x2_left = u_lo + w_lo
    out = []
    for d in range(1, l - i + 1):
        if (d - j) % 2 != 0:
            continue
        p = i + (abs(2 * d - 1 - 2 * (j - i)) + 1) // 2
        q = l - (abs(2 * d - 1 - 2 * (l - j)) + 1) // 2
        if p > q:
            raise InvariantError(f"empty range {p}..{q}")
        out.append((x2_left + 2 * d - 1, (p, q)))
    return out


def corner_root_sets(quiver: PartialQuiver
                     ) -> list[tuple[CornerPoint, tuple[Root, ...]]]:
    """For each corner point V: the roots of its maximal rectangle strictly
    on V's side of the central line.

    Columns exactly on the line are excluded, with one exception: a lone
    rectangle with an odd column count puts its middle column on the midpoint
    centre, and that column still belongs to the quiver's root set (dropping
    it would make the spanned cone degenerate); it is assigned to the left
    corner.  Columns compare, at 2 doubled_x, with 4 line_x = 2(u0 + w0) in Z.
    """
    config = configuration_for_quiver(quiver)
    _, line_x = centre_and_central_line(config)
    if (4 * line_x).denominator != 1:
        raise InvariantError(f"central line at x = {line_x} is not in Z/4")
    line_4x = int(4 * line_x)
    lone_rectangle = len(config.placed) == 1
    out = []
    for corner in corner_points(config):
        cx4 = 2 * corner.doubled_x
        if cx4 == line_4x:
            out.append((corner, ()))
            continue
        keep = tuple(
            root for x2, root in roots_of_box(corner.box)
            if (2 * x2 != line_4x and (2 * x2 < line_4x) == (cx4 < line_4x))
            or (2 * x2 == line_4x and lone_rectangle and corner.side == "left"))
        out.append((corner, keep))
    return out


def phi_plus(quiver: PartialQuiver) -> frozenset[Root]:
    """Union of the corner root sets; asserted disjoint across corners."""
    rank = quiver.rank
    union: set[Root] = set()
    total = 0
    for _, roots in corner_root_sets(quiver):
        for r in roots:
            if not (1 <= r[0] <= r[1] <= rank):
                raise InvariantError(f"root {r} escapes rank {rank}")
        union.update(roots)
        total += len(roots)
    if total != len(union):
        raise InvariantError(
            f"corner root sets of {quiver} overlap ({total} roots, "
            f"{len(union)} distinct)")
    return frozenset(union)


@cache
def _standard_root_order(rank: int) -> tuple[Root, ...]:
    return positive_root_order(standard_words(rank)[0])  # fixed by the rank


@cache
def quiver_vector(quiver: PartialQuiver) -> tuple[int, ...]:
    """0/1 vector marking the roots of the quiver in the standard-word order.

    Memoised per process, so a quiver's rectangles are placed at most once
    and only for the quivers asked about (rank 5 has 52).  A call that
    raises caches nothing.
    """
    roots = phi_plus(quiver)
    return tuple(1 if r in roots else 0 for r in _standard_root_order(quiver.rank))


def generator_vector(gen: int, rank: int) -> tuple[int, ...]:
    """0/1 vector marking the positions of one letter in the standard word."""
    if not 1 <= gen <= rank:
        raise ValueError(f"generator {gen} out of range [1, {rank}]")
    j_word, _ = standard_words(rank)
    return tuple(1 if g == gen else 0 for g in j_word.letters)


def spanning_vectors(word: ReducedWord) -> list[tuple[int, ...]]:
    """The k candidate spanning vectors of a word's linearity region:
    one per attached quiver plus one per generator.  Each quiver's vector
    comes from quiver_vector's per-process memo."""
    from .quivers import quivers_for_word
    return ([quiver_vector(q) for q in quivers_for_word(word)]
            + [generator_vector(g, word.rank) for g in range(1, word.rank + 1)])


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render_configuration_svg(quiver: PartialQuiver) -> str:
    """Rectangle outlines with corner markers and the dashed central line."""
    config = configuration_for_quiver(quiver)
    (_, _), line_x = centre_and_central_line(config)
    corners = corner_points(config)
    scale, pad = 24, 30

    xs = [Fraction(p.u_lo + p.w_lo, 2) for p in config.placed] + \
         [Fraction(p.u_hi + p.w_hi, 2) for p in config.placed]
    levels = [Fraction(p.w_lo - p.u_lo, 2) for p in config.placed] + \
             [Fraction(p.w_hi - p.u_lo, 2) for p in config.placed]
    x_min, x_max = min(xs), max(xs)
    lev_max = max(levels)

    def sx(x) -> str:
        return _fmt(pad + scale * (Fraction(x) - x_min))

    def sy(level) -> str:
        return _fmt(pad + scale * Fraction(level))

    width = _fmt(2 * pad + scale * (x_max - x_min))
    height = _fmt(2 * pad + scale * lev_max)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        '<style>text{font-family:monospace;font-size:12px}'
        'polygon{fill:none;stroke:#000;stroke-width:1.2}</style>',
    ]
    for p in config.placed:
        r = p.rect
        x_left = Fraction(p.u_lo + p.w_lo, 2)
        pts = [
            (x_left, r.left),
            (x_left + (r.left - r.top), r.top),
            (x_left + (r.left - r.top) + (r.right - r.top), r.right),
            (x_left + (r.bottom - r.left), r.bottom),
        ]
        coords = " ".join(f"{sx(x)},{sy(level)}" for x, level in pts)
        parts.append(f'<polygon points="{coords}"/>')
    parts.append(
        f'<line x1="{sx(line_x)}" y1="{sy(0)}" x2="{sx(line_x)}" '
        f'y2="{sy(lev_max)}" stroke="#b00" stroke-width="1" '
        'stroke-dasharray="6,3"/>')
    for idx, c in enumerate(corners, start=1):
        x = Fraction(c.u + c.w, 2)
        level = Fraction(c.w - c.u, 2)
        parts.append(f'<circle cx="{sx(x)}" cy="{sy(level)}" r="3" fill="#00b"/>')
        parts.append(f'<text x="{sx(x + Fraction(1, 4))}" y="{sy(level)}">'
                     f'V{idx}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
