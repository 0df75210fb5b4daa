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
from itertools import groupby
from typing import Sequence

from .chambers import _fmt
from .polyhedra import InvariantError
from .quivers import PartialQuiver, quivers_for_word
from .words import Root, ReducedWord, positive_root_order, standard_words


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
    out = []
    for kind, run in groupby(quiver.labelled_edges(), key=quiver.label):
        edges = list(run)
        out.append(Component(kind, a=edges[-1] - 1, b=edges[0] + 1))
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


@dataclass(frozen=True)
class CornerPoint:
    """A left or right corner with its maximal rectangle (u/w box)."""

    u: int
    w: int
    side: str  # "left" | "right"
    box: tuple[int, int, int, int]  # (u_lo, u_hi, w_lo, w_hi)


@dataclass(frozen=True)
class Configuration:
    """Placed rectangles of one quiver.

    The boxes form one nested chain, checked when it is made: sorted by u
    width, widest first, each box shares its left or its right corner with
    the next, alternating between the two, and the next is strictly
    narrower in u and strictly wider in w.  So the boxes share a point,
    each box after the first adds one u cut and one w cut, and two left
    (or two right) corners differ in both u and w.
    """

    rank: int
    placed: tuple[PlacedRectangle, ...]

    def __post_init__(self):
        chain = sorted(self.placed, key=lambda p: -p.rect.u_width)
        shared = None
        for wide, narrow in zip(chain, chain[1:]):
            side = ("left" if (wide.u_lo, wide.w_lo) == (narrow.u_lo, narrow.w_lo)
                    else "right" if (wide.u_hi, wide.w_hi) == (narrow.u_hi, narrow.w_hi)
                    else None)
            if (side is None or side == shared
                    or narrow.rect.u_width >= wide.rect.u_width
                    or narrow.rect.w_width <= wide.rect.w_width):
                raise InvariantError("the boxes are not a nested chain")
            shared = side


def place_configuration(comps: Sequence[Component], rank: int) -> Configuration:
    """Fit the component rectangles together; L-then-R pairs share left
    corners, R-then-L pairs share right corners (levels agree because
    a(left) = b(right) - 1).

    This is a nested chain in component order: component (a, b) has u
    width 2a and w width 2(rank + 2 - b), the kinds alternate, every
    component has an edge, so b >= a + 2, and the next one has b' = a + 1,
    so a' <= a - 1 and rank + 2 - b' = rank + 1 - a > rank + 2 - b.
    """
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
    return Configuration(rank, tuple(placed))


def configuration_for_quiver(quiver: PartialQuiver) -> Configuration:
    return place_configuration(components(quiver), quiver.rank)


def diagonal_counts(config: Configuration) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Cells per u-band and per w-band, in increasing coordinate order.

    A u-band is one north-west/south-east diagonal of the unrotated picture,
    a w-band one north-east/south-west diagonal.  In the nested chain the
    t boxes spanning a u-band cover exactly t w-bands, the t-th box's w
    side, so a band's cells are counted by its spanning boxes (w mirrors u).
    """
    def spanning(sides):
        cuts = sorted({v for side in sides for v in side})
        return tuple(sum(1 for s_lo, s_hi in sides if s_lo <= lo and hi <= s_hi)
                     for lo, hi in zip(cuts, cuts[1:]))
    return (spanning([(p.u_lo, p.u_hi) for p in config.placed]),
            spanning([(p.w_lo, p.w_hi) for p in config.placed]))


def centre_and_central_line(config: Configuration) -> tuple[tuple[Fraction, Fraction], Fraction]:
    """The centre (u0, w0) and the x-coordinate of the vertical central line.

    u0/w0 split the diagonal counts into an odd and an even block; a lone
    rectangle takes the midpoints of its sides.  In the nested chain B1,
    ..., Bt (widest in u first) the u sides nest inwards: Bt's is one band
    counted t, and B(k+1)'s unshared end cuts off a band of Bk counted k.
    The shared ends alternate, so t - 1, t - 3, ... lie past Bt's unshared
    end and t - 2, t - 4, ... past its shared one: u0 is the end of Bt it
    does not share with B(t-1).  The w sides nest outwards, so w0 is
    likewise the end of B1 it does not share with B2.
    """
    chain = sorted(config.placed, key=lambda p: -p.rect.u_width)
    first, last = chain[0], chain[-1]
    if len(chain) == 1:
        u0 = Fraction(first.u_lo + first.u_hi, 2)
        w0 = Fraction(first.w_lo + first.w_hi, 2)
    else:
        u0 = Fraction(last.u_hi if last.u_lo == chain[-2].u_lo else last.u_lo)
        w0 = Fraction(first.w_hi if first.w_lo == chain[1].w_lo else first.w_lo)
    return (u0, w0), (u0 + w0) / 2


def corner_points(config: Configuration) -> list[CornerPoint]:
    """Left and right corners with their maximal rectangles, by (u, w, side).

    The maximal rectangle of a corner V extends V's two edges along
    contiguous chains of drawn rectangle edges as far as possible, away from
    V; it may stick out of the drawn union.  It is the hull of the boxes
    with corner V.  In the nested chain the boxes share a point, so no
    box's w+ or u+ edge lies on a left corner V's lines, and no two left
    corners share a u or a w, so the only w- and u- edges on them belong
    to the boxes with corner V, and all run from V: each chain through V
    ends at the farthest of those boxes.  Right corners mirror this.
    """
    left: dict[tuple[int, int], tuple[int, int]] = {}
    right: dict[tuple[int, int], tuple[int, int]] = {}
    for p in config.placed:
        u_hi, w_hi = left.get((p.u_lo, p.w_lo), (p.u_hi, p.w_hi))
        left[p.u_lo, p.w_lo] = (max(u_hi, p.u_hi), max(w_hi, p.w_hi))
        u_lo, w_lo = right.get((p.u_hi, p.w_hi), (p.u_lo, p.w_lo))
        right[p.u_hi, p.w_hi] = (min(u_lo, p.u_lo), min(w_lo, p.w_lo))
    out = [CornerPoint(u, w, "left", (u, u_hi, w, w_hi))
           for (u, w), (u_hi, w_hi) in left.items()]
    out += [CornerPoint(u, w, "right", (u_lo, u, w_lo, w))
            for (u, w), (u_lo, w_lo) in right.items()]
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

    Each corner lies strictly on its own side: a left corner has u <= u0
    and w <= w0, never both equalities.  The nested chain puts u0 at an
    end of the narrowest box's u side (its midpoint for a lone box), and
    w0 at the first box's w+ or at its w-, which only the first box's left
    corner meets, and that corner lies left of u0.  Right corners mirror
    this; tests/rectangle_oracles.py checks both at ranks 2 to 13.

    Columns exactly on the line are excluded, with one exception: a lone
    rectangle with an odd column count puts its middle column on the
    midpoint centre, and that column still belongs to the quiver's root
    set (dropping it would make the spanned cone degenerate); it is
    assigned to the left corner.  Columns compare, at twice their doubled
    x, with 4 line_x = 2(u0 + w0) in Z.
    """
    config = configuration_for_quiver(quiver)
    _, line_x = centre_and_central_line(config)
    if (4 * line_x).denominator != 1:
        raise InvariantError(f"central line at x = {line_x} is not in Z/4")
    line_4x = int(4 * line_x)
    lone_rectangle = len(config.placed) == 1

    def kept(corner: CornerPoint, x4: int) -> bool:
        if corner.side == "left":
            return x4 < line_4x or (x4 == line_4x and lone_rectangle)
        return x4 > line_4x
    return [(c, tuple(root for x2, root in roots_of_box(c.box) if kept(c, 2 * x2)))
            for c in corner_points(config)]


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
def quiver_vector(quiver: PartialQuiver) -> tuple[int, ...]:
    """0/1 vector marking the roots of the quiver in the standard-word order.

    Memoised per process, so a quiver's rectangles are placed at most once
    and only for the quivers asked about (rank 5 has 52).  A call that
    raises caches nothing.
    """
    roots = phi_plus(quiver)
    order = positive_root_order(standard_words(quiver.rank)[0])
    return tuple(1 if r in roots else 0 for r in order)


def generator_vector(gen: int, rank: int) -> tuple[int, ...]:
    """0/1 vector marking the positions of one letter in the standard word."""
    if not 1 <= gen <= rank:
        raise ValueError(f"generator {gen} out of range [1, {rank}]")
    j_word, _ = standard_words(rank)
    return tuple(1 if g == gen else 0 for g in j_word.letters)


@cache
def _generator_vectors(rank: int) -> tuple[tuple[int, ...], ...]:
    return tuple(generator_vector(g, rank) for g in range(1, rank + 1))


def spanning_vectors(word: ReducedWord) -> list[tuple[int, ...]]:
    """The k candidate spanning vectors of a word's linearity region:
    one per attached quiver plus one per generator, each read off a memo:
    quiver_vector's per process, _generator_vectors' per rank."""
    return ([quiver_vector(q) for q in quivers_for_word(word)]
            + list(_generator_vectors(word.rank)))


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
