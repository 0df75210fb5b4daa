"""The piecewise-linear reparametrization map between two reduced words.

The map is realised by composing elementary moves along a path from the
source word to the destination word: a commutation move swaps the two
coordinates, a braid move acts on the local triple by

    (a, b, c)  ->  (b + c - min(a, c), min(a, c), a + b - min(a, c)),

an involution that is linear on each side of the guard a <= c.  Enumerating
the branch choices with exact pruning, then merging all full-dimensional
leaf cells that share one matrix, yields the atlas of regions of linearity
with certified-convex, irredundant cone descriptions.  The atlas lives in the
coordinates of the source word; it is independent of the chosen move path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import prod
from operator import add, sub
from typing import Iterable, Optional, Sequence

from .polyhedra import (DDState, DegenerateConeError, HCone, InvariantError,
                        NonPointedError, Vector, VCone, _gauss_jordan, dd_cut,
                        dd_simplex, dd_step, dd_whole, det, dot, holds_on,
                        identity, nonneg_orthant, primitive, ray_sum_witness,
                        vneg, zero_set_facets)
from .words import (BRAID, COMMUTATION, Letters, Move, ReducedWord,
                    apply_move_path, braids, class_graph, commutes,
                    find_move_path, legal_moves, standard_words)


class RegionConvexityError(InvariantError):
    """A same-matrix cell union failed its convexity certificate."""


# ---------------------------------------------------------------------------
# The elementary braid map
# ---------------------------------------------------------------------------

def apply_braid_triple(a, b, c):
    """Exact evaluation of the braid-move map on one triple.

    >>> apply_braid_triple(2, 5, 3)
    (6, 2, 5)
    >>> apply_braid_triple(*apply_braid_triple(2, 5, 3))
    (2, 5, 3)
    """
    m = a if a <= c else c
    return (b + c - m, m, a + b - m)


def _walk(point: Sequence, letters: Letters, moves: Iterable[Move]
          ) -> tuple[tuple, str]:
    """Apply every move numerically: (image, branch bits of the braids).

    The letters travel with the point, so an illegal move raises ValueError
    instead of mangling coordinates.  A braid's bit is '1' on the a <= c
    branch, so ties go to that branch.
    """
    y = list(point)
    w = list(letters)
    bits = []
    for mv in moves:
        t = mv.position - 1
        if mv.kind == COMMUTATION and commutes(w, t):
            y[t], y[t + 1] = y[t + 1], y[t]
            w[t], w[t + 1] = w[t + 1], w[t]
        elif mv.kind == BRAID and braids(w, t):
            bits.append("1" if y[t] <= y[t + 2] else "0")
            y[t], y[t + 1], y[t + 2] = apply_braid_triple(y[t], y[t + 1], y[t + 2])
            w[t], w[t + 1], w[t + 2] = w[t + 1], w[t], w[t + 1]
        else:
            raise ValueError(f"{mv} is illegal on {tuple(w)}")
    return tuple(y), "".join(bits)


def evaluate_along(point: Sequence, letters: Letters, moves: Iterable[Move]) -> tuple:
    """Branch-free exact evaluation: apply every move numerically.

    An illegal move for the word ``letters`` raises ValueError.
    """
    return _walk(point, letters, moves)[0]


# ---------------------------------------------------------------------------
# Move paths
# ---------------------------------------------------------------------------

#: The move path every atlas and evaluation uses by default.
default_move_path = find_move_path


def braid_move_count(moves: Iterable[Move]) -> int:
    return sum(1 for m in moves if m.kind == BRAID)


def detour_move_path(src: ReducedWord, dst: ReducedWord) -> list[Move]:
    """A valid but deliberately non-minimal path for path-independence audits:
    one move applied and undone (a braid when available), then the peel path."""
    moves = legal_moves(src)
    braids = [m for m in moves if m.kind == BRAID]
    prefix = [braids[0], braids[0]] if braids else \
        ([moves[0], moves[0]] if moves else [])
    return list(prefix) + find_move_path(src, dst)


# ---------------------------------------------------------------------------
# Atlas construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cell:
    """One full-dimensional leaf of the branch enumeration.

    ``bits`` records the branch taken at every braid move along the path
    ('1' for the a <= c branch), which makes locating a point's cell a plain
    numeric walk plus one dictionary lookup.  ``state`` is the
    double-description state of the cell, the fold of dd_step over its
    guards from dd_whole: the guards, taken on the branch in order, are its
    normals ``state[0]``, and its rays carry their zero sets among them.
    """

    rows: tuple[Vector, ...]
    bits: str
    state: DDState


@dataclass(frozen=True)
class Region:
    """A maximal cone of linearity: its matrix, its irredundant facets and
    one interior witness, both read off its double-description state, which
    it keeps for later cuts, outside equality, hashing and repr."""

    matrix: tuple[Vector, ...]
    cone: HCone
    witness: Vector
    state: DDState = field(compare=False, repr=False)

    @property
    def facet_count(self) -> int:
        return len(self.cone.ineqs)

    def apply(self, point: Sequence) -> tuple:
        return tuple(dot(row, point) for row in self.matrix)


@dataclass(frozen=True)
class RegionAtlas:
    """All regions of linearity of the map from src- to dst-coordinates."""

    src: ReducedWord
    dst: ReducedWord
    moves: tuple[Move, ...]
    regions: tuple[Region, ...]
    bits_index: dict[str, int]  # cell branch bits -> region index

    @property
    def dim(self) -> int:
        return len(self.src.letters)

    def histogram(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for r in self.regions:
            out[r.facet_count] = out.get(r.facet_count, 0) + 1
        return dict(sorted(out.items()))

    def evaluate(self, point: Sequence) -> tuple:
        return evaluate_along(point, self.src.letters, self.moves)

    def region_containing(self, point: Sequence) -> Region:
        return self.regions[self._index_containing(point)]

    def _index_containing(self, point: Sequence) -> int:
        idx = self.bits_index.get(_walk(point, self.src.letters, self.moves)[1])
        if idx is not None:
            return idx
        # a tie at a guard boundary can walk into a pruned branch; any region
        # whose cone contains the point agrees with the map there
        for idx, r in enumerate(self.regions):
            if r.cone.contains(point):
                return idx
        raise InvariantError(f"atlas does not cover {point}")

    def to_json(self) -> dict:
        """The artifact `wordcones regions --json` writes."""
        def strs(rows):
            return [[str(x) for x in row] for row in rows]
        return {"rank": self.src.rank, "src": str(self.src), "dst": str(self.dst),
                "regions": [{"matrix": strs(r.matrix), "ineqs": strs(r.cone.ineqs),
                             "facets": r.facet_count} for r in self.regions]}


def _swap_rows(rows: tuple[Vector, ...], t: int) -> tuple[Vector, ...]:
    out = list(rows)
    out[t], out[t + 1] = out[t + 1], out[t]
    return tuple(out)


def _braid_rows(rows: tuple[Vector, ...], t: int, low: bool) -> tuple[Vector, ...]:
    """Apply the a <= c branch (low), giving (b + c - a, a, b), or the other,
    giving (b, c, a + b - c), to the row triple (a, b, c) at t."""
    a, b, c = rows[t:t + 3]
    triple = ((tuple(map(sub, map(add, b, c), a)), a, b) if low
              else (b, c, tuple(map(sub, map(add, a, b), c))))
    return rows[:t] + triple + rows[t + 3:]


def enumerate_cells(src: ReducedWord, moves: Sequence[Move]) -> list[Cell]:
    """Depth-first branch enumeration, pruning branches with empty interior.

    Each branch carries its cell's double-description state, and a leaf
    hands it to its Cell whole.  A braid guard's side {g . x >= 0} is dd_cut
    from it, which also says whether that side keeps an interior, so the
    state stays equal to double description of the guards, its normals,
    from scratch.  A guard already on the branch, or its negation, decides
    the branch with no cut (guards are primitive).  The moves are taken to
    be legal for src; transition_atlas checks them.
    """
    k = len(src.letters)
    cells: list[Cell] = []
    stack = [(0, identity(k), dd_whole(k), "")]
    while stack:
        idx, rows, state, bits = stack.pop()
        while idx < len(moves):
            mv = moves[idx]
            t = mv.position - 1
            if mv.kind == COMMUTATION:
                rows = _swap_rows(rows, t)
                idx += 1
                continue
            a, c = rows[t], rows[t + 2]
            g = primitive(tuple(z - x for x, z in zip(a, c)))
            if not any(g):
                raise InvariantError("degenerate braid guard")
            idx += 1
            if g in state[0]:
                rows = _braid_rows(rows, t, low=True)
                bits += "1"
                continue
            if vneg(g) in state[0]:
                rows = _braid_rows(rows, t, low=False)
                bits += "0"
                continue
            sides = []
            for bit, gg in (("1", g), ("0", vneg(g))):
                side = dd_cut(state, (gg,))
                if side is not None:
                    sides.append((_braid_rows(rows, t, bit == "1"), side,
                                  bits + bit))
            if not sides:
                raise InvariantError("both braid branches are empty")
            # continue along the first option; push the rest
            stack += [(idx,) + s for s in sides[1:]]
            rows, state, bits = sides[0]
        cells.append(Cell(rows, bits, state))
    return cells


def _off_path_siblings(cells: list[Cell]) -> list[tuple[Vector, ...]]:
    """Guard tuples p + (-h,) where p + (h,) is a prefix of a member's guards
    and p + (-h,) is not, in first-seen order."""
    guards = [c.state[0] for c in cells]
    prefixes = {g[:j] for g in guards for j in range(len(g) + 1)}
    neg = {h: vneg(h) for h in set().union(*guards)}
    return [sib for sib in dict.fromkeys(g[:j] + (neg[g[j]],)
                                         for g in guards for j in range(len(g)))
            if sib not in prefixes]


def _merge_cells(cells: list[Cell], k: int) -> DDState:
    """Certified-convex union of same-matrix cells, as a double-description
    state: a single cell's own, or for several cells that of the candidate
    cone C, raising if C is not the union.  C is cut out by the
    member-cell inequalities valid on every member's state (a member's own
    guard holds on it, and the negation of one fails on the full-dimensional
    member), so C contains the union.  If the union is convex, C is exactly
    the union, since every facet of a convex union shows up among member
    inequalities.  C's state is dd_cut of the valid normals from R^k, and
    every sibling check below cuts from it.

    Coverage comes from the branch tree.  Its leaves tile R^k with disjoint
    interiors, and the node with guard prefix p is the union of the leaves
    below it.  An *off-path sibling* is a child p + (-h,) of a member prefix
    p, where p + (h,) is a member prefix and p + (-h,) is not.  Every leaf
    outside the group lies below exactly one of them, and none of the
    members does.  So C equals the union iff dd_cut of C by each off-path
    sibling's guards, less the valid normals, finds no interior.  A sibling
    with a guard h where -h is a valid normal of C is ruled out for free;
    any other with an interior raises instead of emitting a non-convex
    region.
    """
    if len(cells) == 1:
        return cells[0].state
    normals = dict.fromkeys(g for c in cells for g in c.state[0])
    valid = tuple(g for g in normals if all(
        g in c.state[0] or vneg(g) not in c.state[0] and holds_on(g, c.state)
        for c in cells))
    state = dd_cut(dd_whole(k), valid)
    if state is None:
        raise InvariantError(f"the {len(valid)} shared-valid inequalities "
                             f"of {len(cells)} full-dimensional cells cut "
                             f"out a cone with empty interior")
    held = set(valid)
    opposed = {vneg(g) for g in valid}
    for sib in _off_path_siblings(cells):
        if any(h in opposed for h in sib):
            continue
        cut = dd_cut(state, (h for h in sib if h not in held))
        if cut is not None:
            raise RegionConvexityError(
                f"union of {len(cells)} same-matrix cells is not the "
                f"convex cone cut out by its {len(valid)} shared-valid "
                f"inequalities: {ray_sum_witness(cut, k)} is "
                f"interior to it and to an off-path sibling")
    return state


def _checked_path(src: ReducedWord, dst: ReducedWord,
                  moves: Optional[Sequence[Move]]) -> list[Move]:
    """The peel path when moves is None, else the given moves once they are
    checked to transform src into dst; a path that does not raises."""
    if src.rank != dst.rank:
        raise ValueError("words have different ranks")
    if moves is None:
        return find_move_path(src, dst)
    moves = list(moves)
    end = apply_move_path(src, moves)
    if end != dst:
        raise ValueError(f"move path leads from {src} to {end}, not to {dst}")
    return moves


def transition_atlas(src: ReducedWord, dst: ReducedWord,
                     moves: Optional[Sequence[Move]] = None) -> RegionAtlas:
    """Atlas of the regions of linearity of the src-to-dst transition map.

    The 144-region standard-word atlas of rank 4 comes from 214 leaf cells.
    Rank 5 is slow: the peel path has 20 braids, and its 18,273 cells merge
    into 6,608 regions in 12-20 s under python -O (CPython 3.11, 2 vCPUs).
    A group is popped as it merges, freeing its cells; its region keeps only
    the state _merge_cells returns.  A rank above 5 raises before any
    cell is enumerated.
    """
    if src.rank > 5:
        raise ValueError("regions supports ranks 1 to 5")
    moves = _checked_path(src, dst, moves)
    k = len(src.letters)
    groups: dict[tuple[Vector, ...], list[Cell]] = {}
    for cell in enumerate_cells(src, moves):
        groups.setdefault(cell.rows, []).append(cell)
    regions = []
    bits_index: dict[str, int] = {}
    for matrix in sorted(groups):
        group = groups.pop(matrix)
        state = _merge_cells(group, k)
        for cell in group:
            bits_index[cell.bits] = len(regions)
        regions.append(Region(matrix, zero_set_facets(state, k),
                              ray_sum_witness(state, k), state))
    return RegionAtlas(src, dst, tuple(moves), tuple(regions), bits_index)


def standard_atlas(rank: int) -> RegionAtlas:
    """Atlas of the map between the two standard words of the given rank."""
    return transition_atlas(*standard_words(rank))


def evaluate(src: ReducedWord, dst: ReducedWord, point: Sequence,
             moves: Optional[Sequence[Move]] = None) -> tuple:
    """Exact image of one point under the transition map (branch-free)."""
    return evaluate_along(point, src.letters, _checked_path(src, dst, moves))


# ---------------------------------------------------------------------------
# Matching spanned cones with regions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassRegionMatch:
    canonical: Letters
    region_index: int
    facet_count: int


@dataclass(frozen=True)
class MatchReport:
    rank: int
    minimal_facets: int
    matches: tuple[ClassRegionMatch, ...]
    injective: bool
    covers_all_minimal: bool
    unmatched: tuple[Letters, ...]  # canonical words of classes with no region
    class_graph: dict[Letters, frozenset[Letters]] = field(compare=False,
                                                           repr=False)

    @property
    def ok(self) -> bool:
        return (not self.unmatched and self.injective and self.covers_all_minimal
                and all(m.facet_count == self.minimal_facets for m in self.matches))


def _spans(vecs: Sequence[Vector], normals: Sequence[Vector]) -> bool:
    """Is cone(vecs) = {x : a . x >= 0 for a in normals}, for k independent
    vecs in dimension k and non-zero normals?  Yes iff all a . v_j >= 0 and
    for each i some normal vanishes at p_i, the sum of the v_j with j != i.
    Equal cones put p_i on the boundary, where a normal vanishes.  If all
    a . v_j >= 0, a normal vanishing at p_i vanishes on each v_j, j != i, so
    it is a positive multiple of the facet normal of cone(vecs) opposite
    v_i; then the normals cut out no more than cone(vecs).  The dot products
    are taken once: a . p_i is a . (v_1 + ... + v_k) - a . v_i."""
    rows = [tuple(dot(a, v) for v in vecs) for a in normals]
    if any(x < 0 for row in rows for x in row):
        return False
    sums = [sum(row) for row in rows]
    return all(any(row[i] == s for row, s in zip(rows, sums))
               for i in range(len(vecs)))


def match_spanned_regions(atlas: RegionAtlas) -> MatchReport:
    """Match each commutation class to the region spanned by its vectors.

    For a class with canonical word i, the cone S on the vectors of the
    attached quivers plus the letter-position vectors must equal R
    intersect the non-negative orthant for some region R, of the minimal
    facet count, and the assignment must be a bijection onto the
    minimal-facet regions.  A class with no such R is reported as
    unmatched, which makes the report not ok.  The probe, the sum of the
    vectors, is interior to S, so to R, and region interiors are disjoint:
    each class looks up the region containing its probe, and _spans
    compares S with it in integer dot products, with no DD.
    """
    from .rectangles import spanning_vectors
    rank = atlas.src.rank
    orth = nonneg_orthant(atlas.dim).ineqs
    minimal = min(r.facet_count for r in atlas.regions)
    matches, unmatched = [], []
    used: set[int] = set()
    cgraph = class_graph(rank)
    for canonical in sorted(cgraph):  # no class sizes needed
        vecs = spanning_vectors(ReducedWord(rank, canonical))
        if det(vecs) == 0:
            raise InvariantError(
                f"spanning vectors of class {canonical} are dependent")
        idx = atlas._index_containing(tuple(map(sum, zip(*vecs))))
        region = atlas.regions[idx]
        if not _spans(vecs, region.cone.ineqs + orth):
            unmatched.append(canonical)
            continue
        used.add(idx)
        matches.append(ClassRegionMatch(canonical, idx, region.facet_count))
    injective = len(used) == len(matches)
    covers = used == {i for i, r in enumerate(atlas.regions)
                      if r.facet_count == minimal}
    return MatchReport(rank, minimal, tuple(matches), injective, covers,
                       tuple(unmatched), cgraph)


# ---------------------------------------------------------------------------
# Orthant restrictions (small-rank analysis)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrthantRestriction:
    region_index: int
    region_facets: int
    restricted_facets: int
    cone: HCone  # irredundant form of region intersect orthant


def orthant_restriction_analysis(atlas: RegionAtlas) -> list[OrthantRestriction]:
    """Irredundant restriction of every region meeting the orthant in its
    interior: the region's state dd_cut by the orthant, which is None when
    the restriction has no interior, and the facets read off the cut."""
    orth = identity(atlas.dim)
    out = []
    for idx, region in enumerate(atlas.regions):
        cut = dd_cut(region.state, orth)
        if cut is None:
            continue
        reduced = zero_set_facets(cut, atlas.dim)
        out.append(OrthantRestriction(idx, region.facet_count,
                                      len(reduced.ineqs), reduced))
    return out


# ---------------------------------------------------------------------------
# Simplicial decompositions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Decomposition:
    pieces: tuple[VCone, ...]
    minimal: bool


def _pulling_simplices(face: tuple[Vector, ...], normals: Sequence[Vector]
                       ) -> list[tuple[Vector, ...]]:
    """Pulling triangulation of a face of the pointed cone
    {x : a . x >= 0 for a in normals}, given by its extreme rays:
    ``face[0]`` joined to the triangulation of each facet of the face that
    misses it.  The faces that miss ``face[0]`` are the zero sets in
    ``face`` of the normals positive on ``face[0]``, deduped, and each lies
    in such a facet, so the facets are the maximal zero sets (Ziegler,
    Lectures on Polytopes, ch. 2)."""
    if len(face) == 1:
        return [face]
    zeros = dict.fromkeys(tuple(r for r in face if dot(a, r) == 0)
                          for a in normals if dot(a, face[0]) > 0)
    return [(face[0],) + s for z in zeros
            if not any(set(z) < set(o) for o in zeros)
            for s in _pulling_simplices(z, normals)]


def _volume(d: int, rays: Sequence[Vector], c: Vector) -> Fraction:
    """k! times the volume of cone(rays) cut by {c . x <= 1}, for k rays in
    dimension k with determinant d and c positive on each."""
    return Fraction(abs(d), prod(dot(c, r) for r in rays))


def simplicial_decomposition(cone: HCone) -> Decomposition:
    """Minimum-cardinality cover of a pointed full-dimensional cone by
    simplicial subcones on its extreme rays with pairwise disjoint interiors.

    Certified by volume: c, the sum of the normals, is positive on every
    extreme ray, and the simplicial cone on rays r_1..r_k meets
    {c . x <= 1} in a simplex of volume |det(r_1..r_k)| / prod(c . r_i)
    (times 1/k!).  Pieces inside the cone with disjoint interiors cover it
    iff their volumes sum to the cone's, which its pulling triangulation
    gives.  Subsets are tried by size, so the first cover is minimal; the
    pulling triangulation is itself a cover, so one is found.
    """
    k = cone.dim
    state = dd_cut(dd_whole(k), cone.ineqs)
    if state is None:
        raise DegenerateConeError("cone is not full-dimensional")
    if state[1]:
        raise NonPointedError(state[1][0])
    rays = tuple(sorted(state[2]))
    c = tuple(map(sum, zip(*cone.ineqs)))
    total = sum(_volume(det(s), s, c)
                for s in _pulling_simplices(rays, cone.ineqs))
    pieces, hforms, states, vols = [], [], [], []
    for s in combinations(rays, k):
        d, facets = _gauss_jordan(s)
        if d:
            pieces.append(s)
            hforms.append(facets)
            states.append(dd_simplex(s, facets))
            vols.append(_volume(d, s, c))
    # pieces overlap iff cutting one by the other's normals leaves an interior
    overlap = {(i, j) for i, j in combinations(range(len(pieces)), 2)
               if dd_cut(states[i], hforms[j]) is not None}
    # pairwise-disjoint index-increasing subsets of one size, with the
    # volume they leave uncovered
    level: list[tuple[tuple[int, ...], Fraction]] = [((), total)]
    while level:
        level = [(s + (j,), left - vols[j]) for s, left in level
                 for j in range(s[-1] + 1 if s else 0, len(pieces))
                 if vols[j] <= left and not any((i, j) in overlap for i in s)]
        for s, left in level:
            if left == 0:
                return Decomposition(tuple(VCone(k, pieces[i]) for i in s),
                                     True)
    raise InvariantError("no disjoint simplicial cover, not even the pulling "
                         "triangulation")


# ---------------------------------------------------------------------------
# Graphs on regions and the class-region comparison
# ---------------------------------------------------------------------------

def region_graph(atlas: RegionAtlas, minimal_only: bool = False
                 ) -> dict[int, frozenset[int]]:
    """Facet-adjacency graph: edge when two regions share a (k-1)-dim face.

    Such a face lies on the hyperplane of a facet g of one region where -g
    is a facet of the other: the first region's face there, dd_step of its
    kept state by -g, keeps a relative interior under dd_cut by the other's
    remaining facets.  None of those is parallel to g, or the other region
    would lie in the hyperplane, so none vanishes on it, as dd_cut needs.
    """
    minimal = min(r.facet_count for r in atlas.regions)
    idxs = [i for i, r in enumerate(atlas.regions)
            if not minimal_only or r.facet_count == minimal]
    by_facet: dict[Vector, list[int]] = {}
    for i in idxs:
        for g in atlas.regions[i].cone.ineqs:
            by_facet.setdefault(g, []).append(i)
    adj: dict[int, set[int]] = {i: set() for i in idxs}
    for i in idxs:
        region = atlas.regions[i]
        for g in region.cone.ineqs:
            face = dd_step(region.state, vneg(g))
            for jdx in by_facet.get(vneg(g), ()):
                if jdx <= i or jdx in adj[i]:
                    continue
                if dd_cut(face, (h for h in atlas.regions[jdx].cone.ineqs
                                 if h != vneg(g))) is not None:
                    adj[i].add(jdx)
                    adj[jdx].add(i)
    return {i: frozenset(nb) for i, nb in adj.items()}


def class_region_isomorphism_report(atlas: RegionAtlas,
                                    match: MatchReport) -> dict:
    """Compare the class graph and the minimal-region adjacency graph under
    the spanned-cone matching, match_spanned_regions(atlas), whose class
    graph it reads.  Exploratory: both edge notions are stated
    interpretations, so the result is reported, not asserted."""
    rank = atlas.src.rank
    mapping = {m.canonical: m.region_index for m in match.matches}
    cgraph = match.class_graph
    rgraph = region_graph(atlas, minimal_only=True)
    class_edges = {frozenset((mapping[a], mapping[b]))
                   for a, nbs in cgraph.items() for b in nbs}
    region_edges = {frozenset((a, b)) for a, nbs in rgraph.items() for b in nbs}
    return {
        "rank": rank,
        "class_vertices": len(cgraph),
        "region_vertices": len(rgraph),
        "class_edges": len(class_edges),
        "region_edges": len(region_edges),
        "match_ok": match.ok,
        "is_isomorphism": match.ok and class_edges == region_edges,
    }
