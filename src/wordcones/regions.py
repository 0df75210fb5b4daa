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
from functools import cache, cached_property
from itertools import accumulate, combinations
from math import lcm, prod
from operator import add, itemgetter, mul, sub
from typing import Callable, Iterable, Optional, Sequence

from .polyhedra import (DDState, HCone, InvariantError, NonPointedError,
                        Vector, VCone, _gauss_jordan, dd_cut, dd_simplex,
                        dd_split, dd_whole, dot, facet_state, full_cut,
                        holds_on, identity, primitive, ray_sum_witness, vneg)
from .rectangles import spanning_vectors
from .words import (BRAID, COMMUTATION, Letters, Move, ReducedWord,
                    apply_move_path, braids, class_graph, commutes,
                    find_move_path, legal_moves, standard_words,
                    transition_automorphism)


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

    The letters travel with the point, so an illegal move, or a point of
    the wrong length, raises ValueError instead of mangling coordinates.
    A braid's bit is '1' on the a <= c branch, so ties go to that branch.
    """
    y = list(point)
    w = list(letters)
    if len(y) != len(w):
        raise ValueError(f"point {tuple(y)} has {len(y)} coordinates, "
                         f"not the {len(w)} of {tuple(w)}")
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
    """Branch-free exact evaluation along moves; an illegal one raises."""
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
    moves = sorted(legal_moves(src), key=lambda m: m.kind != BRAID)
    return moves[:1] * 2 + find_move_path(src, dst)


# ---------------------------------------------------------------------------
# Atlas construction, in the quotient by the lineality space
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LetterQuotient:
    """R^k/L, L the span of a word's letter indicators sum_{p: j_p = g} e_p,
    which every region holds: a braid on letters (g, h, g) sends (a + t, b +
    s, c + t) to its image of (a, b, c) plus (s, t, s) on both branches, its
    guard c - a blind to s and t.  Coordinate (p, q) of ``pairs`` is x_q - x_p
    for consecutive positions p < q of one letter, a unimodular basis."""

    k: int
    dim: int
    chains: tuple[tuple[int, ...], ...]  # each letter's positions, in order
    pairs: tuple[tuple[int, int], ...]
    basis: tuple[Vector, ...]  # of L: the letter indicators, in letter order

    def push(self, a: Sequence[int]) -> Vector:
        """c with c . y = a . x, negated partial sums along each letter."""
        out: list[int] = []
        for chain in self.chains:
            s = 0
            for p in chain:
                s -= a[p]
                out.append(s)
            if out.pop():  # the letter sum
                raise InvariantError(f"normal {tuple(a)} is not 0 on L")
        return tuple(out)

    def pull(self, c: Sequence[int]) -> Vector:
        """The normal on R^k that push takes to c."""
        a = [0] * self.k
        for (p, q), v in zip(self.pairs, c):
            a[p] -= v
            a[q] += v
        return tuple(a)

    def lift(self, y: Sequence[int]) -> Vector:
        """The point over y with each letter's first position at 0."""
        x = [0] * self.k
        for (p, q), v in zip(self.pairs, y):
            x[q] = x[p] + v
        return tuple(x)

    def lift_state(self, state: DDState) -> DDState:
        """The R^k state over a quotient state, written down, not cut: L's
        basis joins its lines, and pull(c) . lift(y) = c . y keeps masks."""
        return (tuple(map(self.pull, state[0])),
                self.basis + tuple(map(self.lift, state[1])),
                {self.lift(r): m for r, m in state[2].items()})


@cache
def letter_quotient(letters: Letters) -> LetterQuotient:
    """The quotient of R^k by the letter indicators of these letters."""
    chains = tuple(tuple(p for p, h in enumerate(letters) if h == g)
                   for g in sorted(set(letters)))
    pairs = tuple(pq for c in chains for pq in zip(c, c[1:]))
    return LetterQuotient(len(letters), len(pairs), chains, pairs, tuple(
        tuple(int(p in c) for p in range(len(letters))) for c in chains))


@dataclass(frozen=True)
class Cell:
    """One full-dimensional leaf of the branch enumeration: its matrix
    ``rows``; its ``bits``, the branch taken at each braid move ('1' for
    a <= c), which RegionAtlas.bits_index maps to its region; and ``state``,
    in the source's letter_quotient, the double-description state of the
    guards that cut on its branch, in order from dd_whole, as its normals."""

    rows: tuple[Vector, ...]
    bits: str
    state: DDState


@dataclass(frozen=True)
class Region:
    """A maximal cone of linearity: matrix, facets (pulled back) and interior
    witness, read off its quotient double-description state, which it keeps
    for region_graph and lifted_state, outside ==, hash and repr: a
    facet_state, its facets pushed to the quotient, sorted, as normals."""

    matrix: tuple[Vector, ...]
    cone: HCone
    witness: Vector
    state: DDState = field(compare=False, repr=False)
    quotient: LetterQuotient = field(compare=False, repr=False)

    @cached_property
    def lifted_state(self) -> DDState:  # in R^k, lifted once
        return self.quotient.lift_state(self.state)

    @property
    def facet_count(self) -> int:
        return len(self.cone.ineqs)

    def apply(self, point: Sequence) -> tuple:
        if len(point) != self.cone.dim:
            raise ValueError(f"point {point} has wrong dimension "
                             f"(want {self.cone.dim})")
        return tuple(dot(row, point) for row in self.matrix)


@dataclass(frozen=True)
class RegionAtlas:
    """All regions of linearity of the map from src- to dst-coordinates.
    A point is located by one walk along moves and one bits_index lookup,
    and at a tie by one more walk of the point scaled and perturbed."""

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
        """Look up the point's walk bits.  A tie at a guard may walk a branch
        no cell kept; then x = primitive(point), a positive multiple, walks
        again as q_i = x_i B^k + B^(k-1-i) = B^k (x + e e_1 + ... + e^k e_k),
        with B = 3^(braids+1) = 1/e (simulation of simplicity).  Each guard g
        on q's branch is a row difference of an invertible matrix, so g != 0,
        and |g_i| <= 2 * 3^(braids-1) < B - 1, as a braid at most triples a
        row's largest entry.  So g . q has the lexicographic sign of (g . x,
        g_1, ..., g_k), never 0: q is interior to a kept cell, x is in its
        closure, so in its region, whose matrix maps x as the walk does."""
        bits = _walk(point, self.src.letters, self.moves)[1]
        if bits not in self.bits_index:  # a tie took a pruned branch
            k, b = self.dim, 3 ** (len(bits) + 1)  # one bit per braid
            q = [x * b**k + b**(k - 1 - i) for i, x in enumerate(primitive(point))]
            bits = _walk(q, self.src.letters, self.moves)[1]
        if bits not in self.bits_index:
            raise InvariantError(f"atlas does not cover {point}")
        return self.bits_index[bits]


def _braid_rows(rows: tuple[Vector, ...], t: int, low: bool) -> tuple[Vector, ...]:
    """Apply the a <= c branch (low), giving (b + c - a, a, b), or the other,
    giving (b, c, a + b - c), to the row triple (a, b, c) at t."""
    a, b, c = rows[t:t + 3]
    triple = ((tuple(map(sub, map(add, b, c), a)), a, b) if low
              else (b, c, tuple(map(sub, map(add, a, b), c))))
    return rows[:t] + triple + rows[t + 3:]


def enumerate_cells(src: ReducedWord, moves: Sequence[Move]) -> list[Cell]:
    """Depth-first branch enumeration, pruning branches with empty interior.

    Each branch carries its cell's double-description state in the quotient
    by src's letter_quotient, and a leaf hands it to its Cell whole.  A
    guard g, pushed to the quotient once, that holds on the state (as one on
    the branch does), or whose negation does, takes that branch with the
    state unchanged: an uncut guard adds nothing (Fukuda-Prodon).  Any other
    g cuts, and one dd_split gives both of its sides an interior, or raises.
    So the normals are the guards that cut, and the state is their double
    description from scratch.  The moves are taken to be legal for src;
    transition_atlas checks them.
    """
    quotient = letter_quotient(src.letters)
    cells: list[Cell] = []
    stack = [(0, identity(quotient.k), dd_whole(quotient.dim), "")]
    while stack:
        idx, rows, state, bits = stack.pop()
        while idx < len(moves):
            mv = moves[idx]
            t = mv.position - 1
            if mv.kind == COMMUTATION:
                rows = rows[:t] + (rows[t + 1], rows[t]) + rows[t + 2:]
                idx += 1
                continue
            g = primitive(quotient.push(tuple(map(sub, rows[t + 2], rows[t]))))
            if not any(g):
                raise InvariantError("degenerate braid guard")
            idx += 1
            low = holds_on(g, state)
            if low or holds_on(vneg(g), state):
                rows = _braid_rows(rows, t, low)
                bits += "1" if low else "0"
                continue
            up, down = dd_split(state, g)
            if up is None or down is None:
                raise InvariantError(f"guard {g} left a side with no interior")
            # continue along the '1' side; push the '0' side
            stack.append((idx, _braid_rows(rows, t, False), down, bits + "0"))
            rows, state, bits = _braid_rows(rows, t, True), up, bits + "1"
        cells.append(Cell(rows, bits, state))
    return cells


def _open_siblings(cells: list[Cell], held: set[Vector]
                   ) -> list[tuple[Vector, ...]]:
    """Guard tuples p + (-h,) where p + (h,) is a prefix of a member's guards,
    p + (-h,) is not and h is not held, in first-seen order.  The members'
    guards are walked as a trie, the branch tree with uncut guards
    contracted, each edge (p, h) listed when first made."""
    trie: dict = {}
    edges = []
    for cell in cells:
        node, path = trie, cell.state[0]
        for j, h in enumerate(path):
            if h not in node:
                node[h] = {}
                edges.append((path, j, node))
            node = node[h]
    return [path[:j] + (vneg(path[j]),) for path, j, node in edges
            if path[j] not in held and vneg(path[j]) not in node]


def _merge_cells(cells: list[Cell], dim: int) -> DDState:
    """Certified-convex union of same-matrix cells, as the facet_state of a
    single cell's own state, or for several cells of that of the candidate
    cone C, raising if C is not the union.  C is cut out by the
    member-cell inequalities valid on every member's state (a member's own
    guard holds on it, and the negation of one fails on the full-dimensional
    member), so C contains the union.  If the union is convex, C is exactly
    the union, since every facet of a convex union shows up among member
    inequalities.  C's state is dd_cut of the valid normals from R^dim, the
    cells' space, and every sibling check below cuts from it.

    Coverage comes from the branch tree with uncut guards contracted, as in
    the cells.  Its leaves tile R^dim with disjoint interiors, and the node
    with guard prefix p is the union of the leaves below it, as an uncut
    guard holds on its whole node.  An *off-path sibling* is a child
    p + (-h,) of a member prefix p, where p + (h,) is a member prefix and
    p + (-h,) is not.  Every leaf outside the group lies below exactly one
    of them, and none of the members does.  So C equals the union iff
    dd_cut of C by each off-path sibling's guards, less the valid normals,
    finds no interior.  A sibling with a guard whose negation is valid is
    ruled out for free; any other with an interior raises instead of
    emitting a non-convex region.  Only its last guard -h can be one: a
    guard g of p is on a member's path, so g holds on that full-dimensional
    member, -g fails there, and -g is never valid.  So _open_siblings drops
    the sibling iff h is valid, before it builds its tuple.
    """
    if len(cells) == 1:
        return facet_state(cells[0].state)
    normals = dict.fromkeys(g for c in cells for g in c.state[0])
    guards = [set(c.state[0]) for c in cells]
    valid = [g for g, ng in zip(normals, map(vneg, normals)) if all(
        g in s or ng not in s and holds_on(g, c.state)
        for s, c in zip(guards, cells))]
    state = dd_cut(dd_whole(dim), valid)
    if state is None:
        raise InvariantError(f"the {len(valid)} shared-valid inequalities "
                             f"of {len(cells)} full-dimensional cells cut "
                             f"out a cone with empty interior")
    held = set(valid)
    for sib in _open_siblings(cells, held):
        cut = dd_cut(state, (h for h in sib if h not in held))
        if cut is not None:
            raise RegionConvexityError(
                f"union of {len(cells)} same-matrix cells is not the "
                f"convex cone cut out by its {len(valid)} shared-valid "
                f"inequalities: {ray_sum_witness(cut, dim)} is "
                f"interior to it and to an off-path sibling")
    return facet_state(state)


def _mapped_region(cells: list[Cell], rep: Region,
                   image: Callable[[Vector], Vector]) -> DDState:
    """The facet_state of the union of these same-matrix cells, certified to
    be the image of rep's pointed cone under a signed permutation, else
    RegionConvexityError: the image of rep's facet state, an exact double
    description as the image of one, its facets re-sorted.  A lone pointed
    cell is the image iff their rays agree, each the unique primitive
    extreme rays of a pointed cone.  Several cells are the image iff every
    cell holds on every mapped facet (a cell's own guard does, its negation
    fails), so the image contains the union, and every off-path sibling cut
    from the image has no interior, so the image meets no other cell's
    interior (as in _merge_cells; a cell's guard that holds on the image
    rules out its sibling).  Nothing here assumes that the symmetry holds."""
    normals, lines, zeros = rep.state
    order = sorted((image(a), 1 << i) for i, a in enumerate(normals))
    state = (tuple(a for a, _ in order), lines, {image(r): sum(
        1 << k for k, (_, b) in enumerate(order) if m & b)
        for r, m in zeros.items()})
    if len(cells) == 1 and not cells[0].state[1]:
        if state[2].keys() == cells[0].state[2].keys():
            return state
    else:
        facets = [(f, vneg(f)) for f in state[0]]
        if all(f in g or n not in g and holds_on(f, c.state)
               for c in cells for g in [set(c.state[0])] for f, n in facets):
            held = {h for h in {h for c in cells for h in c.state[0]}
                    if h in state[0] or holds_on(h, state)}
            if all(dd_cut(state, [h for h in sib if h not in held]) is None
                   for sib in _open_siblings(cells, held)):
                return state
    raise RegionConvexityError(f"the image of region {rep.matrix} is not the "
                               f"union of the {len(cells)} cells of matrix "
                               f"{cells[0].rows}")


def _checked_path(src: ReducedWord, dst: ReducedWord,
                  moves: Optional[Sequence[Move]]) -> list[Move]:
    """The peel path when moves is None, else the given moves once they are
    checked to join words of one rank, src to dst; a path that does not raises."""
    if moves is None:
        return find_move_path(src, dst)
    if src.rank != dst.rank:
        raise ValueError("words have different ranks")
    moves = list(moves)
    end = apply_move_path(src, moves)
    if end != dst:
        raise ValueError(f"move path leads from {src} to {end}, not to {dst}")
    return moves


def transition_atlas(src: ReducedWord, dst: ReducedWord,
                     moves: Optional[Sequence[Move]] = None) -> RegionAtlas:
    """Atlas of the regions of linearity of the src-to-dst transition map.

    The 144-region standard-word atlas of rank 4 comes from 214 leaf cells.
    Rank 5 is slow: the peel path has 20 braids, and its 18,273 cells,
    enumerated in 1.4-1.9 s, give 6,608 regions in 3.9-4.3 s in all under
    python -O (CPython 3.11, 2 vCPUs).  Both run in src's letter_quotient.
    Groups are popped in matrix order.  X times the region of matrix Y M X
    is M's, (X, Y) of transition_automorphism, so a group whose Y M X sorts
    first is mapped, not merged: its region's state is that one's under the
    signed permutation X induces on the quotient, and its facets and
    witness follow, all as a merge gives them, as regions are pointed
    there.  _mapped_region certifies the image against the group's own
    cells; an image matrix with no group raises InvariantError.  A rank
    above 5 raises before any cell is enumerated.
    """
    if src.rank > 5:
        raise ValueError("regions supports ranks 1 to 5")
    moves = _checked_path(src, dst, moves)
    quotient = letter_quotient(src.letters)
    groups: dict[tuple[Vector, ...], list[Cell]] = {}
    for cell in enumerate_cells(src, moves):
        groups.setdefault(cell.rows, []).append(cell)
    symmetry = transition_automorphism(src, dst) if src.rank > 1 else None
    if symmetry:  # rank 1 has one region, and itemgetter wants two indices
        xs, ys = symmetry
        cols, rows = itemgetter(*xs), itemgetter(*ys)
        # X on the quotient: pair (p, q) of a letter to pair j, or (q, p) to ~j
        spots = {pq[::s]: j if s > 0 else ~j
                 for j, pq in enumerate(quotient.pairs) for s in (1, -1)}
        signed = [spots.get((xs[p], xs[q])) for p, q in quotient.pairs]
        if None in signed:
            raise InvariantError(f"{xs} moves a pair off its letter")
        image = lambda v: tuple([v[j] if j >= 0 else -v[~j] for j in signed])
    regions: list[Region] = []
    index: dict[tuple[Vector, ...], int] = {}
    bits_index: dict[str, int] = {}
    for matrix in sorted(groups):
        group = groups.pop(matrix)
        twin = symmetry and tuple(map(cols, rows(matrix)))
        if twin and twin not in index and twin not in groups and twin != matrix:
            raise InvariantError(f"the image {twin} of matrix {matrix} "
                                 f"has no cell")
        rep = regions[index[twin]] if twin and twin < matrix else None
        if rep is None or rep.state[1]:  # with lines, rays are not unique
            state = _merge_cells(group, quotient.dim)
            ineqs = map(quotient.pull, state[0])
        else:  # pull(image(c)) = X pull(c)
            state = _mapped_region(group, rep, image)
            ineqs = map(cols, rep.cone.ineqs)
        index[matrix] = len(regions)
        for cell in group:
            bits_index[cell.bits] = len(regions)
        cone = HCone(quotient.k, tuple(sorted(ineqs)))
        witness = quotient.lift(ray_sum_witness(state, quotient.dim))
        regions.append(Region(matrix, cone, witness, state, quotient))
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
        return not self.unmatched and self.injective and self.covers_all_minimal


def _spans(vecs: Sequence[Vector], facets: Sequence[Vector]) -> bool:
    """Is cone(vecs) = {x >= 0 : a . x >= 0 for a in facets}, for k vecs in
    dimension k and primitive facets?  Dependent vecs raise InvariantError.
    Read off the table of a . v, the orthant implied: its rows e_i . v are
    the vecs' coordinates, and only the facets take dot products.  Every
    entry must be >= 0, and facet i of cone(vecs) is present when a row
    vanishes on every v_j, j != i, and is positive on v_i.  All k present
    make the rows on vecs diagonal, so vecs are independent, and each x >= 0
    with every a . x >= 0 has non-negative coordinates in vecs: the cones
    are equal.  Conversely a full-dimensional cone's facets are among the
    normals of each of its inequality descriptions up to scaling (Ziegler,
    Lectures on Polytopes, ch. 2).  Only a no runs _gauss_jordan, to tell
    dependent vecs apart."""
    table = [[sum(map(mul, a, v)) for v in vecs] for a in facets]
    table += zip(*vecs)
    supports = [[i for i, d in enumerate(row) if d] for row in table]
    if (min(map(min, table)) >= 0
            and len({s[0] for s in supports if len(s) == 1}) == len(vecs)):
        return True
    if not _gauss_jordan(vecs)[0]:
        raise InvariantError(f"spanning vectors {tuple(vecs)} are dependent")
    return False


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
    compares S with it through the zero sets of their dot table, with no DD
    and no elimination.
    """
    rank = atlas.src.rank
    minimal = min(r.facet_count for r in atlas.regions)
    matches, unmatched = [], []
    used: set[int] = set()
    cgraph = class_graph(rank)
    for canonical in sorted(cgraph):  # no class sizes needed
        vecs = spanning_vectors(ReducedWord(rank, canonical))
        idx = atlas._index_containing(tuple(map(sum, zip(*vecs))))
        if not _spans(vecs, atlas.regions[idx].cone.ineqs):
            unmatched.append(canonical)
            continue
        used.add(idx)
        matches.append(ClassRegionMatch(canonical, idx))
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
    interior: the region's lifted state dd_cut by the orthant, which is None
    when the restriction has no interior, and the facets read off the cut."""
    orth = identity(atlas.dim)
    out = []
    for idx, region in enumerate(atlas.regions):
        cut = dd_cut(region.lifted_state, orth)
        if cut is None:
            continue
        reduced = HCone(atlas.dim, facet_state(cut)[0])
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


def _disjoint_covers(chosen, left, slots, iv, top, overlaps):
    """The index-increasing extensions of chosen by slots more pieces,
    pairwise disjoint, whose volumes iv sum to left, in lexicographic
    order (simplicial_decomposition's search)."""
    if not slots:
        yield chosen
        return
    for j in range(chosen[-1] + 1 if chosen else 0, len(iv)):
        if left > slots * top[j]:
            return
        if (iv[j] <= left and (iv[j] == left) == (slots == 1)
                and not any(overlaps(i, j) for i in chosen)):
            yield from _disjoint_covers(chosen + (j,), left - iv[j], slots - 1,
                                        iv, top, overlaps)


def simplicial_decomposition(cone: HCone) -> Decomposition:
    """Minimum-cardinality cover of a pointed full-dimensional cone by
    simplicial subcones on its extreme rays with pairwise disjoint interiors.

    Certified by volume: c, the sum of the normals, is positive on every
    extreme ray, and the simplicial cone on rays r_1..r_k, of determinant
    d, meets {c . x <= 1} in a simplex of volume |d| / prod(c . r_i)
    (times 1/k!).  Pieces inside the cone with disjoint interiors cover it
    iff their volumes sum to the cone's, which its pulling triangulation
    gives; its simplices are k-subsets of the sorted rays, so each volume
    comes from the one elimination per subset.

    For s = 1, 2, ... a depth-first search walks the index-increasing
    s-subsets of the pieces in lexicographic order, volumes scaled to
    integers iv, and yields the pairwise disjoint ones summing to the total;
    the pulling triangulation is one, so the first found is a minimal cover.
    A branch ends once the volume left exceeds the slots left times top[j],
    the largest iv from piece j on; a slot before the last needs iv[j] below
    the volume left, the last needs it equal.  No cover fails these, and
    only a piece that passes them is tested against the chosen ones, once a
    pair: pieces overlap iff one cut by the other's normals has an interior.
    """
    k = cone.dim
    state = full_cut(cone)
    if state[1]:
        raise NonPointedError(state[1][0])
    rays = tuple(sorted(state[2]))
    c = tuple(map(sum, zip(*cone.ineqs)))
    pieces, hforms, vols = [], [], []
    for s in combinations(rays, k):
        d, facets = _gauss_jordan(s)
        if d:
            pieces.append(s)
            hforms.append(facets)
            vols.append(_volume(d, s, c))
    total = sum(vols[pieces.index(s)] for s in _pulling_simplices(rays, cone.ineqs))
    scale = lcm(*(v.denominator for v in vols))
    iv = [int(v * scale) for v in vols]
    top = list(accumulate(reversed(iv), max))[::-1]
    simplex = cache(lambda i: dd_simplex(pieces[i], hforms[i]))
    overlaps = cache(lambda i, j: dd_cut(simplex(i), hforms[j]) is not None)
    for size in range(1, len(pieces) + 1):
        for found in _disjoint_covers((), int(total * scale), size, iv, top,
                                      overlaps):
            return Decomposition(tuple(VCone(k, pieces[i]) for i in found), True)
    raise InvariantError("no disjoint simplicial cover, not even the pulling "
                         "triangulation")


# ---------------------------------------------------------------------------
# Graphs on regions and the class-region comparison
# ---------------------------------------------------------------------------

def region_graph(atlas: RegionAtlas) -> dict[int, frozenset[int]]:
    """Facet-adjacency graph: edge when two regions share a (k-1)-dim face.

    A join, no DD: region i is filed, per facet g of its kept state, under
    (g, F), F the rays whose masks have g's bit (unique primitive extreme
    rays: regions are pointed in the quotient).
    j filed under (-g, F) holds the (k-1)-dim face F too, so is adjacent.
    Conversely a region sharing a (k-1)-dim piece of i's facet g lies on
    the -g side and has interior points just across the piece, as j does:
    region interiors are disjoint, so it is j.  That needs each key filed
    once, with a partner (a facet-to-facet fan; Ziegler, Lectures on
    Polytopes, ch. 2 and 7), or InvariantError, never a wrong graph.
    """
    quotient = letter_quotient(atlas.src.letters)
    filed: dict[tuple[Vector, frozenset[Vector]], int] = {}
    for i, region in enumerate(atlas.regions):
        normals, _, zeros = region.state
        for b, g in enumerate(normals):
            key = (g, frozenset(r for r, m in zeros.items() if m >> b & 1))
            if filed.setdefault(key, i) != i:
                raise InvariantError(f"regions {filed[key]} and {i} both have "
                                     f"the face of facet {quotient.pull(g)}")
    adj: dict[int, set[int]] = {i: set() for i in range(len(atlas.regions))}
    for (g, face), i in filed.items():
        if (j := filed.get((vneg(g), face))) is None:
            raise InvariantError(f"no region across facet "
                                 f"{quotient.pull(g)} of region {i}")
        adj[i].add(j)
    return {i: frozenset(nb) for i, nb in adj.items()}


def class_region_isomorphism_report(atlas: RegionAtlas,
                                    match: MatchReport) -> dict:
    """Compare the class graph with region_graph induced on the minimal
    regions, under the spanned-cone match, match_spanned_regions(atlas),
    whose class graph it reads; its edges map to region pairs only if the
    match is ok.  Exploratory: both edge notions are stated
    interpretations, so the result is reported, not asserted."""
    mapping = {m.canonical: m.region_index for m in match.matches}
    cgraph = match.class_graph
    minimal = {i for i, r in enumerate(atlas.regions)
               if r.facet_count == match.minimal_facets}
    rgraph = {i: nb & minimal for i, nb in region_graph(atlas).items()
              if i in minimal}
    class_edges = {frozenset((a, b)) for a, nbs in cgraph.items() for b in nbs}
    region_edges = {frozenset((a, b)) for a, nbs in rgraph.items() for b in nbs}
    return {
        "rank": atlas.src.rank,
        "class_vertices": len(cgraph),
        "region_vertices": len(rgraph),
        "class_edges": len(class_edges),
        "region_edges": len(region_edges),
        "match_ok": match.ok,
        "is_isomorphism": match.ok and region_edges == {
            frozenset(map(mapping.get, e)) for e in class_edges},
    }
