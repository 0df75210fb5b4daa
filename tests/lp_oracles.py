"""Cone predicates on the phase-1 simplex, the reference for the library's
double-description answers.

Each function answers the same question as its namesake in
``wordcones.polyhedra`` with one exact LP per decision, as the library did
before it answered everything from generators.  The tests compare the two.
The two cover oracles at the end check ``regions.simplicial_decomposition``
by LP subtraction, without its volume certificate.  ``_rank_facets`` and
``_rank_pulling_simplices`` pick faces by rank, the rule that
``facets_from_generators`` and ``regions._pulling_simplices`` replaced with
maximal zero sets.  ``facets_from_generators`` takes each zero set by dot
products, as the library did before it read them off the double-description
masks (``polyhedra.facet_state``), and ``positive_somewhere`` is the
scan ``polyhedra.dd_cut`` ran before it read emptiness off the cut state.

``assert_state_invariants`` checks that a double-description state
describes itself: its normals, its masks and its lines agree by dot
products.

``scanned_region_index`` is the class-to-region match by a scan over all
regions and two double descriptions per comparison, the way
``regions.match_spanned_regions`` matched before it looked the probe up.
``eliminated_spans`` is ``regions._spans`` as it was before it read the
spanned cone's facets off the dot table: it takes them from the
elimination that gives the determinant.  ``level_search_decomposition`` is
``regions.simplicial_decomposition`` as it was before its depth-first
search: it cuts every pair of candidate pieces for the overlap table first,
then lists the disjoint subsets level by level.  ``off_path_siblings`` is
the sibling list ``regions._merge_cells`` cut from before it walked the
members' guards as a trie: every off-path sibling, from a set of hashed
guard prefixes, including those a valid normal rules out.

The predicates without an underscore have no caller in the library; the
tests still use them: ``matrix_rank`` and ``bareiss_det`` read the Bareiss
elimination that the library's determinant rested on before it read its one
Gauss-Jordan pass, and ``implies`` and ``lp_feasible`` answer from double
description generators what ``_lp_implies`` and ``_lp_feasible`` answer
by LP, and ``interior_point`` answers from ``polyhedra.dd_cut`` what
``_lp_interior_point`` answers by LP; ``polyhedra.subtract_full_dim``,
its one library caller until then, asks ``dd_cut`` itself.
``extreme_rays`` is double description from the whole space,
sorted, the reference for the rays the library cuts from written-down
states (``lusztig.spanning_rays``, ``regions.simplicial_decomposition``).
"""

from functools import reduce
from itertools import combinations

from wordcones.polyhedra import (DegenerateConeError, HCone, InvariantError,
                                 NonPointedError, VCone, _gauss_jordan,
                                 cone_equal, cone_from_rays, dd_cut,
                                 dd_simplex, dd_step, dd_whole, dot,
                                 double_description, hcone, holds_on,
                                 nonneg_orthant, primitive, ray_sum_witness,
                                 solve_inequalities, vcone, vneg)
from wordcones.regions import Decomposition, _pulling_simplices, _volume


def _bareiss(rows):
    """Fraction-free (Bareiss) row echelon form: (rank, signed last pivot).

    Rows are swapped to bring up a pivot and columns without one are
    skipped.  Each entry below the pivots is a minor of the input, so every
    division is exact.  For a square matrix of full rank the signed last
    pivot is the determinant.
    """
    m = [list(map(int, row)) for row in rows]
    rank, sign, prev = 0, 1, 1
    for col in range(len(m[0]) if m else 0):
        p = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if p is None:
            continue
        if p != rank:
            m[rank], m[p] = m[p], m[rank]
            sign = -sign
        piv, prow = m[rank][col], m[rank]
        for r in range(rank + 1, len(m)):
            f = m[r][col]
            m[r] = [(piv * x - f * y) // prev for x, y in zip(m[r], prow)]
        prev = piv
        rank += 1
    return rank, sign * prev


def matrix_rank(rows):
    return _bareiss(rows)[0]


def bareiss_det(matrix):
    """Determinant of a square integer matrix by Bareiss elimination."""
    rank, pivot = _bareiss(matrix)
    return pivot if rank == len(matrix) else 0


def assert_state_invariants(state, cut):
    """The state's normals are the non-zero normals of cut, made primitive,
    in order; bit i of each ray's mask is set iff normals[i] vanishes on
    the ray; and every line vanishes on every normal."""
    normals, lines, zeros = state
    assert normals == tuple(a for a in map(primitive, cut) if any(a)), cut
    for r, mask in zeros.items():
        assert mask == sum(1 << i for i, a in enumerate(normals)
                           if dot(a, r) == 0), (normals, r)
    assert all(dot(a, l) == 0 for a in normals for l in lines), normals


def positive_somewhere(a, lines, rays):
    """Is a . x > 0 somewhere on the cone with these generators?  For a
    full-dimensional cone: does the open side {a . x > 0} meet its interior?"""
    return (any(dot(a, l) != 0 for l in lines)
            or any(dot(a, r) > 0 for r in rays))


def facets_from_generators(normals, rays, dim):
    """Facet list, primitive and sorted, of the full-dimensional cone
    {x : a . x >= 0 for a in normals} that these rays generate together
    with its lines: the non-zero normals whose zero set on the rays, taken
    by dot products, no other normal's strictly contains.  This holds for
    any generating set."""
    masks = {}
    for a in map(primitive, normals):
        if any(a):
            masks[a] = sum(1 << j for j, r in enumerate(rays) if dot(a, r) == 0)
    faces = set(masks.values())
    return HCone(dim, tuple(sorted(
        a for a, m in masks.items()
        if not any(f & m == m and f != m for f in faces))))


def extreme_rays(cone):
    """Complete set of primitive extreme rays of a pointed cone."""
    lines, rays = double_description(cone.ineqs, cone.dim)
    if lines:
        raise NonPointedError(lines[0])
    return VCone(cone.dim, tuple(sorted(rays)))


def implies(ineqs, a, dim):
    """Does a . x >= 0 hold on all of {x : ineqs}?"""
    return holds_on(a, reduce(dd_step, ineqs, dd_whole(dim)))


def lp_feasible(cone, strict=()):
    """Is there a point satisfying the cone, strictly on the normals whose
    indices are in strict?  Yes iff each of those is positive somewhere."""
    gens = double_description(cone.ineqs, cone.dim)
    return all(positive_somewhere(cone.ineqs[i], *gens) for i in set(strict))


def contains_strictly(cone, point):
    return all(dot(a, point) > 0 for a in cone.ineqs)


def regions_containing(atlas, point):
    return [r for r in atlas.regions if r.cone.contains(point)]


def interior_point(ineqs, dim):
    """An integer point satisfying every inequality strictly, or None.

    None if a normal is zero or dd_cut finds the cone's interior empty;
    otherwise the primitive sum of the rays, which a non-zero normal can
    only vanish on if it vanishes on the whole cone.
    """
    if not all(map(any, ineqs)):  # 0 . x > 0 has no solution
        return None
    cut = dd_cut(dd_whole(dim), ineqs)
    return None if cut is None else ray_sum_witness(cut, dim)


def _lp_interior_point(ineqs, dim):
    """A point with every a . x >= 1 (so > 0), or None."""
    sol = solve_inequalities(ineqs, [1] * len(ineqs), dim)
    if sol is None:
        return None
    if len(ineqs) == 0:
        return tuple([1] + [0] * (dim - 1)) if dim else ()
    return primitive(sol)


def _lp_implies(ineqs, a, dim):
    """a . x >= 0 on the cone iff ineqs with a . x >= 1 reversed is empty."""
    rows = list(ineqs) + [vneg(a)]
    return solve_inequalities(rows, [0] * len(ineqs) + [1], dim) is None


def _lp_feasible(cone, strict=()):
    strict = set(strict)
    rhs = [1 if i in strict else 0 for i in range(len(cone.ineqs))]
    return solve_inequalities(cone.ineqs, rhs, cone.dim) is not None


def _lp_irredundant_h(cone):
    """Drop implied normals one at a time until none is implied."""
    if _lp_interior_point(cone.ineqs, cone.dim) is None:
        raise DegenerateConeError("cone is not full-dimensional")
    keep = list(dict.fromkeys(primitive(a) for a in cone.ineqs))
    i = 0
    while i < len(keep):
        if _lp_implies(keep[:i] + keep[i + 1:], keep[i], cone.dim):
            keep.pop(i)
        else:
            i += 1
    return HCone(cone.dim, tuple(sorted(keep)))


def _rank_facets(normals, lines, rays, dim):
    """Facets of the full-dimensional cone {x : a . x >= 0 for a in normals}
    with these generators: the normals whose lines and zero rays have rank
    dim - 1, one Bareiss elimination each.  Fewer than dim - 1 - len(lines)
    such rays cannot."""
    need = dim - 1 - len(lines)
    keep = set()
    for a in map(primitive, normals):
        face = [r for r in rays if dot(a, r) == 0]
        if len(face) >= need and matrix_rank(list(lines) + face) == dim - 1:
            keep.add(a)
    return HCone(dim, tuple(sorted(keep)))


def _rank_pulling_simplices(face, normals, rank):
    """Pulling triangulation of a face of given rank, its facets that miss
    face[0] picked as the zero sets of rank one less, one Bareiss
    elimination each."""
    if rank == 1:
        return [face]
    facets = dict.fromkeys(tuple(r for r in face if dot(a, r) == 0)
                           for a in normals if dot(a, face[0]) > 0)
    return [(face[0],) + s for f in facets if matrix_rank(f) == rank - 1
            for s in _rank_pulling_simplices(f, normals, rank - 1)]


def _lp_subtract_full_dim(pieces, ineqs, dim):
    """subtract_full_dim with the LP interior-point test."""
    out = []
    for piece in pieces:
        acc = list(piece)
        for g in ineqs:
            cand = acc + [vneg(g)]
            if _lp_interior_point(cand, dim) is not None:
                out.append(tuple(cand))
            acc.append(g)
    return out


def _lp_is_disjoint_cover(cone, pieces):
    """Do the H-form pieces cover the cone with pairwise disjoint interiors?"""
    left = [tuple(cone.ineqs)]
    for piece in pieces:
        left = _lp_subtract_full_dim(left, piece, cone.dim)
    return not left and all(_lp_interior_point(a + b, cone.dim) is None
                            for a, b in combinations(pieces, 2))


def _lp_min_simplicial_cover(cone):
    """Fewest simplicial cones on the extreme rays that cover the cone with
    pairwise disjoint interiors, decided by LP subtraction and LP overlap
    tests with no volumes.  Iterative deepening over the count; each step
    covers an interior point of what is left, as any cover must."""
    k = cone.dim
    hforms = [cone_from_rays(VCone(k, s)).ineqs
              for s in combinations(extreme_rays(cone).rays, k) if bareiss_det(s) != 0]

    def covers(left, chosen, size):
        if not left:
            return True
        if len(chosen) == size:
            return False
        x = _lp_interior_point(left[0], k)
        return any(covers(_lp_subtract_full_dim(left, hforms[j], k),
                          chosen + [j], size)
                   for j in range(len(hforms))
                   if all(dot(a, x) >= 0 for a in hforms[j])
                   and all(_lp_interior_point(hforms[i] + hforms[j], k) is None
                           for i in chosen))

    return next(size for size in range(1, len(hforms) + 1)
                if covers([tuple(cone.ineqs)], [], size))


def scanned_region_index(atlas, vecs):
    """Index of the first region whose cone contains the sum of vecs and
    whose intersection with the non-negative orthant is cone(vecs), or None."""
    spanned = vcone(vecs, atlas.dim)
    probe = tuple(map(sum, zip(*vecs)))
    orth = nonneg_orthant(atlas.dim).ineqs
    return next((idx for idx, region in enumerate(atlas.regions)
                 if region.cone.contains(probe)
                 and cone_equal(spanned, hcone(region.cone.ineqs + orth,
                                               atlas.dim))), None)


def off_path_siblings(cells):
    """Guard tuples p + (-h,) where p + (h,) is a prefix of a member's guards
    and p + (-h,) is not, in first-seen order."""
    guards = [c.state[0] for c in cells]
    prefixes = {g[:j] for g in guards for j in range(len(g) + 1)}
    neg = {h: vneg(h) for h in set().union(*guards)}
    return [sib for sib in dict.fromkeys(g[:j] + (neg[g[j]],)
                                         for g in guards for j in range(len(g)))
            if sib not in prefixes]


def eliminated_spans(vecs, normals):
    """Is cone(vecs) = {x : a . x >= 0 for a in normals}, for k vecs in
    dimension k and primitive normals?  Dependent vecs raise
    InvariantError.  Yes iff each of the k facets of cone(vecs), from the
    _gauss_jordan pass that gives its determinant, is a normal, and all
    a . v >= 0."""
    d, facets = _gauss_jordan(vecs)
    if not d:
        raise InvariantError(f"spanning vectors {tuple(vecs)} are dependent")
    return (set(facets) <= set(normals)
            and all(dot(a, v) >= 0 for a in normals for v in vecs))


def level_search_decomposition(cone):
    """The minimal simplicial decomposition by the all-pairs overlap table
    and a level-by-level search: the same Decomposition as
    regions.simplicial_decomposition, which decides a pair only when its
    depth-first search reaches it."""
    k = cone.dim
    state = dd_cut(dd_whole(k), cone.ineqs)
    if state is None:
        raise DegenerateConeError("cone is not full-dimensional")
    if state[1]:
        raise NonPointedError(state[1][0])
    rays = tuple(sorted(state[2]))
    c = tuple(map(sum, zip(*cone.ineqs)))
    pieces, hforms, states, vols = [], [], [], []
    for s in combinations(rays, k):
        d, facets = _gauss_jordan(s)
        if d:
            pieces.append(s)
            hforms.append(facets)
            states.append(dd_simplex(s, facets))
            vols.append(_volume(d, s, c))
    vol = dict(zip(pieces, vols))
    total = sum(map(vol.__getitem__, _pulling_simplices(rays, cone.ineqs)))
    # pieces overlap iff cutting one by the other's normals leaves an interior
    overlap = {(i, j) for i, j in combinations(range(len(pieces)), 2)
               if dd_cut(states[i], hforms[j]) is not None}
    # pairwise-disjoint index-increasing subsets of one size, with the
    # volume they leave uncovered
    level = [((), total)]
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
