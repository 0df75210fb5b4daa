"""The atlas build in R^k, the reference for the build in the quotient by
the lineality space.

``enumerate_cells`` is ``regions.enumerate_cells`` as it was before the
cells moved to the quotient R^k/L of ``regions.letter_quotient``: each
branch carries its double-description state in R^k from ``dd_whole(k)``,
whose n lines, spanning L, no guard ever cuts.  It splits every guard that
is new on its branch, so its cells keep every guard, those that do not cut
too; ``enumerate_cuts`` gives, per cell in the same order, the guards
whose split kept two sides.  ``rk_regions`` merges its same-matrix groups
with ``regions._merge_cells`` in R^k, the way ``regions.transition_atlas``
did, and returns each region's matrix, facets and facet state, with the
bits_index.  ``point_quotient`` takes a point's quotient
coordinates, the consecutive differences along each letter's positions.

``merged_atlas`` is ``regions.transition_atlas`` as it was before the
automorphism of the transition map built half of the regions as images:
every same-matrix group is merged by ``regions._merge_cells``.

``cut_region_graph`` is ``regions.region_graph`` as it was before the join
of facet faces: a pairwise cut loop, one ``dd_step`` per facet and one
``dd_cut`` per candidate region across, with its ``minimal_only`` mode.
"""

from wordcones.polyhedra import (HCone, InvariantError, dd_cut, dd_split,
                                 dd_step, dd_whole, identity, primitive,
                                 ray_sum_witness, vneg)
from wordcones.regions import (Cell, Region, RegionAtlas, _braid_rows,
                               _checked_path, _merge_cells, letter_quotient)
from wordcones.regions import enumerate_cells as quotient_cells
from wordcones.words import COMMUTATION


def enumerate_cells(src, moves):
    """Depth-first branch enumeration in R^k, pruning branches with empty
    interior; each cell keeps the R^k state of its guards."""
    return [cell for cell, _ in enumerate_cuts(src, moves)]


def enumerate_cuts(src, moves):
    """[(cell, cuts)] of enumerate_cells, cuts the cell's guards whose
    dd_split kept both sides, in order."""
    k = len(src.letters)
    cells = []
    stack = [(0, identity(k), dd_whole(k), "", ())]
    while stack:
        idx, rows, state, bits, cuts = stack.pop()
        while idx < len(moves):
            mv = moves[idx]
            t = mv.position - 1
            if mv.kind == COMMUTATION:
                rows = rows[:t] + (rows[t + 1], rows[t]) + rows[t + 2:]
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
            split = dd_split(state, g)
            sides = [(_braid_rows(rows, t, bit == "1"), side, bits + bit,
                      cuts if None in split else cuts + (side[0][-1],))
                     for bit, side in zip("10", split) if side is not None]
            if not sides:
                raise InvariantError("both braid branches are empty")
            # continue along the first option; push the rest
            stack += [(idx,) + s for s in sides[1:]]
            rows, state, bits, cuts = sides[0]
        cells.append((Cell(rows, bits, state), cuts))
    return cells


def rk_regions(src, moves):
    """([(matrix, facets, state)] in matrix order, bits_index) of the R^k
    build: the R^k cells grouped by matrix, each group merged in R^k."""
    k = len(src.letters)
    groups = {}
    for cell in enumerate_cells(src, moves):
        groups.setdefault(cell.rows, []).append(cell)
    regions, bits_index = [], {}
    for matrix in sorted(groups):
        state = _merge_cells(groups[matrix], k)
        for cell in groups[matrix]:
            bits_index[cell.bits] = len(regions)
        regions.append((matrix, HCone(k, state[0]), state))
    return regions, bits_index


def merged_atlas(src, dst, moves=None):
    """The atlas with every same-matrix group merged, in matrix order."""
    moves = _checked_path(src, dst, moves)
    quotient = letter_quotient(src.letters)
    groups = {}
    for cell in quotient_cells(src, moves):
        groups.setdefault(cell.rows, []).append(cell)
    regions, bits_index = [], {}
    for matrix in sorted(groups):
        group = groups.pop(matrix)
        state = _merge_cells(group, quotient.dim)
        for cell in group:
            bits_index[cell.bits] = len(regions)
        facets = map(quotient.pull, state[0])
        witness = quotient.lift(ray_sum_witness(state, quotient.dim))
        regions.append(Region(matrix, HCone(quotient.k, tuple(sorted(facets))),
                              witness, state, quotient))
    return RegionAtlas(src, dst, tuple(moves), tuple(regions), bits_index)


def point_quotient(quotient, x):
    """The quotient coordinates of x: for each letter, the differences of x
    along its positions."""
    return tuple(x[q] - x[p] for chain in quotient.chains
                 for p, q in zip(chain, chain[1:]))


def cut_region_graph(atlas, minimal_only):
    """Facet-adjacency graph: edge when two regions share a (k-1)-dim face.

    Such a face lies on the hyperplane of a facet g of one region where -g
    is a facet of the other, pushed to the quotient: the first region's face
    there, dd_step of its kept state by -g, keeps a relative interior under
    dd_cut by the other's remaining facets.  None of those is parallel to g,
    or the other region would lie in the hyperplane, so none vanishes on it,
    as dd_cut needs.
    """
    minimal = min(r.facet_count for r in atlas.regions)
    push = letter_quotient(atlas.src.letters).push
    facets = {i: tuple(map(push, r.cone.ineqs))
              for i, r in enumerate(atlas.regions)
              if not minimal_only or r.facet_count == minimal}
    by_facet = {}
    for i, gs in facets.items():
        for g in gs:
            by_facet.setdefault(g, []).append(i)
    adj = {i: set() for i in facets}
    for i, gs in facets.items():
        for g in gs:
            face = dd_step(atlas.regions[i].state, vneg(g))
            for jdx in by_facet.get(vneg(g), ()):
                if jdx <= i or jdx in adj[i]:
                    continue
                if dd_cut(face, (h for h in facets[jdx]
                                 if h != vneg(g))) is not None:
                    adj[i].add(jdx)
                    adj[jdx].add(i)
    return {i: frozenset(nb) for i, nb in adj.items()}
