"""Cone predicates on the phase-1 simplex, the reference for the library's
double-description answers.

Each function answers the same question as its namesake in
``wordcones.polyhedra`` with one exact LP per decision, as the library did
before it answered everything from generators.  The tests compare the two.
"""

from wordcones.polyhedra import (DegenerateConeError, HCone, primitive,
                                 solve_inequalities, vneg)


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
