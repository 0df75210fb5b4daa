"""The Lusztig cone of a reduced word.

Coordinates a_1,...,a_k are indexed by word positions.  For every pair of
consecutive occurrences t < t' of the same letter, the sum of the entries at
the intervening positions whose letter does not commute with it (Dynkin
neighbours, |i_p - i_t| = 1) must be at least a_t + a_{t'}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .polyhedra import (HCone, InvariantError, VCone, Vector, dd_orthant,
                        dd_step, hcone, intersect, nonneg_orthant)
from .words import BRAID, Move, ReducedWord, bounded_chambers


@dataclass(frozen=True)
class LusztigCone:
    """Consecutive-occurrence inequality system of a reduced word.

    ``cone`` holds exactly the k - n pair inequalities; the lattice points of
    the object itself live in N^k, so predicates about the *set* take the
    orthant too: ``contains`` and ``with_nonneg`` add it, ``spanning_rays``
    cuts from its state.
    """

    word: ReducedWord
    cone: HCone

    def with_nonneg(self) -> HCone:
        return intersect(self.cone, nonneg_orthant(self.cone.dim))

    def contains(self, point) -> bool:
        return all(x >= 0 for x in point) and self.cone.contains(point)


def lusztig_cone(word: ReducedWord) -> LusztigCone:
    """Inequalities of the cone attached to a reduced word.

    >>> from .words import parse_word
    >>> [sum(c for c in a if c > 0) for a in lusztig_cone(parse_word("121")).cone.ineqs]
    [1]
    """
    k = len(word.letters)
    ineqs: list[Vector] = []
    for x, z, sides in bounded_chambers(word.letters):
        row = [0] * k
        row[x] = row[z] = -1
        for y in sides:
            row[y] = 1
        ineqs.append(tuple(row))
    result = LusztigCone(word, HCone(k, tuple(ineqs)))
    if len(ineqs) != k - word.rank:
        raise InvariantError(f"{len(ineqs)} inequalities, not {k - word.rank}")
    return result


def spanning_rays(word: ReducedWord) -> VCone:
    """Extreme rays of the Lusztig cone as a subset of the orthant, sorted:
    one dd_step per pair row from dd_orthant(k), which has no line, in a
    stable order by chamber length z - x, so few rays are made on the way."""
    k = len(word.letters)
    lengths = [z - x for x, z, _ in bounded_chambers(word.letters)]
    rows = sorted(zip(lengths, lusztig_cone(word).cone.ineqs), key=lambda p: p[0])
    zeros = reduce(dd_step, (a for _, a in rows), dd_orthant(k))[2]
    return VCone(k, tuple(sorted(zeros)))


def transport_under_commutation(word: ReducedWord, move: Move) -> tuple[int, ...]:
    """Coordinate permutation relating the cones of word and its commutation.

    Returned as a 0-based mapping new_index -> old_index (a transposition of
    the two swapped positions); the cone of the moved word equals the cone of
    the original with coordinates permuted accordingly.
    """
    if move.kind == BRAID:
        raise ValueError("braid moves do not transport Lusztig cones coordinatewise")
    t = move.position - 1
    k = len(word.letters)
    if t + 1 >= k:
        raise ValueError(f"commutation at {move.position} out of range")
    perm = list(range(k))
    perm[t], perm[t + 1] = perm[t + 1], perm[t]
    return tuple(perm)


def permute_cone(cone: HCone, perm: tuple[int, ...]) -> HCone:
    """Apply a coordinate permutation (new_index -> old_index) to an HCone."""
    return hcone([tuple(a[perm[i]] for i in range(cone.dim)) for a in cone.ineqs],
                 cone.dim)
