"""The Lusztig cone of a reduced word.

Coordinates a_1,...,a_k are indexed by word positions.  For every pair of
consecutive occurrences t < t' of the same letter, the sum of the entries at
the intervening positions whose letter does not commute with it (Dynkin
neighbours, |i_p - i_t| = 1) must be at least a_t + a_{t'}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .polyhedra import (HCone, InvariantError, VCone, Vector, dd_simplex,
                        dd_step, identity)
from .words import ReducedWord, bounded_chambers


@dataclass(frozen=True)
class LusztigCone:
    """Consecutive-occurrence inequality system of a reduced word.

    ``cone`` holds exactly the k - n pair inequalities; the lattice points of
    the object itself live in N^k, so ``spanning_rays`` cuts from the
    orthant's state.
    """

    word: ReducedWord
    cone: HCone


def lusztig_cone(word: ReducedWord) -> LusztigCone:
    """Inequalities of the cone attached to a reduced word.

    >>> from .words import parse_word
    >>> [sum(c for c in a if c > 0) for a in lusztig_cone(parse_word("121")).cone.ineqs]
    [1]
    """
    return LusztigCone(word, HCone(len(word.letters), _pair_rows(word)))


def spanning_rays(word: ReducedWord) -> VCone:
    """Extreme rays of the Lusztig cone as a subset of the orthant, sorted:
    one dd_step per pair row from the orthant's written-down state, in a
    stable order by chamber length z - x, so few rays are made on the way."""
    k = len(word.letters)
    rows = _pair_rows(word, key=lambda c: c[1] - c[0])
    zeros = reduce(dd_step, rows, dd_simplex(identity(k), identity(k)))[2]
    return VCone(k, tuple(sorted(zeros)))


def _pair_rows(word: ReducedWord, key=None) -> tuple[Vector, ...]:
    """The k - n pair rows, -1 at x, z and 1 at the sides of each bounded
    chamber (x, z, sides), in order of z or sorted stably by key."""
    k, chambers = len(word.letters), bounded_chambers(word.letters)
    ineqs: list[Vector] = []
    for x, z, sides in (sorted(chambers, key=key) if key else chambers):
        row = [0] * k
        row[x] = row[z] = -1
        for y in sides:
            row[y] = 1
        ineqs.append(tuple(row))
    if len(ineqs) != k - word.rank:
        raise InvariantError(f"{len(ineqs)} inequalities, not {k - word.rank}")
    return tuple(ineqs)
