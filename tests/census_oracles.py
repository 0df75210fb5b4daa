"""The per-word census, as a digest, and the chamber scan it starts from,
written the plain way as the reference for ``chambers``' one-pass scan.

``reference_chamber_sets`` reads each bounded chamber's members off the
wiring diagram's string orders, checks them with ``sorted``/``list(range)``
segment tests, and numbers the interval by ``w[:z].count(g)``.

``census_digest`` hashes what the census5 benchmark computes for a word,
over one word per commutation class: the class canonical (of the word and
of its reverse, which is a word of another class and seldom its own
canonical), every chamber-set field, the quiver texts, the root order, the
Lusztig rays, the spanning vectors and the facets of the cone they span.
At rank 5 it covers the 908 class words.

    PYTHONPATH=src python -O tests/census_oracles.py

checks the rank-5 digest and exits non-zero on a mismatch; the check does
not rely on ``assert``, so ``-O`` keeps it.
"""

import hashlib
import sys

from wordcones import chambers, lusztig, polyhedra, quivers, rectangles, words
from wordcones.chambers import ChamberSet
from wordcones.polyhedra import InvariantError

CENSUS5_SHA256 = "a37eef02ba19f79a4a87b7cdcb63ca17e123a4dc6eb74695a8875f331fc35054"


def reference_chamber_sets(word):
    """The n(n-1)/2 bounded-chamber sets of a word, one scan of the
    wiring diagram per chamber."""
    n, w = word.rank, word.letters
    orders = words.wiring(w, n)
    out = []
    for x, z, _ in words.bounded_chambers(w):
        g = w[z]
        members = frozenset(orders[x + 1][g:])  # below the gap after crossing x
        if members != frozenset(orders[z][g:]):
            raise InvariantError("below-set drifted between crossings")
        m = sorted(members)
        if m and m == list(range(1, len(m) + 1)):
            raise InvariantError(f"chamber set {m} is an initial segment")
        if m and m == list(range(n + 2 - len(m), n + 2)):
            raise InvariantError(f"chamber set {m} is a terminal segment")
        out.append(ChamberSet(g, w[:z].count(g), members, x + 1, z + 1))
    if len(out) != n * (n - 1) // 2:
        raise InvariantError(f"{len(out)} chamber sets at rank {n}")
    return out


def census_record(letters, rank):
    """One line of the census of a word, as census5 computes it."""
    word = words.ReducedWord(rank, letters)
    spanned = rectangles.spanning_vectors(word)
    cone = polyhedra.cone_from_rays(polyhedra.vcone(spanned, len(letters)))
    return repr((
        words.class_canonical(word),
        words.class_canonical(words.ReducedWord(rank, letters[::-1])),
        [(cs.gap, cs.interval, sorted(cs.members), cs.start, cs.end)
         for cs in chambers.chamber_sets(word)],
        [q.text for q in quivers.quivers_for_word(word)],
        words.positive_root_order(word),
        lusztig.spanning_rays(word).rays,
        spanned,
        cone.ineqs))


def census_digest(rank):
    """sha256 of the census of every class canonical word at a rank, one
    record per line in class order."""
    h = hashlib.sha256()
    for c in words.commutation_classes(rank):
        h.update(census_record(c.canonical, rank).encode() + b"\n")
    return h.hexdigest()


if __name__ == "__main__":
    got = census_digest(5)
    sys.exit(None if got == CENSUS5_SHA256
             else f"rank-5 census sha256 {got}, want {CENSUS5_SHA256}")
