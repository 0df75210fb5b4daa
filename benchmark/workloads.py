"""The four workloads: inputs from the seed, one operation, and its check.

Each workload has a set-up (inputs, plus whatever the check compares
against), an operation that calls the library, and a check of the
operation's output against golden values or independent invariants.  A
check returns None when the output is right and a message when it is not.

Why these four: ``atlas4`` is the write path (cell enumeration and the
same-matrix merge, where most LPs are issued); ``decompose3`` loads the same
simplex kernel from another caller (the simplicial-decomposition search) and
skips the atlas build; ``locate4`` is the read path on a prebuilt atlas and
runs no LP at all; ``census5`` is the only one where double description and
the commutation orbit do the work, at rank 5.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

# Library calls go through the module attributes, so that the wrappers a
# traced run installs there see the benchmark's own calls too.
from wordcones import chambers, lusztig, polyhedra, quivers, rectangles, regions, words

# sha256 of the file `wordcones regions --rank R --json FILE` writes.
ATLAS_SHA256 = {
    3: "c8d76e4c4467b49d70b706b26cf7b33cb9ac64f7f9bfe5f14cfd5d3d1c87829d",
    4: "95e8f38212e7fa9cc220aa143352d06f9d1a5b3ccc912a6fe4f66d7e76c46697",
}
HISTOGRAM = {3: {3: 8, 4: 2}, 4: {6: 62, 7: 70, 8: 10, 11: 2}}
ORTHANT_COUNTS_3 = [(3, 6)] * 8 + [(4, 8), (4, 9)]
DECOMPOSITIONS_3 = [(8, 2, True), (9, 4, True)]

LOCATE_POINTS = 20_000  # seeded points per run; reused in order if a run needs more
CENSUS_WORDS = 2_000    # seeded rank-5 words per run; likewise


@dataclass(frozen=True)
class Workload:
    name: str
    size: str                  # the stated input size of one operation
    setup_repeats: int         # set-ups timed per run; the median is reported
    traced_ops: int            # operations in a traced run (fixed, so counts repeat)
    setup: Callable[[int], object]
    inputs: Callable[[object], Iterator]
    op: Callable[[object, object], object]
    check: Callable[[object, object, object], Optional[str]]
    check_setup: Callable[[object], Optional[str]] = lambda state: None


def atlas_sha256(atlas) -> str:
    """sha256 of the atlas serialised exactly as `wordcones regions --json`."""
    artifact = {
        "rank": atlas.src.rank,
        "src": str(atlas.src),
        "dst": str(atlas.dst),
        "regions": [{"matrix": [[str(x) for x in row] for row in r.matrix],
                     "ineqs": [[str(x) for x in a] for a in r.cone.ineqs],
                     "facets": r.facet_count}
                    for r in atlas.regions],
    }
    text = json.dumps(artifact, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _check_atlas(atlas, rank: int) -> Optional[str]:
    hist = atlas.histogram()
    if hist != HISTOGRAM[rank]:
        return f"rank-{rank} facet histogram {hist}"
    digest = atlas_sha256(atlas)
    if digest != ATLAS_SHA256[rank]:
        return f"rank-{rank} atlas sha256 {digest}"
    return None


def _repeat_none(state) -> Iterator:
    return itertools.repeat(None)


# ---------------------------------------------------------------------------
# atlas4: standard_atlas(4) + match_spanned_regions
# ---------------------------------------------------------------------------

def _atlas4_setup(seed: int):
    # the class list the match report must cover, one to one
    return frozenset(c.canonical for c in words.commutation_classes(4))


def _atlas4_op(classes, _):
    atlas = regions.standard_atlas(4)
    return atlas, regions.match_spanned_regions(atlas)


def _atlas4_check(classes, _, out) -> Optional[str]:
    atlas, report = out
    bad = _check_atlas(atlas, 4)
    if bad:
        return bad
    if not report.ok or len(report.matches) != 62:
        return f"match report ok={report.ok} with {len(report.matches)} matches"
    if {m.canonical for m in report.matches} != classes:
        return "matched classes differ from the commutation classes of rank 4"
    return None


# ---------------------------------------------------------------------------
# decompose3: orthant restrictions of the rank-3 atlas and their
# simplicial decompositions
# ---------------------------------------------------------------------------

def _decompose3_setup(seed: int):
    return regions.standard_atlas(3)


def _decompose3_op(atlas, _):
    restrictions = regions.orthant_restriction_analysis(atlas)
    orth = polyhedra.nonneg_orthant(atlas.dim)
    decompositions = []
    for r in restrictions:
        if r.region_facets == 4:
            region = atlas.regions[r.region_index]
            cone = polyhedra.irredundant_h(
                polyhedra.hcone(region.cone.ineqs + orth.ineqs, atlas.dim))
            decompositions.append(
                (r.restricted_facets, regions.simplicial_decomposition(cone)))
    return restrictions, decompositions


def _decompose3_check(atlas, _, out) -> Optional[str]:
    restrictions, decompositions = out
    counts = sorted((r.region_facets, r.restricted_facets) for r in restrictions)
    if counts != ORTHANT_COUNTS_3:
        return f"orthant counts {counts}"
    sizes = sorted((f, len(d.pieces), d.minimal) for f, d in decompositions)
    if sizes != DECOMPOSITIONS_3:
        return f"decompositions {sizes}"
    if any(len(p.rays) != atlas.dim for _, d in decompositions for p in d.pieces):
        return "a decomposition piece is not simplicial"
    return None


# ---------------------------------------------------------------------------
# locate4: point queries on the prebuilt rank-4 atlas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Locate:
    atlas: object
    forward: tuple
    backward: tuple
    src: tuple
    dst: tuple
    points: tuple


def _locate4_setup(seed: int) -> _Locate:
    atlas = regions.standard_atlas(4)
    j, jp = words.standard_words(4)
    rng = random.Random(seed)
    points = tuple(tuple(rng.randrange(0, 50) for _ in range(atlas.dim))
                   for _ in range(LOCATE_POINTS))
    return _Locate(atlas, atlas.moves, tuple(regions.default_move_path(jp, j)),
                   j.letters, jp.letters, points)


def _locate4_op(s: _Locate, x):
    y = regions.evaluate_along(x, s.src, s.forward)
    back = regions.evaluate_along(y, s.dst, s.backward)
    region = s.atlas.region_containing(x)
    return y, back, region, region.apply(x)


def _locate4_check(s: _Locate, x, out) -> Optional[str]:
    y, back, region, image = out
    if back != x:
        return f"inverse path maps {x} to {back}"
    if image != y:
        return f"region matrix gives {image}, the map gives {y} at {x}"
    if not region.cone.contains(x):
        return f"located region does not contain {x}"
    return None


# ---------------------------------------------------------------------------
# census5: per-word census at rank 5
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Census:
    words: tuple
    roots: frozenset


def _census5_setup(seed: int) -> _Census:
    rng = random.Random(seed)
    pool = tuple(words.random_reduced_word(5, rng) for _ in range(CENSUS_WORDS))
    roots = frozenset((a, b) for a in range(1, 6) for b in range(a, 6))
    return _Census(pool, roots)


def _census5_op(s: _Census, word):
    canon = words.class_canonical(word)
    sets = chambers.chamber_sets(word)
    quivs = quivers.quivers_for_word(word)
    roots = words.positive_root_order(word)
    rays = lusztig.spanning_rays(word)
    spanned = rectangles.spanning_vectors(word)
    cone = polyhedra.cone_from_rays(polyhedra.vcone(spanned, len(word.letters)))
    return canon, sets, quivs, roots, rays, spanned, cone


def _pair_projections(letters, rank: int) -> list[tuple]:
    """Projections of a word onto each pair {g, g+1} of non-commuting
    letters; two words are commutation-equivalent iff all of them agree."""
    return [tuple(x for x in letters if x in (g, g + 1)) for g in range(1, rank + 1)]


def _census5_check(s: _Census, word, out) -> Optional[str]:
    canon, sets, quivs, roots, rays, spanned, cone = out
    n, k = word.rank, len(word.letters)
    if (canon > word.letters
            or _pair_projections(canon, n) != _pair_projections(word.letters, n)):
        return f"{canon} is not a word of the class of {word.letters} at or below it"
    if len(sets) != k - n or len(quivs) != k - n:
        return f"{len(sets)} chamber sets and {len(quivs)} quivers, want {k - n}"
    ineqs = lusztig.lusztig_cone(word).cone
    if not rays.rays or any(min(r) < 0 or not ineqs.contains(r) for r in rays.rays):
        return f"a spanning ray of {word.letters} leaves the Lusztig cone"
    if len(roots) != len(s.roots) or set(roots) != s.roots:
        return f"root order of {word.letters} is not a bijection onto the roots"
    if len(spanned) != k or not all(cone.contains(v) for v in spanned):
        return f"cone on the spanning vectors of {word.letters} misses one of them"
    return None


WORKLOADS = {
    "atlas4": Workload(
        "atlas4", "rank 4: 10-dim atlas, 222 cells -> 144 regions, 62 classes",
        setup_repeats=9, traced_ops=1,
        setup=_atlas4_setup, inputs=_repeat_none, op=_atlas4_op,
        check=_atlas4_check),
    "decompose3": Workload(
        "decompose3", "rank 3: 10 orthant restrictions, 2 decompositions in dim 6",
        setup_repeats=9, traced_ops=1,
        setup=_decompose3_setup, inputs=_repeat_none, op=_decompose3_op,
        check=_decompose3_check,
        check_setup=lambda atlas: _check_atlas(atlas, 3)),
    "locate4": Workload(
        "locate4", "rank 4: one point of [0,50)^10 on the 144-region atlas",
        setup_repeats=3, traced_ops=5_000,
        setup=_locate4_setup, inputs=lambda s: itertools.cycle(s.points),
        op=_locate4_op, check=_locate4_check,
        check_setup=lambda s: _check_atlas(s.atlas, 4)),
    "census5": Workload(
        "census5", "rank 5: one random reduced word of length 15",
        setup_repeats=9, traced_ops=50,
        setup=_census5_setup, inputs=lambda s: itertools.cycle(s.words),
        op=_census5_op, check=_census5_check),
}
