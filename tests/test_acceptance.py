"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run as `pytest tests/test_acceptance.py -v -s` to see the lines as they pass;
every expected value is exact (no tolerances anywhere).
"""

import itertools
import random
import time

from conftest import BUILD_SECONDS
from lp_oracles import contains_strictly
from rectangle_oracles import parity_boundary

from wordcones.chambers import chamber_sets
from wordcones.lusztig import lusztig_cone
from wordcones.polyhedra import (InvariantError, hcone, irredundant_h,
                                 nonneg_orthant, ray_sum_witness)
from wordcones.quivers import (chamber_set_from_quiver,
                               enumerate_partial_quivers,
                               quiver_from_chamber_set)
from wordcones.rectangles import (components, configuration_for_quiver,
                                  diagonal_counts, phi_plus,
                                  rectangle_for_component)
from wordcones.regions import (default_move_path, detour_move_path,
                               enumerate_cells, letter_quotient,
                               match_spanned_regions,
                               orthant_restriction_analysis,
                               simplicial_decomposition, standard_atlas,
                               transition_atlas)
from wordcones.quivers import PartialQuiver
from wordcones.words import (commutation_classes,
                             enumerate_reduced_words, parse_word,
                             standard_words)


def report(num, description, ok):
    print(f"ACCEPTANCE {num:>2} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_01_reduced_word_census():
    t0 = time.perf_counter()
    words3 = enumerate_reduced_words(3)
    classes3 = commutation_classes(3)
    classes4 = commutation_classes(4)
    elapsed = time.perf_counter() - t0
    ok = (len(words3), len(classes3), len(classes4)) == (16, 8, 62) \
        and elapsed < 1.0
    report(1, f"census 16/8/62 in {elapsed:.3f}s (< 1 s)", ok)


def test_criterion_02_lusztig_cone_golden():
    cone = lusztig_cone(parse_word("132132")).cone
    expected = {(-1, 0, 1, -1, 0, 0),   # c >= a + d
                (0, -1, 1, 0, -1, 0),   # c >= b + e
                (0, 0, -1, 1, 1, -1)}   # d + e >= c + f
    report(2, "Lusztig cone of 132132 is {c>=a+d, c>=b+e, d+e>=c+f}",
           set(cone.ineqs) == expected)


def test_criterion_03_chamber_sets_golden():
    got = sorted(sorted(cs.members)
                 for cs in chamber_sets(parse_word("2343121324")))
    expected = sorted([[2, 5], [2, 4, 5], [2], [2, 4], [1, 2, 4, 5], [1, 2, 4]])
    report(3, "chamber sets of 2343121324 match the six golden sets",
           got == expected)


def test_criterion_04_quiver_bijection():
    t0 = time.perf_counter()
    table = {frozenset({2, 5}): "RRL", frozenset({2, 4, 5}): "-RL",
            frozenset({2}): "--L", frozenset({2, 4}): "LRL",
            frozenset({1, 2, 4, 5}): "-R-", frozenset({1, 2, 4}): "LR-"}
    ok = all(str(quiver_from_chamber_set(s, 4)) == text
             for s, text in table.items())
    ok = ok and str(quiver_from_chamber_set({1, 2, 3, 4, 7, 8, 11}, 13)) \
        == "--LRRLLRR---"
    for rank in range(2, 7):
        for r in range(1, rank + 2):
            for subset in itertools.combinations(range(1, rank + 2), r):
                members = sorted(subset)
                if members == list(range(1, len(members) + 1)):
                    continue
                if members == list(range(rank + 2 - len(members), rank + 2)):
                    continue
                quiver = quiver_from_chamber_set(set(subset), rank)
                ok = ok and chamber_set_from_quiver(quiver) == frozenset(subset)
        for quiver in enumerate_partial_quivers(rank):
            ok = ok and quiver_from_chamber_set(
                chamber_set_from_quiver(quiver), rank) == quiver
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    report(4, f"quiver bijection goldens + exhaustive round-trip ranks <= 6 "
              f"in {elapsed:.3f}s (< 1 s)", ok)


def test_criterion_05_rectangle_calculus_golden():
    quiver = PartialQuiver(10, "-LLRRRLRR")
    comps = components(quiver)
    ok = [(c.a, c.b) for c in comps] == [(7, 10), (4, 8), (3, 5), (1, 4)]
    rects = [rectangle_for_component(c, 10) for c in comps]
    ok = ok and [(r.top, r.left, r.right, r.bottom) for r in rects] == \
        [(0, 7, 2, 9), (3, 7, 7, 11), (0, 3, 7, 10), (2, 3, 10, 11)]
    config = configuration_for_quiver(quiver)
    u_counts, w_counts = diagonal_counts(config)
    ok = ok and sorted(u_counts) == sorted((1, 3, 4, 2))
    ok = ok and sorted(w_counts) == sorted((2, 4, 3, 1))
    ok = ok and parity_boundary(u_counts) is not None
    ok = ok and parity_boundary(w_counts) is not None
    expected_roots = frozenset({
        (2, 2), (1, 4), (3, 6), (7, 7), (5, 9), (6, 8),
        (4, 10), (3, 3), (1, 5), (2, 7), (10, 10), (8, 9)})
    ok = ok and phi_plus(quiver) == expected_roots
    report(5, "rank-10 rectangle calculus: components, rectangles, diagonal "
              "multisets with odd/even boundaries, 12-root set", ok)


def test_criterion_06_region_atlases(atlas2, atlas3, atlas4):
    ok = len(atlas2.regions) == 2
    ok = ok and len(atlas3.regions) == 10 \
        and atlas3.histogram() == {3: 8, 4: 2}
    ok = ok and len(atlas4.regions) == 144 \
        and atlas4.histogram() == {6: 62, 7: 70, 8: 10, 11: 2}
    t3, t4 = BUILD_SECONDS[3], BUILD_SECONDS[4]
    ok = ok and t3 < 5.0 and t4 < 600.0
    report(6, f"atlases 2/10/144 with golden histograms "
              f"(rank 3: {t3:.2f}s < 5 s, rank 4: {t4:.1f}s < 600 s)", ok)


def test_criterion_07_class_region_bijection(atlas4):
    rep = match_spanned_regions(atlas4)
    ok = rep.ok and len(rep.matches) == 62 and rep.minimal_facets == 6
    report(7, "62 spanned cones are orthant restrictions of pairwise distinct "
              "6-facet regions", ok)


def test_criterion_08_orthant_restrictions(atlas3):
    analysis = orthant_restriction_analysis(atlas3)
    counts = sorted((r.region_facets, r.restricted_facets) for r in analysis)
    ok = counts == [(3, 6)] * 8 + [(4, 8), (4, 9)]
    sizes = {}
    for r in analysis:
        if r.region_facets != 4:
            continue
        region = atlas3.regions[r.region_index]
        cone = irredundant_h(hcone(
            region.cone.ineqs + nonneg_orthant(6).ineqs, 6))
        dec = simplicial_decomposition(cone)
        ok = ok and dec.minimal
        sizes[r.restricted_facets] = len(dec.pieces)
    ok = ok and sizes == {8: 2, 9: 4}
    report(8, "orthant restrictions 6x8/8/9 with minimal simplicial "
              "decompositions of sizes 2 and 4", ok)


def test_criterion_09_property_suites(atlas2, atlas3, atlas4):
    from wordcones.regions import evaluate_along
    rng = random.Random(20260808)
    ok = True
    for atlas in (standard_atlas(1), atlas2, atlas3, atlas4):
        j, jp = atlas.src, atlas.dst
        back = default_move_path(jp, j)
        for _ in range(10_000):
            x = tuple(rng.randrange(0, 50) for _ in range(atlas.dim))
            y = atlas.evaluate(x)
            if evaluate_along(y, jp.letters, back) != x:
                ok = False
                break
            region = atlas.region_containing(x)
            if region.apply(x) != y or not region.cone.contains(x):
                ok = False
                break
    for rank in range(2, 9):
        for quiver in enumerate_partial_quivers(rank):
            try:
                phi_plus(quiver)
            except InvariantError:
                ok = False
    for rank in (1, 2, 3, 4):
        for word in enumerate_reduced_words(rank):
            try:
                chamber_sets(word)
            except InvariantError:
                ok = False
    # convexity certificates: the builder certifies every merged region; on
    # top of that, re-enumerate the leaf cells and check each one sits inside
    # the cone of the region carrying its matrix: its ray sum is strictly
    # interior to that region, its state lifted from the quotient to R^k
    for atlas in (atlas2, atlas3, atlas4):
        cells = enumerate_cells(atlas.src, list(atlas.moves))
        lift_state = letter_quotient(atlas.src.letters).lift_state
        by_matrix = {r.matrix: r for r in atlas.regions}
        for cell in cells:
            region = by_matrix[cell.rows]
            witness = ray_sum_witness(lift_state(cell.state), atlas.dim)
            if not contains_strictly(region.cone, witness):
                ok = False
    report(9, "property suites: 10^4-point bijectivity + atlas agreement "
              "(ranks 1-4), disjoint root unions (ranks <= 8), chamber-set "
              "invariants (ranks <= 4), region convexity certificates "
              "(ranks 2-4)", ok)


def test_criterion_10_path_independence():
    ok = True
    for rank in (1, 2, 3):
        j, jp = standard_words(rank)
        first = standard_atlas(rank)
        alt = detour_move_path(j, jp)
        second = transition_atlas(j, jp, alt)
        if rank > 1 and list(alt) == list(first.moves):
            ok = False  # the audit needs genuinely different paths
        if {(r.matrix, r.cone.ineqs) for r in first.regions} != \
                {(r.matrix, r.cone.ineqs) for r in second.regions}:
            ok = False
    report(10, "atlases identical under two different move paths (ranks <= 3)",
           ok)
