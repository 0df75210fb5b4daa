import hashlib
import json
import random
import re
import subprocess
import sys
from ast import literal_eval
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import reduce
from types import SimpleNamespace
from itertools import combinations, product

import pytest

from class_oracles import is_connected
from lp_oracles import (_lp_implies, _lp_interior_point, _lp_irredundant_h,
                        _lp_is_disjoint_cover, _lp_min_simplicial_cover,
                        _lp_subtract_full_dim, _rank_facets,
                        _rank_pulling_simplices, assert_state_invariants,
                        bareiss_det, contains_strictly, eliminated_spans,
                        extreme_rays, facets_from_generators, implies,
                        level_search_decomposition, matrix_rank,
                        off_path_siblings, positive_somewhere,
                        regions_containing, scanned_region_index)
from region_oracles import (cut_region_graph, enumerate_cuts, merged_atlas,
                            point_quotient, rk_regions)
from region_oracles import enumerate_cells as rk_cells
from wordcones import cli, polyhedra, rectangles, regions
from wordcones.polyhedra import (DegenerateConeError, HCone, InvariantError,
                                 NonPointedError, cone_equal,
                                 cone_from_rays, dd_cut, dd_split, dd_step,
                                 dd_whole, dot, double_description,
                                 facet_state, hcone, holds_on, identity,
                                 interior_point, irredundant_h, nonneg_orthant,
                                 primitive, ray_sum_witness,
                                 solve_inequalities, vcone, vneg)
from wordcones.regions import (RegionConvexityError, _merge_cells,
                               _pulling_simplices, apply_braid_triple,
                               braid_move_count, class_region_isomorphism_report,
                               default_move_path, detour_move_path,
                               enumerate_cells, evaluate, letter_quotient,
                               match_spanned_regions,
                               orthant_restriction_analysis, region_graph,
                               simplicial_decomposition, standard_atlas,
                               transition_atlas)
from wordcones.words import (BRAID, COMMUTATION, Move, ReducedWord,
                             commutation_classes, find_move_path,
                             parse_word, random_reduced_word,
                             standard_words, transition_automorphism)


def test_braid_triple_examples():
    assert apply_braid_triple(0, 0, 0) == (0, 0, 0)
    assert apply_braid_triple(2, 5, 3) == (6, 2, 5)


def test_braid_triple_involution_random():
    rng = random.Random(1)
    for _ in range(200):
        triple = tuple(rng.randrange(-20, 21) for _ in range(3))
        assert apply_braid_triple(*apply_braid_triple(*triple)) == triple


def _branch_matrix(low):
    """The 3x3 matrix of one braid branch: _braid_rows on the identity."""
    return regions._braid_rows(identity(3), 0, low)


def test_braid_branch_matrices_agree_on_guard():
    for a, b in ((0, 0), (3, -1), (2, 7)):
        triple = (a, b, a)  # guard boundary a = c
        via_low = tuple(dot(row, triple) for row in _branch_matrix(True))
        via_high = tuple(dot(row, triple) for row in _branch_matrix(False))
        assert via_low == via_high == apply_braid_triple(*triple)


def test_braid_rows_apply_the_branch_matrices():
    """For integer rows R, a point x and a site t: the rows _braid_rows
    gives on the branch (R . x)[t:t+3] lies on take x to R . x with
    apply_braid_triple applied at t."""
    rng = random.Random(3)
    checked = {True: 0, False: 0}
    for _ in range(200):
        rows = tuple(tuple(rng.randrange(-5, 6) for _ in range(4))
                     for _ in range(5))
        x = tuple(rng.randrange(-9, 10) for _ in range(4))
        y = tuple(dot(row, x) for row in rows)
        for t in range(3):
            a, b, c = y[t:t + 3]
            for low, holds in ((True, a <= c), (False, a >= c)):
                if not holds:
                    continue
                moved = regions._braid_rows(rows, t, low)
                assert tuple(dot(row, x) for row in moved) == \
                    y[:t] + apply_braid_triple(a, b, c) + y[t + 3:]
                checked[low] += 1
    assert min(checked.values()) > 200


def test_atlas_region_counts(atlas2, atlas3):
    assert len(atlas2.regions) == 2
    assert atlas2.histogram() == {1: 2}
    assert len(atlas3.regions) == 10
    assert atlas3.histogram() == {3: 8, 4: 2}


def test_rank1_atlas_is_trivial():
    atlas = standard_atlas(1)
    assert len(atlas.regions) == 1
    assert atlas.regions[0].facet_count == 0
    assert atlas.regions[0].matrix == ((1,),)


def test_atlas_rejects_ranks_above_five_before_enumerating(monkeypatch):
    monkeypatch.setattr(regions, "enumerate_cells",
                        lambda *a: pytest.fail("cells enumerated"))
    with pytest.raises(ValueError, match="regions supports ranks 1 to 5"):
        standard_atlas(6)


def test_words_of_different_ranks_raise_with_and_without_moves(monkeypatch):
    monkeypatch.setattr(regions, "enumerate_cells",
                        lambda *a: pytest.fail("cells enumerated"))
    src, dst = standard_words(3)[0], standard_words(4)[1]
    calls = [lambda: find_move_path(src, dst),
             lambda: transition_atlas(src, dst),
             lambda: transition_atlas(src, dst, []),
             lambda: evaluate(src, dst, (0,) * 6),
             lambda: evaluate(src, dst, (0,) * 6, [])]
    for call in calls:
        with pytest.raises(ValueError, match="^words have different ranks$"):
            call()


def test_default_path_braid_counts():
    for rank, expected in ((2, 1), (3, 4), (4, 10), (5, 20)):
        j, jp = standard_words(rank)
        assert braid_move_count(default_move_path(j, jp)) == expected


def _standard_cells(rank):
    """The cells of the standard-word atlas and the dimension of the
    quotient their states live in."""
    j, jp = standard_words(rank)
    return (enumerate_cells(j, default_move_path(j, jp)),
            letter_quotient(j.letters).dim)


def _subtraction_merge(cells, k):
    """Reference certificate: the candidate cone minus every member cell has
    no full-dimensional part.  Every decision is an LP, so the reference
    shares no code with the double-description merge."""
    normals = dict.fromkeys(g for c in cells for g in c.state[0])
    valid = tuple(g for g in normals
                  if all(_lp_implies(c.state[0], g, k) for c in cells))
    pieces = [valid]
    for cell in cells:
        pieces = _lp_subtract_full_dim(pieces, cell.state[0], k)
    if pieces:
        raise RegionConvexityError("candidate cone exceeds the union")
    return _lp_irredundant_h(HCone(k, valid))


def _merge_verdict(merge, cells, k):
    try:
        return merge(cells, k)
    except RegionConvexityError:
        return None


def test_merge_certificate_agrees_with_subtraction_on_rank3_pairs():
    cells, d = _standard_cells(3)
    accepted = 0
    for pair in combinations(cells, 2):
        expected = _merge_verdict(_subtraction_merge, list(pair), d)
        got = _merge_verdict(_merge_cells, list(pair), d)
        if expected is None:
            assert got is None
        else:
            assert got is not None and HCone(d, got[0]) == expected
            accepted += 1
    assert len(cells) == 11 and accepted == 13


def test_merge_certificate_accepts_every_rank4_group(atlas4):
    cells, d = _standard_cells(4)
    pull = letter_quotient(atlas4.src.letters).pull
    groups = {}
    for cell in cells:
        groups.setdefault(cell.rows, []).append(cell)
    cones = {r.matrix: r.cone for r in atlas4.regions}
    merged = [g for g in groups.values() if len(g) > 1]
    assert len(groups) == 144 and len(merged) == 48
    for group in merged:
        cone = HCone(d, _merge_cells(group, d)[0])
        assert cone == _subtraction_merge(group, d)
        assert tuple(sorted(map(pull, cone.ineqs))) == \
            cones[group[0].rows].ineqs


def test_merge_validity_counts_lines():
    """{x >= 0} and {x <= 0, y >= 0} in R^2: (0, 1) holds on the ray of the
    first but not on its line, so no normal is valid and the union, R^2
    minus an open quadrant, is refused."""
    def cell(*guards):
        return regions.Cell(((1, 0), (0, 1)), "", dd_cut(dd_whole(2), guards))
    group = [cell((1, 0)), cell((-1, 0), (0, 1))]
    assert group[0].state[:2] == (((1, 0),), ((0, 1),))
    for merge in (_merge_cells, _subtraction_merge):
        with pytest.raises(RegionConvexityError):
            merge(group, 2)


def _valid_normals(cells, k):
    """The group's guards implied on every member, from scratch."""
    return tuple(g for g in dict.fromkeys(g for c in cells for g in c.state[0])
                 if all(implies(c.state[0], g, k) for c in cells))


def _multi_cell_groups(cells):
    groups = {}
    for cell in cells:
        groups.setdefault(cell.rows, []).append(cell)
    return [g for g in groups.values() if len(g) > 1]


def _zero_sets(normals, rays):
    """Each ray's zero set among the normals, by integer dot products."""
    return tuple(sum(1 << i for i, a in enumerate(normals) if dot(a, r) == 0)
                 for r in rays)


def test_facet_state_matches_rank_and_lp_on_cells_and_groups():
    """Every rank-3 and rank-4 cell carries its rays' zero sets as masks, and
    so does the dd_cut fold of every multi-cell group's valid normals, which
    are that fold's normals.  facet_state keeps the lines and the rays, in
    order; its normals, read off those masks, are the facets of the
    dot-product, rank and LP rules, and its masks are the rays' zero sets
    among them."""
    for rank in (3, 4):
        cells, d = _standard_cells(rank)
        states = [c.state for c in cells]
        for group in _multi_cell_groups(cells):
            valid = _valid_normals(group, d)
            states.append(dd_cut(dd_whole(d), valid))
            assert states[-1][0] == valid
        assert len(states) == {3: 12, 4: 262}[rank]
        for state in states:
            normals, lines, rays = state[0], state[1], tuple(state[2])
            assert tuple(state[2].values()) == _zero_sets(normals, rays), \
                normals
            facets, kept, zeros = facet_state(state)
            assert HCone(d, facets) == \
                facets_from_generators(normals, rays, d) == \
                _rank_facets(normals, lines, rays, d) == \
                _lp_irredundant_h(HCone(d, normals)), normals
            assert kept == lines and tuple(zeros) == rays
            assert tuple(zeros.values()) == _zero_sets(facets, rays), facets


def _branch_guards(src, moves, bits):
    """The guards that cut on the branch with these bits, walked from the
    move path alone: at each braid the primitive c - a of the rows, or its
    negation on a '0' bit, kept unless the guards kept so far imply it (a
    fold of dd_step from R^k), in order."""
    k = len(src.letters)
    rows, bits, guards = identity(k), iter(bits), ()
    for mv in moves:
        t = mv.position - 1
        if mv.kind == COMMUTATION:
            rows = rows[:t] + (rows[t + 1], rows[t]) + rows[t + 2:]
            continue
        low = next(bits) == "1"
        g = primitive(tuple(z - x for x, z in zip(rows[t], rows[t + 2])))
        g = g if low else vneg(g)
        if not implies(guards, g, k):
            guards += (g,)
        rows = regions._braid_rows(rows, t, low)
    return guards


def _mapped_groups(atlas):
    """{i: j} for each region i of a multi-cell group that the build maps:
    its matrix's image under transition_automorphism is region j's, which
    sorts first."""
    symmetry = transition_automorphism(atlas.src, atlas.dst)
    if atlas.src.rank == 1 or symmetry is None:
        return {}
    index = {r.matrix: i for i, r in enumerate(atlas.regions)}
    sizes = Counter(atlas.bits_index.values())
    return {i: index[_twin(r.matrix, symmetry)]
            for i, r in enumerate(atlas.regions)
            if sizes[i] > 1 and _twin(r.matrix, symmetry) < r.matrix}


def _twin(matrix, symmetry):
    """Y M X, for X and Y of transition_automorphism."""
    xs, ys = symmetry
    return tuple(tuple(matrix[y][x] for x in xs) for y in ys)


def test_cell_and_region_states_describe_themselves(atlas2, atlas3, atlas4):
    """Every rank-2 to rank-4 cell's state has as its normals the guards that
    cut on the branch its bits walk, in order, pushed to the quotient; a
    guard the earlier ones imply is not among them.  Every region's state,
    merged or mapped, has as its normals its facets pushed to the quotient,
    sorted, and its lifted state those pulled back; in each state the masks
    are the rays' zero sets among its normals, and the lines vanish on every
    normal."""
    for atlas in (atlas2, atlas3, atlas4):
        quotient = letter_quotient(atlas.src.letters)
        for cell in enumerate_cells(atlas.src, atlas.moves):
            guards = tuple(map(quotient.push, _branch_guards(
                atlas.src, atlas.moves, cell.bits)))
            assert_state_invariants(cell.state, guards)
        for region in atlas.regions:
            facets = tuple(sorted(map(quotient.push, region.cone.ineqs)))
            assert_state_invariants(region.state, facets)
            assert_state_invariants(region.lifted_state,
                                    tuple(map(quotient.pull, facets)))


def test_quotient_build_matches_the_rk_oracle(atlas2, atlas3, atlas4):
    """At ranks 1 to 4 the build in the quotient gives the R^k build's
    cells, in order, with the same rows and bits, and the same bits_index.
    The R^k build keeps every guard; each cell's normals, pulled back, are
    exactly the oracle guards whose split kept two sides, in order.  Every
    region has the oracle's matrix and sorted facets, and its lifted state
    has a basis of the oracle's lines and its rays up to L.  Its normals
    are the oracle facet state's pushed to the quotient, sorted, and its
    lifted normals are those pulled back, the oracle's once sorted."""
    for atlas in (standard_atlas(1), atlas2, atlas3, atlas4):
        quotient, k = letter_quotient(atlas.src.letters), atlas.dim
        cells = enumerate_cells(atlas.src, atlas.moves)
        oracle = enumerate_cuts(atlas.src, atlas.moves)
        assert [(c.rows, c.bits) for c in cells] == \
            [(c.rows, c.bits) for c, _ in oracle]
        for cell, (rk, cuts) in zip(cells, oracle):
            assert tuple(map(quotient.pull, cell.state[0])) == cuts
            assert tuple(sorted(map(quotient.pull, facet_state(
                cell.state)[0]))) == facet_state(rk.state)[0]
        rk_list, rk_index = rk_regions(atlas.src, atlas.moves)
        assert atlas.bits_index == rk_index
        assert [(r.matrix, r.cone) for r in atlas.regions] == \
            [(m, cone) for m, cone, _ in rk_list]
        for region, (_, _, rk) in zip(atlas.regions, rk_list):
            normals, lines, zeros = region.lifted_state
            assert region.state[0] == tuple(sorted(map(quotient.push, rk[0])))
            assert normals == tuple(map(quotient.pull, region.state[0]))
            assert tuple(sorted(normals)) == rk[0]
            assert matrix_rank(lines) == matrix_rank(lines + rk[1]) == \
                len(rk[1])
            assert {primitive(point_quotient(quotient, r)) for r in zeros} \
                == {primitive(point_quotient(quotient, r)) for r in rk[2]}


def test_lineality_space_is_the_letter_span(atlas2, atlas3, atlas4):
    """L, the span of the letter indicators, is the lineality space of
    every region at ranks 1 to 4: every R^k oracle region state's lines
    span exactly L, every quotient region state has no line, and every
    lifted state has L's basis as its lines.  Every guard of every cell and
    every facet of every region has zero letter sums."""
    for atlas in (standard_atlas(1), atlas2, atlas3, atlas4):
        quotient = letter_quotient(atlas.src.letters)
        n = atlas.src.rank
        assert len(quotient.basis) == n and quotient.dim == atlas.dim - n
        for _, _, rk in rk_regions(atlas.src, atlas.moves)[0]:
            assert len(rk[1]) == n == matrix_rank(rk[1] + quotient.basis)
        for region in atlas.regions:
            assert region.state[1] == ()
            assert region.lifted_state[1] == quotient.basis
        normals = [g for c in rk_cells(atlas.src, atlas.moves)
                   for g in c.state[0]]
        normals += [g for r in atlas.regions for g in r.cone.ineqs]
        assert all(sum(a[p] for p in chain) == 0
                   for a in normals for chain in quotient.chains)


def test_quotient_maps_round_trip():
    """On seeded normals with zero letter sums at ranks 1 to 5,
    pull(push(a)) == a and push(pull(c)) == c; primitive normals stay
    primitive both ways, and a point lifts so that its quotient is itself
    and pull(c) . lift(y) == c . y."""
    rng = random.Random(33)
    for rank in range(1, 6):
        for word in standard_words(rank):
            quotient = letter_quotient(word.letters)
            k, d = quotient.k, quotient.dim
            for _ in range(200):
                c = tuple(rng.randrange(-6, 7) for _ in range(d))
                a = quotient.pull(c)
                assert quotient.push(a) == c
                assert quotient.pull(quotient.push(a)) == a and len(a) == k
                assert (primitive(a) == a) == (primitive(c) == c)
                y = tuple(rng.randrange(-6, 7) for _ in range(d))
                x = quotient.lift(y)
                assert point_quotient(quotient, x) == y
                assert all(x[chain[0]] == 0 for chain in quotient.chains)
                assert dot(a, x) == dot(c, y)


def test_a_guard_off_the_letter_span_raises_under_O():
    """push refuses a normal with a non-zero letter sum by InvariantError,
    which python -O keeps."""
    code = ("from wordcones.polyhedra import InvariantError\n"
            "from wordcones.regions import letter_quotient\n"
            "q = letter_quotient((1, 2, 1))\n"
            "print(q.push((-1, 0, 1)))\n"
            "try:\n"
            "    q.push((1, 0, 1))\n"
            "except InvariantError as e:\n"
            "    print(type(e).__name__)\n")
    out = subprocess.run([sys.executable, "-O", "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out == "(1,)\nInvariantError\n"
    with pytest.raises(InvariantError, match="is not 0 on L"):
        letter_quotient((1, 2, 1)).push((0, 1, 0))


def test_region_graph_and_orthant_restriction_cut_from_kept_states(
        monkeypatch, atlas3, atlas4):
    """On prebuilt atlases neither facet adjacency nor orthant restriction
    rebuilds a state from the whole space: with dd_whole refused they give
    the pinned edge counts and restriction shapes.  Facet adjacency, and
    the isomorphism report on it, run no double description at all."""
    def refuse(dim):
        raise AssertionError("a state rebuilt from the whole space")
    monkeypatch.setattr(regions, "dd_whole", refuse)
    monkeypatch.setattr(polyhedra, "dd_whole", refuse)
    match = match_spanned_regions(atlas4)

    def refuse_dd(*args):
        raise AssertionError("double description in the region graph")
    with monkeypatch.context() as m:
        for name, module in list(sys.modules.items()):
            if name.startswith("wordcones"):
                for fn in ("dd_step", "dd_cut", "dd_split"):
                    if hasattr(module, fn):
                        m.setattr(module, fn, refuse_dd)
        graph = region_graph(atlas4)
        report = class_region_isomorphism_report(atlas4, match)
    assert sum(map(len, graph.values())) == 2 * 482
    assert report["region_edges"] == 100
    assert sum(map(len, _minimal_subgraph(atlas4, graph).values())) == 2 * 100
    restricted = sorted((r.region_facets, r.restricted_facets)
                        for r in orthant_restriction_analysis(atlas3))
    assert restricted == [(3, 6)] * 8 + [(4, 8), (4, 9)]


def test_stepped_sibling_verdicts_match_interior_point():
    """On every rank-3 cell pair and every rank-4 multi-cell group, cutting
    the state of the valid normals by each off-path sibling agrees with the
    LP on valid + sibling, and the ray sum of a cut that keeps an interior
    is interior; both answers occur."""
    cells3, d3 = _standard_cells(3)
    cells4, d4 = _standard_cells(4)
    groups = [(list(pair), d3) for pair in combinations(cells3, 2)]
    groups += [(group, d4) for group in _multi_cell_groups(cells4)]
    answers = {True: 0, False: 0}
    for group, d in groups:
        valid = _valid_normals(group, d)
        state = dd_cut(dd_whole(d), valid)
        for sib in off_path_siblings(group):
            got = dd_cut(state, sib)
            assert (got is None) == \
                (_lp_interior_point(valid + sib, d) is None), (valid, sib)
            if got is not None:
                assert got[0] == valid + sib
                ray_sum_witness(got, d)
            answers[got is not None] += 1
    assert answers[True] and answers[False], answers


def test_sibling_walk_skips_exactly_the_opposed_siblings():
    """On every rank-3 cell pair and every rank-4 multi-cell group, the
    trie walk yields the prefix-set oracle's off-path siblings, in its
    order, less those whose last guard is opposed (the negation of a valid
    normal), and no guard of a member's path is opposed, so the last guard
    is the only one the merge needs to test.  The rank-4 groups list 698
    siblings, and 12 of them are cut."""
    cells3, d3 = _standard_cells(3)
    cells4, d4 = _standard_cells(4)
    for groups, d, expected in (
            ([list(pair) for pair in combinations(cells3, 2)], d3, (239, 129)),
            (_multi_cell_groups(cells4), d4, (698, 12))):
        listed = walked = 0
        for group in groups:
            valid = _valid_normals(group, d)
            opposed = {vneg(g) for g in valid}
            assert not any(opposed.intersection(c.state[0]) for c in group)
            oracle = off_path_siblings(group)
            got = list(regions._open_siblings(group, set(valid)))
            assert got == [sib for sib in oracle if sib[-1] not in opposed]
            listed += len(oracle)
            walked += len(got)
        assert (listed, walked) == expected


def test_atlas_build_counts_cuts_and_steps(monkeypatch):
    """One standard_atlas build makes one dd_cut per fold of a merged
    multi-cell group and one per sibling the walk does not rule out (rank
    3: 1 fold; rank 4: 24 folds and 12 sibling cuts, 3 of them certifying
    mapped groups) and 468 DD steps at rank 4; a mapped group makes no
    fold."""
    calls = {"cut": 0, "step": 0}
    cut, step = regions.dd_cut, polyhedra._step

    def counted_cut(state, ineqs):
        calls["cut"] += 1
        return cut(state, ineqs)

    def counted_step(state, a, split):
        calls["step"] += 1
        return step(state, a, split)
    monkeypatch.setattr(regions, "dd_cut", counted_cut)
    monkeypatch.setattr(polyhedra, "_step", counted_step)
    for rank, expected in ((3, (1, 14)), (4, (36, 468))):
        calls.update(cut=0, step=0)
        standard_atlas(rank)
        assert (calls["cut"], calls["step"]) == expected, rank


def _counted_mapped_groups(monkeypatch):
    """[cells per group] of each group the orbit build maps, as it goes."""
    sizes, real = [], regions._mapped_region

    def counted(cells, rep, image):
        sizes.append(len(cells))
        return real(cells, rep, image)
    monkeypatch.setattr(regions, "_mapped_region", counted)
    return sizes


def test_orbit_build_matches_the_full_merge(monkeypatch, atlas4):
    """The orbit build gives the full merge's regions (matrix, facets and
    witness) and bits_index: at ranks 1 to 4, for (j', j) at ranks 3 and 4,
    along detour_move_path at rank 3, on the six seeded random rank-4 pairs
    of test_region_graph_matches_the_cut_loop, which have no symmetry, and
    on three rank-4 pairs of class words that have one.  Each region's
    state, mapped or merged, equals the full merge's facet_state.  The
    groups it maps, and those of them with several cells, are pinned."""
    j3, j4 = standard_words(3), standard_words(4)
    cases = [(standard_words(1), None, (0, 0)),
             (standard_words(2), None, (1, 0)),
             (j3, None, (3, 0)), (j3[::-1], None, (3, 0)),
             (j3, detour_move_path(*j3), (3, 0)), (j4[::-1], None, (72, 24))]
    cases += [((random_reduced_word(4, rng), random_reduced_word(4, rng)),
               None, (0, 0)) for rng in map(random.Random, range(6))]
    cases += [((parse_word(a), parse_word(b)), None, counts)
              for a, b, counts in (
                   ("3432132343", "2143214324", (32, 20)),
                   ("4321343234", "1321343213", (60, 27)),
                   ("1232124321", "2143214324", (44, 4)))]
    sizes = _counted_mapped_groups(monkeypatch)
    cases.append((j4, None, (72, 24)))
    for (src, dst), moves, counts in cases:
        sizes.clear()
        built, merged = (transition_atlas(src, dst, moves),
                         merged_atlas(src, dst, moves))
        assert built == merged
        assert [r.state for r in built.regions] == \
            [facet_state(r.state) for r in merged.regions], (src, dst)
        assert (len(sizes), sum(n > 1 for n in sizes)) == counts, (src, dst)
    assert built == atlas4  # the last case, j4


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
def test_transition_automorphism_commutes_with_the_map(rank):
    """R(Xa) = Y R(a) on seeded points for the standard words, X and Y are
    involutions, and tau is reversal at ranks 2 and 4 and the flip
    g -> n+1-g at ranks 3 and 5."""
    src, dst = standard_words(rank)
    xs, ys = transition_automorphism(src, dst)
    k = len(src.letters)
    for perm in (xs, ys):
        assert sorted(perm) == list(range(k))
        assert all(perm[perm[p]] == p for p in range(k))
    flip = [rank + 1 - g if rank % 2 else g for g in src.letters]
    assert [src.letters[x] for x in xs] == flip
    rng = random.Random(rank)
    for _ in range(25):
        a = tuple(rng.randrange(-9, 10) for _ in range(k))
        image = evaluate(src, dst, a)
        assert evaluate(src, dst, tuple(a[x] for x in xs)) == \
            tuple(image[y] for y in ys)


def test_a_pair_with_no_symmetry_builds_as_before(monkeypatch):
    """transition_automorphism is None for the seeded random pair of seed 0,
    and its build maps no group."""
    rng = random.Random(0)
    src, dst = random_reduced_word(4, rng), random_reduced_word(4, rng)
    assert transition_automorphism(src, dst) is None
    sizes = _counted_mapped_groups(monkeypatch)
    assert len(transition_atlas(src, dst).regions) == 8 and sizes == []


def test_orbit_build_raises_on_a_wrong_permutation(monkeypatch):
    """X or Y of the rank-4 automorphism with two adjacent positions
    swapped, or X of the rank-3 one with two positions of one letter
    swapped, raises InvariantError, and no atlas comes back: a swapped X at
    rank 4 moves a pair of one letter's positions off the letter, and each
    other one sends some matrix to one that has no cell."""
    cases = []
    for rank in (3, 4):
        src, dst = standard_words(rank)
        xs, ys = transition_automorphism(src, dst)
        for p, q in combinations(range(len(xs)), 2):
            if rank == 4 and q == p + 1:
                cases += [(src, dst, _swapped(xs, p, q), ys, "off its letter"),
                          (src, dst, xs, _swapped(ys, p, q), "has no cell")]
            elif rank == 3 and src.letters[p] == src.letters[q]:
                cases.append((src, dst, _swapped(xs, p, q), ys, "has no cell"))
    assert len(cases) == 21
    for src, dst, xs, ys, message in cases:
        monkeypatch.setattr(regions, "transition_automorphism",
                            lambda s, d, xs=xs, ys=ys: (xs, ys))
        with pytest.raises(InvariantError, match=message):
            transition_atlas(src, dst)


def _swapped(perm, p, q):
    out = list(perm)
    out[p], out[q] = out[q], out[p]
    return tuple(out)


def test_orbit_build_raises_on_a_dropped_ray(monkeypatch):
    """A ray dropped from the state a group's region is mapped from raises
    RegionConvexityError naming both matrices: at rank 3 every mapped group
    has one cell, whose rays are compared."""
    real = regions._mapped_region

    def dropped(cells, rep, image):
        normals, lines, zeros = rep.state
        return real(cells, replace(rep, state=(
            normals, lines, dict(list(zeros.items())[1:]))), image)
    monkeypatch.setattr(regions, "_mapped_region", dropped)
    with pytest.raises(RegionConvexityError, match=r"image of region .* "
                       r"not the union of the 1 cells of matrix"):
        standard_atlas(3)


def test_orbit_build_raises_on_a_mapped_cone_larger_than_its_group(
        monkeypatch):
    """A multi-cell group mapped from its representative with one facet
    dropped (a larger cone, its state cut from its remaining facets) holds
    every member on its facets, but an off-path sibling cut from it keeps
    an interior: the rank-4 build raises RegionConvexityError."""
    real, walked = regions._mapped_region, []

    def larger(cells, rep, image):
        if len(cells) > 1:
            quotient = rep.quotient
            kept = rep.cone.ineqs[1:]
            state = dd_cut(dd_whole(quotient.dim), map(quotient.push, kept))
            rep = replace(rep, cone=HCone(quotient.k, kept), state=state)
            walked.append(cells)
        return real(cells, rep, image)
    monkeypatch.setattr(regions, "_mapped_region", larger)
    sibling_walks, siblings = [], regions._open_siblings
    monkeypatch.setattr(regions, "_open_siblings", lambda group, held: (
        sibling_walks.append(group) or siblings(group, held)))
    with pytest.raises(RegionConvexityError, match="is not the union"):
        standard_atlas(4)
    assert sibling_walks[-1] is walked[-1]


def test_orbit_build_raises_on_a_member_outside_its_facets(monkeypatch,
                                                           atlas4):
    """A cell of the last multi-cell group relabelled into the first mapped
    multi-cell group lies outside that group's mapped facets: the build
    raises RegionConvexityError naming both matrices, before any sibling
    cut of the group and before the last group is reached."""
    target = min(_mapped_groups(atlas4))
    sizes = Counter(atlas4.bits_index.values())
    last = max(i for i, n in sizes.items() if n > 1)
    assert last > target
    cells = enumerate_cells(atlas4.src, atlas4.moves)
    foreign = next(c for c in cells if atlas4.bits_index[c.bits] == last)
    matrix = atlas4.regions[target].matrix
    stray = replace(foreign, rows=matrix)
    moved = [stray if c is foreign else c for c in cells]
    monkeypatch.setattr(regions, "enumerate_cells", lambda src, moves: moved)
    walked, real = [], regions._open_siblings
    monkeypatch.setattr(regions, "_open_siblings", lambda group, held: (
        walked.append(group) or real(group, held)))
    with pytest.raises(RegionConvexityError) as err:
        standard_atlas(4)
    twin = _twin(matrix, transition_automorphism(atlas4.src, atlas4.dst))
    assert f"region {twin} " in str(err.value)
    assert f"matrix {matrix}" in str(err.value)
    assert walked and not any(c is stray for group in walked for c in group)


def test_region_witnesses_are_the_ray_sums(atlas2, atlas3, atlas4):
    """Each region's witness is the lift of the primitive column sum of its
    quotient state's rays, as summed coordinate by coordinate, and the
    witnesses at ranks 1 to 4 keep their pinned digests; the rank-1 quotient
    has dimension 0, so its region's state has no line and no ray, its
    lifted state has L's one line, and its witness is the zero vector
    (0,)."""
    atlas1 = standard_atlas(1)
    assert [r.witness for r in atlas1.regions] == [(0,)]
    assert atlas1.regions[0].state == ((), (), {})
    assert atlas1.regions[0].lifted_state == ((), ((1,),), {})
    digests = {
        1: "78fce9491f4b0e3b895728f3c6efe71e16e4ae77f5f6db9148e6e0584bc5fd42",
        2: "241572a92e96c0351dbcfefceaa03b952f4ccefb46d4a2d2f5bfc713c044136f",
        3: "a7ed3848b58a4a62e492441be1006b3507255f4f014375c49c7310a7f83da4ad",
        4: "008fdc62813f5e9cdf2333129b35afc559f70d1352a202d2727ead9152f60928",
    }
    for atlas in (atlas1, atlas2, atlas3, atlas4):
        quotient = letter_quotient(atlas.src.letters)
        witnesses = [r.witness for r in atlas.regions]
        assert witnesses == [quotient.lift(primitive(
            sum(ray[i] for ray in r.state[2]) for i in range(quotient.dim)))
            for r in atlas.regions]
        assert hashlib.sha256(repr(witnesses).encode()).hexdigest() == \
            digests[atlas.src.rank]


def test_match_reports_a_class_with_no_region(monkeypatch, atlas3, capsys):
    lost = commutation_classes(3)[0].canonical
    lost_vecs = rectangles.spanning_vectors(ReducedWord(3, lost))
    real = regions._spans
    monkeypatch.setattr(regions, "_spans", lambda vecs, normals:
                        vecs != lost_vecs and real(vecs, normals))
    rep = match_spanned_regions(atlas3)
    assert rep.unmatched == (lost,) and not rep.ok
    assert len(rep.matches) == 7 and rep.injective and not rep.covers_all_minimal
    assert lost not in {m.canonical for m in rep.matches}
    assert cli.main(["regions", "--rank", "3", "--match-classes"]) == 0
    match = json.loads(capsys.readouterr().out)["match"]
    assert match["ok"] is False and len(match["matches"]) == 7
    assert match["unmatched"] == ["".join(map(str, lost))]
    # the isomorphism report counts class edges on the class graph and
    # maps none of them through a match that is not ok
    iso = class_region_isomorphism_report(atlas3, rep)
    assert iso["match_ok"] is False and iso["is_isomorphism"] is False
    assert iso["class_edges"] == 8
    assert cli.main(["regions", "--rank", "3", "--match-classes",
                     "--isomorphism"]) == 0
    assert json.loads(capsys.readouterr().out)["isomorphism"] == iso


def test_match_is_not_ok_when_a_minimal_region_is_left_over(atlas3):
    spare = next(r for r in atlas3.regions if r.facet_count == 3)
    rep = match_spanned_regions(replace(atlas3,
                                        regions=atlas3.regions + (spare,)))
    assert not rep.unmatched and rep.injective and len(rep.matches) == 8
    assert not rep.covers_all_minimal and not rep.ok


def test_match_raises_on_dependent_spanning_vectors(monkeypatch, atlas2):
    monkeypatch.setattr(regions, "spanning_vectors",
                        lambda word: [(1, 0, 0)] * 3)
    with pytest.raises(InvariantError, match="dependent"):
        match_spanned_regions(atlas2)


def test_spans_raises_on_dependent_vectors():
    # the orthant is implied: no facet beside it, and the vectors' own
    # coordinates give the table no diagonal
    with pytest.raises(InvariantError, match="dependent"):
        regions._spans([(1, 0, 0), (0, 1, 0), (1, 1, 0)], ())


def test_spans_needs_every_facet_and_every_normal():
    # cone(vecs) strictly inside the orthant: a facet (1, -1, 0) is missing
    assert not regions._spans([(1, 0, 0), (1, 1, 0), (0, 0, 1)], ())
    # every facet of the orthant is implied, but (1, -1, 0) cuts it down
    assert not regions._spans(identity(3), ((1, -1, 0),))
    assert regions._spans(identity(3), ((1, 1, 0),))
    assert regions._spans(identity(3), ())


def _class_vectors(rank):
    return [rectangles.spanning_vectors(ReducedWord(rank, cls.canonical))
            for cls in commutation_classes(rank)]


def _probe(vecs):
    return tuple(map(sum, zip(*vecs)))


def _spans_by_both(atlas, vecs, region):
    """The facet-point rule on cone(vecs) and region intersect orthant,
    the orthant implied, asserted equal to cone_equal's answer."""
    normals = region.cone.ineqs + nonneg_orthant(atlas.dim).ineqs
    got = regions._spans(vecs, region.cone.ineqs)
    assert got == cone_equal(vcone(vecs, atlas.dim),
                             hcone(normals, atlas.dim)), (vecs, normals)
    return got


def test_spans_agrees_with_cone_equal(atlas3, atlas4):
    """Every class with every region at rank 3; every class with the
    region its probe looks up at rank 4."""
    answers = [_spans_by_both(atlas3, vecs, region)
               for vecs in _class_vectors(3) for region in atlas3.regions]
    assert len(answers) == 80 and sum(answers) == 8
    for vecs in _class_vectors(4):
        assert _spans_by_both(atlas4, vecs, atlas4.region_containing(_probe(vecs)))


def test_spans_rejects_strict_subcones_and_cones_that_leave(atlas4):
    rng = random.Random(7)
    table = _class_vectors(4)
    for _ in range(12):
        vecs = rng.choice(table)
        region = atlas4.region_containing(_probe(vecs))
        i, j = rng.sample(range(len(vecs)), 2)
        # v_i -> v_i + v_j keeps every vector in the region: a strict subcone
        inner = vecs[:i] + [tuple(map(sum, zip(vecs[i], vecs[j])))] + vecs[i + 1:]
        assert bareiss_det(inner) != 0 and not _spans_by_both(atlas4, inner, region)
        # v_i -> -v_i leaves the orthant
        outer = vecs[:i] + [vneg(vecs[i])] + vecs[i + 1:]
        assert bareiss_det(outer) != 0 and not _spans_by_both(atlas4, outer, region)
        # v_i -> another class's probe, interior to another region, leaves
        # this one inside the orthant
        other = _probe(rng.choice([v for v in table if v != vecs]))
        away = vecs[:i] + [other] + vecs[i + 1:]
        if bareiss_det(away) != 0:
            assert not _spans_by_both(atlas4, away, region)


def test_spans_agrees_with_the_elimination_oracle(atlas3, atlas4):
    """At ranks 3 and 4 the dot-table check, with the orthant implied,
    gives the elimination's answer on the region's facets and the orthant's
    for every class with its matched region, a yes, and with the region
    the next class matched, a no."""
    for atlas in (atlas3, atlas4):
        orth = identity(atlas.dim)
        table = _class_vectors(atlas.src.rank)
        matched = [m.region_index for m in match_spanned_regions(atlas).matches]
        assert len(matched) == len(table)
        for vecs, idx, wrong in zip(table, matched, matched[1:] + matched[:1]):
            for j, want in ((idx, True), (wrong, False)):
                facets = atlas.regions[j].cone.ineqs
                assert regions._spans(vecs, facets) == \
                    eliminated_spans(vecs, facets + orth) == want, (vecs, j)


def test_match_runs_no_elimination(monkeypatch, atlas4):
    calls = []
    real = polyhedra._gauss_jordan
    for module in (polyhedra, regions):
        monkeypatch.setattr(module, "_gauss_jordan",
                            lambda rows: calls.append(rows) or real(rows))
    assert match_spanned_regions(atlas4).ok and calls == []
    with pytest.raises(InvariantError, match="dependent"):
        regions._spans([(1, 0, 0), (0, 1, 0), (1, 1, 0)], ())
    assert len(calls) == 1


def test_match_looks_up_the_scanned_region(atlas2, atlas3, atlas4):
    for atlas in (atlas2, atlas3, atlas4):
        rep = match_spanned_regions(atlas)
        assert rep.ok
        assert [m.region_index for m in rep.matches] == \
            [scanned_region_index(atlas, vecs)
             for vecs in _class_vectors(atlas.src.rank)]


def test_match_runs_no_double_description(monkeypatch, atlas4):
    def refuse(*args):
        raise AssertionError("double description in the match")

    for name, module in list(sys.modules.items()):
        if name.startswith("wordcones"):
            for fn in ("double_description", "dd_step", "dd_cut", "dd_split",
                       "cone_from_rays", "cone_equal"):
                if hasattr(module, fn):
                    monkeypatch.setattr(module, fn, refuse)
    assert match_spanned_regions(atlas4).ok


def test_lp_counts(monkeypatch, atlas4):
    calls = []
    real = solve_inequalities

    def counting(*args):
        calls.append(len(args[0]))
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("wordcones") and \
                getattr(module, "solve_inequalities", None) is real:
            monkeypatch.setattr(module, "solve_inequalities", counting)
    standard_atlas(4)
    assert calls == []
    assert match_spanned_regions(atlas4).ok
    assert calls == []


def test_cell_predicates_match_lp_oracles():
    """The questions the build asks about every rank-3 and rank-4 cell: its
    interior point, its facets, and the merge validity of each other normal
    of its same-matrix group, where both answers occur.  The other side of
    its last guard always has an interior, by DD and by LP, for a cell
    keeps only the guards that cut."""
    for rank in (3, 4):
        cells, d = _standard_cells(rank)
        groups = {}
        for cell in cells:
            groups.setdefault(cell.rows, []).append(cell)
        answers = set()
        for cell in cells:
            guards = cell.state[0]
            cone = HCone(d, guards)
            assert contains_strictly(cone, interior_point(guards, d))
            assert irredundant_h(cone) == _lp_irredundant_h(cone)
            for g in dict.fromkeys(g for c in groups[cell.rows]
                                   for g in c.state[0] if g not in guards):
                got = implies(guards, g, d)
                assert got == _lp_implies(guards, g, d)
                answers.add(("implies", got))
            if guards:
                other = guards[:-1] + (vneg(guards[-1]),)
                assert interior_point(other, d) is not None
                assert _lp_interior_point(other, d) is not None
        assert answers == {("implies", True), ("implies", False)}


def _lp_region_edges(atlas):
    """Regions with facets g and -g are adjacent iff some x has g . x = 0
    and lies strictly inside every other facet of both (one LP)."""
    edges, candidates = set(), 0
    for i, j in combinations(range(len(atlas.regions)), 2):
        gi, gj = atlas.regions[i].cone.ineqs, atlas.regions[j].cone.ineqs
        for g in gi:
            if vneg(g) not in gj:
                continue
            candidates += 1
            others = [h for h in gi if h != g] + [h for h in gj if h != vneg(g)]
            rows = [g, vneg(g)] + others
            if solve_inequalities(rows, [0, 0] + [1] * len(others),
                                  atlas.dim) is not None:
                edges.add(frozenset((i, j)))
    return edges, candidates


def test_region_graph_matches_lp_face_test(atlas3):
    expected, candidates = _lp_region_edges(atlas3)
    graph = region_graph(atlas3)
    assert {frozenset((a, b)) for a, nbs in graph.items() for b in nbs} == expected
    assert len(expected) < candidates  # some opposite facets share no face
    minimal = _minimal_subgraph(atlas3, graph)
    assert {frozenset((a, b)) for a, nbs in minimal.items() for b in nbs} == \
        {e for e in expected if e <= set(minimal)}


def test_carried_generators_match_double_description():
    """Every rank-2 to rank-4 cell carries the state a dd_step fold of its
    guards gives: its guards as the normals, its lines, its rays in order
    and their masks.  Its facets from them are those of its guards.  Every
    branch recorded in a rank-3 or rank-4 cell's guards has an interior on
    both sides: by the side test on the parent's generators, by dd_cut of
    the parent's state by the side, and by the LP."""
    for rank in (2, 3, 4):
        cells, d = _standard_cells(rank)
        for cell in cells:
            guards = cell.state[0]
            normals, lines, zeros = reduce(dd_step, guards, dd_whole(d))
            assert cell.state[:2] == (normals, lines) and normals == guards
            assert list(cell.state[2].items()) == list(zeros.items())
            assert (list(lines), list(zeros)) == double_description(guards, d)
            assert facets_from_generators(guards, tuple(zeros), d) == \
                irredundant_h(HCone(d, guards))
        if rank == 2:
            continue
        branches = dict.fromkeys((c.state[0][:j], c.state[0][j])
                                 for c in cells
                                 for j in range(len(c.state[0])))
        assert len(branches) == 2 * {3: 10, 4: 213}[rank]  # two per split
        for prefix, g in branches:
            gens = double_description(prefix, d)
            parent = dd_cut(dd_whole(d), prefix)
            for side in (g, vneg(g)):
                assert positive_somewhere(side, *gens), (prefix, side)
                assert dd_cut(parent, (side,)) is not None, (prefix, side)
                assert _lp_interior_point(prefix + (side,), d) is not None, \
                    (prefix, side)


def test_enumeration_cuts_each_new_guard_once(monkeypatch):
    """The enumeration splits each guard that cuts its cell once, into two
    sides that both keep an interior, and decides a guard that holds on the
    cell, or whose negation does, without a cut: the dd_split calls (10 at
    rank 3, 213 at rank 4) are one fewer than the cells, no side is empty,
    and no dd_cut is made."""
    calls = {"split": 0, "empty": 0, "cut": 0}

    def counted(state, a):
        sides = dd_split(state, a)
        calls["split"] += 1
        calls["empty"] += sides.count(None)
        return sides

    def cut(state, ineqs):
        calls["cut"] += 1
        return dd_cut(state, ineqs)
    monkeypatch.setattr(regions, "dd_split", counted)
    monkeypatch.setattr(regions, "dd_cut", cut)
    for rank, expected in ((3, (10, 0)), (4, (213, 0))):
        calls.update(split=0, empty=0, cut=0)
        cells, _ = _standard_cells(rank)
        assert (calls["split"], calls["empty"], calls["cut"]) == \
            expected + (0,), rank
        assert len(cells) == {3: 11, 4: 214}[rank]
        assert calls["split"] == len(cells) - 1


def test_guard_decisions_match_the_lp(monkeypatch):
    """On every braid of every branch at ranks 2 to 4 the enumeration asks
    holds_on of the guard, and of its negation when the guard fails; each
    answer is yes exactly when the LP finds no interior point of the cell
    on the opposite side.  Both answers occur at ranks 3 and 4."""
    asked = []

    def spied(a, state):
        got = holds_on(a, state)
        asked.append((a, state[0], got))
        return got
    monkeypatch.setattr(regions, "holds_on", spied)
    for rank in (2, 3, 4):
        asked.clear()
        _, d = _standard_cells(rank)
        for a, normals, got in asked:
            assert got == (_lp_interior_point(normals + (vneg(a),), d)
                           is None), (normals, a)
        answers = Counter(got for _, _, got in asked)
        assert answers == {2: {False: 2}, 3: {True: 5, False: 24},
                           4: {True: 290, False: 598}}[rank], (rank, answers)


def test_both_branches_empty_raises_typed_error(monkeypatch):
    """A guard that cuts the cell must leave an interior on both sides; a
    split with an empty side, either one or both, raises the typed error."""
    j, jp = standard_words(3)
    for kept in ((False, False), (True, False), (False, True)):
        monkeypatch.setattr(regions, "dd_split", lambda state, a: tuple(
            state if keep else None for keep in kept))
        with pytest.raises(InvariantError,
                           match="left a side with no interior"):
            enumerate_cells(j, default_move_path(j, jp))
    assert not issubclass(InvariantError, AssertionError)
    assert issubclass(RegionConvexityError, InvariantError)


ATLAS_SHA256 = {
    3: "c8d76e4c4467b49d70b706b26cf7b33cb9ac64f7f9bfe5f14cfd5d3d1c87829d",
    4: "95e8f38212e7fa9cc220aa143352d06f9d1a5b3ccc912a6fe4f66d7e76c46697",
}


def _atlas_payload(atlas):
    """The whole atlas artifact as one JSON value, the way `wordcones
    regions --json` built it before writing it region by region."""
    def strs(rows):
        return [[str(x) for x in row] for row in rows]
    return {"rank": atlas.src.rank, "src": str(atlas.src), "dst": str(atlas.dst),
            "regions": [{"matrix": strs(r.matrix), "ineqs": strs(r.cone.ineqs),
                         "facets": r.facet_count} for r in atlas.regions]}


def test_atlas_artifact_golden(atlas3, atlas4, tmp_path):
    for atlas in (atlas3, atlas4):
        text = json.dumps(_atlas_payload(atlas), indent=2, sort_keys=True) + "\n"
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == ATLAS_SHA256[atlas.src.rank]
    target = tmp_path / "atlas3.json"
    assert cli.main(["regions", "--rank", "3", "--json", str(target)]) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == ATLAS_SHA256[3]


# sha256 of an atlas's moves ("c3", "b1", ...) and its sorted bits_index
# entries, one a line, recorded when the peel path still shifted every move
# once per recursion level and a tie in point location still counted the
# braids of atlas.moves
ATLAS_PATH_SHA256 = {
    1: "f00d9ca07f97df0310dc4cf04a2eb3a328a0e370b65a73ec10b58d91c2e870d4",
    2: "af030b0af03df36657362ff89813dcb4d001f3ea6b179928788ab2d85103187d",
    3: "99b172ef9ca7db819375d4440d5e8d6126173d0105495c9ccb9ea836a5b87169",
    4: "d6f2cd7cefb8f2c489d17422e76e5a290cf38922274ffb6cdb7297fe4d4e54c3",
}


def test_atlas_moves_and_bits_index_keep_their_pins(atlas2, atlas3, atlas4):
    for atlas in (standard_atlas(1), atlas2, atlas3, atlas4):
        lines = ([f"{m.kind[0]}{m.position}" for m in atlas.moves]
                 + [f"{b} {i}" for b, i in sorted(atlas.bits_index.items())])
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == ATLAS_PATH_SHA256[atlas.src.rank]


def test_atlas_artifact_is_written_region_by_region(atlas2, atlas3, atlas4):
    """The streamed artifact has the bytes of the whole payload dumped at
    once, at ranks 1 to 4 (one region with no facets at rank 1), and writes
    one chunk per region besides its head and tail."""
    for atlas in (standard_atlas(1), atlas2, atlas3, atlas4):
        chunks = []
        cli._write_atlas(atlas, SimpleNamespace(write=chunks.append))
        assert "".join(chunks) == json.dumps(_atlas_payload(atlas), indent=2,
                                             sort_keys=True) + "\n"
        assert len(chunks) == len(atlas.regions) + 2


def test_region_maps_are_unimodular(atlas2, atlas3, atlas4):
    for atlas in (atlas2, atlas3, atlas4):
        for region in atlas.regions:
            assert bareiss_det(region.matrix) in (1, -1)


def test_distinct_matrices(atlas3, atlas4):
    for atlas in (atlas3, atlas4):
        assert len({r.matrix for r in atlas.regions}) == len(atlas.regions)


def test_evaluate_examples():
    j, jp = standard_words(2)
    assert evaluate(j, jp, (2, 5, 3)) == (6, 2, 5)
    assert evaluate(j, jp, (0, 0, 0)) == (0, 0, 0)


def test_evaluate_round_trip_and_atlas_agreement(atlas2, atlas3):
    rng = random.Random(99)
    for atlas in (atlas2, atlas3):
        j, jp = atlas.src, atlas.dst
        back = default_move_path(jp, j)
        for _ in range(500):
            x = tuple(rng.randrange(0, 30) for _ in range(atlas.dim))
            y = atlas.evaluate(x)
            assert evaluate(jp, j, y, back) == x
            region = atlas.region_containing(x)
            assert region.cone.contains(x)
            assert region.apply(x) == y


def test_interior_points_in_exactly_one_region(atlas3):
    rng = random.Random(4)
    hits = 0
    for _ in range(200):
        x = tuple(rng.randrange(0, 40) for _ in range(atlas3.dim))
        containing = regions_containing(atlas3, x)
        assert len(containing) >= 1
        if len(containing) == 1:
            hits += 1
            assert atlas3.region_containing(x) is containing[0]
    assert hits > 100  # most random points are interior to one region


def test_region_witnesses_are_interior(atlas2, atlas3, atlas4):
    """Each region's witness, the lifted ray sum of its own state, is
    strictly interior to its cone, merged regions included; its facets are
    those read off the state it keeps, lifted, and the state leaves it
    hashable."""
    for atlas in (atlas2, atlas3, atlas4):
        for region in atlas.regions:
            assert contains_strictly(region.cone, region.witness)
            assert facet_state(region.lifted_state)[0] == region.cone.ineqs
            bare = replace(region, state=None)
            assert bare == region and hash(bare) == hash(region)
            assert repr(bare) == repr(region)


def test_atlas_covers_space(atlas3):
    rng = random.Random(12)
    for _ in range(200):
        x = tuple(rng.randrange(-25, 26) for _ in range(atlas3.dim))
        assert regions_containing(atlas3, x)


def test_match_spanned_regions_small(atlas2, atlas3):
    rep2 = match_spanned_regions(atlas2)
    assert rep2.ok and len(rep2.matches) == 2 and rep2.minimal_facets == 1
    rep3 = match_spanned_regions(atlas3)
    assert rep3.ok and len(rep3.matches) == 8 and rep3.minimal_facets == 3


def test_orthant_restriction_rank3(atlas3):
    analysis = orthant_restriction_analysis(atlas3)
    restricted = sorted((r.region_facets, r.restricted_facets) for r in analysis)
    assert restricted == [(3, 6)] * 8 + [(4, 8), (4, 9)]
    for r in analysis:
        region = atlas3.regions[r.region_index]
        assert r.cone == irredundant_h(hcone(
            region.cone.ineqs + nonneg_orthant(atlas3.dim).ineqs, atlas3.dim))
        assert len(r.cone.ineqs) == r.restricted_facets


def _check_decomposition(cone, dec):
    """Simplicial pieces inside the cone that cover it with pairwise
    disjoint interiors, by the LP oracles."""
    assert dec.minimal
    for piece in dec.pieces:
        assert len(piece.rays) == cone.dim
        assert all(cone.contains(ray) for ray in piece.rays)
    assert _lp_is_disjoint_cover(
        cone, [cone_from_rays(p).ineqs for p in dec.pieces])


def test_simplicial_decomposition_trivial():
    orth = nonneg_orthant(3)
    dec = simplicial_decomposition(orth)
    assert dec.minimal and len(dec.pieces) == 1
    assert cone_equal(dec.pieces[0], orth)


def test_simplicial_decomposition_rejects_flat_and_non_pointed_cones():
    with pytest.raises(DegenerateConeError):
        simplicial_decomposition(hcone([(1, 0, 0), (-1, 0, 0)], 3))
    with pytest.raises(NonPointedError):
        simplicial_decomposition(hcone([(1, 0, 0), (0, 1, 0)], 3))


#: The pieces of the two rank-3 decompositions, by restricted facet count:
#: each piece's rays, sorted, one digit string per ray.
DECOMPOSITION_PIECES_RANK3 = {
    8: ["001000 001001 010000 010010 100000 100100",
        "001001 010000 010010 100000 100100 110001"],
    9: ["000001 000010 000100 001001 010001 100001",
        "000010 000100 001001 010001 010010 100001",
        "000010 000100 001001 010010 100001 100100",
        "000100 001001 010001 010010 100001 100100"],
}


def test_simplicial_decompositions_rank3(monkeypatch, atlas3):
    """The pinned pieces, from one elimination per 6-subset of the rays:
    C(7, 6) = 7 and C(8, 6) = 28, the pulling simplices' volumes included.
    The elimination and the cut are counted under both modules' names for
    them.  The search cuts the cone from the whole space once (full_cut)
    and then tests 1 and 26 pairs of pieces, where the all-pairs table cut
    10 and 105."""
    eliminated, cuts = [], []
    real, real_cut = polyhedra._gauss_jordan, polyhedra.dd_cut
    for module in (polyhedra, regions):
        monkeypatch.setattr(module, "_gauss_jordan",
                            lambda rows: eliminated.append(rows) or real(rows))
        monkeypatch.setattr(module, "dd_cut",
                            lambda state, ineqs: cuts.append(ineqs)
                            or real_cut(state, ineqs))
    sizes, pieces, calls, cut_calls = {}, {}, {}, {}
    for r in orthant_restriction_analysis(atlas3):
        if r.region_facets != 4:
            continue
        eliminated.clear()
        cuts.clear()
        dec = simplicial_decomposition(r.cone)
        cut_calls[r.restricted_facets] = len(cuts)
        rays = extreme_rays(r.cone).rays
        assert eliminated == list(combinations(rays, atlas3.dim))
        calls[r.restricted_facets] = len(eliminated)
        _check_decomposition(r.cone, dec)
        sizes[r.restricted_facets] = len(dec.pieces)
        pieces[r.restricted_facets] = [
            " ".join("".join(map(str, ray)) for ray in sorted(p.rays))
            for p in dec.pieces]
    assert sizes == {8: 2, 9: 4} and calls == {8: 7, 9: 28}
    assert cut_calls == {8: 2, 9: 27}
    assert pieces == DECOMPOSITION_PIECES_RANK3


def test_simplicial_decomposition_matches_level_search(atlas3, atlas4):
    """The depth-first search returns the level search's Decomposition on
    both rank-3 cones, on seeded cones in dimensions 3 to 5, and on every
    rank-4 orthant restriction with at most 12 rays; the rank-4 piece
    counts, by ray count, are pinned."""
    cones = [r.cone for r in orthant_restriction_analysis(atlas3)
             if r.region_facets == 4]
    rng = random.Random(11)
    while len(cones) < 2 + 40:
        dim = rng.choice((3, 4, 5))
        gens = [tuple(rng.randrange(4) for _ in range(dim))
                for _ in range(rng.randrange(dim + 1, dim + 3))]
        if matrix_rank(gens) == dim:
            cones.append(cone_from_rays(vcone([g for g in gens if any(g)], dim)))
    several = 0
    for cone in cones:
        dec = simplicial_decomposition(cone)
        assert dec == level_search_decomposition(cone), cone
        several += len(dec.pieces) > 2
    assert several == 12
    shapes = Counter()
    for r in orthant_restriction_analysis(atlas4):
        rays = len(extreme_rays(r.cone).rays)
        if rays <= 12:
            dec = simplicial_decomposition(r.cone)
            assert dec == level_search_decomposition(r.cone), r
            shapes[rays, len(dec.pieces)] += 1
    assert shapes == {(10, 1): 62, (11, 2): 20, (12, 3): 16, (12, 4): 6}


def test_simplicial_decomposition_is_minimal_on_random_cones():
    rng = random.Random(7)
    tried = 0
    while tried < 100:
        dim = rng.choice((3, 4))
        gens = [tuple(rng.randrange(4) for _ in range(dim))
                for _ in range(rng.randrange(dim + 1, dim + 3))]
        if matrix_rank(gens) != dim:
            continue
        cone = cone_from_rays(vcone([g for g in gens if any(g)], dim))
        dec = simplicial_decomposition(cone)
        _check_decomposition(cone, dec)
        assert len(dec.pieces) == _lp_min_simplicial_cover(cone), gens
        tried += 1


def test_pulling_simplices_match_rank_reference():
    """The facets picked as maximal zero sets triangulate seeded cones in
    dimensions 3 to 5 exactly as the facets picked by rank do, simplex for
    simplex and in the same order."""
    rng = random.Random(29)
    tried = several = 0
    while tried < 300:
        dim = rng.choice((3, 4, 5))
        gens = [tuple(rng.randrange(4) for _ in range(dim))
                for _ in range(rng.randrange(dim + 1, dim + 4))]
        if matrix_rank(gens) != dim:
            continue
        cone = cone_from_rays(vcone([g for g in gens if any(g)], dim))
        rays = extreme_rays(cone).rays
        got = _pulling_simplices(rays, cone.ineqs)
        assert got == _rank_pulling_simplices(rays, cone.ineqs, dim), gens
        several += len(got) > 1
        tried += 1
    assert several > 200


def _minimal_subgraph(atlas, graph):
    """The subgraph of a region graph induced on the minimal-facet regions."""
    least = min(r.facet_count for r in atlas.regions)
    keep = {i for i, r in enumerate(atlas.regions) if r.facet_count == least}
    return {i: nb & keep for i, nb in graph.items() if i in keep}


def test_region_graph_matches_the_cut_loop(atlas2, atlas3, atlas4):
    """The join of facet faces gives the cut loop's graph, the full one and
    the one on the minimal-facet regions, at ranks 1-4 and on six seeded
    random-pair rank-4 atlases."""
    pairs = [transition_atlas(random_reduced_word(4, rng),
                              random_reduced_word(4, rng))
             for rng in map(random.Random, range(6))]
    assert [len(a.regions) for a in pairs] == [8, 104, 64, 4, 118, 8]
    for atlas in [standard_atlas(1), atlas2, atlas3, atlas4] + pairs:
        graph = region_graph(atlas)
        assert graph == cut_region_graph(atlas, False)
        assert _minimal_subgraph(atlas, graph) == cut_region_graph(atlas, True)


def _raised_region_and_facet(atlas):
    """The region and the R^k facet that region_graph's raise names."""
    with pytest.raises(InvariantError) as err:
        region_graph(atlas)
    found = re.fullmatch(r"regions \d+ and (\d+) both have the face of "
                         r"facet (\(.*\))|no region across facet "
                         r"(\(.*\)) of region (\d+)", str(err.value))
    assert found, str(err.value)
    i, a, b, j = found.groups()
    return (int(i), literal_eval(a)) if i else (int(j), literal_eval(b))


def test_region_graph_raises_on_a_corrupted_atlas(atlas3):
    """A region dropped or duplicated, or a ray dropped from one region's
    state, raises InvariantError naming a region and one of its R^k facets,
    instead of returning a wrong graph."""
    dropped = replace(atlas3, regions=atlas3.regions[1:])
    doubled = replace(atlas3, regions=atlas3.regions + atlas3.regions[:1])
    region = atlas3.regions[0]
    normals, lines, zeros = region.state
    lost = replace(region, state=(normals, lines, dict(list(zeros.items())[1:])))
    for atlas in (dropped, doubled,
                  replace(atlas3, regions=(lost,) + atlas3.regions[1:])):
        i, facet = _raised_region_and_facet(atlas)
        assert facet in atlas.regions[i].cone.ineqs


def test_region_graph_rank2(atlas2):
    graph = region_graph(atlas2)
    assert len(graph) == 2
    assert sum(len(v) for v in graph.values()) // 2 == 1


def test_region_graph_rank3_minimal(atlas3):
    graph = _minimal_subgraph(atlas3, region_graph(atlas3))
    assert len(graph) == 8
    assert is_connected(graph)


def test_region_graph_rank4(atlas4):
    graph = region_graph(atlas4)
    edges = {frozenset((a, b)) for a, nbs in graph.items() for b in nbs}
    assert len(graph) == 144 and len(edges) == 482
    minimal = _minimal_subgraph(atlas4, graph)
    assert {frozenset((a, b)) for a, nbs in minimal.items() for b in nbs} == \
        {e for e in edges if e <= set(minimal)}


def test_isomorphism_report_small(atlas2, atlas3):
    for atlas in (atlas2, atlas3):
        report = class_region_isomorphism_report(
            atlas, match_spanned_regions(atlas))
        assert report["match_ok"]
        assert report["class_vertices"] == report["region_vertices"]
        assert report["is_isomorphism"]


def test_match_and_report_search_the_class_graph_once(monkeypatch, atlas3):
    calls = []
    real = regions.class_graph
    monkeypatch.setattr(regions, "class_graph",
                        lambda rank: calls.append(rank) or real(rank))
    match = match_spanned_regions(atlas3)
    report = class_region_isomorphism_report(atlas3, match)
    assert calls == [3] and match.class_graph == real(3)
    assert report["class_vertices"] == 8 and report["is_isomorphism"]


def test_isomorphism_report_rank4(atlas4):
    report = class_region_isomorphism_report(atlas4,
                                             match_spanned_regions(atlas4))
    assert report["class_vertices"] == report["region_vertices"] == 62
    assert report["class_edges"] == report["region_edges"] == 100
    assert report["match_ok"] and report["is_isomorphism"]


def test_path_independence(atlas2, atlas3):
    for atlas in (atlas2, atlas3):
        j, jp = atlas.src, atlas.dst
        alt = detour_move_path(j, jp)
        assert list(alt) != list(atlas.moves)
        other = transition_atlas(j, jp, alt)
        assert {(r.matrix, r.cone.ineqs) for r in atlas.regions} == \
            {(r.matrix, r.cone.ineqs) for r in other.regions}


@pytest.mark.parametrize("rank, seed", [(3, 1), (3, 2), (3, 3), (4, 1)])
def test_atlas_via_random_intermediate_word(rank, seed):
    j, jp = standard_words(rank)
    mid = random_reduced_word(rank, random.Random(seed))
    moves = find_move_path(j, mid) + find_move_path(mid, jp)
    other = transition_atlas(j, jp, moves)
    assert {(r.matrix, r.cone.ineqs) for r in standard_atlas(rank).regions} == \
        {(r.matrix, r.cone.ineqs) for r in other.regions}


def test_transition_atlas_rejects_rank_mismatch():
    j2, _ = standard_words(2)
    j3, _ = standard_words(3)
    with pytest.raises(ValueError):
        transition_atlas(j2, j3)


@pytest.mark.parametrize("moves", [[Move(COMMUTATION, 1)], []])
def test_path_must_end_at_destination(moves):
    j, jp = standard_words(3)
    with pytest.raises(ValueError):
        transition_atlas(j, jp, moves)
    with pytest.raises(ValueError):
        evaluate(j, jp, (1, 2, 3, 4, 5, 6), moves)


def test_walk_rejects_illegal_move(atlas3):
    from wordcones.regions import evaluate_along
    x = (1, 2, 3, 4, 5, 6)
    with pytest.raises(ValueError):
        evaluate_along(x, atlas3.src.letters, [Move(BRAID, 1)])  # 1,3,2
    bad = replace(atlas3, moves=(Move(COMMUTATION, 2),) + atlas3.moves)  # 3,2
    with pytest.raises(ValueError):
        bad.region_containing(x)


@pytest.mark.parametrize("length", [5, 7])
def test_a_point_of_the_wrong_length_raises(monkeypatch, atlas3, length):
    """Rank 3 has k = 6 coordinates; every entry point that walks or dots
    a point of k - 1 or k + 1 of them raises instead of truncating it."""
    x = tuple(range(1, length + 1))
    j, jp = standard_words(3)
    region = atlas3.regions[0]
    for call in (lambda: regions.evaluate_along(x, j.letters, atlas3.moves),
                 lambda: evaluate(j, jp, x),
                 lambda: atlas3.evaluate(x),
                 lambda: atlas3.region_containing(x),
                 lambda: region.apply(x),
                 lambda: region.cone.contains(x),
                 lambda: nonneg_orthant(6).contains(x)):
        with pytest.raises(ValueError, match="point"):
            call()
    # the match's probe lookup walks the sum of the spanning vectors
    monkeypatch.setattr(regions, "spanning_vectors",
                        lambda word: list(identity(length)))
    with pytest.raises(ValueError, match="point"):
        match_spanned_regions(atlas3)


def _ties(atlas, points):
    """The points whose walk ties at a guard and takes a branch no cell
    kept, so it misses bits_index."""
    return [x for x in points if regions._walk(
        x, atlas.src.letters, atlas.moves)[1] not in atlas.bits_index]


def _tie_points(atlas, seed, count):
    """The origin and the seeded points of [0, 50)^k that tie."""
    rng = random.Random(seed)
    return _ties(atlas, [(0,) * atlas.dim] + [
        tuple(rng.randrange(0, 50) for _ in range(atlas.dim))
        for _ in range(count)])


def _halves(seed, k, count):
    """Seeded points of {-2, -3/2, ..., 2}^k, with Fraction coordinates."""
    rng = random.Random(seed)
    return [tuple(Fraction(rng.randrange(-4, 5), 2) for _ in range(k))
            for _ in range(count)]


def test_lookup_resolves_ties_without_a_scan(monkeypatch, atlas2, atlas3,
                                             atlas4):
    """A lookup walks the point once, and at a tie once more, scaled and
    perturbed; it scans no region, so HCone.contains is never called.  The
    located region is among those the scan oracle finds, and maps the point
    as the walk does.  Rank 2 has one braid, both of whose branches are
    kept, so no rank-2 walk misses."""
    cases = [(atlas2, list(product((-1, 0, 1), repeat=3)), 0),
             (atlas2, _halves(2, 3, 200), 0),
             (atlas3, _tie_points(atlas3, 3, 2_000), 10),
             (atlas3, list(product((-1, 0, 1), repeat=6)), 100),
             (atlas3, _ties(atlas3, _halves(3, 6, 500)), 20),
             (atlas4, _tie_points(atlas4, 4, 2_000), 30),
             (atlas4, _ties(atlas4, _halves(4, 10, 500)), 50)]
    ties = [len(_ties(atlas, points)) for atlas, points, _ in cases]
    for n, (_, _, least) in zip(ties, cases):
        assert n >= least
    assert ties[:2] == [0, 0]
    assert cases[2][1][0] == (0,) * 6 and cases[5][1][0] == (0,) * 10
    contains, walk = HCone.contains, regions._walk
    scans, walks, located = [], [], []
    monkeypatch.setattr(HCone, "contains",
                        lambda cone, x: scans.append(x) or contains(cone, x))
    monkeypatch.setattr(regions, "_walk",
                        lambda *args: walks.append(args) or walk(*args))
    for (atlas, points, _), n in zip(cases, ties):
        walks.clear()
        located.append([atlas.region_containing(x) for x in points])
        assert len(walks) == len(points) + n
    assert scans == []
    monkeypatch.undo()
    for (atlas, points, _), found in zip(cases, located):
        for x, region in zip(points, found):
            assert any(region is r for r in regions_containing(atlas, x))
            assert region.apply(x) == atlas.evaluate(x)


def test_lookup_raises_where_the_atlas_does_not_cover(monkeypatch, atlas3):
    """The lookup trusts bits_index, at a tie as everywhere else: a point
    whose reached key is stripped from it raises, whether it ties or not."""
    x = next(x for x in _tie_points(atlas3, 3, 2_000) if any(x))
    walk = regions._walk
    for point in (x, (1, 2, 3, 4, 5, 6)):
        reached = []
        monkeypatch.setattr(regions, "_walk", lambda *args: reached.append(
            walk(*args)) or reached[-1])
        atlas3.region_containing(point)
        monkeypatch.undo()
        assert len(reached) == (2 if point == x else 1)
        stripped = replace(atlas3, bits_index={
            bits: i for bits, i in atlas3.bits_index.items()
            if bits != reached[-1][1]})
        with pytest.raises(InvariantError, match="atlas does not cover"):
            stripped.region_containing(point)
    with pytest.raises(InvariantError, match="atlas does not cover"):
        replace(atlas3, bits_index={}).region_containing((0,) * atlas3.dim)


def test_atlas_between_random_words_is_consistent():
    rng = random.Random(55)
    src = random_reduced_word(3, rng)
    dst = random_reduced_word(3, rng)
    atlas = transition_atlas(src, dst)
    for _ in range(200):
        x = tuple(rng.randrange(0, 25) for _ in range(atlas.dim))
        region = atlas.region_containing(x)
        assert region.apply(x) == atlas.evaluate(x)


def test_transition_coherence_through_intermediate_words():
    # composing the maps through any intermediate word equals the direct map
    from wordcones.regions import evaluate_along
    rng = random.Random(8)
    for rank in (2, 3, 4):
        j, jp = standard_words(rank)
        mid = random_reduced_word(rank, rng)
        first = default_move_path(j, mid)
        second = default_move_path(mid, jp)
        direct = default_move_path(j, jp)
        for _ in range(300):
            x = tuple(rng.randrange(0, 40) for _ in range(len(j.letters)))
            via = evaluate_along(evaluate_along(x, j.letters, first),
                                 mid.letters, second)
            assert via == evaluate_along(x, j.letters, direct)
