import hashlib
import json
import random
import sys
from dataclasses import replace
from functools import reduce
from itertools import combinations

import pytest

from class_oracles import is_connected
from lp_oracles import (_lp_implies, _lp_interior_point, _lp_irredundant_h,
                        _lp_is_disjoint_cover, _lp_min_simplicial_cover,
                        _lp_subtract_full_dim, _rank_facets,
                        _rank_pulling_simplices, assert_state_invariants,
                        contains_strictly, extreme_rays,
                        facets_from_generators, implies, matrix_rank,
                        positive_somewhere, regions_containing,
                        scanned_region_index)
from wordcones import cli, polyhedra, rectangles, regions
from wordcones.polyhedra import (DegenerateConeError, HCone, InvariantError,
                                 NonPointedError, cone_equal,
                                 cone_from_rays, dd_cut, dd_step, dd_whole,
                                 dot, double_description, hcone,
                                 identity, interior_point, irredundant_h,
                                 nonneg_orthant, primitive, ray_sum_witness,
                                 solve_inequalities, vcone, vneg,
                                 zero_set_facets)
from wordcones.regions import (RegionConvexityError, _merge_cells,
                               _pulling_simplices, apply_braid_triple,
                               braid_move_count, class_region_isomorphism_report,
                               default_move_path, det, detour_move_path,
                               enumerate_cells, evaluate, match_spanned_regions,
                               orthant_restriction_analysis, region_graph,
                               simplicial_decomposition, standard_atlas,
                               transition_atlas)
from wordcones.words import (BRAID, COMMUTATION, Move, ReducedWord,
                             commutation_classes, find_move_path,
                             random_reduced_word, standard_words)


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


def test_default_path_braid_counts():
    for rank, expected in ((2, 1), (3, 4), (4, 10), (5, 20)):
        j, jp = standard_words(rank)
        assert braid_move_count(default_move_path(j, jp)) == expected


def _standard_cells(rank):
    j, jp = standard_words(rank)
    return enumerate_cells(j, default_move_path(j, jp)), len(j.letters)


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
    cells, k = _standard_cells(3)
    accepted = 0
    for pair in combinations(cells, 2):
        expected = _merge_verdict(_subtraction_merge, list(pair), k)
        got = _merge_verdict(_merge_cells, list(pair), k)
        if expected is None:
            assert got is None
        else:
            assert got is not None and zero_set_facets(got, k) == expected
            accepted += 1
    assert len(cells) == 11 and accepted == 13


def test_merge_certificate_accepts_every_rank4_group(atlas4):
    cells, k = _standard_cells(4)
    groups = {}
    for cell in cells:
        groups.setdefault(cell.rows, []).append(cell)
    cones = {r.matrix: r.cone for r in atlas4.regions}
    merged = [g for g in groups.values() if len(g) > 1]
    assert len(groups) == 144 and len(merged) == 48
    for group in merged:
        cone = zero_set_facets(_merge_cells(group, k), k)
        assert cone == cones[group[0].rows] == _subtraction_merge(group, k)


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


def test_zero_set_facets_match_rank_and_lp_on_cells_and_groups():
    """Every rank-3 and rank-4 cell carries its rays' zero sets as masks, and
    so does the dd_cut fold of every multi-cell group's valid normals, which
    are that fold's normals; the facets read off those masks are those of
    the dot-product, rank and LP rules."""
    for rank in (3, 4):
        cells, k = _standard_cells(rank)
        states = [c.state for c in cells]
        for group in _multi_cell_groups(cells):
            valid = _valid_normals(group, k)
            states.append(dd_cut(dd_whole(k), valid))
            assert states[-1][0] == valid
        assert len(states) == {3: 12, 4: 262}[rank]
        for state in states:
            normals, lines, rays = state[0], state[1], tuple(state[2])
            assert tuple(state[2].values()) == _zero_sets(normals, rays), \
                normals
            assert zero_set_facets(state, k) == \
                facets_from_generators(normals, rays, k) == \
                _rank_facets(normals, lines, rays, k) == \
                _lp_irredundant_h(HCone(k, normals)), normals


def _branch_guards(src, moves, bits):
    """The guards of the cell with these branch bits, walked from the move
    path alone: at each braid the primitive c - a of the rows, or its
    negation on a '0' bit, each kept once, in order."""
    rows, bits, guards = identity(len(src.letters)), iter(bits), {}
    for mv in moves:
        t = mv.position - 1
        if mv.kind == COMMUTATION:
            rows = regions._swap_rows(rows, t)
            continue
        low = next(bits) == "1"
        g = primitive(tuple(z - x for x, z in zip(rows[t], rows[t + 2])))
        guards.setdefault(g if low else vneg(g))
        rows = regions._braid_rows(rows, t, low)
    return tuple(guards)


def test_cell_and_region_states_describe_themselves(atlas2, atlas3, atlas4):
    """Every rank-2 to rank-4 cell's state has as its normals the guards its
    branch bits walk to, and every region keeps the state of its one cell
    or the dd_cut fold of its group's valid normals; in each state the masks
    are the rays' zero sets among its normals, and the lines vanish on
    every normal."""
    for atlas in (atlas2, atlas3, atlas4):
        k = atlas.dim
        groups = {}
        for cell in enumerate_cells(atlas.src, atlas.moves):
            guards = _branch_guards(atlas.src, atlas.moves, cell.bits)
            assert_state_invariants(cell.state, guards)
            groups.setdefault(cell.rows, []).append((cell, guards))
        for region in atlas.regions:
            group = groups[region.matrix]
            cut = group[0][1] if len(group) == 1 else \
                _valid_normals([c for c, _ in group], k)
            assert_state_invariants(region.state, cut)


def test_region_graph_and_orthant_restriction_cut_from_kept_states(
        monkeypatch, atlas3, atlas4):
    """On prebuilt atlases neither facet adjacency nor orthant restriction
    rebuilds a state from the whole space: with dd_whole refused they give
    the pinned edge counts and restriction shapes."""
    def refuse(dim):
        raise AssertionError("a state rebuilt from the whole space")
    monkeypatch.setattr(regions, "dd_whole", refuse)
    monkeypatch.setattr(polyhedra, "dd_whole", refuse)
    for minimal_only, expected in ((False, 482), (True, 100)):
        graph = region_graph(atlas4, minimal_only)
        assert sum(map(len, graph.values())) == 2 * expected
    restricted = sorted((r.region_facets, r.restricted_facets)
                        for r in orthant_restriction_analysis(atlas3))
    assert restricted == [(3, 6)] * 8 + [(4, 8), (4, 9)]


def test_stepped_sibling_verdicts_match_interior_point():
    """On every rank-3 cell pair and every rank-4 multi-cell group, cutting
    the state of the valid normals by each off-path sibling agrees with the
    LP on valid + sibling, and the ray sum of a cut that keeps an interior
    is interior; both answers occur."""
    cells3, k3 = _standard_cells(3)
    cells4, k4 = _standard_cells(4)
    groups = [(list(pair), k3) for pair in combinations(cells3, 2)]
    groups += [(group, k4) for group in _multi_cell_groups(cells4)]
    answers = {True: 0, False: 0}
    for group, k in groups:
        valid = _valid_normals(group, k)
        state = dd_cut(dd_whole(k), valid)
        for sib in regions._off_path_siblings(group):
            got = dd_cut(state, sib)
            assert (got is None) == \
                (_lp_interior_point(valid + sib, k) is None), (valid, sib)
            if got is not None:
                assert got[0] == valid + sib
                ray_sum_witness(got, k)
            answers[got is not None] += 1
    assert answers[True] and answers[False], answers


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


def test_match_raises_on_dependent_spanning_vectors(monkeypatch, atlas2):
    monkeypatch.setattr(rectangles, "spanning_vectors",
                        lambda word: [(1, 0, 0)] * 3)
    with pytest.raises(InvariantError, match="dependent"):
        match_spanned_regions(atlas2)


def _class_vectors(rank):
    return [rectangles.spanning_vectors(ReducedWord(rank, cls.canonical))
            for cls in commutation_classes(rank)]


def _probe(vecs):
    return tuple(map(sum, zip(*vecs)))


def _spans_by_both(atlas, vecs, region):
    """The facet-point rule on cone(vecs) and region intersect orthant,
    asserted equal to cone_equal's answer."""
    normals = region.cone.ineqs + nonneg_orthant(atlas.dim).ineqs
    got = regions._spans(vecs, normals)
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
        assert det(inner) != 0 and not _spans_by_both(atlas4, inner, region)
        # v_i -> -v_i leaves the orthant
        outer = vecs[:i] + [vneg(vecs[i])] + vecs[i + 1:]
        assert det(outer) != 0 and not _spans_by_both(atlas4, outer, region)
        # v_i -> another class's probe, interior to another region, leaves
        # this one inside the orthant
        other = _probe(rng.choice([v for v in table if v != vecs]))
        away = vecs[:i] + [other] + vecs[i + 1:]
        if det(away) != 0:
            assert not _spans_by_both(atlas4, away, region)


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
            for fn in ("double_description", "dd_step", "dd_cut",
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
    interior point, its facets, the merge validity of each other normal of
    its same-matrix group, and whether the other side of its last guard has
    an interior (the branch test)."""
    for rank in (3, 4):
        cells, k = _standard_cells(rank)
        groups = {}
        for cell in cells:
            groups.setdefault(cell.rows, []).append(cell)
        answers = set()
        for cell in cells:
            guards = cell.state[0]
            cone = HCone(k, guards)
            assert contains_strictly(cone, interior_point(guards, k))
            assert irredundant_h(cone) == _lp_irredundant_h(cone)
            for g in dict.fromkeys(g for c in groups[cell.rows]
                                   for g in c.state[0] if g not in guards):
                got = implies(guards, g, k)
                assert got == _lp_implies(guards, g, k)
                answers.add(("implies", got))
            if guards:
                other = guards[:-1] + (vneg(guards[-1]),)
                got = interior_point(other, k) is not None
                assert got == (_lp_interior_point(other, k) is not None)
                answers.add(("interior", got))
        assert len(answers) == 4  # both answers occur for both questions


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
    minimal = region_graph(atlas3, minimal_only=True)
    assert {frozenset((a, b)) for a, nbs in minimal.items() for b in nbs} == \
        {e for e in expected if e <= set(minimal)}


def test_carried_generators_match_double_description():
    """Every rank-2 to rank-4 cell carries the state a dd_step fold of its
    guards gives: its guards as the normals, its lines, its rays in order
    and their masks.  Its facets from them are those of its guards.  On
    every branch of the rank-3 and rank-4 trees the side test on the
    parent's generators, and dd_cut of the parent's state by the side,
    agree with the LP, and both answers occur."""
    for rank in (2, 3, 4):
        cells, k = _standard_cells(rank)
        for cell in cells:
            guards = cell.state[0]
            normals, lines, zeros = reduce(dd_step, guards, dd_whole(k))
            assert cell.state[:2] == (normals, lines) and normals == guards
            assert list(cell.state[2].items()) == list(zeros.items())
            assert (list(lines), list(zeros)) == double_description(guards, k)
            assert facets_from_generators(guards, tuple(zeros), k) == \
                irredundant_h(HCone(k, guards))
        if rank == 2:
            continue
        branches = dict.fromkeys((c.state[0][:j], c.state[0][j])
                                 for c in cells
                                 for j in range(len(c.state[0])))
        answers = set()
        for prefix, g in branches:
            gens = double_description(prefix, k)
            parent = dd_cut(dd_whole(k), prefix)
            for side in (g, vneg(g)):
                got = positive_somewhere(side, *gens)
                assert got == (dd_cut(parent, (side,)) is not None) == \
                    (_lp_interior_point(prefix + (side,), k) is not None)
                answers.add(got)
        assert answers == {True, False}, rank


def test_enumeration_cuts_each_new_guard_once(monkeypatch):
    """The enumeration cuts both sides of each guard that is new on its
    branch and decides a repeated guard, or its negation, without a cut:
    the dd_cut calls and the empty ones are pinned at ranks 3 and 4."""
    calls = {"all": 0, "empty": 0}

    def counted(state, ineqs):
        cut = dd_cut(state, ineqs)
        calls["all"] += 1
        calls["empty"] += cut is None
        return cut
    monkeypatch.setattr(regions, "dd_cut", counted)
    for rank, expected in ((3, (26, 3)), (4, (794, 184))):
        calls.update(all=0, empty=0)
        cells, _ = _standard_cells(rank)
        assert (calls["all"], calls["empty"]) == expected, rank
        assert len(cells) == {3: 11, 4: 214}[rank]


def test_both_branches_empty_raises_typed_error(monkeypatch):
    # a side test that finds no interior on either side leaves no branch
    monkeypatch.setattr(regions, "dd_cut", lambda state, ineqs: None)
    j, jp = standard_words(3)
    with pytest.raises(InvariantError, match="both braid branches"):
        enumerate_cells(j, default_move_path(j, jp))
    assert not issubclass(InvariantError, AssertionError)
    assert issubclass(RegionConvexityError, InvariantError)


ATLAS_SHA256 = {
    3: "c8d76e4c4467b49d70b706b26cf7b33cb9ac64f7f9bfe5f14cfd5d3d1c87829d",
    4: "95e8f38212e7fa9cc220aa143352d06f9d1a5b3ccc912a6fe4f66d7e76c46697",
}


def test_atlas_artifact_golden(atlas3, atlas4, tmp_path):
    for atlas in (atlas3, atlas4):
        text = json.dumps(atlas.to_json(), indent=2, sort_keys=True) + "\n"
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == ATLAS_SHA256[atlas.src.rank]
    target = tmp_path / "atlas3.json"
    assert cli.main(["regions", "--rank", "3", "--json", str(target)]) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == ATLAS_SHA256[3]


def test_region_maps_are_unimodular(atlas2, atlas3, atlas4):
    for atlas in (atlas2, atlas3, atlas4):
        for region in atlas.regions:
            assert det(region.matrix) in (1, -1)


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
    """Each region's witness, the ray sum of its own state, is strictly
    interior to its cone, merged regions included; its facets are those
    read off the state it keeps, and the state leaves it hashable."""
    for atlas in (atlas2, atlas3, atlas4):
        for region in atlas.regions:
            assert contains_strictly(region.cone, region.witness)
            assert zero_set_facets(region.state, atlas.dim) == region.cone
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


def test_simplicial_decompositions_rank3(atlas3):
    sizes, pieces = {}, {}
    for r in orthant_restriction_analysis(atlas3):
        if r.region_facets != 4:
            continue
        dec = simplicial_decomposition(r.cone)
        _check_decomposition(r.cone, dec)
        sizes[r.restricted_facets] = len(dec.pieces)
        pieces[r.restricted_facets] = [
            " ".join("".join(map(str, ray)) for ray in sorted(p.rays))
            for p in dec.pieces]
    assert sizes == {8: 2, 9: 4}
    assert pieces == DECOMPOSITION_PIECES_RANK3


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


def test_region_graph_rank2(atlas2):
    graph = region_graph(atlas2)
    assert len(graph) == 2
    assert sum(len(v) for v in graph.values()) // 2 == 1


def test_region_graph_rank3_minimal(atlas3):
    graph = region_graph(atlas3, minimal_only=True)
    assert len(graph) == 8
    assert is_connected(graph)


def test_region_graph_rank4(atlas4):
    graph = region_graph(atlas4)
    edges = {frozenset((a, b)) for a, nbs in graph.items() for b in nbs}
    assert len(graph) == 144 and len(edges) == 482
    minimal = region_graph(atlas4, minimal_only=True)
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


def _tie_points(atlas, seed, count):
    """The origin and the seeded points of [0, 50)^k whose walk ties at a
    guard and takes a branch no cell kept, so it misses bits_index."""
    rng = random.Random(seed)
    points = [(0,) * atlas.dim] + [
        tuple(rng.randrange(0, 50) for _ in range(atlas.dim))
        for _ in range(count)]
    return [x for x in points if regions._walk(
        x, atlas.src.letters, atlas.moves)[1] not in atlas.bits_index]


def test_lookup_falls_back_to_a_scan_at_ties(atlas3, atlas4):
    for atlas, seed, least in ((atlas3, 3, 10), (atlas4, 4, 30)):
        ties = _tie_points(atlas, seed, 2_000)
        assert ties[0] == (0,) * atlas.dim and len(ties) > least
        for x in ties:
            region = atlas.region_containing(x)
            assert region.cone.contains(x)
            assert region.apply(x) == atlas.evaluate(x)


def test_lookup_raises_where_the_atlas_does_not_cover(atlas3):
    x = next(x for x in _tie_points(atlas3, 3, 2_000) if any(x))
    uncovering = replace(atlas3, regions=tuple(
        r for r in atlas3.regions if not r.cone.contains(x)))
    with pytest.raises(InvariantError, match="atlas does not cover"):
        uncovering.region_containing(x)
    with pytest.raises(InvariantError, match="atlas does not cover"):
        replace(atlas3, regions=()).region_containing((0,) * atlas3.dim)


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
