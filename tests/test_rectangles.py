import hashlib
import random
from fractions import Fraction

import pytest

from lp_oracles import matrix_rank
from wordcones import rectangles
from wordcones.polyhedra import InvariantError
from wordcones.quivers import PartialQuiver, enumerate_partial_quivers
from wordcones.rectangles import (AmbiguousCentreError, Component,
                                  PlacedRectangle, Rectangle,
                                  _configuration_from_placed,
                                  centre_and_central_line, components,
                                  configuration_for_quiver, corner_points,
                                  corner_root_sets, diagonal_counts,
                                  generator_vector, parity_boundary,
                                  phi_plus, place_configuration, quiver_vector,
                                  rectangle_for_component,
                                  render_configuration_svg, roots_of_box,
                                  spanning_vectors)
from wordcones.words import ReducedWord, commutation_classes, random_reduced_word

P10 = PartialQuiver(10, "-LLRRRLRR")


def test_components_golden_rank10():
    comps = components(P10)
    assert [(c.kind, c.a, c.b) for c in comps] == \
        [("L", 7, 10), ("R", 4, 8), ("L", 3, 5), ("R", 1, 4)]


def test_components_single_runs():
    assert [(c.kind, c.a, c.b) for c in components(PartialQuiver(4, "LLL"))] \
        == [("L", 1, 5)]
    assert [(c.kind, c.a, c.b) for c in components(PartialQuiver(4, "--L"))] \
        == [("L", 1, 3)]


def test_component_alternation_and_interlock_all_quivers():
    for rank in range(2, 11):
        for quiver in enumerate_partial_quivers(rank):
            comps = components(quiver)
            for left, right in zip(comps, comps[1:]):
                assert left.kind != right.kind
                assert left.a == right.b - 1


def test_rectangle_for_component_goldens():
    n = 10
    assert rectangle_for_component(Component("L", 7, 10), n) == Rectangle(0, 7, 2, 9)
    assert rectangle_for_component(Component("R", 4, 8), n) == Rectangle(3, 7, 7, 11)
    assert rectangle_for_component(Component("L", 3, 5), n) == Rectangle(0, 3, 7, 10)
    assert rectangle_for_component(Component("R", 1, 4), n) == Rectangle(2, 3, 10, 11)
    assert rectangle_for_component(Component("L", 1, 3), 4) == Rectangle(0, 1, 3, 4)
    assert rectangle_for_component(Component("L", 1, 3), 2) == Rectangle(0, 1, 1, 2)


def test_rectangle_invariants_hold_everywhere():
    for rank in range(2, 11):
        for quiver in enumerate_partial_quivers(rank):
            for comp in components(quiver):
                r = rectangle_for_component(comp, rank)
                assert r.top < r.left < r.bottom
                assert r.top < r.right < r.bottom
                assert r.top + r.bottom == r.left + r.right


def test_rectangle_rejects_invalid():
    with pytest.raises(ValueError):
        Rectangle(0, 2, 3, 4)  # 0 + 4 != 2 + 3


def test_placement_golden_rank10():
    config = configuration_for_quiver(P10)
    # five distinct corner points, shared at the fitting corners
    corners = corner_points(config)
    assert len(corners) == 5
    # the L-then-R pairs share left corners at level 7 and level 3
    first, second = config.placed[0], config.placed[1]
    assert (first.u_lo, first.w_lo) == (second.u_lo, second.w_lo)
    assert first.rect.left == second.rect.left == 7
    third, fourth = config.placed[2], config.placed[3]
    assert (second.u_hi, second.w_hi) == (third.u_hi, third.w_hi)
    assert (third.u_lo, third.w_lo) == (fourth.u_lo, fourth.w_lo)


def test_placement_rejects_mismatched_levels():
    bad = [Component("L", 7, 10), Component("R", 4, 9)]  # a != b - 1
    with pytest.raises(ValueError):
        place_configuration(bad, 10)


def test_diagonal_counts_golden():
    config = configuration_for_quiver(P10)
    u_counts, w_counts = diagonal_counts(config)
    assert u_counts == (2, 4, 3, 1)
    assert w_counts == (2, 4, 3, 1)
    # the worked example's counts up to traversal direction
    assert sorted(u_counts) == sorted((1, 3, 4, 2))
    assert sorted(w_counts) == sorted((2, 4, 3, 1))


def test_diagonal_counts_single_rectangle():
    config = configuration_for_quiver(PartialQuiver(4, "--L"))
    assert diagonal_counts(config) == ((1,), (1,))


def rectangle_diagonal_counts(config):
    """Placed rectangles per band, the count model diagonal_counts is
    checked against: a band's count is the number of rectangles spanning
    it, where diagonal_counts counts its cells."""
    u_counts = tuple(
        sum(1 for p in config.placed
            if p.u_lo <= lo and hi <= p.u_hi)
        for lo, hi in zip(config.u_cuts, config.u_cuts[1:]))
    w_counts = tuple(
        sum(1 for p in config.placed
            if p.w_lo <= lo and hi <= p.w_hi)
        for lo, hi in zip(config.w_cuts, config.w_cuts[1:]))
    return u_counts, w_counts


def test_cell_and_rectangle_count_models_agree():
    for rank in range(2, 9):
        for quiver in enumerate_partial_quivers(rank):
            config = configuration_for_quiver(quiver)
            assert diagonal_counts(config) == rectangle_diagonal_counts(config)


def test_parity_blocks_everywhere():
    for rank in range(2, 11):
        for quiver in enumerate_partial_quivers(rank):
            u_counts, w_counts = diagonal_counts(configuration_for_quiver(quiver))
            for counts in (u_counts, w_counts):
                boundary = parity_boundary(counts)
                if len(counts) == 1:
                    assert boundary is None
                else:
                    left = {c % 2 for c in counts[:boundary]}
                    right = {c % 2 for c in counts[boundary:]}
                    assert len(left) == 1 and len(right) == 1 and left != right


def test_parity_boundary_rejects_mixed():
    with pytest.raises(AmbiguousCentreError):
        parity_boundary((1, 2, 1))


def test_centre_golden_rank10():
    config = configuration_for_quiver(P10)
    (u0, w0), line_x = centre_and_central_line(config)
    assert (u0, w0) == (Fraction(-3), Fraction(11))
    # central line sits 4 columns right of the west-most corner, at level 7
    west = min(corner_points(config), key=lambda c: c.u)
    assert line_x - Fraction(west.u + west.w, 2) == 4
    assert (w0 - u0) / 2 == 7


def test_centre_single_rectangle_midpoint():
    config = configuration_for_quiver(PartialQuiver(4, "--L"))
    (u0, w0), line_x = centre_and_central_line(config)
    placed = config.placed[0]
    assert u0 == Fraction(placed.u_lo + placed.u_hi, 2)
    assert w0 == Fraction(placed.w_lo + placed.w_hi, 2)
    left_x = Fraction(placed.u_lo + placed.w_lo, 2)
    assert line_x == left_x + 2


def test_mirrored_configuration_has_mirrored_centre():
    """Reflecting a configuration through a vertical axis (x -> -x) swaps
    the left and right corner levels of each rectangle, and u and w trade
    places with a sign flip; its centre and central line reflect too."""
    for rank in (3, 4, 6, 8):
        for quiver in enumerate_partial_quivers(rank):
            config = configuration_for_quiver(quiver)
            mirrored = _configuration_from_placed(config.rank, [
                PlacedRectangle(Rectangle(p.rect.top, p.rect.right,
                                          p.rect.left, p.rect.bottom),
                                u_lo=-p.w_hi, w_lo=-p.u_hi)
                for p in config.placed])
            (u0, w0), line_x = centre_and_central_line(config)
            (u0m, w0m), line_m = centre_and_central_line(mirrored)
            assert (u0m, w0m) == (-w0, -u0)
            assert line_m == -line_x


def test_corner_maximal_rectangles_golden():
    config = configuration_for_quiver(P10)
    by_point = {(c.u, c.w): c for c in corner_points(config)}
    # corner B: shared left corner of the first two rectangles
    b = by_point[(-7, 7)]
    assert b.side == "left"
    ub, uhi, wb, whi = b.box
    assert ((wb - ub) // 2, (wb - uhi) // 2, (whi - uhi) // 2,
            (whi - ub) // 2) == (7, 0, 4, 11)  # a (0,7,4,11)-rectangle
    # corner A: the (0,7,2,9) rectangle extends no further
    a = by_point[(7, 11)]
    assert a.side == "right"
    placed = config.placed[0]
    assert a.box == (placed.u_lo, placed.u_hi, placed.w_lo, placed.w_hi)


def test_roots_of_box_goldens():
    # a (0,2,3,5)-rectangle anchored with left corner at x = 0
    box = (-2, 2, 2, 8)
    roots = [r for _, r in roots_of_box(box)]
    assert roots == [(1, 3), (2, 4)]
    # a (0,1,3,4)-rectangle: columns {1} and {2,3}
    box = (-1, 1, 1, 7)
    assert [r for _, r in roots_of_box(box)] == [(1, 1), (2, 3)]
    # the (0,7,2,9) rectangle: five root columns
    box = (-7, 7, 7, 11)
    assert [r for _, r in roots_of_box(box)] == \
        [(7, 7), (5, 8), (3, 6), (1, 4), (2, 2)]


def test_phi_plus_golden_rank10():
    assert phi_plus(P10) == frozenset({
        (2, 2), (1, 4), (3, 6),
        (7, 7), (5, 9),
        (6, 8), (4, 10),
        (3, 3), (1, 5), (2, 7),
        (10, 10), (8, 9),
    })


def test_phi_plus_per_corner_golden():
    by_roots = {}
    for corner, roots in corner_root_sets(P10):
        by_roots[(corner.u, corner.w)] = set(roots)
    assert by_roots[(7, 11)] == {(2, 2), (1, 4), (3, 6)}      # corner A
    assert by_roots[(-7, 7)] == {(7, 7), (5, 9)}              # corner B
    assert by_roots[(1, 15)] == {(6, 8), (4, 10)}             # corner C
    assert by_roots[(-5, 1)] == {(3, 3), (1, 5), (2, 7)}      # corner D
    assert by_roots[(-3, 17)] == {(10, 10), (8, 9)}           # corner E


def test_phi_plus_small():
    assert phi_plus(PartialQuiver(4, "--L")) == frozenset({(1, 1), (2, 3)})


def test_phi_plus_disjoint_union_ranks_up_to_8():
    for rank in range(2, 9):
        for quiver in enumerate_partial_quivers(rank):
            phi_plus(quiver)  # raises on any overlap or range escape


def _fraction_corner_root_sets(quiver):
    """corner_root_sets with the central line and each column's doubled x
    compared as Fractions."""
    config = configuration_for_quiver(quiver)
    _, line_x = centre_and_central_line(config)
    line_2x = 2 * line_x
    lone_rectangle = len(config.placed) == 1
    out = []
    for corner in corner_points(config):
        cx2 = Fraction(corner.doubled_x)
        if cx2 == line_2x:
            out.append((corner, ()))
            continue
        out.append((corner, tuple(
            root for x2, root in roots_of_box(corner.box)
            if (x2 != line_2x and (x2 < line_2x) == (cx2 < line_2x))
            or (x2 == line_2x and lone_rectangle and corner.side == "left"))))
    return out


def test_corner_root_sets_match_the_fraction_oracle():
    for rank in range(2, 9):
        for quiver in enumerate_partial_quivers(rank):
            assert corner_root_sets(quiver) == _fraction_corner_root_sets(quiver)


def test_corner_root_sets_reject_a_central_line_off_the_quarter_grid(monkeypatch):
    monkeypatch.setattr(rectangles, "centre_and_central_line",
                        lambda config: ((Fraction(0), Fraction(1, 4)), Fraction(1, 8)))
    with pytest.raises(InvariantError, match="not in Z/4"):
        corner_root_sets(P10)


# sha256 over repr((text, sorted phi_plus, quiver_vector)) of every quiver of
# the rank, in enumerate_partial_quivers order
QUIVER_ROOTS_SHA256 = {
    2: "400c6d0e0f6bc63eaebe6471f16142484ee16f859b2e6f0c276ebad7f98280ea",
    3: "eb504a6bad4995ace42afaf6bde1155fe82e2adff58a6a58e6fedb61d4b69ac9",
    4: "3ec9ae8a06c519838f7720d0b10a02de727803b7dfbdabd6152e78962d52efb2",
    5: "96e6825e8000a150bbaa5638a0af9d46b4ed03ae598daa533996e23a84e3f1f6",
    6: "55c969ea40b221f2c009a199efdd6eba32790757e23087b0dd7158b9eec40ab8",
    7: "6e0f878935047fa3170b2a8b4259d8ec096ad73b493df260db054a6f3ece72a5",
}


def test_phi_plus_and_quiver_vectors_golden():
    for rank, digest in QUIVER_ROOTS_SHA256.items():
        h = hashlib.sha256()
        for q in enumerate_partial_quivers(rank):
            h.update(repr((q.text, sorted(phi_plus(q)), quiver_vector(q))).encode())
        assert h.hexdigest() == digest, rank


def test_quiver_vector():
    # positions of alpha_1 and alpha_2+alpha_3 in the order of 1324132413
    from wordcones.words import positive_root_order, standard_words
    j, _ = standard_words(4)
    order = positive_root_order(j)
    v = quiver_vector(PartialQuiver(4, "--L"))
    assert sum(v) == 2
    assert {order[i] for i, x in enumerate(v) if x} == {(1, 1), (2, 3)}
    v10 = quiver_vector(P10)
    assert sum(v10) == 12


def test_generator_vector():
    assert generator_vector(1, 4) == (1, 0, 0, 0, 1, 0, 0, 0, 1, 0)
    assert generator_vector(2, 2) == (0, 1, 0)
    for rank in (2, 3, 4):
        total = [sum(col) for col in zip(*(generator_vector(g, rank)
                                           for g in range(1, rank + 1)))]
        assert set(total) == {1}
    with pytest.raises(ValueError):
        generator_vector(5, 4)


def test_spanning_vectors_independent_for_all_rank4_classes():
    for cls in commutation_classes(4):
        vecs = spanning_vectors(ReducedWord(4, cls.canonical))
        assert len(vecs) == 10
        assert matrix_rank(vecs) == 10


@pytest.fixture
def empty_quiver_memo():
    """quiver_vector's per-process memo, empty before and after the test."""
    rectangles.quiver_vector.cache_clear()
    yield rectangles.quiver_vector
    rectangles.quiver_vector.cache_clear()


def test_spanning_vectors_computes_each_quiver_once(monkeypatch,
                                                    empty_quiver_memo):
    words = [ReducedWord(4, cls.canonical) for cls in commutation_classes(4)]
    expected = [spanning_vectors(w) for w in words]
    empty_quiver_memo.cache_clear()
    calls = []
    real = rectangles.phi_plus
    monkeypatch.setattr(rectangles, "phi_plus",
                        lambda q: calls.append(q) or real(q))
    assert [spanning_vectors(w) for w in words] == expected
    assert len(calls) == len(set(calls)) == 22
    # the memo outlives the calls: a second pass places no rectangles
    assert [spanning_vectors(w) for w in words] == expected
    assert len(calls) == 22


def test_quiver_memo_caches_no_failure_and_stays_bounded(monkeypatch,
                                                         empty_quiver_memo):
    quiver = PartialQuiver(4, "--L")

    def broken(q):
        raise InvariantError("corner root sets overlap")
    monkeypatch.setattr(rectangles, "phi_plus", broken)
    with pytest.raises(InvariantError):
        quiver_vector(quiver)
    monkeypatch.undo()
    assert quiver_vector(quiver) == (1, 0, 0, 0, 1, 0, 0, 0, 0, 0)

    empty_quiver_memo.cache_clear()
    rng = random.Random(5)
    for _ in range(200):
        spanning_vectors(random_reduced_word(5, rng))
    # the memo holds no more than the rank's partial quivers
    assert 0 < empty_quiver_memo.cache_info().currsize \
        <= len(enumerate_partial_quivers(5)) == 52


def test_render_configuration_svg():
    svg1 = render_configuration_svg(P10)
    svg2 = render_configuration_svg(P10)
    assert svg1 == svg2
    assert svg1.count("<polygon") == 4
    assert "stroke-dasharray" in svg1
    assert svg1.count("<circle") == 5
