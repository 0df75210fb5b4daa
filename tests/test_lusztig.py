import random

import pytest

from wordcones.lusztig import (lusztig_cone, permute_cone, spanning_rays,
                               transport_under_commutation)
from wordcones.polyhedra import cone_equal, extreme_rays, interior_point
from wordcones.words import (BRAID, COMMUTATION, Move, ReducedWord,
                             commutation_classes, iter_reduced_words,
                             legal_moves, parse_word, random_reduced_word)


def test_golden_a3_inequalities():
    lc = lusztig_cone(parse_word("132132"))
    assert set(lc.cone.ineqs) == {
        (-1, 0, 1, -1, 0, 0),   # c >= a + d
        (0, -1, 1, 0, -1, 0),   # c >= b + e
        (0, 0, -1, 1, 1, -1),   # d + e >= c + f
    }


def test_rank_one_has_no_inequalities():
    assert lusztig_cone(ReducedWord(1, (1,))).cone.ineqs == ()


def test_membership():
    lc = lusztig_cone(parse_word("132132"))
    assert lc.contains((0, 0, 1, 1, 0, 0))
    assert not lc.contains((1, 0, 0, 0, 0, 0))
    assert not lc.contains((0, 0, 1, -1, 0, 0))


def test_inequality_count_is_length_minus_rank():
    rng = random.Random(2)
    for rank in (2, 3, 4, 5):
        for _ in range(5):
            w = random_reduced_word(rank, rng)
            lc = lusztig_cone(w)
            assert len(lc.cone.ineqs) == len(w.letters) - rank


def test_spanning_rays_rank2():
    rays = spanning_rays(parse_word("121"))
    assert set(rays.rays) == {(0, 1, 0), (1, 1, 0), (0, 1, 1)}


def test_spanning_rays_rank1():
    assert spanning_rays(ReducedWord(1, (1,))).rays == ((1,),)


def test_spanning_rays_match_double_description_of_the_orthant_intersection():
    # the cut from the orthant's written-down state, shortest chambers first,
    # against double description of the pair rows and the orthant rows from
    # the whole space
    words = [ReducedWord(rank, letters) for rank in range(1, 5)
             for letters in iter_reduced_words(rank)]
    rng = random.Random(18)
    words += [random_reduced_word(5, rng) for _ in range(200)]
    for word in words:
        assert spanning_rays(word) == extreme_rays(lusztig_cone(word).with_nonneg())


def test_rank4_cone_is_simplicial_with_ten_rays():
    for cls in commutation_classes(4):
        word = ReducedWord(4, cls.canonical)
        assert len(spanning_rays(word).rays) == 10


def test_lp_feasible_all_strict_on_golden_cone():
    from lp_oracles import lp_feasible
    cone = lusztig_cone(parse_word("132132")).with_nonneg()
    assert lp_feasible(cone, strict=range(len(cone.ineqs)))


def test_full_dimensional_and_pointed():
    rng = random.Random(31)
    words = [random_reduced_word(rank, rng) for rank in (2, 3, 4, 5)
             for _ in range(2)]
    for w in words:
        cone = lusztig_cone(w).with_nonneg()
        assert interior_point(cone.ineqs, cone.dim) is not None
        extreme_rays(cone)  # raises NonPointedError if not pointed


def test_commutation_transport():
    rng = random.Random(13)
    for _ in range(6):
        w = random_reduced_word(4, rng)
        comms = [m for m in legal_moves(w) if m.kind == COMMUTATION]
        if not comms:
            continue
        mv = comms[0]
        perm = transport_under_commutation(w, mv)
        t = mv.position - 1
        expected = list(range(len(w.letters)))
        expected[t], expected[t + 1] = expected[t + 1], expected[t]
        assert perm == tuple(expected)
        from wordcones.words import apply_move
        moved = apply_move(w, mv)
        assert cone_equal(permute_cone(lusztig_cone(w).cone, perm),
                          lusztig_cone(moved).cone)


def test_transport_identity_and_braid_rejection():
    w = parse_word("132132")
    with pytest.raises(ValueError):
        transport_under_commutation(w, Move(BRAID, 3))
    perm = transport_under_commutation(w, Move(COMMUTATION, 1))
    assert sorted(perm) == list(range(6))
