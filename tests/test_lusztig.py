import random

from lp_oracles import extreme_rays
from wordcones.lusztig import lusztig_cone, spanning_rays
from wordcones.polyhedra import cone_equal, hcone, identity, interior_point
from wordcones.words import (COMMUTATION, ReducedWord, apply_move,
                             commutation_classes, iter_reduced_words,
                             legal_moves, parse_word, random_reduced_word)


def _with_orthant(lc):
    """The Lusztig cone's pair rows and the orthant's, as one H-cone."""
    k = lc.cone.dim
    return hcone(lc.cone.ineqs + identity(k), k)


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
    cone = _with_orthant(lusztig_cone(parse_word("132132")))
    assert cone.contains((0, 0, 1, 1, 0, 0))
    assert not cone.contains((1, 0, 0, 0, 0, 0))
    assert not cone.contains((0, 0, 1, -1, 0, 0))


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
        assert spanning_rays(word) == \
            extreme_rays(_with_orthant(lusztig_cone(word)))


def test_rank4_cone_is_simplicial_with_ten_rays():
    for cls in commutation_classes(4):
        word = ReducedWord(4, cls.canonical)
        assert len(spanning_rays(word).rays) == 10


def test_lp_feasible_all_strict_on_golden_cone():
    from lp_oracles import lp_feasible
    cone = _with_orthant(lusztig_cone(parse_word("132132")))
    assert lp_feasible(cone, strict=range(len(cone.ineqs)))


def test_full_dimensional_and_pointed():
    rng = random.Random(31)
    words = [random_reduced_word(rank, rng) for rank in (2, 3, 4, 5)
             for _ in range(2)]
    for w in words:
        cone = _with_orthant(lusztig_cone(w))
        assert interior_point(cone.ineqs, cone.dim) is not None
        extreme_rays(cone)  # raises NonPointedError if not pointed


def test_commutation_transport():
    """A commutation move permutes the Lusztig cone's coordinates: the
    moved word's cone is the old one with the two swapped coordinates
    swapped in every normal."""
    rng = random.Random(13)
    moved_some = 0
    for _ in range(6):
        w = random_reduced_word(4, rng)
        for mv in legal_moves(w):
            if mv.kind != COMMUTATION:
                continue
            t = mv.position - 1
            swapped = [a[:t] + (a[t + 1], a[t]) + a[t + 2:]
                       for a in lusztig_cone(w).cone.ineqs]
            assert cone_equal(hcone(swapped, len(w.letters)),
                              lusztig_cone(apply_move(w, mv)).cone)
            moved_some += 1
    assert moved_some > 6
