import hashlib
import random
from functools import reduce
from math import factorial, prod

import pytest

import class_oracles
from class_oracles import (commutation_orbit, is_connected, orbit_class_graph,
                           orbit_commutation_classes)
from wordcones import words
from wordcones.chambers import chamber_sets
from wordcones.lusztig import lusztig_cone
from wordcones.words import (BRAID, COMMUTATION, Move, ReducedWord,
                             _braid_neighbours, apply_move, apply_move_path,
                             bounded_chambers, braids,
                             class_canonical, class_graph, commutation_classes,
                             commutes, enumerate_reduced_words,
                             find_move_path, is_reduced,
                             iter_reduced_words, legal_moves,
                             longest_word_length, parse_word,
                             positive_root_order, random_reduced_word,
                             standard_words)


def staircase_word_count(n):
    """Hook-length count of standard staircase tableaux: the number of
    reduced words for the longest element (independent oracle)."""
    k = n * (n + 1) // 2
    shape = list(range(n, 0, -1))
    hooks = 1
    for r, row_len in enumerate(shape):
        for c in range(row_len):
            arm = row_len - c - 1
            leg = sum(1 for r2 in range(r + 1, len(shape)) if shape[r2] > c)
            hooks *= arm + leg + 1
    return factorial(k) // hooks


def test_is_reduced_examples():
    assert is_reduced((1, 2, 1), 2) == (True, True)
    assert is_reduced((1, 1), 2) == (False, False)
    assert is_reduced((2, 3, 4, 3, 1, 2, 1, 3, 2, 4), 4) == (True, True)
    assert is_reduced((1,), 2) == (True, False)


def _reduced_by_inversions(letters, rank):
    """Oracle: a word is reduced iff its length is its permutation's
    inversion count, and longest iff that permutation reverses 1..rank+1."""
    perm = reduce(lambda p, g: p[:g - 1] + (p[g], p[g - 1]) + p[g + 1:],
                  letters, tuple(range(1, rank + 2)))
    return (sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:]) == len(letters),
            perm == tuple(range(rank + 1, 0, -1)))


def test_is_reduced_matches_inversion_count_oracle():
    assert is_reduced((1, 2, 1, 3), 3) == (True, False)
    rng = random.Random(29)
    seen = set()
    for rank in range(1, 7):
        for _ in range(60):
            # a reduced prefix plus a few random letters: reduced, longest
            # and non-reduced words all occur
            w = random_reduced_word(rank, rng).letters
            w = w[:rng.randrange(len(w) + 1)] + tuple(
                rng.randint(1, rank) for _ in range(rng.randrange(3)))
            check = is_reduced(w, rank)
            assert check == _reduced_by_inversions(w, rank), (rank, w)
            seen.add(tuple(check))
    assert {(True, True), (True, False), (False, False)} <= seen


def test_bounded_chambers_index_chamber_sets_cones_and_braids():
    for rank in (1, 2, 3, 4):
        for word in enumerate_reduced_words(rank):
            w = word.letters
            chambers = list(bounded_chambers(w))
            assert [(x, z) for x, z, _ in chambers] == \
                [(cs.start - 1, cs.end - 1) for cs in chamber_sets(word)]
            for (x, z, sides), row in zip(chambers, lusztig_cone(word).cone.ineqs,
                                          strict=True):
                assert [p for p, c in enumerate(row) if c == -1] == [x, z]
                assert tuple(p for p, c in enumerate(row) if c == 1) == sides
                assert set(row) <= {-1, 0, 1}
            one_sided = [(x, z, sides[0]) for x, z, sides in chambers
                         if len(sides) == 1]
            braided = list(_braid_neighbours(w))
            assert len(braided) == len(one_sided)
            for (x, z, y), other in zip(one_sided, braided):
                # s t s now sits at y-1, y, y+1 and becomes t s t
                assert other[y - 1:y + 2] == (w[y], w[x], w[y])
                assert is_reduced(other, rank) == (True, True)


def test_is_reduced_rejects_out_of_range_letters():
    with pytest.raises(ValueError):
        is_reduced((1, 3), 2)


def test_reduced_word_validates():
    with pytest.raises(ValueError):
        ReducedWord(2, (1, 2))
    with pytest.raises(ValueError):
        ReducedWord(2, (1, 2, 1, 2))


def test_reduced_word_rejects_ranks_below_one(monkeypatch):
    # the rank is checked before the word is read
    monkeypatch.setattr(words, "is_reduced", lambda *a: pytest.fail("read"))
    for rank in (0, -2):
        with pytest.raises(ValueError, match="rank must be >= 1"):
            ReducedWord(rank, ())
    with pytest.raises(ValueError, match="rank must be >= 1"):
        random_reduced_word(0, random.Random(0))


def test_enumeration_counts():
    assert len(enumerate_reduced_words(2)) == 2
    assert len(enumerate_reduced_words(3)) == 16
    words4 = enumerate_reduced_words(4)
    assert len(words4) == 768
    assert len(words4) == staircase_word_count(4)
    assert len(set(words4)) == 768


def test_enumeration_rank_guard():
    with pytest.raises(ValueError):
        enumerate_reduced_words(6)


def test_enumerated_words_are_reduced_for_longest():
    for rank in (1, 2, 3, 4):
        for word in enumerate_reduced_words(rank):
            assert is_reduced(word.letters, rank) == (True, True)


def test_commutation_class_counts():
    assert len(commutation_classes(2)) == 2
    assert len(commutation_classes(3)) == 8
    assert len(commutation_classes(4)) == 62
    # the sizes sum to Stanley's count k! / prod (2i - 1)^(n + 1 - i) of
    # reduced words for w0, computed from the formula
    for rank, n_classes, n_words in [(1, 1, 1), (2, 2, 2), (3, 8, 16),
                                     (4, 62, 768), (5, 908, 292864)]:
        k = longest_word_length(rank)
        hooks = prod((2 * i - 1) ** (rank + 1 - i) for i in range(1, rank + 1))
        assert factorial(k) // hooks == n_words
        classes = commutation_classes(rank)
        assert len(classes) == n_classes
        assert sum(c.size for c in classes) == n_words


def test_classes_partition_words():
    for rank in (2, 3, 4):
        classes = commutation_classes(rank)
        words = set(w.letters for w in enumerate_reduced_words(rank))
        assert sum(c.size for c in classes) == len(words)
        seen = set()
        for cls in classes:
            orbit = commutation_orbit(cls.canonical)
            assert cls.canonical == min(orbit)
            assert len(orbit) == cls.size
            assert not (orbit & seen)
            seen |= orbit
        assert seen == words


def test_apply_move_examples():
    w = ReducedWord(3, (1, 3, 2, 1, 3, 2))
    moved = apply_move(w, Move(COMMUTATION, 1))
    assert moved.letters == (3, 1, 2, 1, 3, 2)
    assert apply_move(ReducedWord(2, (1, 2, 1)), Move(BRAID, 1)).letters == (2, 1, 2)


def test_apply_move_is_involution():
    rng = random.Random(11)
    for rank in (2, 3, 4, 5):
        for _ in range(10):
            w = random_reduced_word(rank, rng)
            for mv in legal_moves(w):
                again = apply_move(apply_move(w, mv), mv)
                assert again.letters == w.letters


def test_apply_move_rejects_illegal():
    w = ReducedWord(3, (1, 2, 1, 3, 2, 1))
    with pytest.raises(ValueError):
        apply_move(w, Move(COMMUTATION, 1))  # |1-2| < 2
    with pytest.raises(ValueError):
        apply_move(w, Move(BRAID, 2))  # letters 2,1,3
    with pytest.raises(ValueError):
        apply_move(w, Move(BRAID, 5))  # out of range


def test_move_predicates_match_rewrite_oracle():
    # a site admits a move exactly when the rewritten word is another
    # reduced word for w0 (swap for commutations, aba -> bab for braids)
    for rank in (2, 3, 4):
        for word in enumerate_reduced_words(rank):
            w = word.letters
            for t in range(len(w) + 1):
                swapped = w[:t] + w[t + 1:t + 2] + w[t:t + 1] + w[t + 2:]
                assert commutes(w, t) == (
                    t + 1 < len(w) and swapped != w
                    and is_reduced(swapped, rank) == (True, True))
                braided = w[:t] + w[t + 1:t + 2] + w[t:t + 2] + w[t + 3:]
                assert braids(w, t) == (
                    t + 2 < len(w) and w[t] == w[t + 2]
                    and is_reduced(braided, rank) == (True, True))
            assert legal_moves(word) == (
                [Move(COMMUTATION, t + 1) for t in range(len(w)) if commutes(w, t)]
                + [Move(BRAID, t + 1) for t in range(len(w)) if braids(w, t)])


def test_find_move_path_trivial_and_braid():
    w = ReducedWord(2, (1, 2, 1))
    assert find_move_path(w, w) == []
    path = find_move_path(w, ReducedWord(2, (2, 1, 2)))
    assert [m.kind for m in path] == [BRAID]


def test_find_move_path_replay_random():
    rng = random.Random(23)
    for rank in (2, 3, 4, 5):
        for _ in range(5):
            src = random_reduced_word(rank, rng)
            dst = random_reduced_word(rank, rng)
            path = find_move_path(src, dst)
            assert apply_move_path(src, path).letters == dst.letters


def test_find_move_path_between_standard_words():
    j, jp = standard_words(4)
    path = find_move_path(j, jp)
    assert apply_move_path(j, path).letters == jp.letters


def _path_lines(pairs):
    return "\n".join(f"{a} {b} " + " ".join(f"{m.kind[0]}{m.position}"
                                             for m in find_move_path(a, b))
                     for a, b in pairs)


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of _path_lines over every ordered pair of reduced words at ranks 1-3
# and over 40 pairs of random_reduced_word(rank, Random(rank)) at ranks 4-7,
# recorded when find_move_path still shifted every move once per recursion
# level and checked each letter for a left descent
PEEL_PATH_SHA256 = {
    1: "9d6cdb56a14dd758bb6c1f0974cf6d5ea05d8087cebefcd7cda628cd2308b92f",
    2: "5dad07a5b670b92dbbcf23051bd4f42afcf6e857efcb9368e455d641564515b4",
    3: "e25c744eac3eecb189b7372af40c7dd3c6c50382e71fb1008d1adefca443b6b6",
    4: "2f61a192cea89846318360ede4c42082a0c3130a1599baba17d4db5ee4af44c0",
    5: "03b1176f88fb93ff349dd3e19faccaf84e5b9d0e15f7d92950f4c0d11f1679a6",
    6: "5fb1cf2d553479703e4dc191cabdf8b73aba92be53fae72c99ff64d9515bd578",
    7: "1f371a1b1c9404a2752f6b5fd30ada5ecaa6db67f956d2d9693eca94f3b838f4",
}


@pytest.mark.parametrize("rank", sorted(PEEL_PATH_SHA256))
def test_find_move_path_keeps_its_pinned_moves(rank):
    if rank <= 3:
        ws = enumerate_reduced_words(rank)
        pairs = [(a, b) for a in ws for b in ws]
    else:
        rng = random.Random(rank)
        pairs = [(random_reduced_word(rank, rng), random_reduced_word(rank, rng))
                 for _ in range(40)]
    assert _digest(_path_lines(pairs)) == PEEL_PATH_SHA256[rank]


def test_find_move_path_keeps_its_pinned_standard_moves():
    """Both directions between the standard words at ranks 1-6, pinned as
    above."""
    pairs = [p for r in range(1, 7)
             for p in (standard_words(r), standard_words(r)[::-1])]
    assert _digest(_path_lines(pairs)) == (
        "547dfc471fe66746aa0026a75de8713e6bf26b8a220c1c2ebff3530d804f311a")


def _root_order_oracle(word):
    """Independent root-order computation on coordinate vectors in Z^{n+1}."""
    n = word.rank
    out = []
    for t, g in enumerate(word.letters):
        vec = [0] * (n + 1)
        vec[g - 1], vec[g] = 1, -1
        for h in reversed(word.letters[:t]):
            vec[h - 1], vec[h] = vec[h], vec[h - 1]
        # vec = e_p - e_{q+1} for the interval [p, q]
        p = vec.index(1) + 1
        q = vec.index(-1)
        assert p <= q
        out.append((p, q))
    return tuple(out)


def test_positive_root_order_examples():
    assert positive_root_order(ReducedWord(1, (1,))) == ((1, 1),)
    assert positive_root_order(ReducedWord(2, (1, 2, 1))) == \
        ((1, 1), (1, 2), (2, 2))


def test_positive_root_order_matches_oracle_and_is_bijective():
    rng = random.Random(5)
    for rank in (2, 3, 4):
        for _ in range(8):
            w = random_reduced_word(rank, rng)
            order = positive_root_order(w)
            assert order == _root_order_oracle(w)
            assert sorted(order) == [(p, q) for p in range(1, rank + 1)
                                     for q in range(p, rank + 1)]


def _orthogonal(r1, r2):
    # intervals [p, q] stand for e_p - e_{q+1}; the inner product vanishes
    # exactly when the endpoint sets are disjoint
    (p1, q1), (p2, q2) = r1, r2
    return not ({p1, q1 + 1} & {p2, q2 + 1})


def test_commutation_moves_swap_orthogonal_roots():
    rng = random.Random(17)
    for rank in (3, 4):
        for _ in range(10):
            w = random_reduced_word(rank, rng)
            order = positive_root_order(w)
            for mv in legal_moves(w):
                if mv.kind != COMMUTATION:
                    continue
                other = positive_root_order(apply_move(w, mv))
                t = mv.position - 1
                assert other[t] == order[t + 1] and other[t + 1] == order[t]
                assert _orthogonal(order[t], order[t + 1])
                assert other[:t] == order[:t] and other[t + 2:] == order[t + 2:]


def test_standard_words():
    j2, jp2 = standard_words(2)
    assert (j2.letters, jp2.letters) == ((1, 2, 1), (2, 1, 2))
    j4, jp4 = standard_words(4)
    assert j4.letters == (1, 3, 2, 4, 1, 3, 2, 4, 1, 3)
    assert jp4.letters == (2, 4, 1, 3, 2, 4, 1, 3, 2, 4)
    for rank in range(1, 9):
        j, jp = standard_words(rank)
        assert len(j.letters) == longest_word_length(rank)
        assert is_reduced(j.letters, rank) == (True, True)
        assert is_reduced(jp.letters, rank) == (True, True)


def test_standard_words_are_built_once_per_rank():
    for rank in range(1, 7):
        assert standard_words(rank) is standard_words(rank)
    for rank in (0, -1, 0, -1):  # a failed call leaves nothing cached
        with pytest.raises(ValueError, match="rank must be >= 1"):
            standard_words(rank)


def test_standard_words_reject_every_rank_below_one():
    # below -1 the longest word length is positive again; no letter fills it
    for rank in (-2, -3, -6):
        with pytest.raises(ValueError, match="rank must be >= 1"):
            standard_words(rank)


def test_class_canonical_consistency():
    rng = random.Random(3)
    for rank in (3, 4):
        canon = {c.canonical for c in commutation_classes(rank)}
        for _ in range(10):
            w = random_reduced_word(rank, rng)
            assert class_canonical(w) in canon


def test_class_canonical_is_orbit_minimum():
    minimum = {}  # every member of an orbit walked so far -> the orbit's minimum

    def orbit_minimum(w):
        if w not in minimum:
            orbit = commutation_orbit(w)
            minimum.update(dict.fromkeys(orbit, min(orbit)))
        return minimum[w]

    for rank in (1, 2, 3, 4):
        for w in iter_reduced_words(rank):
            assert class_canonical(ReducedWord(rank, w)) == orbit_minimum(w)
    rng = random.Random(11)
    for _ in range(300):
        w = random_reduced_word(5, rng)
        assert class_canonical(w) == orbit_minimum(w.letters)


def test_class_canonical_walks_no_orbit(monkeypatch):
    w = random_reduced_word(5, random.Random(7))
    want = min(commutation_orbit(w.letters))

    def no_orbit(letters):
        raise AssertionError("class_canonical walked the commutation orbit")

    monkeypatch.setattr(class_oracles, "commutation_orbit", no_orbit)
    assert class_canonical(w) == want


def test_class_functions_enumerate_no_word(monkeypatch):
    def no_words(rank):
        raise AssertionError("a class function enumerated the reduced words")

    monkeypatch.setattr(words, "iter_reduced_words", no_words)
    classes = commutation_classes(5)
    graph = class_graph(5)
    assert len(classes) == 908
    assert set(graph) == {c.canonical for c in classes}
    assert all(a in graph[b] for a in graph for b in graph[a])
    assert sum(len(nb) for nb in graph.values()) == 2 * 2144
    assert sum(c.size for c in classes) == 292864


def test_class_search_validates_no_class_word(monkeypatch):
    # braid neighbours of reduced words are reduced: only the start is checked
    standard_words(5)
    monkeypatch.setattr(words, "is_reduced", lambda *a: pytest.fail("validated"))
    classes, graph = commutation_classes(5), class_graph(5)
    assert len(classes) == len(graph) == 908
    assert sum(len(nb) for nb in graph.values()) == 2 * 2144


def test_class_search_matches_every_word_oracle():
    for rank in (1, 2, 3, 4):
        assert commutation_classes(rank) == orbit_commutation_classes(rank)
        assert class_graph(rank) == orbit_class_graph(rank)


def test_class_graph():
    g2 = class_graph(2)
    assert len(g2) == 2
    assert sum(len(v) for v in g2.values()) // 2 == 1
    g3 = class_graph(3)
    assert len(g3) == 8 and is_connected(g3)
    g4 = class_graph(4)
    assert len(g4) == 62 and is_connected(g4)
    for rank, n_classes, n_edges in [(1, 1, 0), (2, 2, 1), (3, 8, 8),
                                     (4, 62, 100), (5, 908, 2144)]:
        graph = class_graph(rank)
        assert len(graph) == n_classes
        assert sum(len(nb) for nb in graph.values()) == 2 * n_edges


def test_word_serialisation():
    assert str(parse_word("1324132413")) == "1324132413"
    w = parse_word("2343121324")
    assert w.rank == 4 and len(w.letters) == 10
    with pytest.raises(ValueError):
        parse_word("abc")
    with pytest.raises(ValueError):
        parse_word("")
