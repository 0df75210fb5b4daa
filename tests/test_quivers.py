import itertools

import pytest

from class_oracles import commutation_orbit
from wordcones import quivers
from wordcones.quivers import (PartialQuiver, chamber_set_from_quiver,
                               chamber_quiver_pairs, enumerate_partial_quivers,
                               quiver_from_chamber_set, quivers_for_word)
from wordcones.words import ReducedWord, parse_word

# the 22 type-A4 partial quivers as listed (text order: edge 4, 3, 2)
A4_QUIVERS = [
    "LLL", "RLL", "LRL", "LLR", "LRR", "RLR", "RRL", "RRR",
    "LL-", "-LL", "LR-", "-LR", "RL-", "-RL", "RR-", "-RR",
    "L--", "-L-", "--L", "R--", "-R-", "--R",
]


def test_golden_rank13_example():
    q = quiver_from_chamber_set({1, 2, 3, 4, 7, 8, 11}, 13)
    assert str(q) == "--LRRLLRR---"
    assert chamber_set_from_quiver(q) == frozenset({1, 2, 3, 4, 7, 8, 11})


def test_single_l_quiver_inverts_to_singleton():
    for rank in (3, 4, 6):
        for edge in range(2, rank + 1):
            q = quiver_from_chamber_set({edge}, rank)
            assert q.labelled_edges() == [edge] and q.label(edge) == "L"
            assert chamber_set_from_quiver(q) == frozenset({edge})


def test_golden_rank4_table():
    cases = {
        frozenset({2, 5}): "RRL",
        frozenset({2, 4, 5}): "-RL",
        frozenset({2}): "--L",
        frozenset({2, 4}): "LRL",
        frozenset({1, 2, 4, 5}): "-R-",
        frozenset({1, 2, 4}): "LR-",
        frozenset({2, 4, 5}): "-RL",
    }
    for members, text in cases.items():
        assert str(quiver_from_chamber_set(members, 4)) == text


def test_rank2_single_edge():
    assert str(quiver_from_chamber_set({1, 3}, 2)) == "R"
    assert str(quiver_from_chamber_set({2}, 2)) == "L"


def test_initial_terminal_rejected():
    for bad in ({1}, {1, 2}, {5}, {4, 5}, {1, 2, 3, 4, 5}, set()):
        with pytest.raises(ValueError):
            quiver_from_chamber_set(bad, 4)


def test_round_trip_exhaustive_ranks_up_to_6():
    for rank in range(2, 7):
        universe = range(1, rank + 2)
        valid = 0
        for r in range(1, rank + 2):
            for subset in itertools.combinations(universe, r):
                s = set(subset)
                members = sorted(s)
                initial = members == list(range(1, len(members) + 1))
                terminal = members == list(range(rank + 2 - len(members),
                                                 rank + 2))
                if initial or terminal:
                    continue
                valid += 1
                quiver = quiver_from_chamber_set(s, rank)
                assert chamber_set_from_quiver(quiver) == frozenset(s)
        assert valid == 2 ** (rank + 1) - 2 * rank - 2
        # and the other direction, over every quiver
        for quiver in enumerate_partial_quivers(rank):
            s = chamber_set_from_quiver(quiver)
            assert quiver_from_chamber_set(s, rank) == quiver


@pytest.fixture
def empty_chamber_set_memo():
    """quiver_from_chamber_set's per-process memo, empty before and after
    the test."""
    quivers._quiver_of.cache_clear()
    yield quivers._quiver_of
    quivers._quiver_of.cache_clear()


def test_chamber_set_memo_equals_construction_and_stays_bounded(
        empty_chamber_set_memo):
    build = empty_chamber_set_memo.__wrapped__  # the unmemoised construction
    for rank in range(2, 7):
        empty_chamber_set_memo.cache_clear()
        subsets = [frozenset(s) for r in range(rank + 2)
                   for s in itertools.combinations(range(1, rank + 2), r)]
        for s in subsets * 2:
            members = sorted(s)
            if members in (list(range(1, len(s) + 1)),
                           list(range(rank + 2 - len(s), rank + 2))):
                # initial or terminal: raises on every call, caches nothing
                with pytest.raises(ValueError, match="initial|terminal"):
                    quiver_from_chamber_set(members, rank)
                with pytest.raises(ValueError, match="initial|terminal"):
                    build(s, rank)
                continue
            assert quiver_from_chamber_set(members, rank) == build(s, rank)
        size = empty_chamber_set_memo.cache_info().currsize
        assert size == len(enumerate_partial_quivers(rank)) <= 2 ** (rank + 1)


def test_enumerate_counts():
    assert [str(q) for q in enumerate_partial_quivers(2)] == ["L", "R"]
    assert len(enumerate_partial_quivers(3)) == 8
    assert sorted(str(q) for q in enumerate_partial_quivers(4)) == \
        sorted(A4_QUIVERS)
    # generation count equals the chamber-set bijection count
    for rank in range(2, 9):
        assert len(enumerate_partial_quivers(rank)) == \
            2 ** (rank + 1) - 2 * rank - 2


def test_quivers_for_golden_word():
    word = parse_word("2343121324")
    assert sorted(str(q) for q in quivers_for_word(word)) == \
        sorted(["RRL", "-RL", "--L", "LRL", "-R-", "LR-"])
    pairs = chamber_quiver_pairs(word)
    by_set = {frozenset(cs.members): str(q) for cs, q in pairs}
    assert by_set[frozenset({1, 2, 4, 5})] == "-R-"


def test_quiver_sets_have_expected_size_for_all_classes():
    from wordcones.words import commutation_classes
    for cls in commutation_classes(4):
        word = ReducedWord(4, cls.canonical)
        quivers = quivers_for_word(word)
        assert len(quivers) == 6
        assert len(set(quivers)) == 6


def test_quiver_set_is_class_invariant():
    word = parse_word("2343121324")
    reference = sorted(str(q) for q in quivers_for_word(word))
    for letters in list(commutation_orbit(word.letters))[:12]:
        other = ReducedWord(4, letters)
        assert sorted(str(q) for q in quivers_for_word(other)) == reference


def test_rank2_word_has_one_quiver():
    assert [str(q) for q in quivers_for_word(ReducedWord(2, (1, 2, 1)))] == ["R"]


def test_quiver_validation():
    with pytest.raises(ValueError):
        PartialQuiver(4, "---")  # empty
    with pytest.raises(ValueError):
        PartialQuiver(4, "L-L")  # disconnected
    with pytest.raises(ValueError):
        PartialQuiver(4, "LX-")  # bad char
    with pytest.raises(ValueError):
        PartialQuiver(4, "LL")  # wrong length
    q = PartialQuiver(4, "-RL")
    assert q.label(4) is None and q.label(3) == "R" and q.label(2) == "L"
    assert q.labelled_edges() == [3, 2]
