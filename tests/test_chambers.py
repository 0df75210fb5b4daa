import random

import pytest

from class_oracles import commutation_orbit
from wordcones.chambers import chamber_sets, members_str, render_wiring
from wordcones.words import (ReducedWord, apply_move, enumerate_reduced_words,
                             legal_moves, parse_word, random_reduced_word)

GOLDEN_WORD = "2343121324"


def test_golden_chamber_sets():
    sets = [frozenset(cs.members) for cs in chamber_sets(parse_word(GOLDEN_WORD))]
    expected = [frozenset(s) for s in
                ({2, 5}, {2, 4, 5}, {2}, {2, 4}, {1, 2, 4, 5}, {1, 2, 4})]
    assert sorted(map(sorted, sets)) == sorted(map(sorted, expected))


def test_hand_traced_rank2():
    sets = chamber_sets(ReducedWord(2, (1, 2, 1)))
    assert len(sets) == 1
    assert sets[0].members == frozenset({1, 3})
    assert (sets[0].gap, sets[0].interval) == (1, 1)
    assert (sets[0].start, sets[0].end) == (1, 3)


def test_count_and_never_initial_terminal():
    for rank in (1, 2, 3, 4):
        for word in enumerate_reduced_words(rank):
            sets = chamber_sets(word)
            assert len(sets) == rank * (rank - 1) // 2
            for cs in sets:
                members = sorted(cs.members)
                assert members != list(range(1, len(members) + 1))
                assert members != list(range(rank + 2 - len(members), rank + 2))


def test_commutation_class_has_constant_chamber_multiset():
    rng = random.Random(41)
    for rank in (3, 4):
        for _ in range(4):
            w = random_reduced_word(rank, rng)
            reference = sorted(sorted(cs.members) for cs in chamber_sets(w))
            for letters in list(commutation_orbit(w.letters))[:10]:
                other = ReducedWord(rank, letters)
                assert sorted(sorted(cs.members)
                              for cs in chamber_sets(other)) == reference


def test_braid_move_changes_chamber_sets_sometimes():
    # sanity that the multiset is not a constant of everything
    w = ReducedWord(2, (1, 2, 1))
    braid = [m for m in legal_moves(w) if m.kind == "braid"][0]
    assert [cs.members for cs in chamber_sets(apply_move(w, braid))] \
        != [cs.members for cs in chamber_sets(w)]


def test_members_str():
    assert members_str(frozenset({2, 5}), 4) == "25"
    assert members_str(frozenset({2, 10}), 9) == "2,10"


def test_render_ascii_deterministic():
    word = parse_word(GOLDEN_WORD)
    a1, a2 = render_wiring(word, "ascii"), render_wiring(word, "ascii")
    assert a1 == a2
    assert a1.count("X") == 10
    # chamber labels appear
    assert "1245" in a1.replace(" ", "")


def test_render_ascii_small():
    art = render_wiring(ReducedWord(2, (1, 2, 1)), "ascii")
    assert art.count("X") == 3
    assert "13" in art.replace(" ", "")


def test_render_svg():
    word = parse_word(GOLDEN_WORD)
    svg1, svg2 = render_wiring(word, "svg"), render_wiring(word, "svg")
    assert svg1 == svg2
    assert svg1.startswith("<svg ")
    assert svg1.count("<polyline") == 5
    for label in ("25", "245", "2", "24", "1245", "124"):
        assert f">{label}</text>" in svg1


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError):
        render_wiring(ReducedWord(2, (1, 2, 1)), "png")
