import random
from types import SimpleNamespace

from census_oracles import CENSUS5_SHA256, census_digest, reference_chamber_sets
from wordcones.chambers import chamber_sets
from wordcones.quivers import quiver_from_chamber_set, quivers_for_word
from wordcones.words import enumerate_reduced_words, random_reduced_word


def _outcome(f, word):
    try:
        return f(word)
    except Exception as e:  # the scan must raise what the reference raises
        return type(e), str(e)


def test_chamber_scan_matches_reference_on_every_word_and_rank5_samples():
    rng = random.Random(30)
    pool = [w for rank in (1, 2, 3, 4) for w in enumerate_reduced_words(rank)]
    pool += [random_reduced_word(5, rng) for _ in range(300)]
    for word in pool:
        ref = reference_chamber_sets(word)
        got = chamber_sets(word)
        assert [(c.gap, c.interval, c.members, c.start, c.end) for c in got] \
            == [(c.gap, c.interval, c.members, c.start, c.end) for c in ref]
        assert quivers_for_word(word) \
            == [quiver_from_chamber_set(c.members, word.rank) for c in ref]


def test_chamber_scan_raises_as_the_reference_on_other_words():
    # letter sequences that are not reduced words for w0 reach the segment
    # and count checks; the scan must raise the same error or give the same sets
    rng = random.Random(31)
    raised = set()
    for _ in range(2000):
        rank = rng.randint(1, 4)
        letters = tuple(rng.randint(1, rank) for _ in range(rng.randint(1, 12)))
        word = SimpleNamespace(rank=rank, letters=letters)
        ref = _outcome(reference_chamber_sets, word)
        assert _outcome(chamber_sets, word) == ref
        if isinstance(ref, tuple):
            raised.update(kind for kind in ("initial", "terminal", "chamber sets at")
                          if kind in ref[1])
    assert raised == {"initial", "terminal", "chamber sets at"}


def test_census_of_every_rank5_class_word_keeps_its_digest():
    assert census_digest(5) == CENSUS5_SHA256
