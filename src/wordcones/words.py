"""Reduced words for the longest element of the symmetric group S_{n+1}.

Generators are numbered 1..n as in the type-A Dynkin diagram; s_i swaps the
entries at positions i and i+1 of a permutation of {1,..,n+1} written in
one-line notation.  A word is a tuple of generator indices; word positions
are 1-based throughout, matching the usual a_1,...,a_k coordinates.

Words serialise as digit strings without separators while rank <= 9
(e.g. "1324132413"), as comma-separated integers otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterator, NamedTuple, Optional, Sequence

from .polyhedra import InvariantError

Letters = tuple[int, ...]
Root = tuple[int, int]  # interval [p, q]: the positive root a_p + ... + a_q

COMMUTATION = "commutation"
BRAID = "braid"


def longest_word_length(rank: int) -> int:
    return rank * (rank + 1) // 2


def wiring(letters: Sequence[int], rank: int) -> list[tuple[int, ...]]:
    """The string orders of a word's wiring diagram: the labels at positions
    1..rank+1 before each crossing, then after the last one (the one-line
    form of the word's permutation).  Letters out of range raise ValueError.

    >>> wiring((1, 2, 1), 2)
    [(1, 2, 3), (2, 1, 3), (2, 3, 1), (3, 2, 1)]
    """
    order = list(range(1, rank + 2))
    orders = [tuple(order)]
    for g in letters:
        if not 1 <= g <= rank:
            raise ValueError(f"letter {g} out of range [1, {rank}]")
        order[g - 1], order[g] = order[g], order[g - 1]
        orders.append(tuple(order))
    return orders


def bounded_chambers(letters: Sequence[int]) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """The bounded chambers of a word's wiring diagram, in order of z: for
    consecutive occurrences x < z (0-based) of a letter, (x, z, sides) with
    sides the positions between them whose letter differs from it by one.

    >>> list(bounded_chambers((1, 2, 1, 3, 2)))
    [(0, 2, (1,)), (1, 4, (2, 3))]
    """
    last: dict[int, int] = {}
    for z, g in enumerate(letters):
        x, last[g] = last.get(g), z
        if x is not None:
            yield x, z, tuple([y for y in range(x + 1, z) if abs(letters[y] - g) == 1])


class WordCheck(NamedTuple):
    reduced: bool
    is_longest: bool


def is_reduced(letters: Sequence[int], rank: int) -> WordCheck:
    """Check reducedness of an arbitrary word: each crossing must swap an
    increasing label pair, since l(w s_g) = l(w) + 1 iff w(g) < w(g+1).

    The second flag reports whether the permutation is the order-reversing
    longest element.  Letters out of range raise ValueError.

    >>> is_reduced((1, 2, 1), 2)
    WordCheck(reduced=True, is_longest=True)
    >>> is_reduced((1, 1), 2)
    WordCheck(reduced=False, is_longest=False)
    """
    orders = wiring(letters, rank)
    return WordCheck(all(o[g - 1] < o[g] for o, g in zip(orders, letters)),
                     orders[-1] == tuple(range(rank + 1, 0, -1)))


@dataclass(frozen=True, order=True)
class ReducedWord:
    """A reduced word for the longest element w0; validated on construction."""

    rank: int
    letters: Letters

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        check = is_reduced(self.letters, self.rank)
        if not check.reduced or not check.is_longest:
            raise ValueError(
                f"{format_letters(self.letters, self.rank)} is not a reduced "
                f"word for the longest element at rank {self.rank}")

    def __str__(self) -> str:
        return format_letters(self.letters, self.rank)


def format_letters(letters: Sequence[int], rank: int) -> str:
    if rank <= 9:
        return "".join(str(g) for g in letters)
    return ",".join(str(g) for g in letters)


def parse_letters(text: str) -> Letters:
    """Parse a serialised letter sequence (no reducedness requirement)."""
    text = text.strip()
    if "," in text:
        parts = text.split(",")
        letters = []
        for idx, part in enumerate(parts, start=1):
            try:
                letters.append(int(part))
            except ValueError:
                raise ValueError(
                    f"word entry {idx} ({part!r}) is not an integer") from None
        letters = tuple(letters)
    else:
        for idx, ch in enumerate(text, start=1):
            if not ch.isdigit():
                raise ValueError(
                    f"word character {idx} ({ch!r}) is not a digit")
        letters = tuple(int(ch) for ch in text)
    if not letters:
        raise ValueError("empty word")
    return letters


def parse_word(text: str, rank: Optional[int] = None) -> ReducedWord:
    """Parse a serialised word; the rank defaults to the largest letter."""
    letters = parse_letters(text)
    if rank is None:
        rank = max(letters)
    return ReducedWord(rank, letters)


# ---------------------------------------------------------------------------
# Moves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Move:
    """An elementary rewrite at 1-based position t.

    commutation: swap letters t, t+1 (requires |i_t - i_{t+1}| >= 2);
    braid: rewrite (g, h, g) -> (h, g, h) at positions t, t+1, t+2
    (requires i_t == i_{t+2} and |i_t - i_{t+1}| == 1).
    """

    kind: str
    position: int

    def __post_init__(self):
        if self.kind not in (COMMUTATION, BRAID):
            raise ValueError(f"unknown move kind {self.kind!r}")
        if self.position < 1:
            raise ValueError("positions are 1-based")


def commutes(w: Sequence[int], t: int) -> bool:
    """Is a commutation move legal at site t >= 0 (0-based) of the word w?

    >>> commutes((1, 3, 2), 0), commutes((1, 3, 2), 1)
    (True, False)
    """
    return t + 1 < len(w) and abs(w[t] - w[t + 1]) >= 2


def braids(w: Sequence[int], t: int) -> bool:
    """Is a braid move legal at site t >= 0 (0-based) of the word w?

    >>> braids((2, 1, 2), 0), braids((2, 3, 2), 0), braids((1, 3, 1), 0)
    (True, True, False)
    """
    return t + 2 < len(w) and w[t] == w[t + 2] and abs(w[t] - w[t + 1]) == 1


def apply_move_letters(letters: Letters, move: Move) -> Letters:
    w, t = letters, move.position - 1
    if move.kind == COMMUTATION and commutes(w, t):
        return w[:t] + (w[t + 1], w[t]) + w[t + 2:]
    if move.kind == BRAID and braids(w, t):
        return w[:t] + (w[t + 1], w[t], w[t + 1]) + w[t + 3:]
    raise ValueError(f"{move} is illegal on {tuple(w)}")


def apply_move(word: ReducedWord, move: Move) -> ReducedWord:
    """Apply a legal move; the result is again reduced for w0."""
    return ReducedWord(word.rank, apply_move_letters(word.letters, move))


def legal_moves(word: ReducedWord) -> list[Move]:
    w = word.letters
    return ([Move(COMMUTATION, t + 1) for t in range(len(w) - 1) if commutes(w, t)]
            + [Move(BRAID, t + 1) for t in range(len(w) - 2) if braids(w, t)])


# ---------------------------------------------------------------------------
# Enumeration and commutation classes
# ---------------------------------------------------------------------------

_ENUM_RANK_LIMIT = 5


def _check_enumeration_rank(rank: int):
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if rank > _ENUM_RANK_LIMIT:
        raise ValueError(
            f"exhaustive enumeration is limited to rank <= {_ENUM_RANK_LIMIT}; "
            "use find_move_path for individual words at larger ranks")


def iter_reduced_words(rank: int) -> Iterator[Letters]:
    """Depth-first enumeration of all reduced words for w0 (rank <= 5)."""
    _check_enumeration_rank(rank)
    k = longest_word_length(rank)
    perm = list(range(1, rank + 2))
    word: list[int] = []

    def rec() -> Iterator[Letters]:
        if len(word) == k:
            yield tuple(word)
            return
        for g in range(1, rank + 1):
            if perm[g - 1] < perm[g]:  # appending s_g keeps the word reduced
                perm[g - 1], perm[g] = perm[g], perm[g - 1]
                word.append(g)
                yield from rec()
                word.pop()
                perm[g - 1], perm[g] = perm[g], perm[g - 1]

    return rec()


def enumerate_reduced_words(rank: int) -> list[ReducedWord]:
    return [ReducedWord(rank, w) for w in iter_reduced_words(rank)]


@dataclass(frozen=True)
class CommutationClass:
    """An equivalence class of reduced words under commutation moves."""

    rank: int
    canonical: Letters  # lexicographically least member
    size: int


def class_canonical(word: ReducedWord) -> Letters:
    """Reproducible class key: the lexicographic minimum over the orbit.

    >>> class_canonical(ReducedWord(3, (2, 3, 1, 2, 3, 1)))
    (2, 1, 3, 2, 1, 3)
    """
    return _canonical(word.letters, word.rank)


def _canonical(w: Letters, n: int) -> Letters:
    """class_canonical of the letters w of a reduced word at rank n.  The orbit
    is the set of linear extensions of the word's heap, so its minimum is
    built greedily without the orbit: take out the smallest letter that
    commutes with (differs by at least 2 from) every letter before it, and
    repeat.  Equal letters never commute, so the choice is unique.  It is the
    smallest g whose first remaining position comes before g + 1's (k when
    none is left, as for the sentinel n + 1): g - 1's, if any, comes later,
    or the scan upwards would have stopped at g - 1."""
    later, first, out = [len(w)] * len(w), [len(w)] * (n + 2), []
    for i in range(len(w) - 1, -1, -1):
        later[i], first[w[i]] = first[w[i]], i
    for _ in w:
        g = 1
        while first[g] >= first[g + 1]:
            g += 1
        out.append(g)
        first[g] = later[first[g]]
    return tuple(out)


def _braid_neighbours(w: Letters) -> Iterator[Letters]:
    """A member of each class one braid move away from the class of w: where
    a bounded chamber x < z of a letter s has exactly one side y, of letter
    t = s +- 1, the other letters between them commute with s, so s t s can
    be made consecutive and turned into t s t.

    >>> list(_braid_neighbours((1, 2, 1)))
    [(2, 1, 2)]
    """
    for x, z, sides in bounded_chambers(w):
        if len(sides) == 1:
            s, y = w[x], sides[0]
            yield w[:x] + w[x + 1:y] + (w[y], s, w[y]) + w[y + 1:z] + w[z + 1:]


def _linear_extensions(w: Letters) -> int:
    """Number of linear extensions of the heap of w, the size of its class,
    counted level by level over the heap's order ideals held as bit masks."""
    below = {1 << i: sum(1 << j for j in range(i) if abs(w[j] - g) <= 1)
             for i, g in enumerate(w)}
    full, ways = (1 << len(w)) - 1, {0: 1}
    for _ in w:
        grown: dict[int, int] = {}
        for ideal, n in ways.items():
            rest = full ^ ideal
            while rest:
                bit = rest & -rest
                rest ^= bit
                if below[bit] & ideal == below[bit]:
                    grown[ideal | bit] = grown.get(ideal | bit, 0) + n
        ways = grown
    return ways[full]


def commutation_classes(rank: int) -> list[CommutationClass]:
    """Partition of all reduced words into commutation classes (rank <= 5)."""
    return [CommutationClass(rank, c, _linear_extensions(c))
            for c in sorted(class_graph(rank))]


def class_graph(rank: int) -> dict[Letters, frozenset[Letters]]:
    """Graph on commutation classes: edge = single braid move between members.

    The braid graph is connected (Tits), so one search over classes finds
    them all.  Each class is keyed by its canonical word, walked straight
    from a braid neighbour's letters, so no word is validated again.
    """
    if rank > _ENUM_RANK_LIMIT:  # bounds the search; ReducedWord checks >= 1
        raise ValueError(
            f"the commutation class search is limited to rank <= {_ENUM_RANK_LIMIT}")
    found: list[Letters] = []
    seen: set[Letters] = set()

    def canon(w: Letters) -> Letters:
        c = _canonical(w, rank)
        if c not in seen:
            seen.add(c)
            found.append(c)
        return c

    canon(standard_words(rank)[0].letters)  # found grows as the search goes
    return {c: frozenset(map(canon, _braid_neighbours(c))) for c in found}


# ---------------------------------------------------------------------------
# Move paths
# ---------------------------------------------------------------------------

def _surface(letters: Letters, g: int, at: int) -> tuple[list[Move], Letters]:
    """Moves, at their absolute positions, that bring g to 0-based position
    ``at``, g being a left descent of the suffix from ``at``: surface g one
    place later, then commute it past the head h, or, when |g - h| = 1 (h is
    then a left descent of what follows), surface h two places later and
    make one braid move (the exchange property, recursively)."""
    h = letters[at]
    if h == g:
        return [], letters
    moves, letters = _surface(letters, g, at + 1)
    if commutes(letters, at):
        mv = Move(COMMUTATION, at + 1)
    else:
        more, letters = _surface(letters, h, at + 2)
        moves += more
        mv = Move(BRAID, at + 1)
    moves.append(mv)
    return moves, apply_move_letters(letters, mv)


def find_move_path(src: ReducedWord, dst: ReducedWord) -> list[Move]:
    """A commutation/braid move sequence transforming src into dst.

    Peels dst letter by letter: the next wanted letter g is surfaced to
    position ``at`` of the current word, then the suffixes are matched.  No
    enumeration of reduced words, and no descent check: before each letter
    the current suffix and dst's suffix from ``at`` are reduced words for
    one element u (w0 at the start, as both are ReducedWords of one rank),
    and dst's suffix starts with g, so g is a left descent of u.  After g
    is surfaced, both suffixes from at + 1 are reduced words for s_g u.
    """
    if src.rank != dst.rank:
        raise ValueError("words have different ranks")
    moves: list[Move] = []
    cur = src.letters
    for at, g in enumerate(dst.letters):
        more, cur = _surface(cur, g, at)
        moves += more
    if cur != dst.letters:
        raise InvariantError(f"peel path ends at {cur}, not {dst.letters}")
    return moves


@cache
def transition_automorphism(src: ReducedWord, dst: ReducedWord
                            ) -> Optional[tuple[tuple[int, ...], ...]]:
    """Involutions (X, Y) of positions with R(Xa) = Y R(a), (Xa)_p = a_X[p],
    R the src-to-dst transition map, or None.  Take tau the first of sigma:
    g -> n+1-g (it keeps each move's formula), reversal (it reverses each
    triple and its image) and sigma rev that sends each word to one
    commutation-equivalent to it.  By path independence (Lusztig) R = Q T R
    T P, T reversing coordinates for rev, P and Q the commutation maps src
    -> tau(src) and tau(dst) -> dst, which match the i-th occurrence of each
    letter: X = T P, Y = Q T."""
    for flip, turn in ((1, 0), (0, 1), (1, 1)):
        perms = []
        for w in (src.letters, dst.letters):
            image = [src.rank + 1 - g if flip else g for g in w][::1 - 2 * turn]
            if _canonical(tuple(image), src.rank) != _canonical(w, src.rank):
                break
            spots = {g: iter([p for p, h in enumerate(w) if h == g])
                     for g in set(w)}
            perms.append(tuple([next(spots[g]) for g in image][::1 - 2 * turn]))
        else:
            return tuple(perms)
    return None


def apply_move_path(word: ReducedWord, moves: Sequence[Move]) -> ReducedWord:
    letters = word.letters
    for m in moves:
        letters = apply_move_letters(letters, m)
    return ReducedWord(word.rank, letters)


# ---------------------------------------------------------------------------
# Positive roots and the two standard words
# ---------------------------------------------------------------------------

def positive_root_order(word: ReducedWord) -> tuple[Root, ...]:
    """The total order on positive roots induced by a reduced word.

    The t-th root is the image of the simple root alpha_{i_t} under the
    product of the first t-1 reflections; for reduced words for w0 the
    sequence is a bijection onto all n(n+1)/2 roots.
    """
    roots = []
    for order, g in zip(wiring(word.letters, word.rank), word.letters):
        if order[g - 1] > order[g]:
            raise InvariantError("reduced word produced a negative root")
        roots.append((order[g - 1], order[g] - 1))
    if len(set(roots)) != len(roots):
        raise InvariantError("a root appears twice")
    return tuple(roots)


@cache
def standard_words(rank: int) -> tuple[ReducedWord, ReducedWord]:
    """The odd-even word j = 1 3 5... 2 4 6... (repeated) and its even-odd
    twin, built once per rank; a rank below 1 gives an empty word, which
    ReducedWord rejects on every call."""
    odds = list(range(1, rank + 1, 2))
    evens = list(range(2, rank + 1, 2))
    k = longest_word_length(rank)
    return (ReducedWord(rank, tuple((odds + evens) * k)[:k]),
            ReducedWord(rank, tuple((evens + odds) * k)[:k]))


def random_reduced_word(rank: int, rng) -> ReducedWord:
    """Uniform-ish random reduced word for w0 built by random descent walk."""
    k = longest_word_length(rank)
    perm = list(range(1, rank + 2))
    word = []
    while len(word) < k:
        options = [g for g in range(1, rank + 1) if perm[g - 1] < perm[g]]
        g = rng.choice(options)
        perm[g - 1], perm[g] = perm[g], perm[g - 1]
        word.append(g)
    return ReducedWord(rank, tuple(word))
