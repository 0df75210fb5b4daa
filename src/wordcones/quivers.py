"""Partial quivers of type A and their bijection with chamber sets.

Edges of the Dynkin diagram are numbered 2..n from *right to left*; 1 and
n+1 are virtual.  A partial quiver carries L/R arrows on a non-empty
consecutive set of edges.  The text form lists edges left to right, i.e.
edge n down to edge 2, as in "-RL" (rank 4: edge 4 blank, edge 3 R, edge 2 L).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable, Optional

from .chambers import _chambers
from .polyhedra import InvariantError
from .words import ReducedWord

BLANK = "-"


@dataclass(frozen=True, order=True)
class PartialQuiver:
    """Arrow labels on edges n..2 (text order); non-empty and connected."""

    rank: int
    text: str

    def __post_init__(self):
        if self.rank < 2:
            raise ValueError("partial quivers need rank >= 2")
        if len(self.text) != self.rank - 1:
            raise ValueError(
                f"quiver text {self.text!r} has length {len(self.text)}, "
                f"rank {self.rank} wants {self.rank - 1}")
        labelled = [i for i, ch in enumerate(self.text) if ch != BLANK]
        for i, ch in enumerate(self.text):
            if ch not in "LR-":
                raise ValueError(
                    f"bad label {ch!r} at position {i + 1} (edge "
                    f"{self.rank - i}) in quiver text {self.text!r}")
        if not labelled:
            raise ValueError("partial quiver needs at least one arrow")
        if labelled != list(range(labelled[0], labelled[-1] + 1)):
            raise ValueError(f"arrows in {self.text!r} are not connected")

    def label(self, edge: int) -> Optional[str]:
        """Label of edge number e (2..n); None when blank."""
        if not 2 <= edge <= self.rank:
            raise ValueError(f"edge {edge} out of range [2, {self.rank}]")
        ch = self.text[self.rank - edge]
        return None if ch == BLANK else ch

    def labelled_edges(self) -> list[int]:
        """Edge numbers carrying arrows, in decreasing (left-to-right) order."""
        return [self.rank - i for i, ch in enumerate(self.text) if ch != BLANK]

    def __str__(self) -> str:
        return self.text


def quiver_from_labels(rank: int, labels: dict[int, str]) -> PartialQuiver:
    text = "".join(labels.get(e, BLANK) for e in range(rank, 1, -1))
    return PartialQuiver(rank, text)


def quiver_from_chamber_set(members: Iterable[int], rank: int) -> PartialQuiver:
    """The partial quiver of a non-initial, non-terminal subset of {1..n+1}.

    Members outside the initial/terminal runs mark L edges; an initial run
    1..i makes edge i+1 the rightmost labelled edge with label R; a terminal
    run i..n+1 makes edge i-1 the leftmost labelled edge with label R;
    unlabelled edges strictly between labelled ones are filled with R.
    Memoised per process by subset and rank; a raising call caches nothing.
    """
    return _quiver_of(frozenset(members), rank)


@cache
def _quiver_of(s: frozenset[int], n: int) -> PartialQuiver:
    if not s.issubset(range(1, n + 2)):
        raise ValueError(f"members {sorted(s)} not within 1..{n + 1}")
    labels: dict[int, str] = {}
    initial_top = 0
    while initial_top + 1 in s:
        initial_top += 1
    terminal_low = n + 2
    while terminal_low - 1 in s:
        terminal_low -= 1
    if initial_top >= terminal_low - 1:
        # the runs meet, so S is the full set {1..n+1}
        raise ValueError(f"subset {sorted(s)} is an initial segment")
    core = [x for x in s if initial_top < x < terminal_low]
    if not core:
        if terminal_low == n + 2:
            raise ValueError(f"subset {sorted(s)} is an initial segment")
        if initial_top == 0:
            raise ValueError(f"subset {sorted(s)} is a terminal segment")
    for x in core:
        labels[x] = "L"
    if initial_top:
        labels[initial_top + 1] = "R"
    if terminal_low <= n + 1:
        labels[terminal_low - 1] = "R"
    lo, hi = min(labels), max(labels)
    for e in range(lo + 1, hi):
        labels.setdefault(e, "R")
    return quiver_from_labels(n, labels)


def chamber_set_from_quiver(quiver: PartialQuiver) -> frozenset[int]:
    """Inverse of quiver_from_chamber_set (round-trip identity on both sides).

    L edges are members; a rightmost labelled edge of type R encodes the
    initial run, a leftmost one the terminal run; interior R edges are fill.
    """
    edges = quiver.labelled_edges()
    leftmost, rightmost = edges[0], edges[-1]
    members: set[int] = set()
    for e in edges:
        if quiver.label(e) == "L":
            members.add(e)
    if quiver.label(rightmost) == "R":
        members.update(range(1, rightmost))
    if quiver.label(leftmost) == "R":
        members.update(range(leftmost + 1, quiver.rank + 2))
    return frozenset(members)


def quivers_for_word(word: ReducedWord) -> list[PartialQuiver]:
    """The set of n(n-1)/2 partial quivers attached to a reduced word,
    in chamber-set order (see chamber_sets), read off the one chamber scan."""
    out = [_quiver_of(cs.members, word.rank) for cs in _chambers(word)]
    if len(set(out)) != len(out):
        raise InvariantError("chamber quivers must be distinct")
    return out


def enumerate_partial_quivers(rank: int) -> list[PartialQuiver]:
    """All partial quivers, by explicit generation over arrow runs.

    >>> [str(q) for q in enumerate_partial_quivers(2)]
    ['L', 'R']
    """
    out = []
    for lo in range(2, rank + 1):
        for hi in range(lo, rank + 1):
            for mask in range(1 << (hi - lo + 1)):
                labels = {lo + i: ("L" if mask >> i & 1 else "R")
                          for i in range(hi - lo + 1)}
                out.append(quiver_from_labels(rank, labels))
    return sorted(out, key=lambda q: q.text)
