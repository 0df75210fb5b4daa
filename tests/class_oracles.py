"""The class layer by walking every reduced word, the reference for the
library's search over classes.

``commutation_orbit`` is the set of words reachable by commutation moves.
``orbit_commutation_classes`` and ``orbit_class_graph`` answer what
``words.commutation_classes`` and ``words.class_graph`` answer, from every
reduced word for w0 and its orbit, the way the library did before it read
classes, sizes and braid edges off one search over classes.  They stop at
rank 5, where they walk 292,864 words.

``is_connected`` is a depth-first check on an adjacency dict, used on the
class graph and the region graph.
"""

from collections import Counter

from wordcones.words import (BRAID, CommutationClass, Move, apply_move_letters,
                             braids, commutes, iter_reduced_words)


def commutation_orbit(letters):
    """All words reachable from the given one by commutation moves."""
    seen = {letters}
    stack = [letters]
    while stack:
        w = stack.pop()
        for t in range(len(w) - 1):
            if commutes(w, t):
                w2 = w[:t] + (w[t + 1], w[t]) + w[t + 2:]
                if w2 not in seen:
                    seen.add(w2)
                    stack.append(w2)
    return frozenset(seen)


def class_keys(rank):
    """Every reduced word for w0 mapped to its orbit minimum (rank <= 5)."""
    key = {}
    for w in iter_reduced_words(rank):
        if w not in key:
            orbit = commutation_orbit(w)
            key.update(dict.fromkeys(orbit, min(orbit)))
    return key


def orbit_commutation_classes(rank):
    sizes = Counter(class_keys(rank).values())
    return [CommutationClass(rank, c, n) for c, n in sorted(sizes.items())]


def orbit_class_graph(rank):
    """Edge = a braid move between some member of each class."""
    key = class_keys(rank)
    adj = {c: set() for c in set(key.values())}
    for w, canon in key.items():
        for t in range(len(w) - 2):
            if braids(w, t):
                other = key[apply_move_letters(w, Move(BRAID, t + 1))]
                if other != canon:
                    adj[canon].add(other)
                    adj[other].add(canon)
    return {c: frozenset(nb) for c, nb in adj.items()}


def is_connected(graph):
    if not graph:
        return True
    start = next(iter(graph))
    seen = {start}
    stack = [start]
    while stack:
        for nb in graph[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == len(graph)


if __name__ == "__main__":
    # PYTHONPATH=src python tests/class_oracles.py RANK: the library's class
    # search against the every-word walk at one rank; rank 5 is kept out of
    # the test suite, as the walk takes several seconds there
    import sys

    from wordcones.words import class_graph, commutation_classes
    rank = int(sys.argv[1])
    if commutation_classes(rank) != orbit_commutation_classes(rank):
        sys.exit(f"rank {rank}: classes or sizes differ from the oracle")
    if class_graph(rank) != orbit_class_graph(rank):
        sys.exit(f"rank {rank}: the class graph differs from the oracle")
    print(f"rank {rank}: classes, sizes and class graph match the oracle")
