"""Exact rational polyhedral kernel for homogeneous cones.

Everything here is a *cone*: inequality systems have no constant terms and
ray sets generate conic (not convex) hulls.  All decisions are made in exact
integer/rational arithmetic; there is no floating point anywhere.

Conventions:
- a vector is a tuple of Python ints (arbitrary precision),
- an H-cone is a list of inward normals ``a`` meaning ``a . x >= 0``,
- a V-cone is a list of primitive generating rays,
- rays and normals are normalised to primitive integer form (denominators
  cleared, divided by the gcd), so parallel vectors compare equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from math import gcd, lcm, prod
from operator import mul, neg
from typing import Iterable, Optional, Sequence

Vector = tuple[int, ...]


class DegenerateConeError(ValueError):
    """Raised when an operation needs a full-dimensional cone and got less."""


class InvariantError(RuntimeError):
    """A proven invariant failed: a bug, not bad input (survives -O)."""


class NonPointedError(ValueError):
    """Raised when an operation needs a pointed cone; carries a witness line."""

    def __init__(self, witness: Vector):
        super().__init__(f"cone contains the line through {witness}")
        self.witness = witness


def dot(a: Sequence, b: Sequence):
    return sum(map(mul, a, b))


def vneg(a: Sequence) -> Vector:
    return tuple(map(neg, a))


def primitive(vec: Iterable) -> Vector:
    """Scale a rational vector to primitive integer form (direction kept).

    >>> primitive((Fraction(1, 2), Fraction(-3, 4)))
    (2, -3)
    >>> primitive((4, -6, 0))
    (2, -3, 0)
    """
    vec = tuple(vec)
    try:
        g = gcd(*vec)
    except TypeError:  # a non-integer entry, such as a Fraction
        g = -1
    if g > 1:
        return tuple(x // g for x in vec)
    if g >= 0 and {*map(type, vec)} <= {int}:  # bools leave as ints, below
        return vec
    fracs = [Fraction(x) for x in vec]
    denom = lcm(*(f.denominator for f in fracs))
    ints = [int(f * denom) for f in fracs]
    g = gcd(*ints) or 1  # the zero vector stays zero
    return tuple(x // g for x in ints)


@dataclass(frozen=True)
class HCone:
    """Homogeneous cone {x : a . x >= 0 for every normal a}."""

    dim: int
    ineqs: tuple[Vector, ...]

    def __post_init__(self):
        for a in self.ineqs:
            if len(a) != self.dim:
                raise ValueError(f"normal {a} has wrong dimension (want {self.dim})")

    def contains(self, point: Sequence) -> bool:
        if len(point) != self.dim:
            raise ValueError(f"point {point} has wrong dimension (want {self.dim})")
        return all(dot(a, point) >= 0 for a in self.ineqs)

    def to_json(self) -> dict:
        return {"dim": self.dim, "ineqs": [[str(c) for c in a] for a in self.ineqs]}


@dataclass(frozen=True)
class VCone:
    """Cone generated by non-negative combinations of primitive rays."""

    dim: int
    rays: tuple[Vector, ...]

    def __post_init__(self):
        seen = set()
        for r in self.rays:
            if len(r) != self.dim:
                raise ValueError(f"ray {r} has wrong dimension (want {self.dim})")
            if not any(r):
                raise ValueError("zero vector is not a ray")
            if r in seen:
                raise ValueError(f"duplicate ray {r}")
            seen.add(r)

    def to_json(self) -> dict:
        return {"dim": self.dim, "rays": [[str(c) for c in r] for r in self.rays]}


def _distinct_primitive(vecs: Iterable[Sequence]) -> tuple[Vector, ...]:
    """The primitive forms of vecs, the first of each parallel class kept,
    in order."""
    return tuple(dict.fromkeys(map(primitive, vecs)))


def hcone(ineqs: Iterable[Sequence], dim: int) -> HCone:
    """Build an HCone from the distinct primitive non-zero normals."""
    return HCone(dim, tuple(filter(any, _distinct_primitive(ineqs))))


def vcone(rays: Iterable[Sequence], dim: int) -> VCone:
    """Build a VCone from the distinct primitive rays; a zero one raises."""
    return VCone(dim, _distinct_primitive(rays))


@cache
def identity(dim: int) -> tuple[Vector, ...]:
    """The unit vectors of R^dim, in order, built once per dim."""
    return tuple(tuple(1 if i == j else 0 for j in range(dim))
                 for i in range(dim))


def nonneg_orthant(dim: int) -> HCone:
    return HCone(dim, identity(dim))


# ---------------------------------------------------------------------------
# Determinant and simplicial facets (fraction-free Gauss-Jordan)
# ---------------------------------------------------------------------------

def _gauss_jordan(rows: Sequence[Sequence[int]]) -> tuple[int, tuple[Vector, ...]]:
    """(det, facets) of k integer rows r_1..r_k in R^k.  facets is () when
    det is 0; else facet i is primitive, zero on each r_j, j != i, and
    positive on r_i.

    Gauss-Jordan on [R^T | I]: a row with 0 in the pivot column is skipped,
    any other becomes piv * row - f * pivot row over its gcd.  The end
    [D | E] has E R^T = D diagonal.  det is prod(D) times the gcds over the
    pivots, signed by the swaps; an inexact division is an InvariantError.
    """
    k = len(rows)
    m = [[*col, *unit] for col, unit in zip(zip(*rows), identity(k))]
    num, den = 1, 1
    for c in range(k):
        p = next((r for r in range(c, k) if m[r][c]), None)
        if p is None:
            return 0, ()
        if p != c:
            m[c], m[p] = m[p], m[c]
            num = -num
        prow, piv = m[c], m[c][c]
        for r, row in enumerate(m):
            f = row[c]
            if f and r != c:
                new = [piv * x - f * y for x, y in zip(row, prow)]
                g = gcd(*new)
                m[r] = [x // g for x in new] if g > 1 else new
                num, den = num * g, den * piv
    num *= prod(row[i] for i, row in enumerate(m))
    d, rest = divmod(num, den)
    if rest:
        raise InvariantError(f"determinant {num}/{den} is not an integer")
    return d, tuple(primitive(row[k:] if row[i] > 0 else vneg(row[k:]))
                    for i, row in enumerate(m))


# ---------------------------------------------------------------------------
# Exact linear programming: the test oracle (phase-1 simplex, integer pivots)
# ---------------------------------------------------------------------------

_MAX_PIVOTS = 100_000


def solve_inequalities(rows: Sequence[Vector], rhs: Sequence[int], dim: int
                       ) -> Optional[tuple[Fraction, ...]]:
    """Find x with rows[i] . x >= rhs[i] for all i, or None if infeasible.

    The library answers cone questions from generators (below); the tests
    check those answers against this independent simplex.

    Phase-1 simplex on the standard form with x = x+ - x-.  Bland's rule
    guarantees termination; the tableau is kept in scaled-integer form
    (entry = true value times the running pivot determinant D > 0) so every
    operation is exact integer arithmetic with one exact division per entry.
    """
    m = len(rows)
    if m == 0:
        return (Fraction(0),) * dim
    art_of = {}
    for i in range(m):
        if rhs[i] > 0:
            art_of[i] = 2 * dim + m + len(art_of)
    ncols = 2 * dim + m + len(art_of)
    rhs_col = ncols

    tab = []
    basis = []
    for i in range(m):
        row = [0] * (ncols + 1)
        if i in art_of:
            for j in range(dim):
                row[j] = rows[i][j]
                row[dim + j] = -rows[i][j]
            row[2 * dim + i] = -1
            row[art_of[i]] = 1
            row[rhs_col] = rhs[i]
            basis.append(art_of[i])
        else:
            # multiply by -1 so the slack enters the basis with coefficient +1
            for j in range(dim):
                row[j] = -rows[i][j]
                row[dim + j] = rows[i][j]
            row[2 * dim + i] = 1
            row[rhs_col] = 0
            basis.append(2 * dim + i)
        tab.append(row)

    # phase-1 objective: minimise the sum of artificials.  With artificials
    # basic, the objective row is the sum of their rows.
    obj = [0] * (ncols + 1)
    for i in art_of:
        r = tab[i]
        for j in range(ncols + 1):
            obj[j] += r[j]
    artificial = set(art_of.values())
    det = 1

    for _ in range(_MAX_PIVOTS):
        col = -1
        for j in range(ncols):
            if j not in artificial and obj[j] > 0:
                col = j
                break
        if col < 0:
            break
        # ratio test, Bland tie-break on the basis variable index
        best = None
        for i in range(m):
            piv = tab[i][col]
            if piv > 0:
                key = (Fraction(tab[i][rhs_col], piv), basis[i])
                if best is None or key < best[0]:
                    best = (key, i)
        if best is None:
            raise RuntimeError("phase-1 objective unbounded; cannot happen")
        r = best[1]
        pivot = tab[r][col]
        prow = tab[r]
        for i in range(m):
            if i == r:
                continue
            row = tab[i]
            f = row[col]
            for j in range(ncols + 1):
                row[j] = (pivot * row[j] - f * prow[j]) // det
        f = obj[col]
        for j in range(ncols + 1):
            obj[j] = (pivot * obj[j] - f * prow[j]) // det
        det = pivot
        basis[r] = col
    else:
        raise RuntimeError("simplex pivot limit exceeded")

    if obj[rhs_col] != 0:
        return None
    x = [Fraction(0)] * dim
    for i in range(m):
        v = basis[i]
        if v < dim:
            x[v] += Fraction(tab[i][rhs_col], det)
        elif v < 2 * dim:
            x[v - dim] -= Fraction(tab[i][rhs_col], det)
    point = tuple(x)
    if not all(dot(rows[i], point) >= rhs[i] for i in range(m)):
        raise InvariantError(f"simplex point {point} violates its rows")
    return point


# ---------------------------------------------------------------------------
# Double description, and the cone questions its generators answer
# ---------------------------------------------------------------------------

#: A cone during double description, (normals, lines, zeros): the primitive
#: non-zero normals cut so far, in order, its lines, and its rays mapped to
#: zero-set masks in output order (bit i: normals[i] vanishes; the next
#: normal takes bit len(normals)).  dd_step never mutates one.
DDState = tuple[tuple[Vector, ...], tuple[Vector, ...], dict[Vector, int]]


def dd_whole(dim: int) -> DDState:
    """The state of R^dim: no normal, a basis of lines and no ray."""
    return (), identity(dim), {}


def dd_simplex(rays: Sequence[Vector], facets: tuple[Vector, ...]) -> DDState:
    """The state of the simplicial cone on k independent primitive rays in
    R^k, written down from their _gauss_jordan facets, not cut: facet i
    vanishes on every ray but ray i, and there is no line.  It equals
    reduce(dd_step, facets, dd_whole(k)) but for the order of its rays."""
    full = (1 << len(facets)) - 1
    return facets, (), {r: full ^ (1 << i) for i, r in enumerate(rays)}


def dd_step(state: DDState, a: Sequence) -> DDState:
    """The state of the cone cut by one more inequality a . x >= 0.

    While a meets the lineality space it trades one line for a ray;
    afterwards the classic ray-pairing step with the combinatorial adjacency
    test keeps only extreme rays.  a . g is taken once per generator g.
    Masks are set as rays are made, never recomputed: lines vanish on every
    processed normal, and a paired ray vanishes exactly where both parents
    do.  An adjacent pair shares at least dim - len(lines) - 2 zeros
    (Fukuda-Prodon).  A pair that does is adjacent iff at most two masks
    contain its common zeros (p's and n's always do); the count stops at the
    third.  It is never exactly 3: the smallest face holding two non-adjacent
    extreme rays is not simplicial, so it has at least 4.  a joins the
    normals in primitive form; a zero normal changes nothing and takes no
    bit.
    """
    return _step(state, a, False)[0]


def dd_split(state: DDState, a: Sequence
             ) -> tuple[Optional[DDState], Optional[DDState]]:
    """(dd_cut(state, (a,)), dd_cut(state, (-a,))) from one pass.

    a . g is taken once per generator.  A line a meets gives both sides the
    same projected lines and rays, and the ray z or -z.  Otherwise the rays
    an adjacent pair makes on a . x = 0 are the same for both sides, so each
    pair takes one adjacency test.  A side is None exactly when dd_cut's
    would be: no line meets a and no ray lies strictly on that side.  The
    enumeration reads one None side as a guard that does not cut its cell.
    """
    return _step(state, a, True)


def _step(state: DDState, a: Sequence, split: bool
          ) -> tuple[Optional[DDState], Optional[DDState]]:
    """(dd_step by a, dd_step by -a), each None when it keeps no interior,
    when split; else only the first, never None, is made."""
    a = primitive(a)
    if not any(a):
        return state, state
    normals, lines, zeros = state
    bit = 1 << len(normals)
    dl = [sum(map(mul, a, l)) for l in lines]
    pivot = next((i for i, d in enumerate(dl) if d != 0), None)
    if pivot is not None:
        z, dz = lines[pivot], dl[pivot]
        if dz < 0:
            z, dz = vneg(z), -dz

        def project(v, d):  # onto a . x = 0 along z; v is primitive already
            return _reduced([dz * x - d * y for x, y in zip(v, z)]) if d else v
        new_lines = tuple([project(l, d) for i, (l, d) in enumerate(zip(lines, dl))
                           if i != pivot])
        projected = {project(r, dot(a, r)): m | bit for r, m in zeros.items()}
        down = ((normals + (vneg(a),), new_lines,
                 {**projected, vneg(z): bit - 1}) if split else None)
        projected[z] = bit - 1
        return (normals + (a,), new_lines, projected), down
    pos, neg, on = [], [], {}  # (ray, a . ray, mask) off the hyperplane
    for r, m in zeros.items():
        d = sum(map(mul, a, r))
        if d:
            (pos if d > 0 else neg).append((r, d, m))
        else:
            on[r] = m | bit
    if not neg:  # nothing is cut off; the rays on the hyperplane gain its bit
        whole = normals + (a,), lines, {**zeros, **on} if on else zeros
        return (whole if pos or not split else None), None
    if not pos:
        if split:
            return None, (normals + (vneg(a),), lines,
                          {**zeros, **on} if on else zeros)
        return (normals + (a,), lines, on), None
    need = len(a) - len(lines) - 2
    masks = list(zeros.values())
    made = []  # (n's index, p's index, ray, mask), p-major
    for i, (p, dp, mp) in enumerate(pos):
        for j, (n, dn, mn) in enumerate(neg):
            common = mp & mn
            if common.bit_count() < need or _shared_by_three(common, masks):
                continue
            made.append((j, i, _reduced([dp * x - dn * y for x, y in zip(n, p)]),
                         common | bit))
    kept = {r: m for r, _, m in pos}
    kept.update(on)
    kept.update((r, m) for _, _, r, m in made)
    if not split:
        return (normals + (a,), lines, kept), None
    # -a pairs the same rays n-major, the order its dd_step makes them in
    other = {r: m for r, _, m in neg}
    other.update(on)
    other.update((r, m) for _, _, r, m in sorted(made))
    return (normals + (a,), lines, kept), (normals + (vneg(a),), lines, other)


def _reduced(vec: list[int]) -> Vector:
    """An int vector over its gcd: primitive for the generators _step makes."""
    g = gcd(*vec)
    return tuple([x // g for x in vec] if g > 1 else vec)


def _shared_by_three(common: int, masks: list[int]) -> bool:
    """Whether more than two masks contain common, stopping at the third."""
    hits = 0
    for m in masks:
        if common & m == common:
            hits += 1
            if hits > 2:
                return True
    return False


def double_description(ineqs: Sequence[Vector], dim: int
                       ) -> tuple[list[Vector], list[Vector]]:
    """Generators (lines, rays) of {x : a . x >= 0 for a in ineqs}: one
    dd_step per normal, in order, from the whole space."""
    _, lines, zeros = reduce(dd_step, ineqs, dd_whole(dim))
    return list(lines), list(zeros)


def dd_cut(state: DDState, ineqs: Iterable[Sequence]) -> Optional[DDState]:
    """The state of a cone cut by ineqs, one dd_step each, or None at the
    first cut that leaves no relative interior.

    The cone must be full-dimensional in its linear span L, and every
    non-zero normal must be non-zero on L.  Then the cone stays
    full-dimensional in L under a . x >= 0 iff a is positive somewhere on
    its generators, for then {a . x > 0}, an open half of L, meets its
    relative interior (Fukuda-Prodon).  L is R^dim for a state cut from
    dd_whole(dim), and the hyperplane g . x = 0 for the face a facet normal
    g cuts out.  A zero normal cuts nothing.  The verdict is read off the
    cut: a is positive somewhere iff a ray of the cut lacks a's bit, for a
    line a is non-zero on becomes one, and else dd_step keeps the rays a is
    positive on and puts every other ray on a . x = 0."""
    for a in ineqs:
        n = len(state[0])
        state = dd_step(state, a)
        if len(state[0]) > n and all(m >> n & 1 for m in state[2].values()):
            return None
    return state


def holds_on(a: Sequence, state: DDState) -> bool:
    """Does a . x >= 0 hold on the cone with this double-description state:
    does a vanish on its lines and stay non-negative on its rays?"""
    return (not any(sum(map(mul, a, l)) for l in state[1])
            and all(sum(map(mul, a, r)) >= 0 for r in state[2]))


def ray_sum_witness(state: DDState, dim: int) -> Vector:
    """The primitive sum of the rays of a full-dimensional cone, given by
    its double-description state, checked to satisfy every normal of the
    state strictly (InvariantError if not)."""
    point = primitive([*map(sum, zip(*state[2]))] or [0] * dim)
    if not all(sum(map(mul, a, point)) > 0 for a in state[0]):
        raise InvariantError(f"ray sum {point} is not interior to {state[0]}")
    return point


def full_cut(cone: HCone) -> DDState:
    """dd_cut of a full-dimensional cone's normals from dd_whole; raises
    DegenerateConeError when dd_cut finds the cone's interior empty."""
    state = dd_cut(dd_whole(cone.dim), cone.ineqs)
    if state is None:
        raise DegenerateConeError(
            f"cone is not full-dimensional ({len(cone.ineqs)} inequalities in "
            f"dimension {cone.dim})")
    return state


def irredundant_h(cone: HCone) -> HCone:
    """Facet list of a full-dimensional cone, primitive and sorted, read
    off its full_cut (dd_step makes the normals primitive, skips zero ones)."""
    return HCone(cone.dim, facet_state(full_cut(cone))[0])


def facet_state(state: DDState) -> DDState:
    """The state of the same full-dimensional cone with its facets alone as
    normals, primitive and sorted, its lines and rays kept, and each ray's
    mask over those facets, all read off the masks of the given state.

    The face a cuts out is spanned by the lines, on which every normal
    vanishes, and the rays a vanishes on.  So faces compare by zero sets,
    and a facet, a maximal proper face, is a normal whose zero set no other
    normal's strictly contains (Ziegler, Lectures on Polytopes, ch. 2).
    The faces (bit j: ray j) take one pass over the masks' set bits; the
    distinct ones, largest first, are maximal iff no earlier maximal one
    contains them.  The kept facets' faces, transposed, are the new masks.
    """
    normals, lines, zeros = state
    faces = [0] * len(normals)
    for j, m in enumerate(zeros.values()):
        while m:
            faces[(m & -m).bit_length() - 1] |= 1 << j
            m &= m - 1
    top: list[int] = []
    for f in sorted(set(faces), key=int.bit_count, reverse=True):
        if not any(o & f == f for o in top):
            top.append(f)
    facets = sorted({a: f for a, f in zip(normals, faces) if f in top}.items())
    return tuple([a for a, _ in facets]), lines, {r: sum(
        1 << i for i, (_, f) in enumerate(facets) if f >> j & 1)
        for j, r in enumerate(zeros)}


def cone_from_rays(rays: VCone) -> HCone:
    """H-description of the conic hull of the given rays.

    dim independent rays span a simplicial cone: its facets, one dual to
    each ray in ray order, come from one exact elimination, as double
    description would give them.  Otherwise the dual cone {a : a . r >= 0
    for all rays r} is computed by double description; its lines (one pair
    of inequalities each) and rays become the inequalities.
    """
    if len(rays.rays) == rays.dim:
        d, facets = _gauss_jordan(rays.rays)
        if d:
            return HCone(rays.dim, facets)
    lines, dual_rays = double_description(rays.rays, rays.dim)
    ineqs: list[Vector] = []
    for l in lines:
        ineqs.append(l)
        ineqs.append(vneg(l))
    ineqs.extend(dual_rays)
    return hcone(ineqs, rays.dim)


def _as_hcone(c) -> HCone:
    if isinstance(c, HCone):
        return c
    if isinstance(c, VCone):
        return cone_from_rays(c)
    raise TypeError(f"expected HCone or VCone, got {type(c).__name__}")


def _contained(a, b) -> bool:
    """Is cone a a subset of cone b?

    Yes iff every generator of ``a`` satisfies b's inequalities.  An H-form
    ``a`` gets its generators by double description, unless every normal of
    ``b`` already appears among a's normals and so holds trivially.
    """
    hb = _as_hcone(b)
    if isinstance(a, VCone):
        return all(dot(g, r) >= 0 for g in hb.ineqs for r in a.rays)
    ha = _as_hcone(a)
    known = {primitive(g) for g in ha.ineqs}
    rest = [g for g in hb.ineqs if primitive(g) not in known]
    state = reduce(dd_step, ha.ineqs, dd_whole(ha.dim)) if rest else None
    return all(holds_on(g, state) for g in rest)


def cone_equal(a, b) -> bool:
    """Set equality of two cones (H or V form) via mutual containment.

    Equal cones given by their facets, or by rays on one side, compare
    without double description of an H-form.
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    return _contained(a, b) and _contained(b, a)


def subtract_full_dim(pieces: list[tuple[Vector, ...]],
                      ineqs: Sequence[Vector], dim: int
                      ) -> list[tuple[Vector, ...]]:
    """Full-dimensional parts of (union of pieces) minus {x : ineqs}.

    Each piece is an inequality tuple.  The difference against one convex
    piece P is the union over j of {g_1 >= 0, ..., g_{j-1} >= 0, g_j < 0};
    only full-dimensional parts are kept (interiors are what matter for
    coverage arguments over closed cones).  A part with a zero normal has
    none, as 0 . x > 0 has no solution; dd_cut decides the rest.
    """
    out = []
    for piece in pieces:
        acc = list(piece)
        for g in ineqs:
            cand = acc + [vneg(g)]
            if all(map(any, cand)) and dd_cut(dd_whole(dim), cand) is not None:
                out.append(tuple(cand))
            acc.append(g)
    return out
