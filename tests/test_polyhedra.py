import random
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import gcd

import pytest

from lp_oracles import (_lp_feasible, _lp_implies, _lp_interior_point,
                        _lp_irredundant_h, _rank_facets,
                        assert_state_invariants, bareiss_det, extreme_rays,
                        facets_from_generators, implies, lp_feasible,
                        matrix_rank)
from wordcones import polyhedra
from wordcones.lusztig import lusztig_cone
from wordcones.polyhedra import (DegenerateConeError, HCone, NonPointedError,
                                 VCone, _gauss_jordan, cone_equal,
                                 cone_from_rays, dd_cut, dd_simplex, dd_step,
                                 dd_whole, det, dot, double_description,
                                 hcone, identity, interior_point,
                                 irredundant_h, nonneg_orthant, primitive,
                                 solve_inequalities, subtract_full_dim, vcone,
                                 vneg)
from wordcones.rectangles import spanning_vectors
from wordcones.regions import orthant_restriction_analysis
from wordcones.words import ReducedWord, class_graph, random_reduced_word


def test_primitive_normalisation():
    assert primitive((4, -6, 0)) == (2, -3, 0)
    assert primitive((0, 0)) == (0, 0)
    assert primitive((Fraction(1, 2), Fraction(-3, 4))) == (2, -3)


def _reference_primitive(vec):
    """primitive without the integer fast path: every entry goes through
    Fraction."""
    fracs = [Fraction(x) for x in vec]
    denom = 1
    for f in fracs:
        denom = denom * f.denominator // gcd(denom, f.denominator)
    ints = [int(f * denom) for f in fracs]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g == 0:
        return tuple(0 for _ in ints)
    return tuple(x // g for x in ints)


def test_primitive_matches_fraction_reference():
    rng = random.Random(4)
    cases = [(3, -5, 7), (1,), (4, -6, 0), (-8, -12), (-3, 0, -9), (0, 7, 0),
             (2 ** 70, -2 ** 71), (0, 0, 0), (), [6, 9],
             (Fraction(1, 2), Fraction(-3, 4)), (Fraction(4), Fraction(-6)),
             (Fraction(2, 3), 4), (6, Fraction(-3), 0),
             (True, False, True), (True, 2), (False,)]
    cases += [tuple(rng.randrange(-9, 10) * rng.choice((1, 2, 6))
                    for _ in range(rng.randrange(6))) for _ in range(200)]
    for vec in cases:
        got = primitive(vec)
        assert got == _reference_primitive(vec), vec
        assert type(got) is tuple and all(type(x) is int for x in got), vec


def test_lp_feasible_examples():
    c = hcone([(1, 0), (-1, 0)], 2)
    assert lp_feasible(c)
    assert not lp_feasible(c, strict=[0])
    c2 = hcone([(1, 0)], 2)
    assert lp_feasible(c2, strict=[0])


def test_lp_feasible_empty_system():
    assert lp_feasible(hcone([], 3))


def test_solution_satisfies_system():
    rng = random.Random(42)
    for _ in range(50):
        dim = rng.randrange(2, 6)
        rows = [tuple(rng.randrange(-4, 5) for _ in range(dim))
                for _ in range(rng.randrange(1, 8))]
        rows = [r for r in rows if any(r)]
        rhs = [rng.randrange(0, 2) for _ in rows]
        sol = solve_inequalities(rows, rhs, dim)
        if sol is not None:
            assert all(dot(r, sol) >= b for r, b in zip(rows, rhs))


def _random_system(rng, dim):
    """Seeded normals: fewer than dim leave a lineality space, and a normal
    next to its negation leaves no interior."""
    rows = [tuple(rng.randrange(-3, 4) for _ in range(dim))
            for _ in range(rng.randrange(1, dim + 5))]
    rows = [r for r in rows if any(r)]
    if rows and rng.random() < 0.3:
        rows.append(vneg(rows[0]))
    return rows


def test_generator_predicates_match_lp_oracles_on_random_cones():
    rng = random.Random(61)
    shapes = set()
    for _ in range(150):
        dim = rng.randrange(2, 6)
        rows = _random_system(rng, dim)
        lines, rays = double_description(rows, dim)
        shapes.add((matrix_rank(lines + rays) == dim, bool(lines)))
        point = interior_point(rows, dim)
        assert (point is None) == (_lp_interior_point(rows, dim) is None), rows
        assert point is None or all(dot(a, point) > 0 for a in rows)
        probes = rows + [vneg(a) for a in rows] + [
            tuple(rng.randrange(-3, 4) for _ in range(dim)) for _ in range(4)]
        for a in probes:
            assert implies(rows, a, dim) == _lp_implies(rows, a, dim), (rows, a)
        cone = hcone(rows, dim)
        strict = [i for i in range(len(cone.ineqs)) if rng.random() < 0.5]
        assert lp_feasible(cone, strict) == _lp_feasible(cone, strict)
        try:
            expected = _lp_irredundant_h(cone)
        except DegenerateConeError:
            with pytest.raises(DegenerateConeError):
                irredundant_h(cone)
        else:
            assert irredundant_h(cone) == expected, rows
    # full-dimensional and not, pointed and not: all four occur
    assert shapes == {(True, False), (True, True), (False, False), (False, True)}


def _state_items(state):
    normals, lines, zeros = state
    return normals, lines, list(zeros.items())


def test_dd_cut_matches_lp_and_the_plain_fold():
    """dd_cut from R^dim is None iff the system's non-zero normals leave no
    interior (a zero normal cuts nothing), and otherwise is the plain
    dd_step fold, ray order and masks included.  Continuing from the state
    of a full-dimensional prefix gives the same answer."""
    rng = random.Random(83)
    shapes = set()
    for _ in range(150):
        dim = rng.randrange(2, 7)
        rows = _random_system(rng, dim)
        if rng.random() < 0.3:
            rows.insert(rng.randrange(len(rows) + 1), (0,) * dim)
        cut = dd_cut(dd_whole(dim), rows)
        nonzero = [a for a in rows if any(a)]
        lp = _lp_interior_point(nonzero, dim)
        assert (cut is None) == (lp is None), rows
        if cut is not None:
            assert _state_items(cut) == \
                _state_items(reduce(dd_step, rows, dd_whole(dim))), rows
        split = rng.randrange(len(rows) + 1)
        head = dd_cut(dd_whole(dim), rows[:split])
        if head is not None:
            tail = dd_cut(head, rows[split:])
            assert (tail is None) == (cut is None), (rows, split)
            assert tail is None or _state_items(tail) == _state_items(cut)
        shapes.add((cut is not None, bool(cut and cut[1]),
                    len(nonzero) < len(rows), 0 < split < len(rows)))
    # with and without interior, lines and zero normals; split mid-system
    assert {(True, True, True, True), (True, False, True, True),
            (True, False, False, True), (False, False, False, True),
            (False, False, True, True)} <= shapes, shapes


def test_dd_states_describe_themselves_on_seeded_folds():
    """After every dd_step of seeded systems with repeated, scaled and zero
    normals, and after every dd_cut that keeps an interior, the state's
    normals are the non-zero normals cut, made primitive, its masks are its
    rays' zero sets among them, and its lines vanish on all of them."""
    rng = random.Random(41)
    shapes = set()
    for _ in range(150):
        dim = rng.randrange(2, 6)
        rows = _random_system(rng, dim)
        a = rng.choice(rows)
        rows += [a, tuple(2 * x for x in a), (0,) * dim]
        rng.shuffle(rows)
        state = dd_whole(dim)
        for j, a in enumerate(rows):
            state = dd_step(state, a)
            assert_state_invariants(state, rows[:j + 1])
        cut = dd_cut(dd_whole(dim), rows)
        if cut is not None:
            assert_state_invariants(cut, rows)
        shapes.add((cut is not None, bool(state[1])))
    # with and without interior, with and without lines
    assert shapes == {(True, True), (True, False), (False, True),
                      (False, False)}, shapes


def test_interior_point_rejects_zero_normals():
    assert interior_point([(0, 0)], 2) is None
    assert interior_point([(1, 0), (0, 0)], 2) is None
    assert interior_point([], 2) is not None


def test_irredundant_drops_implied():
    c = hcone([(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)], 3)
    red = irredundant_h(c)
    assert set(red.ineqs) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_irredundant_each_facet_necessary():
    c = irredundant_h(hcone([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], 3))
    for i, g in enumerate(c.ineqs):
        rest = [a for j, a in enumerate(c.ineqs) if j != i]
        assert not implies(rest, g, 3)


def test_irredundant_order_independent():
    rng = random.Random(9)
    base = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (2, 1, 1)]
    reference = irredundant_h(hcone(base, 3)).ineqs
    for _ in range(5):
        shuffled = base[:]
        rng.shuffle(shuffled)
        assert irredundant_h(hcone(shuffled, 3)).ineqs == reference


def test_irredundant_rejects_degenerate():
    with pytest.raises(DegenerateConeError):
        irredundant_h(hcone([(1, 0), (-1, 0)], 2))


def _checked_facets(normals, dim, rng):
    """Facets of {x : a . x >= 0 for a in normals} read off the masks by
    irredundant_h, given the normals as they are, checked against the
    dot-product zero sets, the rank rule and the LP on its DD generators, and
    again on those rays shuffled with redundant generators mixed in; None
    unless the cone is full-dimensional."""
    lines, rays = double_description(normals, dim)
    if matrix_rank(lines + rays) != dim:
        with pytest.raises(DegenerateConeError):
            irredundant_h(HCone(dim, tuple(normals)))
        return None
    got = irredundant_h(HCone(dim, tuple(normals)))
    assert got == facets_from_generators(normals, rays, dim) == \
        _rank_facets(normals, lines, rays, dim) == \
        _lp_irredundant_h(hcone(normals, dim)), normals
    extra = [tuple(map(sum, zip(r, s))) for r, s in zip(rays, rays[1:])]
    extra += [tuple(map(sum, zip(r, l))) for r in rays[:1] for l in lines]
    gens = rays + extra
    rng.shuffle(gens)
    assert facets_from_generators(normals, gens, dim) == got, normals
    return got


def test_zero_set_facets_match_rank_and_lp_on_seeded_cones():
    """Seeded systems, some with lines and some with duplicate, scaled
    (non-primitive) and zero normals, and half-spaces (one ray plus dim - 1
    lines)."""
    rng = random.Random(29)
    shapes = set()
    for _ in range(150):
        dim = rng.randrange(2, 6)
        normals = _random_system(rng, dim)
        if normals and rng.random() < 0.5:
            a, b = rng.choice(normals), rng.choice(normals)
            normals += [a, tuple(3 * x for x in b), (0,) * dim]
            rng.shuffle(normals)
        if _checked_facets(normals, dim, rng) is not None:
            lines = double_description(normals, dim)[0]
            shapes.add((bool(lines), len(set(normals)) < len(normals),
                        (0,) * dim in normals))
    assert {(True, False, False), (False, True, True), (True, True, True)} <= shapes
    for dim in range(1, 6):
        a = (0,) * dim
        while not any(a):
            a = tuple(rng.randrange(-3, 4) for _ in range(dim))
        halfspace = [a, (0,) * dim, tuple(2 * x for x in a), a]
        assert len(double_description(halfspace, dim)[0]) == dim - 1
        assert _checked_facets(halfspace, dim, rng).ineqs == (primitive(a),)
    assert _checked_facets([(0, 0)], 2, rng).ineqs == ()


def test_extreme_rays_orthant():
    assert extreme_rays(nonneg_orthant(3)).rays == \
        ((0, 0, 1), (0, 1, 0), (1, 0, 0))


def test_dd_orthant_is_the_unit_normal_fold_from_the_whole_space():
    for dim in range(1, 16):
        normals, lines, zeros = dd_simplex(identity(dim), identity(dim))
        folded = reduce(dd_step, identity(dim), dd_whole(dim))
        assert (normals, lines) == folded[:2] == (identity(dim), ())
        assert list(zeros.items()) == list(folded[2].items())  # order too


def test_extreme_rays_halfplane_wedge():
    c = hcone([(1, 0), (0, 1), (1, -1)], 2)
    assert set(extreme_rays(c).rays) == {(1, 0), (1, 1)}


def test_extreme_rays_reports_non_pointed():
    with pytest.raises(NonPointedError) as err:
        extreme_rays(hcone([(1, 0)], 2))
    witness = err.value.witness
    assert witness[0] == 0 and witness[1] != 0


def test_cone_from_rays_single_ray():
    h = cone_from_rays(vcone([(1, 1)], 2))
    expected = hcone([(1, -1), (-1, 1), (1, 0)], 2)
    assert cone_equal(h, expected)
    assert set(h.ineqs) == set(expected.ineqs)


def test_cone_from_rays_orthant():
    h = cone_from_rays(vcone([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3))
    assert cone_equal(h, nonneg_orthant(3))


def _random_pointed_cone(rng, dim, extra):
    # rays in the open halfspace x_0 > 0 form a pointed, full-dimensional cone
    rays = [tuple([1] + [0] * (dim - 1))]
    for i in range(1, dim):
        rays.append(tuple(1 if j in (0, i) else 0 for j in range(dim)))
    for _ in range(extra):
        rays.append(tuple([rng.randrange(1, 5)] +
                          [rng.randrange(-3, 4) for _ in range(dim - 1)]))
    return vcone(rays, dim)


def test_round_trip_random_cones():
    rng = random.Random(77)
    for dim in (2, 3, 4, 6, 10):
        for _ in range(3):
            v = _random_pointed_cone(rng, dim, extra=3)
            h = cone_from_rays(v)
            v2 = extreme_rays(h)
            assert cone_equal(cone_from_rays(v2), h)
            assert set(v2.rays) <= set(v.rays)


def _reference_double_description(ineqs, dim):
    """double_description before zero sets became bit masks, verbatim but
    for the Fraction-only primitive; the oracle for rays, lines and order."""
    lines = [tuple(1 if i == j else 0 for j in range(dim))
             for i in range(dim)]
    rays = []
    processed = []

    def zeroset(r):
        return frozenset(i for i, a in enumerate(processed) if dot(a, r) == 0)

    for a in ineqs:
        a = _reference_primitive(a)
        if all(x == 0 for x in a):
            continue
        dl = [dot(a, l) for l in lines]
        pivot = next((i for i, d in enumerate(dl) if d != 0), None)
        if pivot is not None:
            z, dz = lines[pivot], dl[pivot]
            if dz < 0:
                z, dz = vneg(z), -dz
            new_lines = []
            for i, l in enumerate(lines):
                if i == pivot:
                    continue
                new_lines.append(_reference_primitive(
                    tuple(dz * x - dl[i] * y for x, y in zip(l, z))))
            new_rays = []
            for r in rays:
                dr = dot(a, r)
                new_rays.append(_reference_primitive(
                    tuple(dz * x - dr * y for x, y in zip(r, z))))
            new_rays.append(z)
            lines = new_lines
            rays = list(dict.fromkeys(new_rays))
        else:
            pos = [r for r in rays if dot(a, r) > 0]
            neg = [r for r in rays if dot(a, r) < 0]
            if neg:
                zero = [r for r in rays if dot(a, r) == 0]
                keep = pos + zero
                zsets = {r: zeroset(r) for r in rays}
                new = []
                for p in pos:
                    dp = dot(a, p)
                    for n in neg:
                        common = zsets[p] & zsets[n]
                        if any(common <= zsets[r] for r in rays
                               if r is not p and r is not n):
                            continue
                        dn = dot(a, n)
                        new.append(_reference_primitive(
                            tuple(dp * x - dn * y for x, y in zip(n, p))))
                rays = list(dict.fromkeys(keep + new))
        processed.append(a)
    return lines, rays


def _same_as_reference(ineqs, dim):
    got = double_description(ineqs, dim)
    assert got == _reference_double_description(ineqs, dim), (ineqs, dim)
    return got


def test_double_description_matches_reference_on_random_cones():
    rng = random.Random(31)
    shapes = set()
    for dim in range(2, 8):
        for _ in range(40):
            rows = [tuple(rng.randrange(-3, 4) for _ in range(dim))
                    for _ in range(rng.randrange(13))]
            if rng.random() < 0.5:
                rows += list(nonneg_orthant(dim).ineqs)
                rng.shuffle(rows)
            lines, rays = _same_as_reference(rows, dim)
            shapes.add((bool(lines), bool(rays)))
    # pointed, the origin alone, a linear subspace, a non-pointed wedge
    assert shapes == {(False, True), (False, False), (True, False), (True, True)}


def test_dd_step_loop_matches_reference_on_every_prefix():
    """Stepping one normal at a time gives the reference generators of every
    prefix, leaves the state it started from untouched, and keeps each ray's
    mask equal to its zero set among the non-zero normals so far."""
    rng = random.Random(37)
    for dim in range(2, 7):
        for _ in range(25):
            rows = [tuple(rng.randrange(-3, 4) for _ in range(dim))
                    for _ in range(rng.randrange(1, 11))]
            rows.insert(rng.randrange(len(rows) + 1), (0,) * dim)
            state = dd_whole(dim)
            for j, a in enumerate(rows):
                before = _state_items(state)
                new = dd_step(state, a)
                assert _state_items(state) == before
                state = new
                _, lines, zeros = state
                assert (list(lines), list(zeros)) == \
                    _reference_double_description(rows[:j + 1], dim)
                normals = [primitive(b) for b in rows[:j + 1] if any(b)]
                for r, mask in zeros.items():
                    assert mask == sum(1 << i for i, b in enumerate(normals)
                                       if dot(b, r) == 0)


def test_dd_step_pairing_rejects_a_pair_by_the_mask_count(monkeypatch):
    """K x R^2_+ in R^5, K the 3-dim cone over a square, with the redundant
    x4 + x5 >= 0 so that K's four rays share three zeros, then cut by
    2 x2 + x3 >= 0.  Both diagonals of the square pass the bit-count filter
    (3 >= 5 - 2 zeros) and are rejected because all four rays of K contain
    their common zeros; the two edges the hyperplane crosses are paired."""
    real, verdicts = polyhedra._shared_by_three, []
    monkeypatch.setattr(polyhedra, "_shared_by_three",
                        lambda common, masks:
                        verdicts.append(real(common, masks)) or verdicts[-1])
    rows = [(1, 1, 0, 0, 0), (1, -1, 0, 0, 0), (1, 0, 1, 0, 0), (1, 0, -1, 0, 0),
            (0, 0, 0, 1, 0), (0, 0, 0, 0, 1), (0, 0, 0, 1, 1), (0, 2, 1, 0, 0)]
    state = dd_whole(5)
    for j, a in enumerate(rows):
        state = dd_step(state, a)
        normals, lines, zeros = state
        assert normals == tuple(rows[:j + 1])
        assert (list(lines), list(zeros)) == \
            _reference_double_description(rows[:j + 1], 5)
        for r, mask in zeros.items():
            assert mask == sum(1 << i for i, b in enumerate(normals)
                               if dot(b, r) == 0)
    # the square's first cut pairs two edges; the last pairs the two edges
    # it crosses and rejects both diagonals
    assert verdicts == [False, False, False, True, True, False]
    assert not lines and len(zeros) == 6


def test_double_description_matches_reference_on_rank5_words():
    rng = random.Random(5)
    for _ in range(100):
        w = random_reduced_word(5, rng)
        lc = lusztig_cone(w)
        h = hcone(lc.cone.ineqs + identity(lc.cone.dim), lc.cone.dim)
        _same_as_reference(h.ineqs, h.dim)
        v = vcone(spanning_vectors(w), len(w.letters))
        _same_as_reference(v.rays, v.dim)


def test_double_description_matches_reference_on_simplicial_candidates(atlas3):
    k, seen = atlas3.dim, 0
    for r in orthant_restriction_analysis(atlas3):
        if r.region_facets != 4:
            continue
        cone = irredundant_h(hcone(atlas3.regions[r.region_index].cone.ineqs
                                   + nonneg_orthant(k).ineqs, k))
        _same_as_reference(cone.ineqs, k)
        for subset in combinations(extreme_rays(cone).rays, k):
            if det(subset) != 0:
                _same_as_reference(subset, k)
                # the written-down state of the piece is its facets' fold
                facets = _gauss_jordan(subset)[1]
                assert dd_simplex(subset, facets) == \
                    reduce(dd_step, facets, dd_whole(k))
                seen += 1
    assert seen == 20


def _kernel_direction(rows, dim):
    """A nonzero rational solution of rows . x = 0, or None."""
    from fractions import Fraction
    m = [[Fraction(x) for x in r] for r in rows]
    lead = {}
    rank = 0
    for c in range(dim):
        piv = next((r for r in range(rank, len(m)) if m[r][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c] != 0:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        lead[rank] = c
        rank += 1
    free = [c for c in range(dim) if c not in lead.values()]
    if not free:
        return None
    vec = [Fraction(0)] * dim
    vec[free[0]] = Fraction(1)
    for r, c in lead.items():
        vec[c] = -m[r][free[0]]
    return vec


def _brute_force_rays(ineqs, dim):
    """Reference extreme-ray enumeration: directions cut out by (dim-1)
    independent active hyperplanes, kept when feasible and extreme."""
    from itertools import combinations

    out = set()
    for subset in combinations(range(len(ineqs)), dim - 1):
        rows = [ineqs[i] for i in subset]
        if matrix_rank(rows) != dim - 1:
            continue
        vec = _kernel_direction(rows, dim)
        if vec is None:
            continue
        for cand in (primitive(vec), primitive([-x for x in vec])):
            if all(dot(a, cand) >= 0 for a in ineqs):
                active = [a for a in ineqs if dot(a, cand) == 0]
                if matrix_rank(active) == dim - 1:
                    out.add(cand)
    return out


def test_extreme_rays_against_brute_force():
    rng = random.Random(404)
    for _ in range(15):
        dim = rng.randrange(2, 5)
        ineqs = []
        while len(ineqs) < dim + 2:
            v = tuple(rng.randrange(-3, 4) for _ in range(dim))
            if any(v):
                ineqs.append(v)
        eye = [tuple(1 if i == j else 0 for j in range(dim))
               for i in range(dim)]
        cone = hcone(ineqs + eye, dim)  # the orthant part keeps it pointed
        assert set(extreme_rays(cone).rays) == _brute_force_rays(cone.ineqs, dim)


def test_cone_equal_examples():
    orth = nonneg_orthant(3)
    assert cone_equal(orth, orth)
    assert cone_equal(orth, extreme_rays(orth))
    from wordcones.lusztig import lusztig_cone
    from wordcones.words import parse_word
    c = hcone(lusztig_cone(parse_word("132132")).cone.ineqs + identity(6), 6)
    assert not cone_equal(c, nonneg_orthant(6))
    # witness: e_1 is in the orthant but violates c >= a + d
    assert not c.contains((1, 0, 0, 0, 0, 0))


def test_cone_equal_mixed_forms():
    orth = nonneg_orthant(2)
    wedge = vcone([(1, 0), (1, 1)], 2)
    assert not cone_equal(wedge, orth) and not cone_equal(orth, wedge)
    assert cone_equal(vcone([(1, 0), (0, 1), (1, 1)], 2), orth)
    redundant = hcone([(1, 0), (0, 1), (1, 1)], 2)
    assert cone_equal(redundant, orth) and cone_equal(orth, redundant)
    assert not cone_equal(hcone([(1, 0)], 2), orth)


def test_subtract_full_dim_covers():
    orth = nonneg_orthant(2)
    half = ((1, -1),)
    remainder = subtract_full_dim([tuple(orth.ineqs)], half, 2)
    assert len(remainder) == 1
    # remainder is the wedge 0 <= x1 <= x2
    assert interior_point(remainder[0], 2) is not None
    gone = subtract_full_dim(remainder, ((-1, 1),), 2)
    assert gone == []


def _fraction_rank(rows):
    """Reference rank: Gauss-Jordan elimination over Fractions."""
    m = [list(map(Fraction, row)) for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        m[rank] = [x / m[rank][col] for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def _fraction_det(matrix):
    """Reference determinant: triangulation over Fractions."""
    m = [list(map(Fraction, row)) for row in matrix]
    out = Fraction(1)
    for col in range(len(m)):
        pivot = next((r for r in range(col, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            out = -out
        out *= m[col][col]
        for r in range(col + 1, len(m)):
            f = m[r][col] / m[col][col]
            m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return out


def test_matrix_rank_edge_cases():
    assert matrix_rank([]) == _fraction_rank([]) == 0
    assert matrix_rank([[]]) == 0
    assert matrix_rank([[0, 0, 0], [0, 0, 0]]) == 0
    assert matrix_rank([[0, 0, 3]]) == 1
    assert matrix_rank([[0, 1, 2, 3], [0, 2, 4, 7]]) == 2  # wide, skips col 0
    assert matrix_rank([[1], [2], [0], [-5]]) == 1  # tall
    assert det([]) == 1
    assert det([[0, 1], [1, 0]]) == -1
    assert det([[1, 2], [2, 4]]) == 0


def test_matrix_rank_against_fraction_elimination():
    rng = random.Random(17)
    for _ in range(60):
        nrows, ncols = rng.randrange(1, 7), rng.randrange(1, 7)
        rows = [[rng.randrange(-3, 4) for _ in range(ncols)]
                for _ in range(nrows)]
        assert matrix_rank(rows) == _fraction_rank(rows)


def test_matrix_rank_of_low_rank_products():
    rng = random.Random(23)
    for _ in range(40):
        n, m, r = rng.randrange(2, 7), rng.randrange(2, 7), rng.randrange(0, 4)
        a = [[rng.randrange(-4, 5) for _ in range(r)] for _ in range(n)]
        b = [[rng.randrange(-4, 5) for _ in range(m)] for _ in range(r)]
        prod = [[sum(a[i][t] * b[t][j] for t in range(r)) for j in range(m)]
                for i in range(n)]
        assert matrix_rank(prod) == _fraction_rank(prod) <= min(r, n, m)


def test_det_against_fraction_elimination():
    rng = random.Random(31)
    for _ in range(100):
        mat = [[rng.randrange(-5, 6) for _ in range(4)] for _ in range(4)]
        assert det(mat) == _fraction_det(mat)
    singular = [[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 0, 1], [5, 0, 5, 0]]
    assert det(singular) == _fraction_det(singular) == 0


def _random_square(rng, n):
    """An n x n matrix with entries -3..3; one in three is made singular by
    replacing a row with a combination of two others, or with zeros."""
    mat = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
    if n and rng.randrange(3) == 0:
        i, j, l = (rng.randrange(n) for _ in range(3))
        mat[i] = ([0] * n if n < 3 or len({i, j, l}) < 3 else
                  [2 * x - y for x, y in zip(mat[j], mat[l])])
    return mat


def test_det_matches_bareiss_oracle_at_dimensions_0_to_8():
    rng = random.Random(2024)
    singular = 0
    for n in range(9):
        for _ in range(60):
            mat = _random_square(rng, n)
            assert det(mat) == bareiss_det(mat), mat
            singular += det(mat) == 0
    assert singular > 100


def _dd_dual(rays, dim):
    """The facets double description gives for the cone on dim independent
    rays: the rays of the dual cone, in output order, and no line."""
    lines, dual = double_description(rays, dim)
    assert lines == []
    return tuple(dual)


def test_cone_from_rays_on_independent_rays_equals_the_dd_dual(monkeypatch):
    gcds = []  # (entries, gcd) of each gcd cone_from_rays takes

    def recorded(*xs):
        gcds.append((len(xs), gcd(*xs)))
        return gcds[-1][1]

    rng = random.Random(99)
    non_unimodular = divided = 0
    for k in range(1, 8):
        for _ in range(40):
            mat = [[rng.randrange(-3, 4) for _ in range(k)] for _ in range(k)]
            d = det(mat)
            if d == 0:
                continue
            non_unimodular += abs(d) > 1
            rays = VCone(k, tuple(map(primitive, mat)))
            gcds.clear()
            with monkeypatch.context() as patch:
                patch.setattr(polyhedra, "gcd", recorded)
                h = cone_from_rays(rays)
            # a row of [R^T | I] has 2k entries, a facet k
            divided += any(n == 2 * k and g > 1 for n, g in gcds)
            assert h.ineqs == _dd_dual(rays.rays, k), mat
            # facet i is zero on every other ray and positive on ray i
            assert all((dot(a, r) > 0) == (i == j)
                       for i, a in enumerate(h.ineqs)
                       for j, r in enumerate(rays.rays))
            # and dd_simplex writes down the state their fold gives
            assert dd_simplex(rays.rays, h.ineqs) == \
                reduce(dd_step, h.ineqs, dd_whole(k))
    assert non_unimodular > 100 and divided > 20


def test_cone_from_rays_on_rank5_class_spanning_sets_equals_the_dd_dual():
    classes = sorted(class_graph(5))
    assert len(classes) == 908
    for canonical in classes:
        vecs = spanning_vectors(ReducedWord(5, canonical))
        spanned = vcone(vecs, 15)
        assert cone_from_rays(spanned).ineqs == _dd_dual(spanned.rays, 15)


def test_cone_from_rays_takes_dd_off_independent_sets(monkeypatch):
    calls = []

    def counted(ineqs, dim):
        calls.append(len(ineqs))
        return double_description(ineqs, dim)

    monkeypatch.setattr(polyhedra, "double_description", counted)
    independent = vcone([(1, 0, 1), (0, 2, 1), (1, 1, 0)], 3)
    singular = vcone([(1, 0, 1), (0, 1, 1), (1, 1, 2)], 3)
    extra = vcone([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], 3)
    assert cone_from_rays(independent).ineqs == _dd_dual(independent.rays, 3)
    assert calls == []
    expected = hcone([(1, 1, -1), (-1, -1, 1), (1, 0, 0), (0, 1, 0)], 3)
    assert cone_equal(cone_from_rays(singular), expected)
    assert calls == [3]
    assert set(cone_from_rays(extra).ineqs) == set(identity(3))
    assert calls == [3, 4]
