"""Command-line interface: every computation as a subcommand, JSON on stdout.

Exit status: 0 on success, 1 on a domain error (bad word, malformed quiver,
out-of-range rank), 2 on a verification failure or a usage error, 3 when a
proven invariant fails (an InvariantError, which is a bug).  Output is
deterministic; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from . import __version__
from .chambers import chamber_sets, render_wiring
from .lusztig import lusztig_cone, spanning_rays
from .polyhedra import InvariantError
from .quivers import (PartialQuiver, enumerate_partial_quivers,
                      quivers_for_word)
from .rectangles import (centre_and_central_line, components,
                         configuration_for_quiver, corner_root_sets,
                         diagonal_counts, phi_plus, quiver_vector,
                         rectangle_for_component, render_configuration_svg)
from .regions import (braid_move_count, class_region_isomorphism_report,
                      detour_move_path, evaluate_along, match_spanned_regions,
                      orthant_restriction_analysis, simplicial_decomposition,
                      standard_atlas, transition_atlas)
from .words import (ReducedWord, commutation_classes, enumerate_reduced_words,
                    find_move_path, format_letters, is_reduced,
                    longest_word_length, parse_letters, parse_word,
                    standard_words)


def _emit(payload) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _frac_str(value) -> str:
    f = Fraction(value)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _parse_word_arg(args) -> ReducedWord:
    return parse_word(args.word, getattr(args, "rank", None))


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------

def cmd_words(args) -> int:
    rank = args.rank
    if args.action in ("list", "classes", "standard") and rank is None:
        raise ValueError(f"words {args.action} needs --rank")
    if args.action == "check" and args.word is None:
        raise ValueError("words check needs --word")
    if args.action != "check" and args.word is not None:
        raise ValueError(f"words {args.action} takes no --word")
    if args.action in ("standard", "check") and args.count:
        raise ValueError(f"words {args.action} takes no --count")
    if args.action == "list":
        words = enumerate_reduced_words(rank)
        payload = {"rank": rank, "count": len(words)}
        if not args.count:
            payload["words"] = [str(w) for w in words]
    elif args.action == "classes":
        classes = commutation_classes(rank)
        payload = {"rank": rank, "count": len(classes)}
        if not args.count:
            payload["classes"] = [
                {"canonical": format_letters(c.canonical, rank), "size": c.size}
                for c in classes]
    elif args.action == "standard":
        j, jp = standard_words(rank)
        payload = {"rank": rank, "j": str(j), "j_prime": str(jp)}
    else:  # check works on arbitrary words, not only reduced ones
        letters = parse_letters(args.word)
        rank = rank if rank is not None else max(letters)
        check = is_reduced(letters, rank)
        payload = {"word": format_letters(letters, rank), "rank": rank,
                   "reduced": check.reduced, "is_longest": check.is_longest}
    _emit(payload)
    return 0


# ---------------------------------------------------------------------------
# chambers / quivers
# ---------------------------------------------------------------------------

def cmd_chambers(args) -> int:
    word = _parse_word_arg(args)
    if args.render:
        sys.stdout.write(render_wiring(word, args.render))
        return 0
    _emit({
        "word": str(word),
        "rank": word.rank,
        "chambers": [{"gap": cs.gap, "interval": cs.interval,
                      "members": sorted(cs.members),
                      "start": cs.start, "end": cs.end}
                     for cs in chamber_sets(word)],
    })
    return 0


def cmd_quivers(args) -> int:
    word = _parse_word_arg(args)
    if args.with_chamber_sets:
        pairs = zip(chamber_sets(word), quivers_for_word(word))
        _emit({
            "word": str(word),
            "rank": word.rank,
            "quivers": [{"quiver": str(q), "chamber_set": sorted(cs.members)}
                        for cs, q in pairs],
        })
    else:
        for q in quivers_for_word(word):
            sys.stdout.write(str(q) + "\n")
    return 0


# ---------------------------------------------------------------------------
# cone
# ---------------------------------------------------------------------------

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _pretty_inequality(normal) -> str:
    def side(sign):
        terms = []
        for idx, coef in enumerate(normal):
            if coef * sign > 0:
                mag = abs(coef)
                terms.append(f"{'' if mag == 1 else mag}{_LETTERS[idx]}")
        return " + ".join(terms) if terms else "0"

    return f"{side(+1)} >= {side(-1)}"


def cmd_cone(args) -> int:
    word = _parse_word_arg(args)
    lc = lusztig_cone(word)
    payload = {"word": str(word), "rank": word.rank, "cone": lc.cone.to_json()}
    if len(word.letters) <= 26:
        payload["inequalities"] = [_pretty_inequality(a) for a in lc.cone.ineqs]
    if args.rays:
        payload["rays"] = spanning_rays(word).to_json()
    _emit(payload)
    return 0


# ---------------------------------------------------------------------------
# rectangles
# ---------------------------------------------------------------------------

def cmd_rectangles(args) -> int:
    quiver = PartialQuiver(args.rank, args.quiver)
    if args.render:
        sys.stdout.write(render_configuration_svg(quiver))
        return 0
    comps = components(quiver)
    config = configuration_for_quiver(quiver)
    (u0, w0), line_x = centre_and_central_line(config)
    nw_se, ne_sw = diagonal_counts(config)
    corners = corner_root_sets(quiver)
    _emit({
        "quiver": str(quiver),
        "rank": quiver.rank,
        "components": [{"kind": c.kind, "a": c.a, "b": c.b} for c in comps],
        "rectangles": [
            [r.top, r.left, r.right, r.bottom]
            for r in (rectangle_for_component(c, quiver.rank) for c in comps)],
        "diagonal_counts": {"nw_se": list(nw_se), "ne_sw": list(ne_sw)},
        "centre": {"u": _frac_str(u0), "w": _frac_str(w0),
                   "x": _frac_str(line_x)},
        "corners": [{"u": cp.u, "w": cp.w, "side": cp.side,
                     "box": list(cp.box),
                     "roots": [list(r) for r in roots]}
                    for cp, roots in corners],
        "phi_plus": sorted([list(r) for r in phi_plus(quiver)]),
        "vector": list(quiver_vector(quiver)),
    })
    return 0


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------

def _write_atlas(atlas, fh) -> None:
    """The atlas artifact, json.dump(payload, fh, indent=2, sort_keys=True)
    and a newline, written one region at a time."""
    head, tail = json.dumps({"dst": str(atlas.dst), "rank": atlas.src.rank,
                             "regions": [None], "src": str(atlas.src)},
                            indent=2, sort_keys=True).split("    null")
    fh.write(head)
    for i, r in enumerate(atlas.regions):
        region = {"facets": r.facet_count,
                  "ineqs": [list(map(str, g)) for g in r.cone.ineqs],
                  "matrix": [list(map(str, row)) for row in r.matrix]}
        fh.write((",\n    " if i else "    ") + json.dumps(
            region, indent=2, sort_keys=True).replace("\n", "\n    "))
    fh.write(tail + "\n")


def cmd_regions(args) -> int:
    atlas = standard_atlas(args.rank)
    payload = {
        "rank": args.rank,
        "src": str(atlas.src),
        "dst": str(atlas.dst),
        "region_count": len(atlas.regions),
        "braid_moves": braid_move_count(atlas.moves),
    }
    if args.histogram or not (args.match_classes or args.orthant
                              or args.isomorphism or args.json_file):
        payload["histogram"] = {str(k): v for k, v in atlas.histogram().items()}
    if args.match_classes or args.isomorphism:
        report = match_spanned_regions(atlas)
    if args.match_classes:
        payload["match"] = {
            "ok": report.ok,
            "minimal_facets": report.minimal_facets,
            "matches": [{"class": format_letters(m.canonical, args.rank),
                         "region": m.region_index}
                        for m in report.matches],
        }
        if report.unmatched:
            payload["match"]["unmatched"] = [format_letters(c, args.rank)
                                             for c in report.unmatched]
    if args.orthant:
        payload["orthant"] = [
            {"region": r.region_index, "facets": r.region_facets,
             "restricted_facets": r.restricted_facets}
            for r in orthant_restriction_analysis(atlas)]
    if args.isomorphism:
        payload["isomorphism"] = class_region_isomorphism_report(atlas, report)
    if args.json_file:
        with open(args.json_file, "w", encoding="utf-8") as fh:
            _write_atlas(atlas, fh)
        payload["written"] = args.json_file
    _emit(payload)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _check(checks, name, expected, actual):
    ok = expected == actual
    checks.append({"name": name, "expected": repr(expected),
                   "actual": repr(actual), "pass": ok})
    sys.stderr.write(f"{'ok  ' if ok else 'FAIL'} {name}: expected "
                     f"{expected!r}, got {actual!r}\n")


def _verify_rank(checks, rank, expect_words, expect_classes, expect_hist):
    if expect_words is not None:
        _check(checks, f"a{rank}.reduced_words", expect_words,
               len(enumerate_reduced_words(rank)))
    _check(checks, f"a{rank}.commutation_classes", expect_classes,
           len(commutation_classes(rank)))
    atlas = standard_atlas(rank)
    _check(checks, f"a{rank}.regions", sum(expect_hist.values()),
           len(atlas.regions))
    _check(checks, f"a{rank}.facet_histogram", expect_hist, atlas.histogram())
    report = match_spanned_regions(atlas)
    _check(checks, f"a{rank}.class_region_match", (True, expect_classes),
           (report.ok, len(report.matches)))
    return atlas


def _verify_a2(checks):
    _verify_rank(checks, 2, 2, 2, {1: 2})


def _verify_a3(checks):
    atlas = _verify_rank(checks, 3, 16, 8, {3: 8, 4: 2})
    lc = lusztig_cone(parse_word("132132"))
    expected = [(-1, 0, 1, -1, 0, 0), (0, -1, 1, 0, -1, 0), (0, 0, -1, 1, 1, -1)]
    _check(checks, "a3.lusztig_cone_132132", expected, sorted(lc.cone.ineqs))
    restrictions = orthant_restriction_analysis(atlas)
    restricted = sorted((r.region_facets, r.restricted_facets)
                        for r in restrictions)
    _check(checks, "a3.orthant_counts",
           [(3, 6)] * 8 + [(4, 8), (4, 9)], restricted)
    sizes = []
    for r in restrictions:
        if r.region_facets == 4:
            dec = simplicial_decomposition(r.cone)
            sizes.append((r.restricted_facets, len(dec.pieces), dec.minimal))
    _check(checks, "a3.simplicial_decompositions",
           [(8, 2, True), (9, 4, True)], sorted(sizes))


def _verify_a4(checks):
    _verify_rank(checks, 4, None, 62, {6: 62, 7: 70, 8: 10, 11: 2})
    word = parse_word("2343121324")
    sets = sorted(sorted(cs.members) for cs in chamber_sets(word))
    _check(checks, "a4.chamber_sets_golden",
           sorted([[2, 5], [2, 4, 5], [2], [2, 4], [1, 2, 4, 5], [1, 2, 4]]),
           sets)
    _check(checks, "a4.quiver_set_golden",
           sorted(["RRL", "-RL", "--L", "LRL", "-R-", "LR-"]),
           sorted(str(q) for q in quivers_for_word(word)))


def _verify_properties(checks):
    rng = random.Random(20260808)
    for rank in (2, 3, 4):
        j, jp = standard_words(rank)
        atlas = standard_atlas(rank)
        k = longest_word_length(rank)
        fwd = list(atlas.moves)
        bwd = find_move_path(jp, j)
        bad = 0
        for _ in range(10_000):
            x = tuple(rng.randrange(0, 50) for _ in range(k))
            y = evaluate_along(x, j.letters, fwd)
            if evaluate_along(y, jp.letters, bwd) != x:
                bad += 1
                continue
            region = atlas.region_containing(x)
            if region.apply(x) != y or not region.cone.contains(x):
                bad += 1
        _check(checks, f"properties.bijectivity_and_atlas_rank{rank}", 0, bad)
    bad = 0
    for rank in range(2, 9):
        for quiver in enumerate_partial_quivers(rank):
            try:
                phi_plus(quiver)
            except InvariantError:
                bad += 1
    _check(checks, "properties.phi_plus_disjoint_ranks_le_8", 0, bad)
    bad = 0
    for rank in (1, 2, 3, 4):
        for word in enumerate_reduced_words(rank):
            try:
                chamber_sets(word)
            except InvariantError:
                bad += 1
    _check(checks, "properties.chamber_sets_never_initial_terminal", 0, bad)
    for rank in (2, 3):
        j, jp = standard_words(rank)
        a1 = standard_atlas(rank)
        a2 = transition_atlas(j, jp, detour_move_path(j, jp))
        _check(checks, f"properties.path_independence_rank{rank}",
               sorted((r.matrix, r.cone.ineqs) for r in a1.regions),
               sorted((r.matrix, r.cone.ineqs) for r in a2.regions))


_SUITES = {
    "a2": _verify_a2,
    "a3": _verify_a3,
    "a4": _verify_a4,
    "properties": _verify_properties,
}


def cmd_verify(args) -> int:
    checks: list[dict] = []
    suites = args.suites or ["a2", "a3", "a4", "properties"]
    unknown = [s for s in suites if s not in _SUITES]
    if unknown:
        raise ValueError(f"unknown suite(s) {unknown}; "
                         f"choose from {sorted(_SUITES)}")
    for suite in suites:
        _SUITES[suite](checks)
    passed = all(c["pass"] for c in checks)
    _emit({"suites": suites, "checks": checks, "pass": passed})
    return 0 if passed else 2


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wordcones",
        description="Reduced words for the longest type-A Weyl element: "
                    "cones, chamber sets, partial quivers, rectangle "
                    "configurations, and piecewise-linear region atlases.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("words", help="enumerate or check reduced words")
    p.add_argument("action", choices=["list", "classes", "standard", "check"])
    p.add_argument("--rank", type=int)
    p.add_argument("--word", help="word to check (for 'check')")
    p.add_argument("--count", action="store_true",
                   help="print counts only (for 'list' and 'classes')")
    p.set_defaults(func=cmd_words)

    p = sub.add_parser("chambers", help="chamber sets of a wiring diagram")
    p.add_argument("--word", required=True)
    p.add_argument("--rank", type=int)
    p.add_argument("--render", choices=["ascii", "svg"])
    p.set_defaults(func=cmd_chambers)

    p = sub.add_parser("quivers", help="partial quivers attached to a word")
    p.add_argument("--word", required=True)
    p.add_argument("--rank", type=int)
    p.add_argument("--with-chamber-sets", action="store_true")
    p.set_defaults(func=cmd_quivers)

    p = sub.add_parser("cone", help="cones attached to a word")
    p.add_argument("kind", choices=["lusztig"])
    p.add_argument("--word", required=True)
    p.add_argument("--rank", type=int)
    p.add_argument("--rays", action="store_true", help="include extreme rays")
    p.set_defaults(func=cmd_cone)

    p = sub.add_parser("rectangles", help="rectangle configuration of a quiver")
    p.add_argument("--quiver", required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--render", choices=["svg"])
    p.set_defaults(func=cmd_rectangles)

    p = sub.add_parser("regions", help="region atlas of the standard words")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--histogram", action="store_true")
    p.add_argument("--match-classes", action="store_true")
    p.add_argument("--orthant", action="store_true")
    p.add_argument("--isomorphism", action="store_true",
                   help="exploratory class-graph vs region-graph comparison")
    p.add_argument("--json", dest="json_file", metavar="FILE")
    p.set_defaults(func=cmd_regions)

    p = sub.add_parser("verify", help="run the golden verification suites")
    p.add_argument("suites", nargs="*", metavar="suite",
                   help="any of: a2, a3, a4, properties (default: all)")
    p.set_defaults(func=cmd_verify)

    return parser


def _glue_dash_values(argv: list[str]) -> list[str]:
    """Turn ["--quiver", "-RL"] into ["--quiver=-RL"] so quiver texts that
    start with a dash survive argparse."""
    out = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg in ("--quiver", "--word") and i + 1 < len(argv) \
                and argv[i + 1].startswith("-"):
            out.append(f"{arg}={argv[i + 1]}")
            i += 2
        else:
            out.append(arg)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_glue_dash_values(list(argv)))
    try:
        return args.func(args)
    except (ValueError, InvariantError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3 if isinstance(exc, InvariantError) else 1


if __name__ == "__main__":
    sys.exit(main())
