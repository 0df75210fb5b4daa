import json
import subprocess
import sys
from pathlib import Path

import pytest

from wordcones import cli, regions
from wordcones.lusztig import lusztig_cone, spanning_rays
from wordcones.words import parse_word

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "schemas"


def run_cli(*args, expect=0):
    result = subprocess.run([sys.executable, "-m", "wordcones.cli", *args],
                            capture_output=True, text=True)
    assert result.returncode == expect, \
        f"wordcones {' '.join(args)} -> {result.returncode}\n" \
        f"stdout:\n{result.stdout}\nstderr:\n{result.stderr}"
    return result.stdout


def validate(payload, schema_name):
    jsonschema = pytest.importorskip("jsonschema")
    with open(SCHEMA_DIR / f"{schema_name}.schema.json") as fh:
        schema = json.load(fh)
    jsonschema.validate(payload, schema)


def test_words_classes_count():
    out = json.loads(run_cli("words", "classes", "--rank", "4", "--count"))
    assert out == {"rank": 4, "count": 62}
    validate(out, "words_classes")


def test_words_list_and_standard():
    out = json.loads(run_cli("words", "list", "--rank", "2"))
    assert out["words"] == ["121", "212"]
    validate(out, "words_list")
    std = json.loads(run_cli("words", "standard", "--rank", "4"))
    assert std == {"rank": 4, "j": "1324132413", "j_prime": "2413241324"}
    validate(std, "words_standard")


def test_words_check():
    out = json.loads(run_cli("words", "check", "--word", "1324132413"))
    assert out["reduced"] and out["is_longest"]
    validate(out, "words_check")
    out = json.loads(run_cli("words", "check", "--word", "11", "--rank", "2"))
    assert not out["reduced"]


def test_chambers_golden_word():
    out = json.loads(run_cli("chambers", "--word", "2343121324"))
    got = sorted(ch["members"] for ch in out["chambers"])
    assert got == sorted([[2, 5], [2, 4, 5], [2], [2, 4], [1, 2, 4, 5], [1, 2, 4]])
    validate(out, "chambers")


def test_quivers_listing():
    out = run_cli("quivers", "--word", "2343121324")
    assert out.splitlines() == ["RRL", "-RL", "-R-", "LRL", "LR-", "--L"]
    paired = json.loads(run_cli("quivers", "--word", "2343121324",
                                "--with-chamber-sets"))
    validate(paired, "quivers_pairs")
    table = {q["quiver"]: q["chamber_set"] for q in paired["quivers"]}
    assert table["-R-"] == [1, 2, 4, 5]


def test_cone_lusztig():
    out = json.loads(run_cli("cone", "lusztig", "--word", "132132"))
    assert sorted(out["inequalities"]) == sorted(
        ["c >= a + d", "c >= b + e", "d + e >= c + f"])
    ineqs = {tuple(int(x) for x in row) for row in out["cone"]["ineqs"]}
    assert ineqs == {(-1, 0, 1, -1, 0, 0), (0, -1, 1, 0, -1, 0),
                     (0, 0, -1, 1, 1, -1)}
    validate(out, "cone")
    with_rays = json.loads(run_cli("cone", "lusztig", "--word", "121", "--rays"))
    rays = {tuple(int(x) for x in r) for r in with_rays["rays"]["rays"]}
    assert rays == {(0, 1, 0), (1, 1, 0), (0, 1, 1)}


def test_cone_payloads_match_their_schemas(atlas4):
    """HCone and VCone payloads: the Lusztig cone of 132132, its spanning
    rays, and the rank-4 region with the most facets."""
    jsonschema = pytest.importorskip("jsonschema")
    word = parse_word("132132")
    rays = spanning_rays(word).to_json()
    region = max(atlas4.regions, key=lambda r: r.facet_count)
    for cone in (lusztig_cone(word).cone, region.cone):
        validate(cone.to_json(), "hcone")
    validate(rays, "vcone")
    assert len(rays["rays"]) > 1 and region.facet_count == 11
    with pytest.raises(jsonschema.ValidationError):
        validate(rays, "hcone")


def test_rectangles_rank10():
    out = json.loads(run_cli("rectangles", "--quiver=-LLRRRLRR", "--rank", "10"))
    assert out["rectangles"] == [[0, 7, 2, 9], [3, 7, 7, 11],
                                 [0, 3, 7, 10], [2, 3, 10, 11]]
    assert sorted(out["diagonal_counts"]["nw_se"]) == [1, 2, 3, 4]
    assert len(out["phi_plus"]) == 12
    validate(out, "rectangles")


def test_regions_histogram():
    out = json.loads(run_cli("regions", "--rank", "2", "--histogram"))
    assert out["histogram"] == {"1": 2}
    assert out["region_count"] == 2
    validate(out, "regions")


def test_regions_json_artifact(tmp_path):
    target = tmp_path / "atlas3.json"
    out = json.loads(run_cli("regions", "--rank", "3", "--histogram",
                             "--json", str(target)))
    assert out["histogram"] == {"3": 8, "4": 2}
    artifact = json.loads(target.read_text())
    assert len(artifact["regions"]) == 10
    validate(artifact, "atlas")


def test_render_outputs():
    ascii_art = run_cli("chambers", "--word", "121", "--render", "ascii")
    assert ascii_art.count("X") == 3
    svg = run_cli("rectangles", "--quiver=-LLRRRLRR", "--rank", "10",
                  "--render", "svg")
    assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
    wiring_svg = run_cli("chambers", "--word", "2343121324", "--render", "svg")
    assert wiring_svg.count("<polyline") == 5


def test_determinism_across_runs():
    a = run_cli("regions", "--rank", "3", "--histogram", "--match-classes")
    b = run_cli("regions", "--rank", "3", "--histogram", "--match-classes")
    assert a == b


def test_domain_errors_exit_1():
    run_cli("words", "check", "--word", "xyz", expect=1)
    run_cli("chambers", "--word", "1121", expect=1)
    run_cli("rectangles", "--quiver=L-L", "--rank", "4", expect=1)
    run_cli("words", "list", "--rank", "9", expect=1)


def test_invariant_errors_exit_3(monkeypatch, capsys, tmp_path):
    """A failed invariant is a bug, not bad input: the command prints one
    error line on stderr, nothing on stdout and writes no artifact, and
    exits 3, neither a domain error's 1 nor argparse's 2.  A split stubbed
    to leave no side raises InvariantError in the enumeration; a merge
    stubbed to refuse raises its subclass RegionConvexityError."""
    def refuse(cells, dim):
        raise regions.RegionConvexityError("union is not convex")
    artifact = tmp_path / "atlas.json"
    for name, stub, message in (
            ("dd_split", lambda state, a: (None, None),
             "leaves no side an interior"),
            ("_merge_cells", refuse, "union is not convex")):
        with monkeypatch.context() as patch:
            patch.setattr(regions, name, stub)
            for args in (["regions", "--rank", "3"],
                         ["regions", "--rank", "3", "--json", str(artifact)]):
                assert cli.main(args) == 3, (name, args)
                out, err = capsys.readouterr()
                assert out == "" and not artifact.exists()
                assert err.startswith("error: ") and err.count("\n") == 1
                assert err.endswith(f"{message}\n"), err
    assert cli.main(["regions", "--rank", "3", "--histogram"]) == 0


@pytest.mark.parametrize("args, flag", [
    (("standard", "--rank", "3", "--count"), "--count"),
    (("check", "--word", "121", "--count"), "--count"),
    (("list", "--rank", "2", "--word", "121"), "--word"),
    (("classes", "--rank", "2", "--word", "121"), "--word"),
    (("standard", "--rank", "2", "--word", "121"), "--word"),
])
def test_words_rejects_flags_it_would_ignore(args, flag):
    result = subprocess.run([sys.executable, "-m", "wordcones.cli", "words",
                             *args], capture_output=True, text=True)
    assert result.returncode == 1 and result.stdout == ""
    assert result.stderr == f"error: words {args[0]} takes no {flag}\n"


def test_regions_rejects_ranks_below_one():
    for rank in ("0", "-1"):
        result = subprocess.run(
            [sys.executable, "-m", "wordcones.cli", "regions", "--rank", rank],
            capture_output=True, text=True)
        assert result.returncode == 1 and result.stdout == ""
        assert result.stderr == "error: rank must be >= 1\n"


def test_regions_rejects_ranks_above_enumeration_limit():
    result = subprocess.run(
        [sys.executable, "-m", "wordcones.cli", "regions", "--rank", "6"],
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 1 and result.stdout == ""
    assert result.stderr == "error: regions supports ranks 1 to 5\n"


@pytest.mark.parametrize("action, message", [
    ("list", "exhaustive enumeration is limited to rank <= 5; use "
             "find_move_path for individual words at larger ranks"),
    # the class search enumerates no word, so its guard names the search
    ("classes", "the commutation class search is limited to rank <= 5"),
], ids=["list", "classes"])
def test_words_rank_guards_say_what_is_limited(action, message):
    result = subprocess.run(
        [sys.executable, "-m", "wordcones.cli", "words", action, "--rank", "6"],
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 1 and result.stdout == ""
    assert result.stderr == f"error: {message}\n"


def test_verify_a2_passes():
    out = json.loads(run_cli("verify", "a2"))
    assert out["pass"] is True
    assert all(c["pass"] for c in out["checks"])
    validate(out, "verify")
