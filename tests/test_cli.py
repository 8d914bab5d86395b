"""Command-line surface: outputs, exit codes, determinism, shrinking."""

import json
import random

import pytest

from avgroups.words import MAX_NESTING, op_degree, parse, render
from avgroups.cli import (
    SuiteConfig,
    main,
    run_suite,
    run_suites,
    shrink_counterexample,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


Z2 = {"elements": ["0", "1"], "mul": [[0, 1], [1, 0]], "op": {"0": "1", "1": "0"}}


@pytest.fixture
def z2_file(tmp_path):
    p = tmp_path / "z2.json"
    p.write_text(json.dumps(Z2))
    return str(p)


def test_normalize(capsys):
    assert run(capsys, "normalize", "[x][y]") == (0, "[x [y]]\n", "")
    assert run(capsys, "normalize", "[x [y]]@2 [z]^-1") == (0, "[x [y]]@2 [z]^-1\n", "")
    assert run(capsys, "normalize", "x x^-1") == (0, "1\n", "")
    code, out, _ = run(capsys, "normalize", "[x][y]", "--strategy", "outermost-rightmost")
    assert (code, out) == (0, "[x [y]]\n")


def test_normalize_check_only(capsys):
    assert run(capsys, "normalize", "--check-only", "[x [y]]") == (0, "normal\n", "")
    code, out, _ = run(capsys, "normalize", "--check-only", "[x][y]")
    assert (code, out) == (1, "not normal\n")


def test_normalize_trace_and_via_ops(capsys):
    code, out, _ = run(capsys, "normalize", "--trace", "[x][y]")
    assert code == 0
    assert out.splitlines() == ["step 1 R1 at 0: [x] [y] -> [x [y]]", "[x [y]]"]
    code, out, _ = run(capsys, "normalize", "--via-ops", "[[x]@2 y] [z]")
    assert (code, out) == (0, "[x [y [z]]]@2\n")


def test_mul_op_inv(capsys):
    assert run(capsys, "mul", "[x [y]]@2", "[z]@3") == (0, "[x [y [z]]]@4\n", "")
    assert run(capsys, "op", "[x]@3 y [z]@2") == (0, "[x [y [z]]]@4\n", "")
    assert run(capsys, "op", "--iter", "2", "x") == (0, "[x]@2\n", "")
    # n applications are one application and a fold, so a huge count is cheap
    assert run(capsys, "op", "--iter", "3000000", "x") == (0, "[x]@3000000\n", "")
    assert run(capsys, "inv", "1") == (0, "1\n", "")
    assert run(capsys, "inv", "x [y]") == (0, "[y]^-1 x^-1\n", "")
    code, _, err = run(capsys, "op", "--iter", "0", "x")
    assert code == 2 and "at least 1" in err


def test_non_normal_inputs_are_normalized_with_notice(capsys):
    code, out, err = run(capsys, "mul", "[x][y]", "z")
    assert code == 0
    assert out == "[x [y]] z\n"
    assert "note: input normalized to [x [y]]" in err


def test_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "normalize", "[x")
    assert code == 2 and "parse error" in err
    assert run(capsys, "mul", "x", "y]")[0] == 2


def too_deep_result(depth):
    return (f"error: result nests brackets {depth} deep, deeper than the "
            f"{MAX_NESTING} that can be read back; not printed\n")


def test_nesting_limit_exits_2_without_traceback(capsys, z2_file):
    def nested(n):
        return "[x " * n + "x" + "]" * n

    deep = nested(MAX_NESTING)
    assert run(capsys, "normalize", deep) == (0, deep + "\n", "")
    assert run(capsys, "op", deep) == (0, deep + "@2\n", "")
    assert run(capsys, "inv", deep) == (0, deep + "^-1\n", "")
    assert run(capsys, "eval", deep, "--group", z2_file, "--map", "x=1") == (0, "1\n", "")
    # the product nests 2 * MAX_NESTING deep: too deep to read back, so refused
    assert run(capsys, "mul", deep, deep) == (2, "", too_deep_result(2 * MAX_NESTING))
    too_deep = nested(MAX_NESTING + 1)
    want = (f"parse error: brackets nested deeper than {MAX_NESTING} "
            f"(at position {3 * MAX_NESTING})\n")
    for argv in (["normalize", too_deep], ["mul", "x", too_deep], ["op", too_deep],
                 ["inv", too_deep],
                 ["eval", too_deep, "--group", z2_file, "--map", "x=1"]):
        assert run(capsys, *argv) == (2, "", want), argv[0]


def test_results_deeper_than_the_limit_are_refused(capsys):
    # the oracle merges side-by-side brackets into one nested word
    code, out, err = run(capsys, "normalize", f"[x]^{MAX_NESTING}")
    assert (code, err) == (0, "")
    assert render(parse(out)) + "\n" == out and out.count("[") == MAX_NESTING
    want = too_deep_result(MAX_NESTING + 1)
    for argv in (["normalize", f"[x]^{MAX_NESTING + 1}"],
                 ["normalize", "--via-ops", f"[x]^{MAX_NESTING + 1}"]):
        assert run(capsys, *argv) == (2, "", want), argv
    # an input that normalizes too deep is described, not printed, in the note
    code, out, err = run(capsys, "inv", f"[x]^{MAX_NESTING + 1}")
    assert (code, out) == (2, "")
    assert err == f"note: input normalized to a word nested {MAX_NESTING + 1} deep\n" + want
    half = MAX_NESTING // 2
    code, out, err = run(capsys, "mul", f"[x]^{half}", f"[x]^{MAX_NESTING + 1 - half}")
    assert (code, out) == (2, "") and err.endswith(want) and "Traceback" not in err


def test_bad_usage_exits_2(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    assert main(["check", "--suite", "nope"]) == 2
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_check_all_passes_and_is_deterministic(capsys):
    code, out, _ = run(capsys, "check", "--trials", "40", "--seed", "9")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1].startswith("elapsed:")
    body = lines[:-1]
    assert body == [f"suite {n}: 40 trials, pass"
                    for n in ("assoc", "averaging", "derived",
                              "closure", "oracle", "hom")]
    code2, out2, _ = run(capsys, "check", "--trials", "40", "--seed", "9")
    assert out2.splitlines()[:-1] == body


def test_check_single_suite_and_flags(capsys):
    code, out, _ = run(capsys, "check", "--suite", "oracle", "--trials", "15",
                       "--seed", "3", "--max-depth", "2", "--max-breadth", "3",
                       "--alphabet", "a,b")
    assert code == 0
    assert out.splitlines()[0] == "suite oracle: 15 trials, pass"
    assert main(["check", "--trials", "0"]) == 2
    capsys.readouterr()


def test_eval(capsys, z2_file):
    assert run(capsys, "eval", "[x]", "--group", z2_file, "--map", "x=1") == (0, "0\n", "")
    # relation soundness: merged and unmerged spellings evaluate alike
    a = run(capsys, "eval", "[x][y]", "--group", z2_file, "--map", "x=1,y=0")
    b = run(capsys, "eval", "[x [y]]", "--group", z2_file, "--map", "x=1,y=0")
    assert a[1] == b[1] == "1\n"
    code, _, err = run(capsys, "eval", "[x w]", "--group", z2_file, "--map", "x=1")
    assert code == 2 and "missing assignment: w" in err
    code, _, err = run(capsys, "eval", "x", "--group", z2_file, "--map", "x:1")
    assert code == 2 and "bad --map entry" in err
    code, _, err = run(capsys, "eval", "x", "--group", z2_file, "--map", "x=9")
    assert code == 2 and "unknown element" in err


def test_eval_validation_failures(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"elements": ["0", "1"], "mul": [[0, 1], [1, 0]],
                               "op": {"0": "1", "1": "1"}}))
    code, out, _ = run(capsys, "eval", "x", "--group", str(bad), "--map", "x=1")
    assert code == 1 and "fails at (0, 0)" in out
    noop = tmp_path / "noop.json"
    noop.write_text(json.dumps({"elements": ["0"], "mul": [[0]]}))
    code, _, err = run(capsys, "eval", "1", "--group", str(noop))
    assert code == 2 and "no 'op'" in err
    assert run(capsys, "eval", "x", "--group", str(tmp_path / "nope.json"))[0] == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert run(capsys, "eval", "x", "--group", str(garbled))[0] == 2
    names = tmp_path / "names.json"
    names.write_text(json.dumps({"elements": ["e", "g"],
                                 "mul": [["e", "g"], ["g", "e"]],
                                 "op": {"e": "e", "g": "e"}}))
    code, _, err = run(capsys, "eval", "x", "--group", str(names), "--map", "x=g")
    assert code == 2 and "indices" in err
    floats = tmp_path / "floats.json"
    floats.write_text(json.dumps({"elements": ["a", "b"], "mul": [[0, 1.7], [True, 0]],
                                  "op": {"a": "a", "b": "b"}}))
    want = "error: 'mul' must be a row-major table of element indices: 1.7 is not an integer\n"
    assert run(capsys, "eval", "x", "--group", str(floats), "--map", "x=b") == (2, "", want)
    assert run(capsys, "search-ops", "--group", str(floats)) == (2, "", want)
    badlie = tmp_path / "badlie.json"
    badlie.write_text(json.dumps({"dim": 2, "brackets": {"[1,2]": {"2": "1"}}}))
    goodop = tmp_path / "goodop.json"
    goodop.write_text(json.dumps({"dim": 2, "matrix": [[1, 0], [0, 0]]}))
    code, _, err = run(capsys, "lie-check", "--structure", str(badlie),
                       "--operator", str(goodop))
    assert code == 2 and "brackets" in err


NOT_A_GROUP = {"elements": ["e", "a", "b"], "mul": [[0, 1, 2], [1, 2, 0], [2, 1, 0]],
               "op": {"e": "e", "a": "a", "b": "b"}}
NOT_A_GROUP_REPORT = ("identity: ok inferred 'e'\n"
                      "inverses: FAIL element 'a' has no inverse\n"
                      "associativity: FAIL fails at (a, a, a)\n")


def test_failed_reports_print_in_full_and_exit_1(capsys, tmp_path):
    def write(name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    nongroup = write("nongroup.json", NOT_A_GROUP)
    assert run(capsys, "eval", "x", "--group", nongroup, "--map", "x=a") == \
        (1, NOT_A_GROUP_REPORT, "")
    badop = write("badop.json", {"elements": ["0", "1"], "mul": [[0, 1], [1, 0]],
                                 "op": {"0": "1", "1": "1"}})
    assert run(capsys, "eval", "x", "--group", badop, "--map", "x=1") == \
        (1, "averaging: FAIL fails at (0, 0)\n", "")
    assert run(capsys, "search-ops", "--group", nongroup) == (1, NOT_A_GROUP_REPORT, "")
    noid = write("noid.json", {"elements": ["a", "b"], "mul": [[0, 1], [0, 1]]})
    assert run(capsys, "search-ops", "--group", noid) == \
        (1, "identity: FAIL table has no two-sided identity\n", "")
    assert run(capsys, "hopf-check", "--group", nongroup) == (1, NOT_A_GROUP_REPORT, "")
    zero3 = write("zero3.json", {"dim": 3, "matrix": [0] * 9})
    nojac = write("nojac.json", {"dim": 3, "brackets": [
        {"i": 1, "j": 2, "coeffs": {"1": "1"}}, {"i": 1, "j": 3, "coeffs": {"3": "1"}}]})
    assert run(capsys, "lie-check", "--structure", nojac, "--operator", zero3) == \
        (1, "antisymmetry: ok\nJacobi: FAIL fails at (e1, e2, e3)\n", "")
    zero2 = write("zero2.json", {"dim": 2, "matrix": [0] * 4})
    skew = write("skew.json", {"dim": 2, "brackets": [
        {"i": 1, "j": 2, "coeffs": {"2": "1"}}, {"i": 2, "j": 1, "coeffs": {"2": "1"}}]})
    assert run(capsys, "lie-check", "--structure", skew, "--operator", zero2) == \
        (1, "antisymmetry: FAIL fails at (e1, e2)\nJacobi: FAIL fails at (e1, e1, e2)\n", "")


def test_eval_validates_the_table_and_operator_once(capsys, monkeypatch, z2_file):
    import avgroups.cli as cli_mod
    import avgroups.structures as structures_mod
    calls = []
    for name in ("validate_group", "validate_averaging"):
        def counted(*args, _real=getattr(structures_mod, name), _name=name):
            calls.append(_name)
            return _real(*args)
        for mod in (structures_mod, cli_mod):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted)
    assert run(capsys, "eval", "[x]", "--group", z2_file, "--map", "x=1") == (0, "0\n", "")
    assert sorted(calls) == ["validate_averaging", "validate_group"]


def test_search_ops(capsys, z2_file):
    code, out, _ = run(capsys, "search-ops", "--group", z2_file)
    assert code == 0
    assert out.splitlines() == [
        "found 3 averaging operator(s) on 2 elements",
        "A1: 0->0 1->0",
        "A2: 0->0 1->1",
        "A3: 0->1 1->0",
    ]
    code, out, _ = run(capsys, "search-ops", "--group", z2_file, "--pointed")
    assert code == 0 and out.splitlines()[0].startswith("found 2 pointed")


def test_hopf_check(capsys, z2_file, tmp_path):
    assert run(capsys, "hopf-check", "--group", z2_file) == \
        (0, "(group: ok, algebra: ok)\n", "")
    opfile = tmp_path / "const.json"
    opfile.write_text(json.dumps({"op": {"0": "1", "1": "1"}}))
    code, out, _ = run(capsys, "hopf-check", "--group", z2_file, "--op", str(opfile))
    assert code == 1
    assert out.splitlines()[0] == "(group: FAIL, algebra: FAIL)"
    noop = tmp_path / "noop.json"
    noop.write_text(json.dumps({"elements": ["0", "1"], "mul": [[0, 1], [1, 0]]}))
    code, out, _ = run(capsys, "hopf-check", "--group", str(noop))
    assert code == 0 and out == "verdicts agree on all 4 operator maps\n"


def test_hopf_check_rejects_malformed_operator_files(capsys, z2_file, tmp_path):
    def check(data):
        opfile = tmp_path / "op.json"
        opfile.write_text(json.dumps(data))
        return run(capsys, "hopf-check", "--group", z2_file, "--op", str(opfile))

    assert check({"op": {"0": "1"}}) == \
        (2, "", "error: 'op' is not total; missing ['1']\n")
    assert check({"0": "1"}) == (2, "", "error: 'op' is not total; missing ['1']\n")
    assert check({"op": {"0": "1", "1": "zz"}}) == (2, "", "error: unknown element 'zz'\n")
    assert check({"op": {"0": "1", "1": "0", "2": "0"}}) == \
        (2, "", "error: unknown element '2'\n")
    for data in (["0", "1"], {"op": "swap"}, "swap"):
        assert check(data) == \
            (2, "", "error: 'op' must map element names to element names\n"), data
    # the bare name map is read like the 'op' block
    assert check({"0": "1", "1": "0"}) == (0, "(group: ok, algebra: ok)\n", "")


def test_lie_check(capsys, tmp_path):
    lie = tmp_path / "lie.json"
    lie.write_text(json.dumps(
        {"dim": 2, "brackets": [{"i": 1, "j": 2, "coeffs": {"2": "1"}}]}))
    p1 = tmp_path / "p1.json"
    p1.write_text(json.dumps({"dim": 2, "matrix": ["1", "0", "0", "0"]}))
    p2 = tmp_path / "p2.json"
    p2.write_text(json.dumps({"dim": 2, "matrix": ["0", "0", "0", "1"]}))
    code, out, _ = run(capsys, "lie-check", "--structure", str(lie), "--operator", str(p1))
    assert code == 0
    assert out.splitlines() == ["averaging on basis pairs: ok",
                                "left Leibniz on basis triples: ok"]
    code, out, _ = run(capsys, "lie-check", "--structure", str(lie), "--operator", str(p2))
    assert code == 1 and "fails at (e1, e2)" in out


def test_shrinker_minimizes_while_preserving_failure():
    # predicate: the word still contains a bracket letter
    fails = lambda ws: "[" in render(ws[0])
    start = (parse("x [y [z]]@2 w"),)
    small = shrink_counterexample(start, fails)
    assert small == (parse("[z]"),)
    # two-slot shrink: both words shrink independently
    fails2 = lambda ws: op_degree(ws[0]) + op_degree(ws[1]) >= 2
    small2 = shrink_counterexample((parse("x [y]@2"), parse("[z [w]]")), fails2)
    assert sum(op_degree(w) for w in small2) == 2


def test_run_suite_reports_minimal_counterexample(monkeypatch):
    import avgroups.cli as cli_mod
    # deliberately broken product: drops the last letter of the right factor
    real = cli_mod.diamond
    monkeypatch.setattr(cli_mod, "diamond",
                        lambda u, v: real(u, v if not v.factors
                                          else type(v)(v.factors[:-1])))
    ok, lines = run_suite("assoc", SuiteConfig(trials=30, seed=1))
    assert not ok
    assert lines[0].startswith("suite assoc: FAIL")
    assert lines[1].startswith("counterexample:")
    code, lines = run_suites(SuiteConfig(suite="assoc", trials=30, seed=1))
    assert code == 1


# --- hostile files -----------------------------------------------------------

HOSTILE_VALUES = (None, True, 1.5, "x", [], {}, -1, 7)


def _value_paths(data, path=()):
    """Every position in parsed JSON data that holds a value, the root included."""
    yield path
    children = data.items() if isinstance(data, dict) else (
        enumerate(data) if isinstance(data, list) else ())
    for key, value in children:
        yield from _value_paths(value, path + (key,))


def _replaced(data, path, value):
    if not path:
        return value
    copy = json.loads(json.dumps(data))
    holder = copy
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    return copy


def test_hostile_files_keep_the_exit_contract(capsys, tmp_path):
    # every dim and element count stays <= 8: a Lie spec allocates dim^3
    # constants before any check
    files = {
        "group": {"elements": ["0", "1", "2"], "mul": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
                  "op": {"0": "1", "1": "2", "2": "0"}},
        "op": {"op": {"0": "0", "1": "1", "2": "2"}},
        "lie": {"dim": 2, "brackets": [{"i": 1, "j": 2, "coeffs": {"2": "1"}}]},
        "matrix": {"dim": 2, "matrix": [["1", "0"], ["0", "0"]]},
    }
    paths = {name: str(tmp_path / f"{name}.json") for name in files}
    commands = {
        "group": [["eval", "[x] x^-1", "--group", paths["group"], "--map", "x=1"],
                  ["search-ops", "--group", paths["group"]],
                  ["hopf-check", "--group", paths["group"]]],
        "op": [["hopf-check", "--group", paths["group"], "--op", paths["op"]]],
        "lie": [["lie-check", "--structure", paths["lie"], "--operator", paths["matrix"]]],
        "matrix": [["lie-check", "--structure", paths["lie"], "--operator", paths["matrix"]]],
    }
    cases = [(name, path, value) for name, data in files.items()
             for path in _value_paths(data) for value in HOSTILE_VALUES]
    rng = random.Random(4)
    seen = set()
    for name, path, value in rng.sample(cases, 160):
        for other, data in files.items():
            hostile = _replaced(data, path, value) if other == name else data
            with open(paths[other], "w", encoding="utf-8") as fh:
                json.dump(hostile, fh)
        for argv in commands[name]:
            code, _, err = run(capsys, *argv)
            assert code in (0, 1, 2) and "Traceback" not in err, (name, path, value, argv)
            seen.add(code)
    assert seen == {0, 1, 2}
