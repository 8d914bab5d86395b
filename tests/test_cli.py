"""Command-line and package surface: outputs, exit codes, determinism,
shrinking, the README's examples and the top-level names."""

import ast
import inspect
import itertools
import json
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import avgroups
from avgroups.linearalg import MAX_LIE_DIM, load_lie_file
from avgroups.words import MAX_NESTING, metrics, parse, render
from avgroups.avgroup import GenParams
from avgroups.cli import main
from avgroups.laws import run_suites, shrink_counterexample
from avgroups.structures import MAX_GROUP_ORDER


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
    word = "[x [y]@99999999]@100000001"
    assert run(capsys, "normalize", "--via-ops", word) == run(capsys, "normalize", word) == \
        (0, "[x [y]]@199999999\n", "")


def test_normalize_flags_are_each_honoured_or_refused(capsys):
    # all 16 combinations of the three modes and --strategy: the modes
    # exclude each other, and --strategy applies only to the oracle's modes
    word, other = "[[1]^-1 [1]^-1] [1]", "outermost-rightmost"
    honoured = {
        (): "[[1]@2^-1 [1]]\n",
        ("--strategy",): "[[1]^-1]\n",
        ("--trace",): ("step 1 R1- at 0/0: [1]^-1 [1]^-1 -> [1]@2^-1\n"
                       "step 2 R1 at 0: [[1]@2^-1] [1] -> [[1]@2^-1 [1]]\n"
                       "[[1]@2^-1 [1]]\n"),
        ("--trace", "--strategy"): (
            "step 1 R1 at 0: [[1]^-1 [1]^-1] [1] -> [[1]^-1 [1]^-1 [1]]\n"
            "step 2 R0 at 0/1: [1]^-1 [1] -> 1\n"
            "[[1]^-1]\n"),
        ("--check-only",): "not normal\n",
        ("--via-ops",): "[[1]@2^-1 [1]]\n",
    }
    refused = 0
    for on in itertools.product((False, True), repeat=4):
        flags = tuple(f for f, set_ in zip(("--check-only", "--via-ops", "--trace",
                                            "--strategy"), on) if set_)
        argv = [a for f in flags for a in ((f, other) if f == "--strategy" else (f,))]
        code, out, err = run(capsys, "normalize", *argv, word)
        if flags in honoured:
            assert (code, out, err) == (int(flags == ("--check-only",)), honoured[flags], ""), flags
            continue
        refused += 1
        assert (code, out) == (2, ""), flags
        if sum(on[:3]) > 1:
            assert "not allowed with argument" in err.splitlines()[-1], flags
        else:
            assert err == "error: --strategy does not apply to --check-only or --via-ops\n"
    assert refused == 10
    # a refused --strategy is refused before the word is read
    assert run(capsys, "normalize", "--via-ops", "--strategy", other, "[x") == \
        (2, "", "error: --strategy does not apply to --check-only or --via-ops\n")


def test_mul_op_inv(capsys):
    assert run(capsys, "mul", "[x [y]]@2", "[z]@3") == (0, "[x [y [z]]]@4\n", "")
    assert run(capsys, "op", "[x]@3 y [z]@2") == (0, "[x [y [z]]]@4\n", "")
    assert run(capsys, "op", "--iter", "2", "x") == (0, "[x]@2\n", "")
    # n applications are one application and a fold, so a huge count is cheap
    assert run(capsys, "op", "--iter", "3000000", "x") == (0, "[x]@3000000\n", "")
    assert run(capsys, "inv", "1") == (0, "1\n", "")
    assert run(capsys, "inv", "x [y]") == (0, "[y]^-1 x^-1\n", "")
    # a bad --iter is refused before the word is read: no normalization
    # note, and no oracle run on [x]^1000
    for n, word in (("0", "x"), ("0", "[x] [y]"), ("-1", "[x]^1000")):
        assert run(capsys, "op", "--iter", n, word) == (2, "", "error: --iter must be at least 1\n")


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


def test_a_200_fold_bracket_power_is_refused(capsys):
    # the oracle nests [x]^200 200 deep, one level per bracket, in 19,900 steps
    assert run(capsys, "normalize", "[x]^200") == (2, "", too_deep_result(200))


def test_a_refused_trace_renders_no_step(capsys, monkeypatch):
    import avgroups.normalform as normalform_mod
    calls = []
    real = normalform_mod._step

    def counted(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(normalform_mod, "_step", counted)
    assert run(capsys, "normalize", "--trace", "[x]^101") == (2, "", too_deep_result(101))
    assert calls == []
    # an accepted result still renders every step, once
    assert run(capsys, "normalize", "--trace", "[x]^3") == (0, (
        "step 1 R1 at 0: [x] [x] -> [x [x]]\n"
        "step 2 R1 at 0: [x [x]] [x] -> [x [x] [x]]\n"
        "step 3 R1 at 0/1: [x] [x] -> [x [x]]\n"
        "[x [x [x]]]\n"), "")
    assert calls == ["R1"] * 3


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="int() reads numbers of any length here")
def test_numbers_too_long_for_int_exit_2(capsys):
    many = "9" * (sys.get_int_max_str_digits() + 1)
    for text, pos in ((f"x^{many}", 0), (f"[x]@{many}", 2)):
        want = f"parse error: number has too many digits (at position {pos})\n"
        assert run(capsys, "normalize", text) == (2, "", want)


def test_bad_usage_exits_2(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    assert main(["check", "--suite", "nope"]) == 2
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_check_all_passes_and_is_deterministic(capsys, monkeypatch):
    import avgroups.laws as laws_mod
    drawn = []
    real = laws_mod._sample
    monkeypatch.setattr(laws_mod, "_sample", lambda *a, **k: drawn.append(a) or real(*a, **k))
    code, out, _ = run(capsys, "check", "--trials", "40", "--seed", "9")
    assert code == 0
    # each word is drawn once: three normal slots and one raw slot per trial
    assert len(drawn) == 40 * 4
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


def test_the_strategies_still_disagree_at_seed_14(capsys):
    # the oracle's open defect, pinned as the CLI shows it: the two rewriting
    # orders reach different normal forms on the shrunk raw word
    code, out, _ = run(capsys, "check", "--suite", "oracle", "--seed", "14")
    assert code == 1
    assert out.splitlines()[:2] == [
        "suite oracle: FAIL (oracle idempotence and confluence) at trial 48",
        "counterexample: u = [1]^-1 [[1] x [z y^-1]^-1 [1]^-1]^-1"]
    word = "[1]^-1 [[1] x [z y^-1]^-1 [1]^-1]^-1"
    assert run(capsys, "normalize", word) == (0, "[x [z y^-1]@2^-1 [1]]@2^-1\n", "")
    assert run(capsys, "normalize", "--strategy", "outermost-rightmost", word) == \
        (0, "[x [z y^-1]^-1]@2^-1\n", "")


def test_an_unknown_suite_is_refused():
    with pytest.raises(ValueError, match=r"^unknown suite 'bogus'$"):
        run_suites("bogus", 3, GenParams())


def test_an_oracle_step_limit_is_one_error_line_and_exit_1(capsys, monkeypatch):
    import avgroups.normalform as normalform_mod
    monkeypatch.setattr(normalform_mod, "STEP_LIMIT", 1)
    assert run(capsys, "normalize", "[x]^3") == (1, "", (
        "error: no normal form within 1 steps; "
        "this signals suspected non-termination\n"))


def test_check_refuses_negative_word_bounds(capsys, monkeypatch):
    import avgroups.cli as cli_mod
    monkeypatch.setattr(cli_mod, "run_suites", lambda *a: pytest.fail("a suite ran"))
    for flag in ("--max-depth", "--max-breadth"):
        want = f"error: {flag} must be at least 0\n"
        assert run(capsys, "check", flag, "-1") == (2, "", want), flag


def test_check_refuses_alphabet_names_that_are_not_generators(capsys):
    for alphabet, name in (("x,", ""), ("1,y", "1"), ("x y", "x y"), ("x,X", "X")):
        want = f"error: --alphabet: bad generator name {name!r}\n"
        assert run(capsys, "check", "--alphabet", alphabet) == (2, "", want), alphabet
    code, out, _ = run(capsys, "check", "--trials", "5", "--alphabet", "a,b")
    assert code == 0 and len(out.splitlines()) == 7


def test_a_bad_alphabet_name_is_reported_before_the_flag_checks(capsys):
    assert run(capsys, "check", "--alphabet", "x,X", "--trials", "0") == (
        2, "", "error: --alphabet: bad generator name 'X'\n")


def test_an_oversized_word_draw_is_one_error_line_and_exit_2(capsys):
    # at breadth 100,000 and depth 3 a draw expects well over a billion letters
    assert run(capsys, "check", "--max-breadth", "100000", "--max-depth", "3",
               "--trials", "1", "--suite", "assoc") == (
        2, "", "error: a word draw would make more than 100000 letters\n")


def test_eval(capsys, z2_file):
    assert run(capsys, "eval", "[x]", "--group", z2_file, "--map", "x=1") == (0, "0\n", "")
    # a bracket's count is one op call, not one per application: A^n(1) = 1 + n
    assert run(capsys, "eval", "[x]@100000000", "--group", z2_file, "--map", "x=1") == \
        (0, "1\n", "")
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
    numbered = tmp_path / "numbered.json"
    numbered.write_text(json.dumps({"elements": 5, "mul": [[0]], "op": {}}))
    want = "error: 'elements' must be a list of element names\n"
    assert run(capsys, "eval", "x", "--group", str(numbered), "--map", "x=0") == (2, "", want)
    # a generator named twice is refused at its second entry, not overwritten
    ea = tmp_path / "ea.json"
    ea.write_text(json.dumps({"elements": ["e", "a"], "mul": [[0, 1], [1, 0]],
                              "op": {"e": "e", "a": "a"}}))
    want = "error: bad --map entry 'x=e'\n"
    assert run(capsys, "eval", "x", "--group", str(ea), "--map", "x=a,x=e") == (2, "", want)
    assert run(capsys, "eval", "x", "--group", str(ea), "--map", "x=a,y=e") == (0, "a\n", "")
    badlie = tmp_path / "badlie.json"
    badlie.write_text(json.dumps({"dim": 2, "brackets": {"[1,2]": {"2": "1"}},
                                  "matrix": [[1, 0], [0, 0]]}))
    code, _, err = run(capsys, "lie-check", "--structure", str(badlie))
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
    nojac = write("nojac.json", {"dim": 3, "brackets": [
        {"i": 1, "j": 2, "coeffs": {"1": "1"}}, {"i": 1, "j": 3, "coeffs": {"3": "1"}}],
        "matrix": [[0] * 3] * 3})
    assert run(capsys, "lie-check", "--structure", nojac) == \
        (1, "antisymmetry: ok\nJacobi: FAIL fails at (e1, e2, e3)\n", "")
    skew = write("skew.json", {"dim": 2, "brackets": [
        {"i": 1, "j": 2, "coeffs": {"2": "1"}}, {"i": 2, "j": 1, "coeffs": {"2": "1"}}],
        "matrix": [[0] * 2] * 2})
    assert run(capsys, "lie-check", "--structure", skew) == \
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


def cyclic_file(tmp_path, n):
    p = tmp_path / f"z{n}.json"
    p.write_text(json.dumps({"elements": [str(i) for i in range(n)],
                             "mul": [[(i + j) % n for j in range(n)] for i in range(n)]}))
    return str(p)


def test_search_ops(capsys, z2_file, tmp_path):
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
    z7 = cyclic_file(tmp_path, 7)
    code, out, _ = run(capsys, "search-ops", "--group", z7)
    assert code == 0 and out.splitlines()[0] == "found 8 averaging operator(s) on 7 elements"
    # no size flag: a carrier lists or is refused by the size of its listing
    z29 = cyclic_file(tmp_path, 29)
    code, out, _ = run(capsys, "search-ops", "--group", z29)
    assert code == 0 and out.splitlines()[0] == "found 30 averaging operator(s) on 29 elements"
    z2_5 = tmp_path / "z2_5.json"
    z2_5.write_text(json.dumps({"elements": [str(i) for i in range(32)],
                                "mul": [[i ^ j for j in range(32)] for i in range(32)]}))
    assert run(capsys, "search-ops", "--group", str(z2_5)) == \
        (2, "", "error: more than 100,000 operators on 32 elements to list\n")
    code, out, err = run(capsys, "search-ops", "--group", z7, "--max-size", "6")
    assert (code, out) == (2, "") and "unrecognized arguments: --max-size 6" in err


def test_hopf_check(capsys, z2_file, tmp_path):
    assert run(capsys, "hopf-check", "--group", z2_file) == \
        (0, "(group: ok, algebra: ok)\n", "")
    # the operator comes from the group file's 'op' block only
    const = tmp_path / "const.json"
    const.write_text(json.dumps({**Z2, "op": {"0": "1", "1": "1"}}))
    code, out, _ = run(capsys, "hopf-check", "--group", str(const))
    assert code == 1
    assert out.splitlines()[0] == "(group: FAIL, algebra: FAIL)"
    code, out, err = run(capsys, "hopf-check", "--group", z2_file, "--op", str(const))
    assert (code, out) == (2, "") and "unrecognized arguments: --op" in err
    noop = tmp_path / "noop.json"
    noop.write_text(json.dumps({"elements": ["0", "1"], "mul": [[0, 1], [1, 0]]}))
    code, out, _ = run(capsys, "hopf-check", "--group", str(noop))
    assert code == 0 and out == "verdicts agree on all 4 operator maps\n"
    z3 = cyclic_file(tmp_path, 3)
    assert run(capsys, "hopf-check", "--group", z3) == \
        (0, "verdicts agree on all 27 operator maps\n", "")
    # the exhaustive cap is a constant: past it a group is refused at once
    z8 = cyclic_file(tmp_path, 8)
    assert run(capsys, "hopf-check", "--group", z8) == \
        (2, "", "error: carrier size 8 exceeds the exhaustive cap 7\n")
    code, out, err = run(capsys, "hopf-check", "--group", z3, "--max-size", "3")
    assert (code, out) == (2, "") and "unrecognized arguments: --max-size 3" in err


def test_hopf_check_exhaustive_cap_bounds_only_the_exhaustive_mode(capsys, tmp_path):
    def group_file(name, n, fixed=None):
        # Z_n with the constant operator onto 0, except at `fixed`
        path = tmp_path / name
        path.write_text(json.dumps({"elements": [str(i) for i in range(n)],
                                    "mul": [[(i + j) % n for j in range(n)] for i in range(n)],
                                    "op": {str(i): str(i if i == fixed else 0) for i in range(n)}}))
        return str(path)

    # an op block is checked up to the group check's cap, past the exhaustive one
    z30 = group_file("z30.json", 30)
    assert run(capsys, "hopf-check", "--group", z30) == (0, "(group: ok, algebra: ok)\n", "")
    assert run(capsys, "eval", "[x]", "--group", z30, "--map", "x=5") == (0, "0\n", "")
    assert run(capsys, "hopf-check", "--group", group_file("z30m.json", 30, fixed=1)) == \
        (1, "(group: FAIL, algebra: FAIL)\naveraging: FAIL fails at (1, 1)\n", "")
    # past the cap every command that checks the group refuses it
    cap = MAX_GROUP_ORDER
    big = group_file("big.json", cap + 1)
    refused = (2, "", f"error: carrier size {cap + 1} exceeds the exhaustive-check cap {cap}\n")
    for argv in (("hopf-check", "--group", big), ("eval", "x", "--group", big)):
        assert run(capsys, *argv) == refused


def test_module_entry_point_keeps_the_exit_contract():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for argv, want in ((["normalize", "x"], 0),
                       (["normalize", "--check-only", "[x] [y]"], 1),
                       (["normalize", "[x"], 2)):
        proc = subprocess.run([sys.executable, "-m", "avgroups.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == want, (argv, proc.stderr)
        assert "Traceback" not in proc.stderr, argv


def test_recursion_limit_is_refused_with_exit_2():
    # the oracle nests [x]^k k deep; under a recursion limit of 200 it
    # overflows at k = 250 in well under a second, as [x]^1000 does under
    # the default limit in seconds
    code = """
import sys
sys.setrecursionlimit(200)
from avgroups.cli import main
sys.exit(main(["normalize", "[x]^250"]))
"""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


def test_hopf_check_rejects_malformed_operator_files(capsys, tmp_path):
    def check(op):
        group = tmp_path / "group.json"
        group.write_text(json.dumps({**Z2, "op": op}))
        return run(capsys, "hopf-check", "--group", str(group))

    assert check({"0": "1"}) == (2, "", "error: 'op' is not total; missing ['1']\n")
    assert check({"0": "1", "1": "zz"}) == (2, "", "error: unknown element 'zz'\n")
    assert check({"0": "1", "1": "0", "2": "0"}) == (2, "", "error: unknown element '2'\n")
    for op in (["0", "1"], "swap"):
        assert check(op) == \
            (2, "", "error: 'op' must map element names to element names\n"), op
    assert check({"0": "1", "1": "0"}) == (0, "(group: ok, algebra: ok)\n", "")


def test_lie_check(capsys, tmp_path):
    # the operator is the Lie file's own "matrix", as the group file carries "op"
    def check(matrix=None, dim=2):
        data = {"dim": dim, "brackets": [{"i": 1, "j": 2, "coeffs": {"2": "1"}}]}
        lie = tmp_path / "lie.json"
        lie.write_text(json.dumps(data if matrix is None else {**data, "matrix": matrix}))
        return run(capsys, "lie-check", "--structure", str(lie))

    assert check([["1", "0"], ["0", "0"]]) == \
        (0, "averaging on basis pairs: ok\nleft Leibniz on basis triples: ok\n", "")
    assert check([[0, 0], [0, 1]]) == \
        (1, "averaging on basis pairs: FAIL fails at (e1, e2)\n"
            "left Leibniz on basis triples: FAIL fails at (e2, e1, e1)\n", "")
    assert check() == (2, "", "error: Lie file has no 'matrix'\n")
    assert check(["1", "0", "0", "0"]) == (2, "", "error: operator matrix rows must be lists\n")
    assert check(1.5) == (2, "", "error: operator matrix must be a list of rows\n")
    # a dimension past the cap is refused before the matrix or any dim^2 table
    code, out, err = check([[1, 0], [0, 0]], dim=MAX_LIE_DIM + 1)
    assert (code, out) == (2, "") and f"exceeds the limit of {MAX_LIE_DIM}" in err
    # the one file is the only flag: a second operator file is a usage error
    lie = str(tmp_path / "lie.json")
    code, out, err = run(capsys, "lie-check", "--structure", lie, "--operator", lie)
    assert (code, out) == (2, "") and "unrecognized arguments: --operator" in err


def _dense_sl2(k, seed=1):
    """sl2^k in the basis b_i = sum_a T[a][i] e_a, T unit upper-triangular with
    entries above the diagonal drawn from {0, 0, 1, -1}: every constant of
    [b_i, b_j] = T^-1 [T e_i, T e_j] is an int, and most pairs are dense."""
    n, rng = 3 * k, random.Random(seed)
    T = [[int(a == i) if a >= i else rng.choice((0, 0, 1, -1)) for i in range(n)]
         for a in range(n)]
    sl2 = {}  # e, f, h = b, b + 1, b + 2: [e, f] = h, [h, e] = 2e, [h, f] = -2f
    for b in range(0, n, 3):
        for x, y, z, v in ((b, b + 1, b + 2, 1), (b + 2, b, b, 2), (b + 2, b + 1, b + 1, -2)):
            sl2[x, y], sl2[y, x] = {z: v}, {z: -v}
    brackets = {}
    for i, j in itertools.product(range(n), repeat=2):
        v = [0] * n
        for (a, b), cell in sl2.items():
            for z, c in cell.items():
                v[z] += T[a][i] * T[b][j] * c
        for r in reversed(range(n)):  # T x = v by back substitution, in place
            v[r] -= sum(T[r][m] * v[m] for m in range(r + 1, n))
        if any(v):
            brackets[i, j] = {r: c for r, c in enumerate(v) if c}
    return n, brackets


def test_a_dense_lie_file_reads_the_same_in_strings_and_ints(capsys, tmp_path):
    # integral values written as strings are read as ints, so both spellings
    # print the same report and run in int arithmetic
    n, brackets = _dense_sl2(4)
    assert n == 12 and sum(map(len, brackets.values())) > 10 * 4 * 6  # sl2^4 has 24
    outs = []
    for spell in (int, str):
        lie = tmp_path / f"{spell.__name__}.json"
        lie.write_text(json.dumps({
            "dim": n, "matrix": [[spell(int(i == j)) for j in range(n)] for i in range(n)],
            "brackets": [{"i": i + 1, "j": j + 1,
                          "coeffs": {str(k + 1): spell(c) for k, c in cell.items()}}
                         for (i, j), cell in brackets.items()]}))
        L, M = load_lie_file(str(lie))
        assert all(type(c) is int for row in L.brackets for cell in row for c in cell.values())
        assert all(type(x) is int for row in M for x in row)
        outs.append(run(capsys, "lie-check", "--structure", str(lie)))
    assert outs[0] == outs[1] == \
        (0, "averaging on basis pairs: ok\nleft Leibniz on basis triples: ok\n", "")


def test_a_closed_stdout_is_not_a_file_error(tmp_path):
    # S4's listing is about 370 KB, more than a pipe holds, so the CLI is
    # still printing when the reader goes away
    perms = sorted(itertools.permutations(range(4)))
    s4 = tmp_path / "s4.json"
    s4.write_text(json.dumps({"elements": ["".join(map(str, p)) for p in perms],
                              "mul": [[perms.index(tuple(p[i] for i in q)) for q in perms]
                                      for p in perms]}))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.Popen([sys.executable, "-m", "avgroups.cli", "search-ops", "--group",
                             str(s4)], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert first == "found 1546 averaging operator(s) on 24 elements\n"
    assert err == "error: standard output was closed\n"


def test_hostile_data_files_are_refused_in_time(capsys, tmp_path):
    # an exponent rational would make Fraction build ten million digits, and
    # string rows would be read digit by digit as a valid Z2 table
    lie, group = (tmp_path / f"{name}.json" for name in ("lie", "group"))
    lie.write_text(json.dumps({"dim": 1, "brackets": [], "matrix": [["1e9999999"]]}))
    group.write_text(json.dumps({"elements": ["e", "a"], "mul": ["01", "10"]}))
    assert run(capsys, "lie-check", "--structure", str(lie)) == \
        (2, "", "error: not a rational value: '1e9999999'\n")
    assert run(capsys, "hopf-check", "--group", str(group)) == \
        (2, "", "error: mul table must be a square of indices in range\n")


def test_unreadable_data_files_exit_2(tmp_path):
    # bytes that are not UTF-8, an integer past CPython's 4,300-digit limit,
    # and arrays nested past the recursion limit: json.load raises
    # UnicodeDecodeError, ValueError and RecursionError, and each is one
    # error line naming the file, on every subcommand that reads one
    files = {"utf": b'\xff\xfe{', "digits": b'{"dim": ' + b"9" * 5000 + b"}",
             "deep": b"[" * 100000 + b"]" * 100000}
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for name, data in files.items():
        path = tmp_path / f"{name}.json"
        path.write_bytes(data)
        for argv in (["eval", "--group", str(path), "x"], ["search-ops", "--group", str(path)],
                     ["hopf-check", "--group", str(path)], ["lie-check", "--structure", str(path)]):
            proc = subprocess.run([sys.executable, "-m", "avgroups.cli", *argv],
                                  capture_output=True, text=True, env=env, timeout=60)
            assert (proc.returncode, proc.stdout) == (2, ""), (argv, proc.stderr)
            assert "Traceback" not in proc.stderr, argv
            assert proc.stderr.startswith(f"error: {path} is not readable JSON: "), proc.stderr
            assert proc.stderr.count("\n") == 1, proc.stderr


def test_repeated_keys_are_refused(capsys, tmp_path):
    # json.load keeps the last of two values for one key, and "2" and "02"
    # name one coefficient index: each is one error line and exit 2
    group = tmp_path / "group.json"
    group.write_text('{"elements": ["e", "g"], "mul": [[0, 1], [1, 0]],'
                     ' "op": {"e": "e", "e": "g", "g": "e"}}')
    for argv in (["eval", "x", "--group", str(group), "--map", "x=g"],
                 ["search-ops", "--group", str(group)], ["hopf-check", "--group", str(group)]):
        assert run(capsys, *argv) == (2, "", f"error: {group} repeats the key 'e'\n"), argv
    lie = tmp_path / "lie.json"
    head = '{"dim": 2, "matrix": [[1, 0], [0, 0]], "brackets": [{"i": 1, "j": 2, "coeffs": '
    for coeffs, err in (('{"2": 1, "2": 5}', f"{lie} repeats the key '2'"),
                        ('{"2": 1, "02": "5"}', "coefficient index repeated in (e1, e2)"),
                        ('{" 2": 1, "2": "5"}', "coefficient index repeated in (e1, e2)")):
        lie.write_text(head + coeffs + "}]}")
        assert run(capsys, "lie-check", "--structure", str(lie)) == (2, "", f"error: {err}\n")
    # one spelling of each key reads as before
    lie.write_text(head + '{"2": 1}}]}')
    assert run(capsys, "lie-check", "--structure", str(lie))[0] == 0


def test_shrinker_minimizes_while_preserving_failure():
    # predicate: the word still contains a bracket letter
    fails = lambda ws: "[" in render(ws[0])
    start = (parse("x [y [z]]@2 w"),)
    small = shrink_counterexample(start, fails)
    assert small == (parse("[z]"),)
    # two-slot shrink: both words shrink independently
    fails2 = lambda ws: metrics(ws[0]).op_degree + metrics(ws[1]).op_degree >= 2
    small2 = shrink_counterexample((parse("x [y]@2"), parse("[z [w]]")), fails2)
    assert sum(metrics(w).op_degree for w in small2) == 2
    # a candidate that `valid` refuses is skipped: "x y" keeps "x", not "y" or "1"
    has_x = lambda w: "x" in render(w)
    assert shrink_counterexample((parse("x y"),), lambda ws: True, valid=has_x) == \
        (parse("x"),)


def test_shrinker_stops_after_200_rounds():
    # each round deletes one letter, so x^250 keeps 50 of them
    assert shrink_counterexample((parse("x^250"),), lambda ws: True) == (parse("x^50"),)


def test_run_suite_reports_minimal_counterexample(monkeypatch):
    import avgroups.laws as laws_mod
    # deliberately broken product: drops the last letter of the right factor
    real = laws_mod.diamond
    monkeypatch.setattr(laws_mod, "diamond",
                        lambda u, v: real(u, v if not v
                                          else type(v)(v[:-1])))
    code, lines = run_suites("assoc", 30, GenParams(seed=1))
    assert code == 1
    assert lines[0].startswith("suite assoc: FAIL")
    assert lines[1].startswith("counterexample:")


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
    # every dim and element count stays <= 8: the Lie checks walk all dim^3
    # basis triples
    files = {
        "group": {"elements": ["0", "1", "2"], "mul": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
                  "op": {"0": "1", "1": "2", "2": "0"}},
        "lie": {"dim": 2, "brackets": [{"i": 1, "j": 2, "coeffs": {"2": "1"}}],
                "matrix": [["1", "0"], ["0", "0"]]},
    }
    paths = {name: str(tmp_path / f"{name}.json") for name in files}
    commands = {
        "group": [["eval", "[x] x^-1", "--group", paths["group"], "--map", "x=1"],
                  ["search-ops", "--group", paths["group"]],
                  ["hopf-check", "--group", paths["group"]]],
        "lie": [["lie-check", "--structure", paths["lie"]]],
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


# --- hostile words -------------------------------------------------------------

FUZZ_TOKENS = ("x", "y", "1", "[", "]", "]@", "^", "^-", "^0", "@0", "x^-1", " ", "\t",
               "[]", "x@2", "é", "\x00", "[x", "x]", ";", "-", "^--1", "@", "]^", "]@-1",
               "x^+1", "_", "a1", "1x", "[1]", "[x]@", "x^-0", "٣", "²", "３")
# ASCII, Arabic-Indic, fullwidth, superscript and Devanagari digits
FUZZ_DIGITS = ("0123456789", "٠١٢٣٤٥٦٧٨٩", "０１２３４５６７８９", "⁰¹²³⁴⁵⁶⁷⁸⁹",
               "०१२३४५६७८९")


def _hostile_word(rng):
    """Malformed tokens, nesting at the bound, or ^k/@n spelled in any digits."""
    kind = rng.randrange(5)
    if kind == 0:
        return "".join(rng.choice(FUZZ_TOKENS) for _ in range(rng.randint(1, 8)))
    if kind < 3:
        # "[[x]]" folds to "[x]@2"; "[y [y x]]" nests two deep
        d = rng.choice((MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1))
        inner = rng.choice(("x", "x y^-1", "1", "", "[x]@2"))
        return (rng.choice(("[", "[y ", "[x^-1 ")) * d + inner + "]" * d
                + rng.choice(("", "@2", "^-1", " x")))
    digits = rng.choice(FUZZ_DIGITS)

    def spell(v):
        return "".join(digits[int(c)] for c in str(v))

    k = rng.randint(0, 40)
    n = int(10 ** rng.uniform(0, 4))  # n <= 10^4, most of them small
    base = rng.choice(("[x y]", "[x [y]]", "[x]", "x", "[x^-1 y]", "1"))
    return f"{base}@{spell(n)}^{rng.choice(('', '-'))}{spell(k)}"


def test_hostile_words_keep_the_exit_contract(capsys, tmp_path):
    group = tmp_path / "z2.json"
    group.write_text(json.dumps(Z2))
    rng = random.Random(12)
    commands = [
        lambda w: ["normalize", w],
        lambda w: ["normalize", "--trace", w],
        lambda w: ["normalize", "--via-ops", w],
        lambda w: ["normalize", "--check-only", w],
        lambda w: ["mul", w, _hostile_word(rng)],
        lambda w: ["op", w, "--iter", rng.choice(("0", "-1", str(10 ** 9), "1", "3"))],
        lambda w: ["inv", w],
        lambda w: ["eval", w, "--group", str(group), "--map", "x=1,y=0"],
    ]
    seen, too_deep = set(), 0
    for trial in range(240):
        argv = commands[trial % len(commands)](_hostile_word(rng))
        code, _, err = run(capsys, *argv)
        assert code in (0, 1, 2) and "Traceback" not in err, argv
        seen.add(code)
        too_deep += "error: result nests brackets" in err
    # results nested past the bound occur, and are refused with exit 2
    assert seen == {0, 1, 2} and too_deep


# --- README and package surface ------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]


def _readme_python_blocks():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(r"```python\n(.*?)```", text, re.S)


def test_readme_python_blocks_run_and_show_their_values():
    # in order, in one namespace; an expression statement ends in a comment
    # holding the literal it evaluates to
    namespace, checked = {}, 0
    for block in _readme_python_blocks():
        lines = block.splitlines()
        for stmt in ast.parse(block).body:
            if not isinstance(stmt, ast.Expr):
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
                continue
            shown = lines[stmt.end_lineno - 1][stmt.end_col_offset:].strip()
            assert shown.startswith("# "), lines[stmt.end_lineno - 1]
            got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            assert got == ast.literal_eval(shown[2:]), lines[stmt.end_lineno - 1]
            checked += 1
    # a comment on an assignment is prose; every expression line shows a value
    assert checked == 17


def test_readme_cli_lines_keep_their_exit_codes(capsys):
    # every line of the README's CLI block that needs no file, run in-process
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", text, re.S).group(1)
    ran = 0
    for line in block.splitlines():
        prog, *argv = shlex.split(line, comments=True)
        assert prog == "avgroups", line
        if any(a.endswith(".json") for a in argv):
            continue
        code, out, _ = run(capsys, *argv)
        assert code == (1 if argv[:2] == ["normalize", "--check-only"] else 0), line
        if argv[:2] == ["normalize", "--trace"]:
            assert out == "step 1 R1 at 0: [x] [y] -> [x [y]]\n[x [y]]\n"
        ran += 1
    assert ran == 11


def _imported_from_avgroups(source):
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "avgroups"
            for alias in node.names}


def test_top_level_names_are_the_readme_surface_and_the_benchmark_imports():
    readme = _imported_from_avgroups("\n".join(_readme_python_blocks()))
    bench = _imported_from_avgroups(
        (ROOT / "avbench" / "test_avbench.py").read_text(encoding="utf-8"))
    top = {name for name, value in vars(avgroups).items()
           if not name.startswith("_") and not inspect.ismodule(value)}
    assert top == readme | bench
