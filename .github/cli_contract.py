"""The CLI's process contract: exit 0, 1 or 2, in time, with the promised output.

Each case of the table runs as its own process under a time bound (the child
is killed when the bound passes, as `timeout N` kills it), then its exit code
and at most one output check are compared.  Run it from the repository root,
with no arguments:

    PYTHONPATH=src python .github/cli_contract.py

Every case runs, even after a failure.  The tier-1 test
`tests/test_cli_contract.py` runs every case not marked `ci_only` through
`write_files`, `run` and `failure` below.  One line per case gives its verdict
and elapsed seconds; a case with no output check also shows its last stdout
line.  The exit status is 1 when any case failed.  The data files are written
to a temporary directory, which is removed at the end.
"""

import itertools
import json
import os
import shlex
import subprocess
import sys
import tempfile
import threading
import time
from typing import NamedTuple

CLI = (sys.executable, "-m", "avgroups.cli")

# each check reads (stdout bytes, stderr text, wanted value); a line is
# compared with its newline, and "one stderr line" has one newline, at its end
CHECKS = {
    "stdout": lambda out, err, want: out == (want + "\n").encode(),
    "first stdout line": lambda out, err, want: out.split(b"\n", 1)[0] == want.encode(),
    "stdout bytes": lambda out, err, want: len(out) == want,
    "stderr": lambda out, err, want: err == want + "\n",
    "stderr has": lambda out, err, want: want in err,
    "one stderr line": lambda out, err, want: (err.startswith(want)
                                               and err.find("\n") == len(err) - 1),
}

S4_HOPF = """\
import random, sys, time
from avgroups.linearalg import check_hopf_equivalence
from avgroups.structures import load_group_file, search_averaging_ops
g, _ = load_group_file(sys.argv[1])
ops = search_averaging_ops(g)
rng, mutants = random.Random(0), []
for op in ops:
    for _ in range(4):
        i = rng.randrange(len(op))
        v = rng.choice([v for v in range(len(op)) if v != op[i]])
        mutants.append(op[:i] + (v,) + op[i + 1:])
start = time.perf_counter()
passed = sum(check_hopf_equivalence(g, op) == (True, True) for op in ops)
middle = time.perf_counter()
failed = sum(check_hopf_equivalence(g, op) == (False, False) for op in mutants)
print(f"{passed} of {len(ops)} operators pass in {middle - start:.2f} s,"
      f" {failed} of {len(mutants)} mutants fail in {time.perf_counter() - middle:.2f} s")
sys.exit(0 if passed == len(ops) == 1546 and failed == len(mutants) == 6184 else 1)
"""


class Case(NamedTuple):
    args: tuple
    bound: float  # seconds
    code: int
    check: tuple | None = None  # (a CHECKS key, the wanted value)
    name: str = ""  # shown instead of the arguments
    program: tuple = CLI
    head: bool = False  # read one stdout line, then close stdout, as `| head -n 1`
    ci_only: bool = False  # slow: this script runs it, the tier-1 test does not


def permutation_group(k):
    """S_k: the permutations of 0..k-1, each named by its digits."""
    p = sorted(itertools.permutations(range(k)))
    return {"elements": ["".join(map(str, a)) for a in p],
            "mul": [[p.index(tuple(a[i] for i in b)) for b in p] for a in p]}


def table_group(n, xor=False, op=None):
    """Z_n on 0..n-1, or (Z2)^k under xor when n = 2^k; op(i) gives an 'op' block."""
    data = {"elements": [str(i) for i in range(n)],
            "mul": [[i ^ j if xor else (i + j) % n for j in range(n)] for i in range(n)]}
    if op:
        data["op"] = {str(i): str(op(i)) for i in range(n)}
    return data


def files():
    """Each data file's name and text; the text is written as latin-1, so the
    non-UTF-8 file keeps its two bytes."""
    lie = '"dim": 2, "brackets": [{"i": 1, "j": 2, "coeffs": {"2": "1"}}]'
    groups = {
        "s4": permutation_group(4),
        "s5": permutation_group(5),
        "z4": table_group(4, op=lambda i: (i + 1) % 4),
        "z6": table_group(6),
        "z8": table_group(8),
        "z29": table_group(29),
        "z30": table_group(30, op=lambda i: 0),
        "z30m": table_group(30, op=lambda i: i if i == 1 else 0),
        "z2_7": table_group(128, xor=True),
    }
    return {**{name: json.dumps(data) for name, data in groups.items()},
            # hostile files: each is one error line and exit 2
            "utf": "\xff\xfe{",
            "digits": '{"dim": ' + "9" * 5000 + "}",
            "deep": "[" * 100000 + "]" * 100000,
            "exp": '{"dim": 1, "brackets": [], "matrix": [["1e9999999"]]}',
            "rows": '{"elements": ["e", "a"], "mul": ["01", "10"]}',
            "names": '{"elements": [null, true], "mul": [[0, 1], [1, 0]]}',
            "key": '{"elements": ["e", "g"], "mul": [[0, 1], [1, 0]], '
                   '"op": {"e": "e", "e": "g", "g": "e"}}',
            "index": '{"dim": 2, "brackets": [{"i": 1, "j": 2, "coeffs": {"2": 1, "02": "5"}}], '
                     '"matrix": [[1, 0], [0, 0]]}',
            # the README's Lie algebra [e1, e2] = e2 with each projection, and with none
            "lie-e1": "{" + lie + ', "matrix": [[1, 0], [0, 0]]}',
            "lie-e2": "{" + lie + ', "matrix": [[0, 0], [0, 1]]}',
            "lie-none": "{" + lie + "}"}


def cases(f):
    """The table; f(name) is the path of a data file."""
    deep = "[x " * 250 + "x" + "]" * 250
    iterated = "[x [y]@99999999]@100000001"
    error = ("one stderr line", "error: ")
    return [
        # the law suites through the console entry point's module
        Case(("check", "--trials", "20", "--seed", "1"), 60, 0),
        # [x]^200 takes 19,900 oracle steps before its 200-deep result is
        # refused; a bad --iter is refused before the word is read; [x]^1000
        # nests past the recursion limit
        Case(("normalize", "[x]^200"), 10, 2),
        Case(("op", "--iter", "0", "[x]^1000"), 2, 2, ("stderr has", "--iter must be at least 1")),
        Case(("normalize", "[x]^1000"), 30, 2, error, ci_only=True),
        # a draw at breadth 100,000 and depth 3 stops at MAX_DRAW_LETTERS
        Case(("check", "--max-breadth", "100000", "--max-depth", "3", "--trials", "1",
              "--suite", "assoc"), 10, 2, error),
        # a tight spelling is read token by token; a refusal names where its
        # token starts, and the 250-deep word is refused at bracket 101
        Case(("normalize", "x^2y [x]@2[y]"), 60, 0, ("stdout", "x x y [x [y]]@2")),
        Case(("normalize", "x [y #"), 60, 2, ("stderr has", "(at position 5)")),
        Case(("normalize", deep), 10, 2, ("stderr has", "(at position 300)"),
             name="normalize '[x [x ... x]]', 250 deep"),
        # one piece read through the count path, printed as "x x ... x"
        Case(("normalize", "x^3000000"), 10, 0, ("stdout bytes", 6000000)),
        # a bracket [c]@n is one op(c, n) call in every target
        Case(("eval", iterated, "--group", f("z4.json"), "--map", "x=1,y=2"), 10, 0,
             ("stdout", "3")),
        Case(("normalize", "--via-ops", iterated), 10, 0, ("stdout", "[x [y]]@199999999")),
        # S4's operators are built from its subgroups and double cosets; S5
        # and Z2^7 have more than MAX_LISTED and are refused before any table
        Case(("search-ops", "--group", f("s4.json")), 10, 0,
             ("first stdout line", "found 1546 averaging operator(s) on 24 elements")),
        Case(("search-ops", "--group", f("s5.json")), 10, 2, error),
        Case(("search-ops", "--group", f("z2_7.json")), 10, 2, error),
        Case(("search-ops", "--group", f("z29.json")), 10, 0,
             ("first stdout line", "found 30 averaging operator(s) on 29 elements")),
        # the exhaustive mode: all 6^6 maps of Z6, and Z8 past the cap
        Case(("hopf-check", "--group", f("z6.json")), 20, 0,
             ("stdout", "verdicts agree on all 46656 operator maps"), ci_only=True),
        Case(("hopf-check", "--group", f("z8.json")), 5, 2,
             ("one stderr line", "error: carrier size 8 exceeds the exhaustive cap 7")),
        Case(("normalize", "--check-only", "--trace", "x"), 5, 2),
        # the operator comes from the group file's 'op' block; --op is not a flag
        Case(("hopf-check", "--group", f("z30.json")), 10, 0,
             ("stdout", "(group: ok, algebra: ok)")),
        Case(("hopf-check", "--group", f("z30m.json")), 10, 1,
             ("stdout", "(group: FAIL, algebra: FAIL)\naveraging: FAIL fails at (1, 1)")),
        Case(("hopf-check", "--group", f("z30.json"), "--op", f("z30.json")), 10, 2,
             ("stderr has", "unrecognized arguments: --op")),
        # S4's listing (about 370 KB) is more than a pipe holds, so closing
        # stdout after one line cuts the CLI off while it writes
        Case(("search-ops", "--group", f("s4.json")), 10, 2,
             ("stderr", "error: standard output was closed"), head=True),
        # all 1,546 operators of S4 pass and 6,184 one-entry mutants fail
        Case((f("s4.json"),), 10, 0, name="S4 Hopf library script",
             program=(sys.executable, "-c", S4_HOPF), ci_only=True),
        # files that are not UTF-8, JSON integers of 5,000 digits, arrays
        # 100,000 deep, exponent rationals, string rows, names that are not
        # strings, a key written twice, a coefficient index spelled twice
        *(Case(args, 10, 2, error) for name in ("utf", "digits", "deep")
          for args in (("eval", "--group", f(name + ".json"), "x"),
                       ("lie-check", "--structure", f(name + ".json")))),
        Case(("lie-check", "--structure", f("exp.json")), 10, 2, error),
        Case(("hopf-check", "--group", f("rows.json")), 10, 2, error),
        Case(("search-ops", "--group", f("names.json")), 10, 2, error),
        Case(("eval", "--group", f("key.json"), "x"), 10, 2, error),
        Case(("hopf-check", "--group", f("key.json")), 10, 2, error),
        Case(("lie-check", "--structure", f("index.json")), 10, 2, error),
        # the operator is the Lie file's own 'matrix'; --operator is not a flag
        Case(("lie-check", "--structure", f("lie-e1.json")), 10, 0,
             ("stdout", "averaging on basis pairs: ok\nleft Leibniz on basis triples: ok")),
        Case(("lie-check", "--structure", f("lie-e2.json")), 10, 1,
             ("stdout", "averaging on basis pairs: FAIL fails at (e1, e2)\n"
                        "left Leibniz on basis triples: FAIL fails at (e2, e1, e1)")),
        Case(("lie-check", "--structure", f("lie-none.json")), 10, 2,
             ("stderr", "error: Lie file has no 'matrix'")),
        Case(("lie-check", "--structure", f("lie-e1.json"), "--operator", f("lie-e1.json")), 10, 2,
             ("stderr has", "unrecognized arguments: --operator")),
    ]


def run(case):
    """(exit code, stdout bytes, stderr text, elapsed seconds) of one case."""
    start = time.perf_counter()
    with subprocess.Popen(case.program + case.args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as p:
        timer = threading.Timer(case.bound, p.kill)
        timer.start()
        try:
            if case.head:
                p.stdout.readline()
                p.stdout.close()
            out, err = p.communicate()
        finally:
            timer.cancel()
    return p.returncode, out or b"", err.decode(errors="replace"), time.perf_counter() - start


def failure(case, code, out, err, elapsed):
    """Why the case failed, or None."""
    if elapsed >= case.bound:
        return f"timed out after {case.bound} s"
    if code != case.code:
        return f"exit {code}, expected {case.code}"
    if case.check and not CHECKS[case.check[0]](out, err, case.check[1]):
        return f"{case.check[0]} is not {case.check[1]!r}"
    return None


def write_files(d):
    """Write the data files into directory `d`; return the table that reads them there."""
    for name, text in files().items():
        with open(os.path.join(d, name + ".json"), "wb") as fh:
            fh.write(text.encode("latin-1"))
    return cases(lambda name: os.path.join(d, name))


def shown(case, d):
    """The case as its verdict line names it, with the data directory `d` dropped."""
    text = case.name or shlex.join(a.replace(d + os.sep, "") for a in case.args)
    return text + (" | head -n 1" if case.head else "")


def main():
    with tempfile.TemporaryDirectory() as d:
        table = write_files(d)
        failed, start = 0, time.perf_counter()
        for case in table:
            code, out, err, elapsed = run(case)
            why = failure(case, code, out, err, elapsed)
            out = out.decode(errors="replace").splitlines()
            if why:
                failed += 1
                print(f"FAIL {elapsed:6.2f} s  {shown(case, d)}: {why}", flush=True)
                for line in out[:3] + err.splitlines()[-5:]:
                    print(f"       | {line[:200]}")
            else:
                last = "".join(f"  ({line})" for line in out[-1:] if not case.check)
                print(f"ok   {elapsed:6.2f} s  {shown(case, d)}{last}", flush=True)
        print(f"{len(table) - failed} of {len(table)} cases ok in"
              f" {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
