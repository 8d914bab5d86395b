"""Command-line surface: normalization, arithmetic, evaluation, suites.

Exit codes are a contract: 0 means every requested check passed, 1 means a
verified mathematical counterexample or failure was found and printed, 2
means the input could not be used (usage, parse, or file-format errors).
Report bodies are deterministic for a given seed; timing goes on its own
final line so outputs stay byte-comparable.
"""

import argparse
import itertools
import os
import sys
import time

from .words import (
    MAX_NESTING,
    UnassignedGenerator,
    Word,
    WordSyntaxError,
    eval_operated,
    metrics,
    nesting,
    parse,
    render,
)
from .normalform import (
    OracleStepLimit,
    STRATEGIES,
    is_normal,
    oracle_normalize,
    oracle_steps,
)
from .avgroup import (DrawTooLarge, FreeTarget, GenParams, _alphabet_letters, diamond,
                      inverse, op_iter)
from .structures import (
    AveragingGroupHandle,
    CheckFailed,
    TableError,
    load_group_file,
    search_averaging_ops,
    validate_averaging,
    validate_group,
)
from .linearalg import (
    check_averaging_lie,
    check_hopf_equivalence,
    check_leibniz,
    load_lie_file,
)
from .laws import SUITE_NAMES, run_suites


# --- subcommands ----------------------------------------------------------------

class UsageError(ValueError):
    """The arguments do not make one request; main prints it as an error line, exit 2."""


class ResultTooDeep(ValueError):
    """A result nests brackets deeper than MAX_NESTING, so parse would refuse its text."""


def _text(w: Word) -> str:
    """Rendering of a result word, refused when it could not be read back."""
    depth = nesting(w)
    if depth > MAX_NESTING:
        raise ResultTooDeep(
            f"result nests brackets {depth} deep, deeper than the {MAX_NESTING} "
            "that can be read back; not printed")
    return render(w)


def _cmd_normalize(args) -> int:
    if args.strategy and (args.check_only or args.via_ops):
        raise UsageError("--strategy does not apply to --check-only or --via-ops")
    w = parse(args.word)
    if args.check_only:
        ok = is_normal(w)
        print("normal" if ok else "not normal")
        return 0 if ok else 1
    if args.via_ops:
        itself = {a: parse(a) for a in metrics(w).generators}
        print(_text(eval_operated(w, FreeTarget, itself)))
        return 0
    # the result is checked before any step is rendered: a refused result
    # prints nothing, so its steps would be rendered for nothing
    strategy = args.strategy or STRATEGIES[0]
    text = _text(oracle_normalize(w, strategy))
    if args.trace:
        for i, (_, s) in enumerate(oracle_steps(w, strategy), 1):
            at = "/".join(map(str, s.path)) or "top"
            print(f"step {i} {s.rule} at {at}: {s.before} -> {s.after}")
    print(text)
    return 0


def _normalized_input(text: str) -> Word:
    w = parse(text)
    if not is_normal(w):
        w = oracle_normalize(w)
        depth = nesting(w)
        shown = render(w) if depth <= MAX_NESTING else f"a word nested {depth} deep"
        print(f"note: input normalized to {shown}", file=sys.stderr)
    return w


def _cmd_mul(args) -> int:
    u = _normalized_input(args.left)
    v = _normalized_input(args.right)
    print(_text(diamond(u, v)))
    return 0


def _cmd_op(args) -> int:
    if args.iter < 1:
        raise UsageError("--iter must be at least 1")
    w = _normalized_input(args.word)
    print(_text(op_iter(w, args.iter)))
    return 0


def _cmd_inv(args) -> int:
    print(_text(inverse(_normalized_input(args.word))))
    return 0


def _cmd_check(args) -> int:
    params = GenParams(max_depth=args.max_depth, max_breadth=args.max_breadth,
                       alphabet=tuple(args.alphabet.split(",")), seed=args.seed)
    try:
        # the generators' own name check, ahead of the flag checks
        _alphabet_letters(params.alphabet)
    except ValueError as exc:
        raise UsageError(f"--alphabet: {exc}") from None
    for flag, value, least in (("--trials", args.trials, 1), ("--max-depth", args.max_depth, 0),
                               ("--max-breadth", args.max_breadth, 0)):
        if value < least:
            raise UsageError(f"{flag} must be at least {least}")
    t0 = time.perf_counter()
    code, lines = run_suites(args.suite, args.trials, params)
    for line in lines:
        print(line)
    print(f"elapsed: {time.perf_counter() - t0:.3f}s")
    return code


def _cmd_eval(args) -> int:
    table, op = load_group_file(args.group)
    if op is None:
        raise TableError("group file has no 'op' block")
    handle = AveragingGroupHandle(table, op)
    assignment = {}
    if args.map:
        for part in args.map.split(","):
            name, eq, value = part.partition("=")
            if not eq or not name.strip() or name.strip() in assignment:
                raise UsageError(f"bad --map entry {part!r}")
            assignment[name.strip()] = handle.element(value.strip())
    w = parse(args.word)
    print(handle.name(eval_operated(w, handle, assignment)))
    return 0


def _cmd_search_ops(args) -> int:
    table, _ = load_group_file(args.group)
    ops = search_averaging_ops(table, pointed_only=args.pointed)
    kind = "pointed averaging" if args.pointed else "averaging"
    print(f"found {len(ops)} {kind} operator(s) on {len(table)} elements")
    for i, op in enumerate(ops, 1):
        body = " ".join(f"{table.name(g)}->{table.name(op[g])}"
                        for g in range(len(table)))
        print(f"A{i}: {body}")
    return 0


# Largest carrier whose n^n maps hopf-check walks: Z7's 823,543 take seconds
MAX_EXHAUSTIVE_ORDER = 7


def _cmd_hopf_check(args) -> int:
    table, op = load_group_file(args.group)
    validate_group(table).require()
    if op is None:
        n = len(table)
        if n > MAX_EXHAUSTIVE_ORDER:
            raise TableError(
                f"carrier size {n} exceeds the exhaustive cap {MAX_EXHAUSTIVE_ORDER}")
        for cand in itertools.product(range(n), repeat=n):
            check_hopf_equivalence(table, cand)
        print(f"verdicts agree on all {n ** n} operator maps")
        return 0
    group_ok, algebra_ok = check_hopf_equivalence(table, op)
    word = {True: "ok", False: "FAIL"}
    print(f"(group: {word[group_ok]}, algebra: {word[algebra_ok]})")
    if not group_ok:
        validate_averaging(table, op).require()
    return 0


def _cmd_lie_check(args) -> int:
    L, M = load_lie_file(args.structure)
    if M is None:
        raise TableError("Lie file has no 'matrix'")
    reps = check_averaging_lie(L, M), check_leibniz(L, M)
    print("\n".join(line for rep in reps for line in rep.lines()))
    return 0 if all(rep.ok for rep in reps) else 1


# --- parser and entry -----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="avgroups",
        description="bracketed-word calculus: normal forms, products, checks")
    sub = p.add_subparsers(dest="command", required=True)

    n = sub.add_parser("normalize", help="normal form of a word")
    n.add_argument("word")
    mode = n.add_mutually_exclusive_group()
    mode.add_argument("--via-ops", action="store_true",
                      help="normalize through the group operations instead")
    mode.add_argument("--trace", action="store_true", help="print each rewrite step")
    mode.add_argument("--check-only", action="store_true",
                      help="report the normality verdict only")
    n.add_argument("--strategy", choices=STRATEGIES)  # default STRATEGIES[0]
    n.set_defaults(func=_cmd_normalize)

    m = sub.add_parser("mul", help="product of two words")
    m.add_argument("left")
    m.add_argument("right")
    m.set_defaults(func=_cmd_mul)

    o = sub.add_parser("op", help="apply the bracket operator")
    o.add_argument("word")
    o.add_argument("--iter", type=int, default=1, help="number of applications")
    o.set_defaults(func=_cmd_op)

    i = sub.add_parser("inv", help="inverse of a word")
    i.add_argument("word")
    i.set_defaults(func=_cmd_inv)

    c = sub.add_parser("check", help="run randomized law suites")
    c.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
    c.add_argument("--trials", type=int, default=100)
    c.add_argument("--seed", type=int, default=GenParams.seed)
    c.add_argument("--max-depth", type=int, default=GenParams.max_depth)
    c.add_argument("--max-breadth", type=int, default=GenParams.max_breadth)
    c.add_argument("--alphabet", default=",".join(GenParams.alphabet),
                   help="comma-separated generator names")
    c.set_defaults(func=_cmd_check)

    e = sub.add_parser("eval", help="evaluate a word in a finite table")
    e.add_argument("word")
    e.add_argument("--group", required=True, help="JSON group file with 'op'")
    e.add_argument("--map", default="",
                   help="generator assignment, e.g. \"x=a,y=b\"")
    e.set_defaults(func=_cmd_eval)

    s = sub.add_parser("search-ops", help="enumerate averaging operators")
    s.add_argument("--group", required=True)
    s.add_argument("--pointed", action="store_true",
                   help="only operators fixing the identity")
    s.set_defaults(func=_cmd_search_ops)

    h = sub.add_parser("hopf-check",
                       help="group-level vs algebra-level averaging verdicts")
    h.add_argument("--group", required=True, help="JSON group file; all maps when no 'op'")
    h.set_defaults(func=_cmd_hopf_check)

    l = sub.add_parser("lie-check", help="averaging and Leibniz checks")
    l.add_argument("--structure", required=True, help="JSON Lie file with 'matrix'")
    l.set_defaults(func=_cmd_lie_check)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the exit flush holds
        print("error: standard output was closed", file=sys.stderr)
        return 2
    except WordSyntaxError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except UnassignedGenerator as exc:
        print(f"missing assignment: {exc.args[0]}", file=sys.stderr)
        return 2
    except CheckFailed as exc:
        # a table, operator or Lie spec failed its axioms: the report is the finding
        print("\n".join(exc.report.lines()))
        return 1
    except (UsageError, TableError, ResultTooDeep, DrawTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OracleStepLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        # a word built on the way, such as the oracle's [x]^1000, nests past
        # the interpreter's recursion limit
        print("error: the words this input leads to nest too deep to work on "
              "(recursion limit reached)", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
