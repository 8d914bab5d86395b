"""Command-line surface: normalization, arithmetic, evaluation, suites.

Exit codes are a contract: 0 means every requested check passed, 1 means a
verified mathematical counterexample or failure was found and printed, 2
means the input could not be used (usage, parse, or file-format errors).
Report bodies are deterministic for a given seed; timing goes on its own
final line so outputs stay byte-comparable.
"""

import argparse
import itertools
import json
import sys
import time
from dataclasses import dataclass

from .words import (
    Br,
    MAX_NESTING,
    ONE,
    UnassignedGenerator,
    Word,
    WordSyntaxError,
    bracket_literal,
    eval_operated,
    is_reduced,
    make_br,
    make_gen,
    metrics,
    nesting,
    parse,
    reduce_concat,
    render,
)
from .normalform import (
    OracleStepLimit,
    STRATEGIES,
    is_normal,
    oracle_normalize,
    oracle_steps,
)
from .avgroup import (
    GenParams,
    diamond,
    free_target,
    inverse,
    op_apply,
    op_iter,
    random_normal_word,
    random_raw_word,
)
from .structures import (
    AveragingGroupHandle,
    CheckFailed,
    IntShiftGroup,
    TableError,
    _load_json,
    cyclic_group,
    idempotent_endo_operator,
    load_group_file,
    op_from_names,
    search_averaging_ops,
    sym3,
    sym3_sign_retraction,
    validate_averaging,
    validate_group,
)
from .linearalg import (
    check_averaging_lie,
    check_hopf_equivalence,
    check_leibniz,
    load_lie_file,
    load_operator_file,
    validate_lie,
)


@dataclass(frozen=True)
class SuiteConfig:
    suite: str = "all"
    trials: int = 100
    seed: int = 0
    max_depth: int = 3
    max_breadth: int = 4
    alphabet: tuple = ("x", "y", "z")


SUITE_NAMES = ("assoc", "averaging", "derived", "closure", "oracle", "hom")


# --- word corpus and shrinking ------------------------------------------------

def _sample(cfg: SuiteConfig, trial: int, slot: int, raw: bool = False) -> Word:
    p = GenParams(max_depth=cfg.max_depth, max_breadth=cfg.max_breadth,
                  alphabet=tuple(cfg.alphabet),
                  seed=cfg.seed * 1_000_003 + trial * 17 + slot)
    return random_raw_word(p) if raw else random_normal_word(p)


def _shrink_word(w: Word):
    """Strictly smaller variants: factor deletion, then depth truncation."""
    out = []
    fs = w.factors
    for i in range(len(fs)):
        out.append(reduce_concat(Word(fs[:i]), Word(fs[i + 1:])))
    for i, f in enumerate(fs):
        if isinstance(f, Br):
            if f.sign == 1:
                spliced = reduce_concat(Word(fs[:i]), f.content)
                out.append(reduce_concat(spliced, Word(fs[i + 1:])))
            if f.iter > 1:
                out.append(Word(fs[:i] + (make_br(f.content, 1, f.sign),) + fs[i + 1:]))
    seen, final, size = set(), [], metrics(w).size
    for c in out:
        if c != w and metrics(c).size < size and c not in seen:
            seen.add(c)
            final.append(c)
    return final


def shrink_counterexample(words, fails, valid=is_normal):
    """Greedy minimization in at most 200 rounds; each kept candidate still fails the law."""
    cur = tuple(words)
    for _ in range(200):
        better = None
        for idx in range(len(cur)):
            for cand in _shrink_word(cur[idx]):
                if not valid(cand):
                    continue
                trial = cur[:idx] + (cand,) + cur[idx + 1:]
                if fails(trial):
                    better = trial
                    break
            if better is not None:
                break
        if better is None:
            return cur
        cur = better
    return cur


# --- the law table -------------------------------------------------------------

def _law_assoc(u, v, w):
    return diamond(diamond(u, v), w) == diamond(u, diamond(v, w))


def _law_identity(u, v, w):
    return diamond(u, ONE) == u and diamond(ONE, u) == u


def _law_inverse(u, v, w):
    return diamond(u, inverse(u)) == ONE and diamond(inverse(u), u) == ONE


def _law_averaging(u, v):
    lhs = diamond(op_apply(u), op_apply(v))
    return (lhs == op_apply(diamond(op_apply(u), v))
            and lhs == op_apply(diamond(u, op_apply(v))))


def _law_derived(u, v):
    for n in (2, 3, 4):
        if op_apply(diamond(u, op_iter(v, n))) != op_iter(diamond(u, op_apply(v)), n):
            return False
    return True


def _law_closure(u, v):
    return (is_normal(diamond(u, v)) and is_normal(op_apply(u))
            and is_normal(inverse(u)))


def _law_oracle_agreement(u, v):
    return (diamond(u, v) == oracle_normalize(reduce_concat(u, v))
            and op_apply(u) == oracle_normalize(bracket_literal(u)))


def _law_oracle_raw(r):
    n1 = oracle_normalize(r, STRATEGIES[0])
    n2 = oracle_normalize(r, STRATEGIES[1])
    return n1 == n2 and oracle_normalize(n1) == n1 and is_normal(n1)


def law_commutes(targets):
    """Predicate on (u, v): evaluation into each (target, assignment) pair
    commutes with the product, the operator and the inverse."""
    def law(u, v):
        for target, asg in targets:
            hu = eval_operated(u, target, asg)
            if (eval_operated(diamond(u, v), target, asg)
                    != target.mul(hu, eval_operated(v, target, asg))
                    or eval_operated(op_apply(u), target, asg) != target.op(hu)
                    or eval_operated(inverse(u), target, asg) != target.inv(hu)):
                return False
        return True

    return law


def law_table(alphabet):
    """(suite, label, slots, corpus, predicate) for every law the suites check.

    A predicate takes `slots` words drawn from the corpus ("normal" words, or
    reduced "raw" ones) and returns whether the law holds on them.
    """
    z4 = AveragingGroupHandle(cyclic_group(4), (1, 2, 3, 0))
    s3 = idempotent_endo_operator(sym3(), sym3_sign_retraction())
    targets = [(IntShiftGroup(5), {a: i + 2 for i, a in enumerate(alphabet)}),
               (z4, {a: (i + 1) % 4 for i, a in enumerate(alphabet)}),
               (s3, {a: (2 * i + 1) % 6 for i, a in enumerate(alphabet)})]
    free, itself = free_target(), {a: parse(a) for a in alphabet}
    return [
        ("assoc", "associativity", 3, "normal", _law_assoc),
        ("assoc", "identity", 3, "normal", _law_identity),
        ("assoc", "inverses", 3, "normal", _law_inverse),
        ("averaging", "averaging law", 2, "normal", _law_averaging),
        ("derived", "iterated averaging laws", 2, "normal", _law_derived),
        ("closure", "closure of outputs", 2, "normal", _law_closure),
        ("oracle", "oracle agreement", 2, "normal", _law_oracle_agreement),
        ("oracle", "oracle idempotence and confluence", 1, "raw", _law_oracle_raw),
        ("hom", "evaluation homomorphisms", 2, "normal", law_commutes(targets)),
        ("hom", "self-target evaluation", 1, "normal",
         lambda u: eval_operated(u, free, itself) == u),
    ]


def _run_suite(name: str, cfg: SuiteConfig, table, drawn: dict):
    """Run one suite on a built `table`; returns (ok, report lines).

    `drawn` keeps each word by (trial, slot, corpus), shared across suites.
    """
    laws = [row[1:] for row in table if row[0] == name]
    if not laws:
        raise ValueError(f"unknown suite {name!r}")
    for trial in range(cfg.trials):
        for label, slots, corpus, law in laws:
            raw = corpus == "raw"
            for s in range(slots):
                if (trial, s, corpus) not in drawn:
                    drawn[trial, s, corpus] = _sample(cfg, trial, s, raw=raw)
            words = tuple(drawn[trial, s, corpus] for s in range(slots))
            if law(*words):
                continue
            small = shrink_counterexample(
                words, lambda ws: not law(*ws),
                valid=is_reduced if raw else is_normal)
            shown = ", ".join(f"{n} = {render(w)}"
                              for n, w in zip("uvw", small))
            return False, [f"suite {name}: FAIL ({label}) at trial {trial}",
                           f"counterexample: {shown}"]
    return True, [f"suite {name}: {cfg.trials} trials, pass"]


def run_suites(cfg: SuiteConfig):
    """Run cfg.suite, or every suite for "all"; returns (exit code, report lines)."""
    names = SUITE_NAMES if cfg.suite == "all" else (cfg.suite,)
    code, lines = 0, []
    table, drawn = law_table(cfg.alphabet), {}
    for name in names:
        ok, out = _run_suite(name, cfg, table, drawn)
        lines.extend(out)
        if not ok:
            code = 1
    return code, lines


# --- subcommands ----------------------------------------------------------------

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
    w = parse(args.word)
    if args.check_only:
        ok = is_normal(w)
        print("normal" if ok else "not normal")
        return 0 if ok else 1
    if args.via_ops:
        itself = {a: parse(a) for a in metrics(w).generators}
        print(_text(eval_operated(w, free_target(), itself)))
        return 0
    if args.trace:
        normal, steps = w, []
        for normal, step in oracle_steps(w, args.strategy):
            steps.append(step)
        text = _text(normal)
        for i, s in enumerate(steps, 1):
            at = "/".join(map(str, s.path)) or "top"
            print(f"step {i} {s.rule} at {at}: {s.before} -> {s.after}")
        print(text)
        return 0
    print(_text(oracle_normalize(w, args.strategy)))
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
    w = _normalized_input(args.word)
    if args.iter < 1:
        print("error: --iter must be at least 1", file=sys.stderr)
        return 2
    print(_text(op_iter(w, args.iter)))
    return 0


def _cmd_inv(args) -> int:
    print(_text(inverse(_normalized_input(args.word))))
    return 0


def _cmd_check(args) -> int:
    cfg = SuiteConfig(suite=args.suite, trials=args.trials, seed=args.seed,
                      max_depth=args.max_depth, max_breadth=args.max_breadth,
                      alphabet=tuple(args.alphabet.split(",")))
    try:
        for name in cfg.alphabet:
            make_gen(name)
    except ValueError as exc:
        print(f"error: --alphabet: {exc}", file=sys.stderr)
        return 2
    if cfg.trials < 1:
        print("error: --trials must be at least 1", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    code, lines = run_suites(cfg)
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
            if not eq or not name.strip():
                print(f"error: bad --map entry {part!r}", file=sys.stderr)
                return 2
            assignment[name.strip()] = handle.element(value.strip())
    w = parse(args.word)
    print(handle.name(eval_operated(w, handle, assignment)))
    return 0


def _cmd_search_ops(args) -> int:
    table, _ = load_group_file(args.group)
    validate_group(table).require()
    ops = search_averaging_ops(table, pointed_only=args.pointed,
                               max_size=args.max_size)
    kind = "pointed averaging" if args.pointed else "averaging"
    print(f"found {len(ops)} {kind} operator(s) on {len(table)} elements")
    for i, op in enumerate(ops, 1):
        body = " ".join(f"{table.name(g)}->{table.name(op[g])}"
                        for g in range(len(table)))
        print(f"A{i}: {body}")
    return 0


def _cmd_hopf_check(args) -> int:
    table, op = load_group_file(args.group)
    validate_group(table).require()
    if args.op:
        data = _load_json(args.op)
        # the file holds an 'op' block, or is the bare name map
        op = op_from_names(table, data.get("op", data) if isinstance(data, dict) else data)
    if op is None:
        n = len(table)
        if n > args.max_size:
            raise TableError(
                f"carrier size {n} exceeds the exhaustive cap {args.max_size}")
        count = 0
        for cand in itertools.product(range(n), repeat=n):
            check_hopf_equivalence(table, cand)
            count += 1
        print(f"verdicts agree on all {count} operator maps")
        return 0
    group_ok, algebra_ok = check_hopf_equivalence(table, op)
    word = {True: "ok", False: "FAIL"}
    print(f"(group: {word[group_ok]}, algebra: {word[algebra_ok]})")
    if not group_ok:
        validate_averaging(table, op).require()
    return 0


def _cmd_lie_check(args) -> int:
    L = load_lie_file(args.structure)
    M = load_operator_file(args.operator, dim=L.dim)
    validate_lie(L).require()
    code = 0
    for rep in (check_averaging_lie(L, M), check_leibniz(L, M)):
        for line in rep.lines():
            print(line)
        if not rep.ok:
            code = 1
    return code


# --- parser and entry -----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="avgroups",
        description="bracketed-word calculus: normal forms, products, checks")
    sub = p.add_subparsers(dest="command", required=True)

    n = sub.add_parser("normalize", help="normal form of a word")
    n.add_argument("word")
    n.add_argument("--via-ops", action="store_true",
                   help="normalize through the group operations instead")
    n.add_argument("--trace", action="store_true", help="print each rewrite step")
    n.add_argument("--check-only", action="store_true",
                   help="report the normality verdict only")
    n.add_argument("--strategy", choices=STRATEGIES, default=STRATEGIES[0])
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
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--max-depth", type=int, default=3)
    c.add_argument("--max-breadth", type=int, default=4)
    c.add_argument("--alphabet", default="x,y,z",
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
    s.add_argument("--max-size", type=int, default=6)
    s.set_defaults(func=_cmd_search_ops)

    h = sub.add_parser("hopf-check",
                       help="group-level vs algebra-level averaging verdicts")
    h.add_argument("--group", required=True)
    h.add_argument("--op", default=None,
                   help="JSON operator file; defaults to the group file's 'op', "
                        "or exhaustive agreement when absent")
    h.add_argument("--max-size", type=int, default=4)
    h.set_defaults(func=_cmd_hopf_check)

    l = sub.add_parser("lie-check", help="averaging and Leibniz checks")
    l.add_argument("--structure", required=True, help="JSON structure-constant file")
    l.add_argument("--operator", required=True, help="JSON matrix file")
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
    except (TableError, ResultTooDeep) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OracleStepLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError) as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
