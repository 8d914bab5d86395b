"""The paper's laws on the free averaging group, and the seeded suites that check them.

`law_table` holds one row per law: the averaging identity
A(g)A(h) = A(A(g)h) = A(gA(h)), its iterates, closure, agreement with the
rewriting oracle and the evaluation homomorphisms.  `run_suites` checks the
rows on seeded words and shrinks the first failing tuple of a suite to a small
counterexample; ``avgroups check`` prints its report, and the tests evaluate
the same rows on their own corpora.
"""

import functools
from dataclasses import replace

from .words import (
    Br,
    ONE,
    Word,
    eval_operated,
    is_reduced,
    make_br,
    metrics,
    parse,
    reduce_concat,
    render,
)
from .normalform import STRATEGIES, is_normal, oracle_normalize
from .avgroup import (
    FreeTarget,
    GenParams,
    diamond,
    inverse,
    op_apply,
    op_iter,
    random_normal_word,
    random_raw_word,
)
from .structures import (
    AveragingGroupHandle,
    IntShiftGroup,
    cyclic_group,
    idempotent_endo_operator,
    sym3,
    sym3_sign_retraction,
)


SUITE_NAMES = ("assoc", "averaging", "derived", "closure", "oracle", "hom")


# --- word corpus and shrinking ------------------------------------------------

def _sample(params: GenParams, trial: int, slot: int, raw: bool) -> Word:
    p = replace(params, seed=params.seed * 1_000_003 + trial * 17 + slot)
    return random_raw_word(p) if raw else random_normal_word(p)


def _shrink_word(w: Word):
    """Strictly smaller variants: factor deletion, then depth truncation."""
    out = []
    for i in range(len(w)):
        out.append(reduce_concat(Word(w[:i]), Word(w[i + 1:])))
    for i, f in enumerate(w):
        if isinstance(f, Br):
            if f.sign == 1:
                spliced = reduce_concat(Word(w[:i]), f.content)
                out.append(reduce_concat(spliced, Word(w[i + 1:])))
            if f.iter > 1:
                out.append(Word(w[:i] + (make_br(f.content, 1, f.sign),) + w[i + 1:]))
    seen, final, size = set(), [], metrics(w).size
    for c in out:
        if metrics(c).size < size and c not in seen:
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


def _law_identity(u):
    return diamond(u, ONE) == u and diamond(ONE, u) == u


def _law_inverse(u):
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
            and op_apply(u) == oracle_normalize(Word((Br(u, 1, 1),))))


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
    itself = {a: parse(a) for a in alphabet}
    return [
        ("assoc", "associativity", 3, "normal", _law_assoc),
        ("assoc", "identity", 1, "normal", _law_identity),
        ("assoc", "inverses", 1, "normal", _law_inverse),
        ("averaging", "averaging law", 2, "normal", _law_averaging),
        ("derived", "iterated averaging laws", 2, "normal", _law_derived),
        ("closure", "closure of outputs", 2, "normal", _law_closure),
        ("oracle", "oracle agreement", 2, "normal", _law_oracle_agreement),
        ("oracle", "oracle idempotence and confluence", 1, "raw", _law_oracle_raw),
        ("hom", "evaluation homomorphisms", 2, "normal", law_commutes(targets)),
        ("hom", "self-target evaluation", 1, "normal",
         lambda u: eval_operated(u, FreeTarget, itself) == u),
    ]


def _run_suite(name: str, trials: int, table, draw):
    """Run one suite on a built `table`; returns (ok, report lines).

    `draw(trial, slot, raw)` gives each word of the corpus.
    """
    laws = [row[1:] for row in table if row[0] == name]
    if not laws:
        raise ValueError(f"unknown suite {name!r}")
    for trial in range(trials):
        for label, slots, corpus, law in laws:
            raw = corpus == "raw"
            words = tuple(draw(trial, s, raw) for s in range(slots))
            if law(*words):
                continue
            small = shrink_counterexample(
                words, lambda ws: not law(*ws),
                valid=is_reduced if raw else is_normal)
            shown = ", ".join(f"{n} = {render(w)}"
                              for n, w in zip("uvw", small))
            return False, [f"suite {name}: FAIL ({label}) at trial {trial}",
                           f"counterexample: {shown}"]
    return True, [f"suite {name}: {trials} trials, pass"]


def run_suites(suite: str, trials: int, params: GenParams):
    """Run `suite`, or every suite for "all", on `trials` seeded draws.

    `params` bounds the words and seeds the draws; each word is drawn once
    and shared across suites.  Returns (exit code, report lines).
    """
    names = SUITE_NAMES if suite == "all" else (suite,)
    code, lines = 0, []
    table = law_table(params.alphabet)
    draw = functools.cache(lambda trial, slot, raw: _sample(params, trial, slot, raw))
    for name in names:
        ok, out = _run_suite(name, trials, table, draw)
        lines.extend(out)
        if not ok:
            code = 1
    return code, lines

