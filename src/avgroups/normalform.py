"""Averaging normal form: the predicate and a rewriting normalizer.

A word is an averaging (normal) word when, at every nesting level and with
brackets read in folded form:

    N0  it is freely reduced;
    N1  no two adjacent positive brackets and no two adjacent negative
        brackets (mixed-sign adjacency is fine);
    N2  every bracket content of breadth >= 2 neither starts with a positive
        bracket nor ends with a positive bracket of iteration >= 2;
    N3  every bracket content is itself normal.

The normalizer is an independent rewriting engine.  It never calls the
recursive product; it repeatedly locates one redex and applies one rule:

    R0   drop an adjacent mutually inverse pair;
    R1   [a]@s [b]@t        -> [a [b]]@(s+t-1)
    R1-  [a]@s^-1 [b]@t^-1  -> [b [a]]@(s+t-1)^-1
    R2   [[a]@t rest]@n     -> [a [rest]]@(n+t-1)      (content breadth >= 2)
    R3   [u [v]@m]@n        -> [u [v]]@(n+m-1), m >= 2 (content breadth >= 2)

R2 and R3 fire on brackets of either sign.  Rule application can leave an
unreduced or mergeable subword behind; later steps clean it up.  Bracket
folding (a lone positive bracket content absorbed into the iteration count)
is representational and is not a counted step.

Each search for the next redex skips every subword already found to hold
none.  Words are immutable and a rewrite rebuilds only the path from the root
to its redex, so a subword searched clean in one step is the same object, and
still clean, in every later step that reaches it.  The memo lives for one
normalization: a dict from ``id(word)`` to the word itself, which it keeps
alive so that its id cannot be reused by a new, dirty word.  It changes which
subwords are visited, never which redex is chosen.

Steps are rendered only when traced: ``oracle_normalize`` without a trace
rewrites words and renders nothing; ``oracle_steps`` and the traced path
render each step's ``before`` and ``after`` into a :class:`RewriteStep`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import Br, Gen, Word, are_inverse, make_br, render, single

__all__ = [
    "is_normal",
    "oracle_normalize",
    "oracle_steps",
    "replay_trace",
    "RewriteStep",
    "OracleStepLimit",
    "STRATEGIES",
]

STRATEGIES = ("innermost-leftmost", "outermost-rightmost")
DEFAULT_STEP_LIMIT = 10**6


def is_normal(w: Word) -> bool:
    """Whether `w` satisfies N0-N3, checked level by level on an explicit stack."""
    stack = [w.factors]
    while stack:
        prev = None
        for f in stack.pop():
            if type(f) is Br:
                c = f.content.factors
                if len(c) >= 2:
                    first, last = c[0], c[-1]
                    if type(first) is Br and first.sign > 0:
                        return False
                    if type(last) is Br and last.sign > 0 and last.iter >= 2:
                        return False
                if c:
                    stack.append(c)
                if type(prev) is Br and (
                    prev.sign == f.sign  # N1
                    or (prev.sign == -f.sign and prev.iter == f.iter
                        and prev.content == f.content)  # N0
                ):
                    return False
            elif type(prev) is Gen and prev.name == f.name and prev.sign == -f.sign:
                return False  # N0
            prev = f
    return True


@dataclass(frozen=True)
class RewriteStep:
    rule: str
    path: tuple
    before: str
    after: str


class OracleStepLimit(RuntimeError):
    pass


# --- redex matching ----------------------------------------------------------


def _pair_rule(a, b):
    if are_inverse(a, b):
        return "R0"
    if isinstance(a, Br) and isinstance(b, Br):
        if a.sign > 0 and b.sign > 0:
            return "R1"
        if a.sign < 0 and b.sign < 0:
            return "R1-"
    return None


def _matches_r2(f) -> bool:
    if not isinstance(f, Br) or len(f.content.factors) < 2:
        return False
    head = f.content.factors[0]
    return isinstance(head, Br) and head.sign > 0


def _matches_r3(f) -> bool:
    if not isinstance(f, Br) or len(f.content.factors) < 2:
        return False
    last = f.content.factors[-1]
    return isinstance(last, Br) and last.sign > 0 and last.iter >= 2


def _find_innermost_leftmost(w: Word, path: tuple, clean: dict):
    fs = w.factors
    for i, f in enumerate(fs):
        if isinstance(f, Br) and id(f.content) not in clean:
            found = _find_innermost_leftmost(f.content, path + (i,), clean)
            if found is not None:
                return found
    for i, f in enumerate(fs):
        if _matches_r2(f):
            return path + (i,), "R2"
        if _matches_r3(f):
            return path + (i,), "R3"
        if i + 1 < len(fs):
            rule = _pair_rule(fs[i], fs[i + 1])
            if rule is not None:
                return path + (i,), rule
    clean[id(w)] = w
    return None


def _find_outermost_rightmost(w: Word, path: tuple, clean: dict):
    fs = w.factors
    for i in range(len(fs) - 1, -1, -1):
        if i + 1 < len(fs):
            rule = _pair_rule(fs[i], fs[i + 1])
            if rule is not None:
                return path + (i,), rule
        if _matches_r3(fs[i]):
            return path + (i,), "R3"
        if _matches_r2(fs[i]):
            return path + (i,), "R2"
    for i in range(len(fs) - 1, -1, -1):
        f = fs[i]
        if isinstance(f, Br) and id(f.content) not in clean:
            found = _find_outermost_rightmost(f.content, path + (i,), clean)
            if found is not None:
                return found
    clean[id(w)] = w
    return None


_FINDERS = {
    "innermost-leftmost": _find_innermost_leftmost,
    "outermost-rightmost": _find_outermost_rightmost,
}


# --- rule application --------------------------------------------------------


def _apply_local(fs: tuple, i: int, rule: str):
    """Apply `rule` at index i of the factor sequence; return (new, before, after)."""
    if rule == "R0":
        return fs[:i] + fs[i + 2 :], Word(fs[i : i + 2]), Word(())
    if rule == "R1":
        a, b = fs[i], fs[i + 1]
        merged = make_br(
            Word(a.content.factors + (make_br(b.content, 1, 1),)),
            a.iter + b.iter - 1,
            1,
        )
        return fs[:i] + (merged,) + fs[i + 2 :], Word(fs[i : i + 2]), single(merged)
    if rule == "R1-":
        a, b = fs[i], fs[i + 1]
        merged = make_br(
            Word(b.content.factors + (make_br(a.content, 1, 1),)),
            a.iter + b.iter - 1,
            -1,
        )
        return fs[:i] + (merged,) + fs[i + 2 :], Word(fs[i : i + 2]), single(merged)
    if rule == "R2":
        f = fs[i]
        head = f.content.factors[0]
        rest = Word(f.content.factors[1:])
        new = make_br(
            Word(head.content.factors + (make_br(rest, 1, 1),)),
            f.iter + head.iter - 1,
            f.sign,
        )
        return fs[:i] + (new,) + fs[i + 1 :], single(f), single(new)
    if rule == "R3":
        f = fs[i]
        last = f.content.factors[-1]
        new = make_br(
            Word(f.content.factors[:-1] + (make_br(last.content, 1, 1),)),
            f.iter + last.iter - 1,
            f.sign,
        )
        return fs[:i] + (new,) + fs[i + 1 :], single(f), single(new)
    raise ValueError(f"unknown rule {rule}")


def _apply_at(w: Word, path: tuple, rule: str):
    if len(path) == 1:
        new, before, after = _apply_local(w.factors, path[0], rule)
        return Word(new), before, after
    i = path[0]
    f = w.factors[i]
    new_content, before, after = _apply_at(f.content, path[1:], rule)
    nf = make_br(new_content, f.iter, f.sign)
    return Word(w.factors[:i] + (nf,) + w.factors[i + 1 :]), before, after


def _rewrites(w: Word, strategy: str, step_limit: int):
    """Yield (word, rule, path, before, after) after each rewrite; renders nothing.

    `before` and `after` are the rewritten subword and its replacement.  The
    clean-subword memo is created here and lives as long as this loop.
    """
    find = _FINDERS[strategy]
    clean = {}
    cur = w
    for _ in range(step_limit):
        found = find(cur, (), clean)
        if found is None:
            return
        path, rule = found
        cur, before, after = _apply_at(cur, path, rule)
        yield cur, rule, path, before, after
    if find(cur, (), clean) is not None:
        raise OracleStepLimit(
            f"no normal form within {step_limit} steps; "
            "this signals suspected non-termination"
        )


def oracle_steps(w: Word, strategy: str = "innermost-leftmost", step_limit: int = DEFAULT_STEP_LIMIT):
    """Yield (word, step) after each rewrite; `step` describes the rule applied."""
    for cur, rule, path, before, after in _rewrites(w, strategy, step_limit):
        yield cur, RewriteStep(rule, path, render(before), render(after))


def oracle_normalize(
    w: Word,
    strategy: str = "innermost-leftmost",
    step_limit: int = DEFAULT_STEP_LIMIT,
    trace: bool = False,
):
    """Normal form of `w` under the rewriting rules; optionally with the trace."""
    cur = w
    if trace:
        steps = []
        for cur, step in oracle_steps(w, strategy, step_limit):
            steps.append(step)
        return cur, steps
    for cur, _, _, _, _ in _rewrites(w, strategy, step_limit):
        pass
    return cur


def replay_trace(w: Word, steps) -> Word:
    """Re-apply a recorded trace, checking each local redex; returns the result."""
    cur = w
    for step in steps:
        nxt, before, after = _apply_at(cur, step.path, step.rule)
        if render(before) != step.before or render(after) != step.after:
            raise ValueError(f"trace mismatch at {step}")
        cur = nxt
    return cur
