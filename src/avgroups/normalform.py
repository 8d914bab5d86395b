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

A step is a rule and a path to its redex.  One function, the rule table, maps
a redex's letters to their replacement; a rewrite splices that in and rebuilds
the path.  ``oracle_normalize`` renders nothing.  Only ``oracle_steps`` and
``replay_trace`` build a :class:`RewriteStep`, reading the redex from the word
before the step: rebuilding the path can fold the rewritten level away.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import Br, Gen, Word, are_inverse, make_br, render

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


def _replacement(redex: tuple, rule: str) -> tuple:
    """The letters that replace `redex`, the 1 or 2 letters `rule` rewrites."""
    if rule == "R0":
        return ()
    if rule == "R1":
        outer, inner = redex
        head, tail, sign = outer.content, inner.content, 1
    elif rule == "R1-":
        outer, inner = redex
        head, tail, sign = inner.content, outer.content, -1
    elif rule == "R2":
        (outer,) = redex
        inner = outer.content.factors[0]
        head, tail, sign = inner.content, Word(outer.content.factors[1:]), outer.sign
    elif rule == "R3":
        (outer,) = redex
        inner = outer.content.factors[-1]
        head, tail, sign = Word(outer.content.factors[:-1]), inner.content, outer.sign
    else:
        raise ValueError(f"unknown rule {rule}")
    it = outer.iter + inner.iter - 1
    return (make_br(Word(head.factors + (make_br(tail, 1, 1),)), it, sign),)


def _width(rule: str) -> int:
    """Letters in a redex of `rule`: one bracket, or a pair."""
    return 1 if rule == "R2" or rule == "R3" else 2


def _apply_at(w: Word, path: tuple, rule: str) -> Word:
    """`w` with `rule` applied at `path`; only the letters along the path are rebuilt."""
    fs, i = w.factors, path[0]
    if len(path) == 1:
        n = _width(rule)
        return Word(fs[:i] + _replacement(fs[i : i + n], rule) + fs[i + n :])
    f = fs[i]
    nf = make_br(_apply_at(f.content, path[1:], rule), f.iter, f.sign)
    return Word(fs[:i] + (nf,) + fs[i + 1 :])


def _rewrites(w: Word, strategy: str, step_limit: int):
    """Yield (word, rule, path) after each rewrite; the clean-subword memo lives here."""
    find, clean = _FINDERS[strategy], {}
    for _ in range(step_limit):
        found = find(w, (), clean)
        if found is None:
            return
        path, rule = found
        w = _apply_at(w, path, rule)
        yield w, rule, path
    if find(w, (), clean) is not None:
        raise OracleStepLimit(
            f"no normal form within {step_limit} steps; "
            "this signals suspected non-termination"
        )


def _step(w: Word, rule: str, path: tuple) -> RewriteStep:
    """The rendered step applying `rule` at `path` of `w`, the word before it."""
    for i in path[:-1]:
        w = w.factors[i].content
    redex = w.factors[path[-1] : path[-1] + _width(rule)]
    after = Word(_replacement(redex, rule))
    return RewriteStep(rule, path, render(Word(redex)), render(after))


def oracle_steps(w: Word, strategy: str = "innermost-leftmost",
                 step_limit: int = DEFAULT_STEP_LIMIT):
    """Yield (word, step) after each rewrite; `step` describes the rule applied."""
    for cur, rule, path in _rewrites(w, strategy, step_limit):
        yield cur, _step(w, rule, path)
        w = cur


def oracle_normalize(w: Word, strategy: str = "innermost-leftmost",
                     step_limit: int = DEFAULT_STEP_LIMIT):
    """Normal form of `w` under the rewriting rules; `oracle_steps` has the trace."""
    cur = w
    for cur, _, _ in _rewrites(w, strategy, step_limit):
        pass
    return cur


def replay_trace(w: Word, steps) -> Word:
    """Re-apply a recorded trace, checking each local redex; returns the result."""
    for step in steps:
        mine = _step(w, step.rule, step.path)
        if (mine.before, mine.after) != (step.before, step.after):
            raise ValueError(f"trace mismatch at {step}")
        w = _apply_at(w, step.path, step.rule)
    return w
