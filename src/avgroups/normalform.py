"""Averaging normal form: the predicate and a rewriting normalizer.

A word is an averaging (normal) word when, at every nesting level of a word
folded by construction (see :mod:`avgroups.words`):

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

The rewriting engines read the redex conditions from one scan of a level
(``_redexes``) listing its redexes in leftmost order: at letter i, R2, then
R3, then the pair rule on letters i and i+1.  Replaying a trace asks the
same scan whether a step's redex is on its level.  ``is_normal`` writes
N0-N2 a second time, as a predicate that stops at the first violation:
reading them through ``_redexes`` level by level took 2.2 times as long on
words shaped like the product-law corpus, and the law checks call it on
every product.  A test holds the two to the same verdict on every level.

innermost-leftmost takes the first redex of the first level with one in
post-order (bracket contents left to right, then their level).  Its engine
settles levels in that order and resumes where it rewrote.  The contents a
rule moves belong to the settled level's letters or are slices of it (R2's
tail ``outer.content[1:]``, R3's head ``outer.content[:-1]``) that keep a
subset of its letters and adjacent pairs, so they are settled, and the new
content ``head + ([tail],)`` can hold a redex only at its join, the last
pair and R2 or R3 at ``[tail]``: it is settled from there first.  A rewrite
at index i leaves the letters before i and their pairs as the scan found
them, so the level's next redex lies at or after i-1.  The search from the
root rebuilds the path with make_br, which folds a lone positive bracket
content, so a nested level that a rewrite leaves as one is handed up at
once: its parent's make_br folds it and the parent settles the folded-in
content, at the path that search gives it.  Each bracket is rebuilt once,
when its content returns.

outermost-rightmost checks a level before its contents, and from the right
(pair, R3, R2 at each letter), so its choice is the last redex of the scan.
It searches from the root at every step.

A step is a rule and a path to its redex; ``_replacement``, the rule table,
maps a redex's letters to their replacement.  The engines record steps only
when traced, and raise OracleStepLimit past ``STEP_LIMIT`` steps (read at
each call).  ``oracle_steps`` rebuilds each word with ``_apply_at``; it and
``replay_trace`` render a :class:`RewriteStep` from the word before the
step, since rebuilding the path can fold the rewritten level away.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import Br, Gen, Word, are_inverse, make_br, render

STRATEGIES = ("innermost-leftmost", "outermost-rightmost")
STEP_LIMIT = 10**6


def is_normal(w: Word) -> bool:
    """Whether `w` satisfies N0-N3, checked level by level on an explicit stack.

    N2 is read off each bracket content's own scan, from its first and its
    last letter, whose fields the scan reads anyway; the top level ``w`` is
    no bracket content, so N2 skips it.
    """
    stack = [w]
    while stack:
        fs = stack.pop()
        prev = None
        for f in fs:
            if type(f) is Br:
                c = f.content
                if c:
                    stack.append(c)
                if type(prev) is Br:
                    if prev.sign == f.sign or are_inverse(prev, f):  # N1, N0
                        return False
                elif prev is None and f.sign > 0 and fs is not w and len(fs) >= 2:
                    return False  # N2, first letter
            elif type(prev) is Gen and prev.name == f.name and prev.sign != f.sign:
                return False  # N0
            prev = f
        if type(prev) is Br and prev.sign > 0 and prev.iter >= 2 and fs is not w and len(fs) >= 2:
            return False  # N2, last letter
    return True


@dataclass(frozen=True)
class RewriteStep:
    rule: str
    path: tuple
    before: str
    after: str


class OracleStepLimit(RuntimeError):
    pass


# --- redex search ------------------------------------------------------------


def _redexes(fs: tuple) -> list:
    """(index, rule) of every redex of the level `fs`, in leftmost order.

    A pair rule is found when its right letter is reached: after R2 and R3
    at its left letter, as the order asks.
    """
    found = []
    prev = None
    for i, f in enumerate(fs):
        if type(f) is Br:
            if type(prev) is Br:
                if prev.sign == f.sign:
                    found.append((i - 1, "R1" if f.sign > 0 else "R1-"))
                elif are_inverse(prev, f):
                    found.append((i - 1, "R0"))
            c = f.content
            if len(c) >= 2:
                head, last = c[0], c[-1]
                if type(head) is Br and head.sign > 0:
                    found.append((i, "R2"))
                if type(last) is Br and last.sign > 0 and last.iter >= 2:
                    found.append((i, "R3"))
        elif type(prev) is Gen and prev.name == f.name and prev.sign != f.sign:
            found.append((i - 1, "R0"))
        prev = f
    return found


def _find_outermost_rightmost(w: Word, path: tuple):
    # the rightmost check order mirrors the leftmost one: take the last redex
    found = _redexes(w)
    if found:
        i, rule = found[-1]
        return path + (i,), rule
    for i in range(len(w) - 1, -1, -1):
        f = w[i]
        if type(f) is Br:
            found = _find_outermost_rightmost(f.content, path + (i,))
            if found is not None:
                return found
    return None


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
        inner = outer.content[0]
        head, tail, sign = inner.content, Word(outer.content[1:]), outer.sign
    else:  # R3: every caller passes a rule _redexes found there
        (outer,) = redex
        inner = outer.content[-1]
        head, tail, sign = outer.content[:-1], inner.content, outer.sign
    it = outer.iter + inner.iter - 1
    return (make_br(Word(head + (make_br(tail, 1, 1),)), it, sign),)


def _width(rule: str) -> int:
    """Letters in a redex of `rule`: one bracket, or a pair."""
    return 1 if rule == "R2" or rule == "R3" else 2


def _apply_at(w: Word, path: tuple, rule: str) -> Word:
    """`w` with `rule` applied at `path`; only the letters along the path are rebuilt."""
    i = path[0]
    if len(path) == 1:
        n = _width(rule)
        return Word(w[:i] + _replacement(w[i : i + n], rule) + w[i + n :])
    f = w[i]
    nf = make_br(_apply_at(f.content, path[1:], rule), f.iter, f.sign)
    return Word(w[:i] + (nf,) + w[i + 1 :])


_LIMIT = "no normal form within {} steps; this signals suspected non-termination"


def _innermost_leftmost(w: Word, trace: list | None) -> Word:
    """Normal form of `w` by the engine the module docstring describes.

    Each step's (rule, path) goes to `trace` unless it is None.
    """
    run = [0, STEP_LIMIT, trace]  # steps taken, the limit, the trace
    return _settle(w, None, None if trace is None else (), False, run)


def _settle(fs, start, path, nested, run):
    """`fs` settled, its contents first if `start` is None, else from `start` on.

    A `nested` level is handed up to fold when a rewrite leaves it a lone
    positive bracket.  `path` is None when untraced; `run` is the
    normalization's state.
    """
    if start is None:
        start = 0
        for i, f in enumerate(fs):
            if type(f) is Br and f.content:
                sub = None if path is None else path + (i,)
                done = _settle(f.content, None, sub, True, run)
                if done is not f.content:
                    fs = _fold_in(fs, i, f, done, sub, run)
    while True:
        found = _redexes(fs[start:] if start else fs)
        if not found:
            return fs
        if run[0] == run[1]:
            raise OracleStepLimit(_LIMIT.format(run[1]))
        run[0] += 1
        j, rule = found[0]
        i = start + j
        sub = None if path is None else path + (i,)
        if sub is not None:
            run[2].append((rule, sub))
        fs = _apply_at(fs, (i,), rule)
        if nested and len(fs) == 1 and type(fs[0]) is Br and fs[0].sign > 0:
            return fs
        if rule != "R0":
            f = fs[i]
            done = _settle(f.content, max(len(f.content) - 2, 0), sub, True, run)
            if done is not f.content:
                fs = _fold_in(fs, i, f, done, sub, run)
        start = i - 1 if i else 0


def _fold_in(fs, i, f, done, path, run):
    """`fs` with `done`, the new content of its bracket `f` at `i`, folded in and settled."""
    while True:
        f = make_br(done, f.iter, f.sign)
        fs = Word(fs[:i] + (f,) + fs[i + 1 :])
        if f.content is done:
            return fs
        done = _settle(f.content, max(len(f.content) - 2, 0), path, True, run)
        if done is f.content:
            return fs


def _outermost_rightmost(w: Word, trace: list | None) -> Word:
    """Normal form of `w` outermost-rightmost, searching from the root at every step."""
    for taken in range(STEP_LIMIT + 1):
        found = _find_outermost_rightmost(w, ())
        if found is None:
            return w
        if taken == STEP_LIMIT:
            raise OracleStepLimit(_LIMIT.format(STEP_LIMIT))
        path, rule = found
        w = _apply_at(w, path, rule)
        if trace is not None:
            trace.append((rule, path))


_ENGINES = dict(zip(STRATEGIES, (_innermost_leftmost, _outermost_rightmost)))


def _redex(w: Word, rule: str, path: tuple) -> tuple:
    """The letters at `path` of `w` that `rule` rewrites.

    Raises ValueError unless the path runs through brackets to a level of
    `w` and `rule` licenses the letters it names there.
    """
    fs = w
    for depth, i in enumerate(path, 1):
        if type(i) is not int or not 0 <= i < len(fs):
            break
        if depth == len(path):
            if (i, rule) in _redexes(fs):
                return fs[i : i + _width(rule)]
            break
        if type(fs[i]) is not Br:
            break
        fs = fs[i].content
    raise ValueError(f"no {rule} redex at path {path}")


def _step(w: Word, rule: str, path: tuple) -> RewriteStep:
    """The rendered step applying `rule` at `path` of `w`, the word before it."""
    redex = _redex(w, rule, path)
    after = Word(_replacement(redex, rule))
    return RewriteStep(rule, path, render(Word(redex)), render(after))


def oracle_steps(w: Word, strategy: str = "innermost-leftmost"):
    """Yield (word, step) after each rewrite; `step` describes the rule applied.

    The engine runs to the normal form first, so a step limit raises before
    any step is yielded.
    """
    trace: list = []
    _ENGINES[strategy](w, trace)
    for rule, path in trace:
        cur = _apply_at(w, path, rule)
        yield cur, _step(w, rule, path)
        w = cur


def oracle_normalize(w: Word, strategy: str = "innermost-leftmost"):
    """Normal form of `w` under the rewriting rules; `oracle_steps` has the trace."""
    return _ENGINES[strategy](w, None)


def replay_trace(w: Word, steps) -> Word:
    """Re-apply a recorded trace, checking each step; returns the result.

    A step must name a redex its rule licenses, and its recorded text must
    match that redex and its replacement; otherwise ValueError.
    """
    for step in steps:
        mine = _step(w, step.rule, step.path)
        if (mine.before, mine.after) != (step.before, step.after):
            raise ValueError(f"trace mismatch at {step}")
        w = _apply_at(w, step.path, step.rule)
    return w
