"""Bracketed words: the term core of the free operated group on a set.

A word is a sequence of letters.  A letter is either a signed generator or a
signed iterated bracket ``[content]@n`` whose content is itself a word.  Words
are kept freely reduced (no adjacent mutually inverse letters) and brackets are
kept folded: a bracket whose content is a lone positive bracket is absorbed
into the iteration count, so ``[[c]]`` is stored as ``[c]@2``.  Letter equality
is structural equality of (content, iter, sign); ``[c]@3`` standing next to
``([c]@2)^-1`` does not cancel, because they are different letters of the
alphabet.

Grammar accepted by :func:`parse`::

    word   := factor*
    factor := base iter? power?
    base   := IDENT | "[" word "]" | "1"
    iter   := "@" POSINT          (only after "]")
    power  := "^" NZINT

``^k`` is a group power and expands to |k| copies (inverted when k < 0);
``@n`` is operator iteration.  The empty input and "1" denote the identity;
"[]" denotes "[1]".  Whitespace is any character ``str.isspace`` accepts and
numbers are decimal digits of any script.  Brackets may nest at most
:data:`MAX_NESTING` deep.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping

__all__ = [
    "Gen",
    "Br",
    "Word",
    "Factor",
    "WordMetrics",
    "ONE",
    "make_gen",
    "make_br",
    "single",
    "are_inverse",
    "inv_factor",
    "is_reduced",
    "is_folded",
    "parse",
    "render",
    "reduce_concat",
    "invert",
    "bracket_literal",
    "metrics",
    "nesting",
    "eval_operated",
    "WordSyntaxError",
    "UnassignedGenerator",
    "MAX_NESTING",
]

_IDENT_RE = re.compile(r"[a-z][a-zA-Z0-9_]*")

# Letters and words are slotted: without a per-instance __dict__ a parsed word
# takes about 40% less memory, and words are built by the thousand.


@dataclass(frozen=True, slots=True)
class Gen:
    name: str
    sign: int


@dataclass(frozen=True, slots=True)
class Br:
    content: "Word"
    iter: int
    sign: int


# A PEP 604 union, not typing.Union: typing caches each Union[...] it builds
# for the life of the process, and through the classes' methods that cache
# would keep every earlier import of this module alive.
Factor = Gen | Br


@dataclass(frozen=True, slots=True)
class Word:
    factors: tuple


ONE = Word(())


def make_gen(name: str, sign: int = 1) -> Gen:
    if not _IDENT_RE.fullmatch(name):
        raise ValueError(f"bad generator name {name!r}")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return Gen(name, sign)


def make_br(content: Word, it: int = 1, sign: int = 1) -> Br:
    """Bracket letter on `content`, folding lone positive brackets into iter."""
    if it < 1:
        raise ValueError("iteration must be >= 1")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    while len(content.factors) == 1:
        f = content.factors[0]
        if not isinstance(f, Br) or f.sign < 0:
            break
        it += f.iter
        content = f.content
    return Br(content, it, sign)


def single(f: Factor) -> Word:
    return Word((f,))


def inv_factor(f: Factor) -> Factor:
    if isinstance(f, Gen):
        return Gen(f.name, -f.sign)
    return Br(f.content, f.iter, -f.sign)


def are_inverse(a: Factor, b: Factor) -> bool:
    if type(a) is not type(b) or a.sign != -b.sign:
        return False
    if isinstance(a, Gen):
        return a.name == b.name
    return a.iter == b.iter and a.content == b.content


def is_reduced(w: Word) -> bool:
    fs = w.factors
    for i, f in enumerate(fs):
        if i > 0 and are_inverse(fs[i - 1], f):
            return False
        if isinstance(f, Br) and not is_reduced(f.content):
            return False
    return True


def is_folded(w: Word) -> bool:
    for f in w.factors:
        if isinstance(f, Br):
            c = f.content.factors
            if len(c) == 1 and isinstance(c[0], Br) and c[0].sign > 0:
                return False
            if not is_folded(f.content):
                return False
    return True


def _push_reduced(stack: list, f: Factor) -> None:
    if stack and are_inverse(stack[-1], f):
        stack.pop()
    else:
        stack.append(f)


def reduce_concat(u: Word, v: Word) -> Word:
    """Free-group product: concatenate and cancel at the seam, cascading."""
    out = list(u.factors)
    for f in v.factors:
        _push_reduced(out, f)
    return Word(tuple(out))


def invert(w: Word) -> Word:
    return Word(tuple(inv_factor(f) for f in reversed(w.factors)))


def bracket_literal(w: Word) -> Word:
    return single(make_br(w, 1, 1))


@dataclass(frozen=True)
class WordMetrics:
    breadth: int
    depth: int
    op_degree: int


def _factor_depth(f: Factor) -> int:
    if isinstance(f, Gen):
        return 0
    return f.iter + _word_depth(f.content)


def _word_depth(w: Word) -> int:
    return max((_factor_depth(f) for f in w.factors), default=0)


def _factor_degree(f: Factor) -> int:
    if isinstance(f, Gen):
        return 0
    return f.iter + op_degree(f.content)


def op_degree(w: Word) -> int:
    return sum(_factor_degree(f) for f in w.factors)


def metrics(w: Word) -> WordMetrics:
    return WordMetrics(len(w.factors), _word_depth(w), op_degree(w))


def nesting(w: Word) -> int:
    """Deepest bracket nesting of `w` as rendered, by an explicit stack.

    This is the depth `parse` bounds by MAX_NESTING; ``[x]@5`` nests 1 deep.
    """
    deepest, stack = 0, [(w, 0)]
    while stack:
        v, depth = stack.pop()
        deepest = max(deepest, depth)
        stack.extend((f.content, depth + 1) for f in v.factors if isinstance(f, Br))
    return deepest


# --- parsing ---------------------------------------------------------------


class WordSyntaxError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# One factor, after any whitespace (``\s`` is exactly ``str.isspace``):
# group 1 "[", group 2 the end of the text, or a letter that may carry
# suffixes: group 3 an identifier, group 4 "]", group 5 "1", then group 6 the
# digits of "@n" and group 7 the signed digits of "^k".  The suffixes are
# matched after any base so that a misplaced "@" is reported where it stands.
_FACTOR_RE = re.compile(
    rf"\s*(?:(\[)|(\Z)|(?:({_IDENT_RE.pattern})|(\])|(1))(?:@(\d*))?(?:\^(-?\d*))?)"
)
_WS_RE = re.compile(r"\s*")

# Deepest bracket nesting `parse` accepts; one level more is a WordSyntaxError.
# The program recurses once per nesting level, and each level costs frames
# under Python's default recursion limit of 1000: about seven to compare two
# words (dataclass equality and the tuple comparisons inside it), two for
# eval_operated, one each for the oracle's finders and _apply_at; render and
# is_normal use an explicit stack.  A product of two words nests at most as deep
# as both together, so the costliest call a command makes on parsed input --
# comparing two 100-deep letters that cancel -- stays near 800 frames; on
# CPython 3.11 every subcommand ran such words with at least 180 frames to
# spare.  The bound is on the text only: the oracle can nest brackets written
# side by side deeper than the text does, and a word printed more than
# MAX_NESTING deep is refused when read back.
MAX_NESTING = 100


def parse(text: str) -> Word:
    """Word spelled by `text` in the grammar above, reduced and folded.

    Raises WordSyntaxError, with the position, on malformed text and on
    brackets nested deeper than MAX_NESTING.
    """
    out: list = []
    outer: list = []  # the factor lists of the enclosing brackets
    gens: dict = {}  # one letter per (name, sign): letters are immutable
    i = 0
    match = _FACTOR_RE.match
    while True:
        m = match(text, i)
        if m is None:
            raise WordSyntaxError(
                "expected a factor: identifier, '[', or '1'", _WS_RE.match(text, i).end()
            )
        i = m.end()
        opened, end, name, closed, _, it, k = m.groups()
        if opened:
            if len(outer) == MAX_NESTING:
                raise WordSyntaxError(f"brackets nested deeper than {MAX_NESTING}", m.start(1))
            outer.append(out)
            out = []
            continue
        if end is not None:
            if outer:
                raise WordSyntaxError("expected ']'", i)
            return Word(tuple(out))
        if closed:
            if not outer:
                raise WordSyntaxError("unexpected ']'", m.start(4))
            n = 1
            if it is not None:
                if not it:
                    raise WordSyntaxError("expected a positive integer after '@'", m.end(6))
                n = int(it)
                if n < 1:
                    raise WordSyntaxError("iteration must be >= 1", m.start(6))
        elif it is not None:
            raise WordSyntaxError("'@' is only valid after ']'", m.start(6) - 1)
        count, sign = 1, 1
        if k is not None:
            if not k or k == "-":
                raise WordSyntaxError("expected a nonzero integer after '^'", m.end(7))
            count = int(k)
            if count == 0:
                raise WordSyntaxError("power 0 is not allowed", m.start(7))
            if count < 0:
                count, sign = -count, -1
        if closed:
            letter = make_br(Word(tuple(out)), n, sign)
            out = outer.pop()
        elif name:
            letter = gens.get((name, sign))
            if letter is None:
                letter = gens[name, sign] = Gen(name, sign)
        else:
            continue  # "1", the identity, spells no letter
        for _ in range(count):
            _push_reduced(out, letter)


# --- rendering -------------------------------------------------------------


def render(w: Word) -> str:
    """Text of `w` in the grammar above, by an explicit stack: any depth renders."""
    if not w.factors:
        return "1"
    out = []
    # (factors, next index, closing text) of each enclosing bracket
    outer = []
    fs, i, close = w.factors, 0, ""
    while True:
        if i < len(fs):
            f = fs[i]
            if i:
                out.append(" ")
            i += 1
            if isinstance(f, Gen):
                out.append(f.name if f.sign > 0 else f.name + "^-1")
                continue
            outer.append((fs, i, close))
            fs, i = f.content.factors, 0
            close = "]" + (f"@{f.iter}" if f.iter >= 2 else "") + ("^-1" if f.sign < 0 else "")
            out.append("[" if fs else "[1")
        elif outer:
            out.append(close)
            fs, i, close = outer.pop()
        else:
            return "".join(out)


# --- evaluation into operated groups ---------------------------------------


class UnassignedGenerator(KeyError):
    pass


def eval_operated(w: Word, target, assignment: Mapping[str, object]):
    """Image of `w` under the operated-group map extending `assignment`.

    `target` provides identity(), mul(a, b), inv(a) and op(a).
    """

    def eval_factor(f: Factor):
        if isinstance(f, Gen):
            try:
                e = assignment[f.name]
            except KeyError:
                raise UnassignedGenerator(f.name) from None
            return target.inv(e) if f.sign < 0 else e
        e = eval_word(f.content)
        for _ in range(f.iter):
            e = target.op(e)
        return target.inv(e) if f.sign < 0 else e

    def eval_word(v: Word):
        acc = target.identity()
        for f in v.factors:
            acc = target.mul(acc, eval_factor(f))
        return acc

    return eval_word(w)
