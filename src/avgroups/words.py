"""Bracketed words: the term core of the free operated group on a set.

A word is a sequence of letters.  A letter is either a signed generator or a
signed iterated bracket ``[content]@n`` whose content is itself a word.  Words
are kept freely reduced (no adjacent mutually inverse letters) and brackets are
kept folded: a bracket whose content is a lone positive bracket is absorbed
into the iteration count, so ``[[c]]`` is stored as ``[c]@2``.  Letter equality
is structural equality of (content, iter, sign); ``[c]@3`` standing next to
``([c]@2)^-1`` does not cancel, because they are different letters of the
alphabet.

A word is a :class:`Word`, the tuple of its letters.  A letter is a
``Gen(name, sign)`` or a ``Br(content, iter, sign)``, tuples with named
fields.  All three are immutable: no field can be set, not even through
``object.__setattr__``.  Equality and hashing are those of tuples, structural
and done in C, so the empty word :data:`ONE` is falsy and a word equals the
plain tuple of its letters.  No two node types compare equal: a ``Gen`` has
two items, a ``Br`` three with a word first, and a word's items are letters.
Tuple comparison counts two levels of the recursion limit per bracket, so
``==`` on equal words built apart answers up to 498 deep under the default
limit and raises RecursionError deeper; :func:`are_inverse` answers at any
depth.  A word hashes through a Python-level ``__hash__`` that returns its
tuple hash, so each nesting level counts against the recursion limit: like
``==``, ``hash`` answers up to 498 deep under the default limit and raises
RecursionError deeper, where C tuple hashing alone overflows the C stack
some tens of thousands deep and kills the process.

Words are folded by construction: ``Br(content, iter, sign)`` is
:func:`make_br` and ``Gen(name, sign)`` is :func:`make_gen`: each folds or
validates its letter as :func:`parse` does.  Only ``_make`` and ``_replace``
build a letter as given, unfolded or unchecked if so given, and
:func:`is_folded` finds an unfolded letter.

Grammar accepted by :func:`parse`::

    word   := factor*
    factor := base iter? power?
    base   := IDENT | "[" word "]" | "1"
    iter   := "@" POSINT          (only after "]")
    power  := "^" NZINT

``^k`` is a group power and expands to |k| copies (inverted when k < 0);
``@n`` is operator iteration.  The empty input and "1" denote the identity;
"[]" denotes "[1]".  Whitespace is any character ``str.isspace`` accepts and
numbers are decimal digits of any script, no more than ``int()`` reads from a
string.  Brackets may nest at most :data:`MAX_NESTING` deep, and the powers
of one text may expand to at most :data:`MAX_POWER_LETTERS` letters.
``_FACTOR_RE`` is the grammar of a letter token and ``_TOKEN_RE`` splits
text into tokens.  :func:`parse` caches what a short piece of text spells,
by the piece's text, and makes its letters per call.
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

_IDENT_RE = re.compile(r"[a-z][a-zA-Z0-9_]*")

# Letters and words are tuples with no per-instance __dict__: words are built
# by the thousand.  The hot paths build them with make_br, or with the C tuple
# constructor _new(Br, ...) or _new(Gen, ...) where the letter needs no fold
# or check, and Word(letters) is that constructor already.
_new = tuple.__new__


class Gen(namedtuple("Gen", "name sign")):
    __slots__ = ()

    def __new__(cls, name, sign):
        return make_gen(name, sign)


class Br(namedtuple("Br", "content iter sign")):
    __slots__ = ()

    def __new__(cls, content, iter, sign):
        return make_br(content, iter, sign)


class Word(tuple):
    """A word: the tuple of its letters."""

    __slots__ = ()

    def __hash__(self):
        # tuple hashing recurses in C with no recursion guard; this frame
        # puts each nesting level under the recursion limit
        return tuple.__hash__(self)


ONE = Word()


def make_gen(name: str, sign: int = 1) -> Gen:
    if not _IDENT_RE.fullmatch(name):
        raise ValueError(f"bad generator name {name!r}")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return _new(Gen, (name, sign))


def make_br(content: Word, it: int = 1, sign: int = 1) -> Br:
    """Bracket letter on `content`, folding lone positive brackets into iter."""
    if it < 1:
        raise ValueError("iteration must be >= 1")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    while len(content) == 1:
        f = content[0]
        if type(f) is not Br or f.sign < 0:
            break
        it += f.iter
        content = f.content
    return _new(Br, (content, it, sign))


def inv_factor(f: Gen | Br) -> Gen | Br:
    if type(f) is Gen:
        return _new(Gen, (f.name, -f.sign))
    return _new(Br, (f.content, f.iter, -f.sign))


def are_inverse(a: Gen | Br, b: Gen | Br) -> bool:
    if type(a) is not type(b) or a.sign != -b.sign:
        return False
    if type(a) is Gen:
        return a.name == b.name
    return a.iter == b.iter and _same_word(a.content, b.content)


def _same_word(u: Word, v: Word) -> bool:
    """Structural equality of two words, identity first, by an explicit stack.

    Tuple equality recurses in C, two levels of the recursion limit per
    nesting level, so it overflows on equal words built apart about 500 deep.
    """
    stack = [(u, v)]
    while stack:
        u, v = stack.pop()
        if u is v:
            continue
        if len(u) != len(v):
            return False
        for f, g in zip(u, v):
            if f is g:
                continue
            if type(f) is not type(g):
                return False
            if type(f) is Gen:
                if f != g:
                    return False
            elif f.iter != g.iter or f.sign != g.sign:
                return False
            else:
                stack.append((f.content, g.content))
    return True


def _levels(w: Word):
    """(letters, nesting, operator depth) of `w` and of every bracket content in it.

    Nesting counts the enclosing brackets as rendered; operator depth sums
    their iteration counts.  An explicit stack: words of any depth are walked.
    """
    stack = [(w, 0, 0)]
    while stack:
        level = fs, nest, depth = stack.pop()
        yield level
        for f in fs:
            if type(f) is Br:
                stack.append((f.content, nest + 1, depth + f.iter))


def is_reduced(w: Word) -> bool:
    return not any(are_inverse(a, b) for fs, _, _ in _levels(w) for a, b in zip(fs, fs[1:]))


def is_folded(w: Word) -> bool:
    """No bracket content is a lone positive bracket."""
    return not any(len(fs) == 1 and type(fs[0]) is Br and fs[0].sign > 0
                   for fs, nest, _ in _levels(w) if nest)


def _push_reduced(stack: list, f: Gen | Br) -> None:
    if stack and are_inverse(stack[-1], f):
        stack.pop()
    else:
        stack.append(f)


def reduce_concat(u: Word, v: Word) -> Word:
    """Free-group product: concatenate and cancel at the seam, cascading."""
    out = list(u)
    for f in v:
        _push_reduced(out, f)
    return Word(out)


def inverse(w: Word) -> Word:
    return Word([inv_factor(f) for f in reversed(w)])


@dataclass(frozen=True)
class WordMetrics:
    breadth: int  # letters at the top level
    depth: int  # most operator applications along one path: iterations summed
    op_degree: int  # operator applications in all: every bracket's iterations
    size: int  # letters at every level, plus every bracket's iterations
    generators: frozenset  # the generator names that occur


def metrics(w: Word) -> WordMetrics:
    depth = degree = size = 0
    names = set()
    for fs, _, d in _levels(w):
        depth = max(depth, d)
        size += len(fs)
        for f in fs:
            if type(f) is Br:
                degree += f.iter
            else:
                names.add(f.name)
    return WordMetrics(len(w), depth, degree, size + degree, frozenset(names))


def nesting(w: Word) -> int:
    """Deepest bracket nesting of `w` as rendered.

    This is the depth `parse` bounds by MAX_NESTING; ``[x]@5`` nests 1 deep.
    """
    return max(nest for _, nest, _ in _levels(w))


# --- parsing ---------------------------------------------------------------


class WordSyntaxError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# A letter token, the only statement of one: group 1 an identifier, group 2
# "]" (neither for "1"), then group 3 the digits of "@n" and group 4 the
# signed digits of "^k".  The suffixes are matched after any base so that a
# misplaced "@" is reported where it stands.  ``\d`` is any decimal digit.
_FACTOR_RE = re.compile(rf"(?:({_IDENT_RE.pattern})|(\])|1)(?:@(\d*))?(?:\^(-?\d*))?")
# One token, after any whitespace: "[", a letter token, or any other
# character, which no factor starts with.  ``\s`` is exactly ``str.isspace``.
_TOKEN_RE = re.compile(rf"\s*(\[|{_FACTOR_RE.pattern}|\S)")

# Deepest bracket nesting `parse` accepts; one level more is a WordSyntaxError.
# Some of the program recurses once per nesting level, and each level costs
# frames under Python's default recursion limit of 1000: two to compare two
# words with ``==`` (C tuple comparison counts one level for the word and one
# for the bracket letter; only the law checks do, on generated words), two
# each for eval_operated and for diamond's seam merges, one each for the
# oracle's innermost engine (two at a level whose content it folds in), its
# outermost finder and _apply_at.  parse, render, is_normal, are_inverse (so
# every cancellation test) and the level walker behind is_reduced, is_folded,
# metrics and nesting use an explicit stack.  A product of two words nests
# at most as deep as both together, so the costliest command on
# parsed input -- a product merging two 100-deep words at every level, or
# evaluating one -- needs about 210 frames; on CPython 3.11 no subcommand
# needed more, measured by lowering the recursion limit.  The bound is on the
# text only: the oracle can nest brackets written side by side deeper than
# the text does, and a word printed more than MAX_NESTING deep is refused
# when read back.
MAX_NESTING = 100

# Most letters the powers ``^k`` with |k| >= 2 of one text may expand to;
# past it, a WordSyntaxError.  A power is expanded letter by letter before
# anything else can refuse it, so ``x^99999999999`` would otherwise fill
# memory.  ``x^3000000`` (24 MB of letter references on a 64-bit build) is
# the largest power a CI step reads.
MAX_POWER_LETTERS = 3_000_000
_TOO_MANY = "powers expand to more than {} letters"


@lru_cache(maxsize=512)
def _spell(piece: str) -> tuple:
    """What `piece` spells, by one ``_FACTOR_RE`` match: (kind, a, sign, count).

    kind "g": generator named `a`; kind "]": a closing bracket of iteration
    `a`; either `count` copies of the letter of that sign.  Kind "1":
    nothing.  Kind "!": not one well-formed token, and for a piece that is
    one token the syntax error, message `a` at offset `sign` in the piece.
    """
    m = _FACTOR_RE.fullmatch(piece)
    if m is None:
        return "!", "expected a factor: identifier, '[', or '1'", 0, 0
    name, closed, it, k = m.groups()
    n = count = 1
    try:  # int() refuses more digits than sys.get_int_max_str_digits()
        if it is not None:
            if not closed:
                return "!", "'@' is only valid after ']'", m.start(3) - 1, 0
            if not it:
                return "!", "expected a positive integer after '@'", m.end(3), 0
            n = int(it)
            if n < 1:
                return "!", "iteration must be >= 1", m.start(3), 0
        if k is not None:
            if k in ("", "-"):
                return "!", "expected a nonzero integer after '^'", m.end(4), 0
            count = int(k)
            if not count:
                return "!", "power 0 is not allowed", m.start(4), 0
    except ValueError:
        return "!", "number has too many digits", 0, 0
    sign = 1 if count > 0 else -1
    if closed:
        return "]", n, sign, count * sign
    if name:
        return "g", name, sign, count * sign
    return "1", None, None, 0


def _read_piece(piece: str, gens: dict) -> tuple:
    """_spell's reading of `piece`, with a generator's letter and its inverse
    from `gens` (name -> its two letters) in place of its name and sign.  A
    piece over 32 characters is spelled uncached: the cache keeps short texts.
    """
    spell = _spell if len(piece) <= 32 else _spell.__wrapped__
    kind, name, sign, count = read = spell(piece)
    if kind != "g":
        return read
    pair = gens.get(name)
    if pair is None:
        pair = gens[name] = _new(Gen, (name, 1)), _new(Gen, (name, -1))
    return ("g", *pair, count) if sign > 0 else ("g", pair[1], pair[0], count)


def _tokens(text: str, start: list):
    """The tokens of `text` by ``_TOKEN_RE``, drawn lazily.

    ``start[0]`` is where the token last drawn starts.
    """
    for m in _TOKEN_RE.finditer(text):
        start[0] = m.start(1)
        yield m[1]


def parse(text: str) -> Word:
    """Word spelled by `text` in the grammar above, reduced and folded.

    Raises WordSyntaxError, with the position, on malformed text, on
    brackets nested deeper than MAX_NESTING, and at the power whose letters
    take the text's powers past MAX_POWER_LETTERS.

    The first reading takes its tokens from one ``str.split`` after a space
    is put on both sides of each "[" and before each "]": a piece is then
    "[", or a closing bracket with its ``@n^k``, or a letter, whenever the
    text separates its factors, as rendered text does.  Each piece is read
    by one ``_FACTOR_RE`` match in _spell.  On the first piece that is not
    one well-formed token (a tight spelling such as ``x^2y``, ``1x`` or
    ``]x``, or a malformed token) and on any other syntax error but a
    missing "]", the same loop reads the text again from the start, token
    by token from ``_TOKEN_RE``.  The tokens are drawn lazily, so a refusal
    stops at the failing token, and the error is placed from where that
    token starts.

    A memo maps each distinct piece of one call to its reading with
    letters; what a piece spells is cached across calls as strings and
    ints.  Generator letters come from one table per call, one object per
    (name, sign), so a generator cancels the letter before it exactly when
    that is its inverse object, and is pushed with no call.  A closing
    bracket calls make_br only when its content is a lone positive bracket,
    which folds, and pushes its letter with no call unless the letter
    before is a bracket of the opposite sign, which may cancel it.  No
    letter outlives its call.
    """
    memo: dict = {}  # piece or token text -> _read_piece's reading
    gens: dict = {}  # name -> the positive and negative letter of this call
    start = None  # in the second reading, where its last token starts
    tokens = text.replace("[", " [ ").replace("]", " ]").split()
    while True:
        out: list = []
        outer: list = []  # the factor lists of the enclosing brackets
        powered = 0  # the letters that powers |k| >= 2 have expanded to
        for tok in tokens:
            if tok == "[":
                if len(outer) == MAX_NESTING:
                    error = f"brackets nested deeper than {MAX_NESTING}", 0
                    break
                outer.append(out)
                out = []
                continue
            read = memo.get(tok)
            if read is None:
                read = memo[tok] = _read_piece(tok, gens)
            kind, a, b, count = read
            if kind == "g":
                if count == 1 and not (out and out[-1] is b):
                    out.append(a)
                    continue
                if count > 1 and (powered := powered + count) > MAX_POWER_LETTERS:
                    error = _TOO_MANY.format(MAX_POWER_LETTERS), 0
                    break
                for _ in range(count):
                    if out and out[-1] is b:
                        out.pop()
                    else:
                        out.append(a)
            elif kind == "]":
                if not outer:
                    error = "unexpected ']'", 0
                    break
                if len(out) == 1 and type(out[0]) is Br and out[0].sign > 0:
                    letter = make_br(Word(out), a, b)
                else:
                    letter = _new(Br, (Word(out), a, b))
                out = outer.pop()
                if count == 1 and not (out and type(out[-1]) is Br and out[-1].sign != b):
                    out.append(letter)
                    continue
                if count > 1 and (powered := powered + count) > MAX_POWER_LETTERS:
                    error = _TOO_MANY.format(MAX_POWER_LETTERS), 0
                    break
                for _ in range(count):
                    _push_reduced(out, letter)
            elif kind == "!":
                error = ("unexpected ']'", 0) if tok[0] == "]" and not outer else (a, b)
                break
        else:
            if outer:
                raise WordSyntaxError("expected ']'", len(text))
            return Word(out)
        if start is not None:
            message, offset = error
            raise WordSyntaxError(message, start[0] + offset)
        start = [0]
        tokens = _tokens(text, start)


# --- rendering -------------------------------------------------------------


def render(w: Word) -> str:
    """Text of `w` in the grammar above.

    Each level is walked by a ``for`` over an iterator kept on an explicit
    stack, so any depth renders: a bracket with content pushes the
    iterator of its level and the text that closes it, and the level below
    resumes where it stopped once the content is done.  Every letter is
    followed by a space, and the space after a level's last letter gives way
    to the level's closing text.
    """
    if not w:
        return "1"
    out = []
    outer = []  # (iterator, closing text) of each enclosing level
    it, close = iter(w), ""
    while True:
        for f in it:
            if type(f) is Gen:
                out.append(f.name if f.sign > 0 else f.name + "^-1")
                out.append(" ")
                continue
            content, n, sign = f
            end = "]" if n == 1 else f"]@{n}"
            if sign < 0:
                end += "^-1"
            if content:
                outer.append((it, close))
                it, close = iter(content), end
                out.append("[")
                break
            out.append("[1" + end)
            out.append(" ")
        else:
            out[-1] = close
            if not outer:
                return "".join(out)
            it, close = outer.pop()
            out.append(" ")


# --- evaluation into operated groups ---------------------------------------


class UnassignedGenerator(KeyError):
    pass


def eval_operated(w: Word, target, assignment: Mapping[str, object]):
    """Image of `w` under the operated-group map extending `assignment`.

    `target` provides identity(), mul(a, b), inv(a) and op(a, n), which is
    A^n(a) for n >= 1: a bracket `[c]@n` costs one op call.
    """

    def eval_factor(f: Gen | Br):
        if isinstance(f, Gen):
            try:
                e = assignment[f.name]
            except KeyError:
                raise UnassignedGenerator(f.name) from None
            return target.inv(e) if f.sign < 0 else e
        e = target.op(eval_word(f.content), f.iter)
        return target.inv(e) if f.sign < 0 else e

    def eval_word(v: Word):
        acc = target.identity()
        for f in v:
            acc = target.mul(acc, eval_factor(f))
        return acc

    return eval_word(w)
