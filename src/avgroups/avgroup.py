"""The free averaging group on a set.

Elements are normal words (see :mod:`avgroups.normalform`), and ``diamond``
and ``op_apply`` take normal operands.  The product ``diamond`` concatenates
two normal words and works the seam: mutually inverse letters cancel, two
positive brackets merge as

    [a]@s [b]@t  ->  [a <> [b]]@(s+t-1)

and two negative brackets merge as the inverse of the swapped positive merge.
A merged or exposed letter is re-examined against both of its new neighbours,
cascading until the seam is quiet.  The seam is quiet as soon as one of v's
own letters is placed untouched: v is reduced and has no two adjacent
same-sign brackets, so none of its later letters can interact, and they are
appended in one go.  When u's last letter and v's first letter already
neither cancel nor merge, the product is the one concatenation u + v.

The operator ``op_apply`` follows the standard factorization w = w1...wk:

    * k <= 1, or neither end is a positive bracket: wrap w in one bracket;
    * w1 = [a]@t: merge a with op_apply(w2...wk), then apply the operator t
      times in total;
    * wk = [b]@s with s >= 2: merge w1...w(k-1) with op_apply(b), then apply
      the operator s times;
    * wk = [b] with s = 1: the merge reproduces w itself, so wrap literally.

Outer iterations are realized by applying the operator, never by literal
repeated bracketing: the literal reading produces non-normal intermediates.
Every output of op_apply is a single positive bracket letter [c]@k, and the
operator on such a letter only raises its count, so A^n(w) = [c]@(k+n-1):
``op_apply(w, n)`` carries n down its recursion into the one bracket each
return path builds, and ``op_iter`` costs the same for every n >= 1.

The seeded word generators ``random_raw_word`` and ``random_normal_word``
draw straight from ``random.Random.getrandbits``: a choice among n things
takes ``n.bit_length()`` bits and draws again until the value is below n,
which is the draw ``randrange`` and ``choice`` make on CPython 3.10-3.13.  A
given seed therefore gives the same word on each of those versions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .normalform import is_normal, oracle_normalize
from .words import (
    ONE,
    Br,
    Word,
    _new,
    are_inverse,
    inverse,
    make_br,
    make_gen,
)


def _seam_merge(a: Br, b: Br) -> Br:
    """Merge two same-sign bracket letters into one; a negative pair merges swapped."""
    if a.sign < 0:
        a, b = b, a
    content = diamond(a.content, Word((make_br(b.content, 1, 1),)))
    return make_br(content, a.iter + b.iter - 1, a.sign)


def diamond(u: Word, v: Word) -> Word:
    if not v:
        return u
    if not u:
        return v
    a, b = u[-1], v[0]
    if not (type(a) is Br and type(b) is Br and a.sign == b.sign or are_inverse(a, b)):
        # the seam is quiet at its first pair
        return Word(u + v)
    out = list(u)
    for i, b in enumerate(v):
        untouched = True
        while out:
            a = out[-1]
            if are_inverse(a, b):
                out.pop()
                b = None
                break
            if not (type(a) is Br and type(b) is Br and a.sign == b.sign):
                break
            out.pop()
            b = _seam_merge(a, b)
            untouched = False
        if b is None:
            continue
        if untouched:
            # the seam is quiet: v's later letters cannot interact
            out.extend(v[i:])
            break
        out.append(b)
    return Word(out)


def op_apply(w: Word, n: int = 1) -> Word:
    """A^n(w) for n >= 1: one bracket letter, whose count carries n - 1."""
    if n < 1:
        raise ValueError("iteration count must be >= 1")
    if len(w) == 1:
        f = w[0]
        if type(f) is Br and f.sign > 0:
            return Word((_new(Br, (f.content, f.iter + n, 1)),))
    elif w:
        first, last = w[0], w[-1]
        if type(first) is Br and first.sign > 0:
            return op_apply(diamond(first.content, op_apply(Word(w[1:]))), first.iter + n - 1)
        if type(last) is Br and last.sign > 0 and last.iter >= 2:
            return op_apply(diamond(Word(w[:-1]), op_apply(last.content)), last.iter + n - 1)
    # neither end forces a merge, and w is not a lone positive bracket, so one
    # literal bracket is already normal and folded
    return Word((_new(Br, (w, n, 1)),))


def op_iter(w: Word, n: int) -> Word:
    if n < 0:
        raise ValueError("iteration count must be >= 0")
    return op_apply(w, n) if n else w


# --- the universal property --------------------------------------------------

# words.eval_operated extends a generator assignment to any target; into this
# one, with each generator sent to itself, it is the identity map.


class FreeTarget:
    """The free averaging group presented through its own operations."""

    identity = staticmethod(Word)  # the empty word, ONE
    mul = staticmethod(diamond)
    inv = staticmethod(inverse)
    op = staticmethod(op_apply)


# --- random words ------------------------------------------------------------


# the most letters one word draw makes at all its levels, with the contents of
# brackets _grow_raw discards; seeds 0-5,999 at d8b9 draw at most size 2,171
MAX_DRAW_LETTERS = 100_000


class DrawTooLarge(ValueError):
    """A word draw would make more than MAX_DRAW_LETTERS letters."""


@dataclass(frozen=True)
class GenParams:
    max_depth: int = 3
    max_breadth: int = 4
    alphabet: tuple = ("x", "y", "z")
    seed: int = 0


def random_normal_word(p: GenParams, via_oracle: bool = False) -> Word:
    """Deterministic-in-seed normal word within the given size bounds.

    The grammar path samples words whose bracket letters are all positive
    with nonempty contents (generators carry both signs).  That sector is
    closed under the product and the operator, and it is exactly where the
    merged-form carrier is faithful: words mixing inverse brackets or
    identity brackets can name one group element in more than one way, so
    structural law checks are only meaningful away from them.  The
    via_oracle path normalizes an unrestricted raw word instead and can
    reach the full carrier.  The grammar path draws as :func:`random_raw_word`
    does, from ``random.Random(p.seed)``, and both refuse the same parameters,
    stop a draw past ``MAX_DRAW_LETTERS`` letters and give the identity at
    ``max_breadth=0``.

    The grammar is normal by construction: a generator repeats the one
    before it instead of cancelling it, no two brackets stand side by side,
    and a content starts with a generator, so it never folds, and ends at
    iteration 1.  So one draw is taken, and ``is_normal`` only confirms it.
    """
    if via_oracle:
        return oracle_normalize(random_raw_word(p))
    letters = _letters(p)
    if not p.max_breadth:
        return ONE
    rng = random.Random(p.seed)
    w = _grow_positive(rng.getrandbits, rng.random, letters, p.max_breadth, p.max_depth, False,
                       [MAX_DRAW_LETTERS])
    if not is_normal(w):
        raise RuntimeError("word generator failed to produce a normal word")
    return w


def random_raw_word(p: GenParams) -> Word:
    """Reduced (but in general non-normal) word within the size bounds.

    The word is drawn from ``random.Random(p.seed ^ 0x5EED)``, as the module
    docstring says; coin flips are ``random() < 0.4``.  An empty alphabet or
    a negative ``max_breadth`` raises ValueError, and a draw that would make
    more than ``MAX_DRAW_LETTERS`` letters raises DrawTooLarge.
    """
    letters = _letters(p)
    rng = random.Random(p.seed ^ 0x5EED)
    return _grow_raw(rng.getrandbits, rng.random, letters, p.max_breadth + 1, p.max_depth,
                     [MAX_DRAW_LETTERS])


def _letters(p: GenParams) -> tuple:
    """(positive, negative) generator letters for each alphabet position.

    Keyed by name, so a repeated name gets the same pair of objects, and a
    generator letter is the inverse of another exactly when it is that
    pair's other object.  An empty alphabet or a negative max_breadth is
    refused here: either would leave a draw from range(0), which never ends.
    So is a name make_gen refuses: its letters would not read back.
    """
    if not p.alphabet:
        raise ValueError("the alphabet must name at least one generator")
    if p.max_breadth < 0:
        raise ValueError("max_breadth must be >= 0")
    return _alphabet_letters(tuple(p.alphabet))


@lru_cache(maxsize=1)
def _alphabet_letters(alphabet: tuple) -> tuple:
    """_letters of `alphabet` through make_gen, kept for the last alphabet."""
    pairs = {name: (make_gen(name), make_gen(name, -1)) for name in alphabet}
    return tuple(pairs[name] for name in alphabet)


def _below(bits, n: int) -> int:
    """A uniform draw from range(n), as ``Random.randrange(n)`` makes it."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _spend(budget: list, count: int) -> None:
    """Take a level's `count` letters from the draw's `budget`, before any is drawn."""
    budget[0] -= count
    if budget[0] < 0:
        raise DrawTooLarge(f"a word draw would make more than {MAX_DRAW_LETTERS} letters")


def _grow_positive(bits, rand, letters, width: int, depth: int, inside: bool, budget) -> Word:
    """A positive-sector word; `bits` and `rand` are one Random's getrandbits and random."""
    count = 1 + _below(bits, width)
    _spend(budget, count)
    out: list = []
    prev = None
    for i in range(count):
        if (depth >= 1
                and type(prev) is not Br           # no adjacent bracket letters
                and not (inside and i == 0)        # contents start with a generator
                and rand() < 0.4):
            it = 1 + _below(bits, min(3, depth))
            if inside and i == count - 1:          # contents end at iteration 1
                it = 1
            content = _grow_positive(bits, rand, letters, width, depth - it, True, budget)
            prev = make_br(content, it, 1)
        else:
            pair = letters[_below(bits, len(letters))]
            s = _below(bits, 2)
            # a generator never cancels the one before it: it repeats it instead
            prev = pair[1 - s] if prev is pair[1 - s] else pair[s]
        out.append(prev)
    return Word(out)


def _grow_raw(bits, rand, letters, width: int, depth: int, budget) -> Word:
    count = _below(bits, width)
    _spend(budget, count)
    out: list = []
    for _ in range(count):
        for _ in range(20):
            if depth >= 1 and rand() < 0.4:
                it = 1 + _below(bits, min(3, depth))
                content = _grow_raw(bits, rand, letters, width, depth - it, budget)
                f = make_br(content, it, (1, -1)[_below(bits, 2)])
                if out and are_inverse(out[-1], f):
                    continue
            else:
                pair = letters[_below(bits, len(letters))]
                s = _below(bits, 2)
                if out and out[-1] is pair[1 - s]:
                    continue
                f = pair[s]
            out.append(f)
            break
    return Word(out)
