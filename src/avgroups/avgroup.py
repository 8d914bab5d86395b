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
appended in one go.

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
operator on such a letter only raises its count, so n applications are one
application and a fold: A^n(w) = [c]@(k+n-1).  ``op_iter`` costs the same
for every n >= 1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .normalform import is_normal, oracle_normalize
from .words import (
    ONE,
    Br,
    Gen,
    Word,
    are_inverse,
    invert,
    make_br,
    single,
)

__all__ = [
    "diamond",
    "op_apply",
    "op_iter",
    "inverse",
    "free_target",
    "GenParams",
    "random_normal_word",
    "random_raw_word",
]

_new = tuple.__new__  # the C constructor of letters (see avgroups.words)


def _seam_merge(a: Br, b: Br) -> Br:
    """Merge two same-sign bracket letters into one letter."""
    if a.sign > 0:
        content = diamond(a.content, single(make_br(b.content, 1, 1)))
        return make_br(content, a.iter + b.iter - 1, 1)
    content = diamond(b.content, single(make_br(a.content, 1, 1)))
    return make_br(content, a.iter + b.iter - 1, -1)


def diamond(u: Word, v: Word) -> Word:
    if not v:
        return u
    if not u:
        return v
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


def op_apply(w: Word) -> Word:
    if len(w) == 1:
        f = w[0]
        if type(f) is Br and f.sign > 0:
            return Word((_new(Br, (f.content, f.iter + 1, 1)),))
    elif w:
        first, last = w[0], w[-1]
        if type(first) is Br and first.sign > 0:
            return _fold(diamond(first.content, op_apply(Word(w[1:]))), first.iter)
        if type(last) is Br and last.sign > 0 and last.iter >= 2:
            return _fold(diamond(Word(w[:-1]), op_apply(last.content)), last.iter)
    # neither end forces a merge, and w is not a lone positive bracket, so one
    # literal bracket is already normal and folded
    return Word((_new(Br, (w, 1, 1)),))


def _fold(w: Word, n: int) -> Word:
    """A^n(w) for n >= 1: one application, then n - 1 folded into the count."""
    if len(w) == 1 and type(w[0]) is Br and w[0].sign > 0:
        content, it, _ = w[0]
        return Word((_new(Br, (content, it + n, 1)),))
    a = op_apply(w)
    if n == 1:
        return a
    ((content, it, _),) = a
    return Word((_new(Br, (content, it + n - 1, 1)),))


def op_iter(w: Word, n: int) -> Word:
    if n < 0:
        raise ValueError("iteration count must be >= 0")
    return _fold(w, n) if n else w


def inverse(w: Word) -> Word:
    return invert(w)


# --- the universal property --------------------------------------------------

# words.eval_operated extends a generator assignment to any target; into this
# one, with each generator sent to itself, it is the identity map.


class _FreeTarget:
    """The free averaging group presented through its own operations."""

    @staticmethod
    def identity() -> Word:
        return ONE

    @staticmethod
    def mul(a: Word, b: Word) -> Word:
        return diamond(a, b)

    @staticmethod
    def inv(a: Word) -> Word:
        return inverse(a)

    @staticmethod
    def op(a: Word) -> Word:
        return op_apply(a)


def free_target() -> _FreeTarget:
    return _FreeTarget()


# --- random words ------------------------------------------------------------


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
    reach the full carrier.
    """
    if via_oracle:
        return oracle_normalize(random_raw_word(p))
    rng = random.Random(p.seed)
    # the growth constraints make rejection rare; the check makes it impossible
    for _ in range(1000):
        w = _grow_positive(rng, p, p.max_depth, inside=False)
        if is_normal(w):
            return w
    raise RuntimeError("word generator failed to produce a normal word")


def random_raw_word(p: GenParams) -> Word:
    """Reduced (but in general non-normal) word within the size bounds."""
    rng = random.Random(p.seed ^ 0x5EED)
    return _grow_raw(rng, p, p.max_depth)


def _grow_positive(rng, p: GenParams, depth: int, inside: bool) -> Word:
    k = rng.randint(1, max(1, p.max_breadth))
    out: list = []
    for i in range(k):
        last = i == k - 1
        prev = out[-1] if out else None
        can_bracket = (
            depth >= 1
            and not isinstance(prev, Br)       # no adjacent bracket letters
            and not (inside and i == 0)        # contents start with a generator
        )
        if can_bracket and rng.random() < 0.4:
            it = rng.randint(1, max(1, min(3, depth)))
            if inside and last and it > 1:     # contents end at iteration 1
                it = 1
            content = _grow_positive(rng, p, depth - it, inside=True)
            out.append(make_br(content, it, 1))
            continue
        name = rng.choice(p.alphabet)
        sign = rng.choice((1, -1))
        if isinstance(prev, Gen) and prev.name == name and prev.sign == -sign:
            sign = -sign
        out.append(Gen(name, sign))
    return Word(out)


def _grow_raw(rng, p: GenParams, depth: int) -> Word:
    k = rng.randint(0, p.max_breadth)
    out: list = []
    for _ in range(k):
        for _ in range(20):
            if depth >= 1 and rng.random() < 0.4:
                it = rng.randint(1, max(1, min(3, depth)))
                content = _grow_raw(rng, p, depth - it)
                f: object = make_br(content, it, rng.choice((1, -1)))
            else:
                f = Gen(rng.choice(p.alphabet), rng.choice((1, -1)))
            if out and are_inverse(out[-1], f):
                continue
            out.append(f)
            break
    return Word(out)
