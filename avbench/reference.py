"""Independent references the benchmark checks the program against.

Nothing here imports avgroups.  Words are read from their rendered text by a
parser of our own, evaluated into three averaging groups of our own, and
tested for normality by a predicate written from the N0-N3 definition.  The
finite side has its own group tables, its own averaging-law counter and its
own exact Lie-algebra checks.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from typing import NamedTuple

# --- rendered words ----------------------------------------------------------
#
# A word is a tuple of letters; a letter is ("g", name, sign) or
# ("b", content, iter, sign).  The parser keeps the text literally: it
# neither cancels inverse pairs nor folds [[c]] into [c]@2, so the normality
# predicate sees exactly what the program printed.

_TOKEN = r"\s*(?:([a-z][a-zA-Z0-9_]*)|(\[)|(\])|(1)|@(\d+)|\^(-?\d+))"
_TOKENS = re.compile(_TOKEN)
_TEXT = re.compile(rf"(?:{_TOKEN})*\s*")


class TextError(ValueError):
    pass


def read_word(text: str) -> tuple:
    if not _TEXT.fullmatch(text):
        raise TextError(f"unreadable text: {text[:40]!r}")
    tokens = _TOKENS.findall(text)
    word, i = _read_seq(tokens, 0)
    if i != len(tokens):
        raise TextError("unbalanced ']'")
    return word


def _read_seq(tokens, i):
    out = []
    while i < len(tokens):
        name, opn, cls, one, it, power = tokens[i]
        if cls:
            break
        if one:
            letter, i = None, i + 1
        elif name:
            letter, i = ("g", name, 1), i + 1
        elif opn:
            content, i = _read_seq(tokens, i + 1)
            if i >= len(tokens) or not tokens[i][2]:
                raise TextError("missing ']'")
            i += 1
            n = 1
            if i < len(tokens) and tokens[i][4]:
                n = int(tokens[i][4])
                i += 1
            letter = ("b", content, n, 1)
        else:
            raise TextError("dangling '@' or '^'")
        k = 1
        if i < len(tokens) and tokens[i][5]:
            k = int(tokens[i][5])
            i += 1
        if letter is not None:
            one_letter = letter if k > 0 else _flip(letter)
            out.extend([one_letter] * abs(k))
    return tuple(out), i


def _flip(letter):
    return letter[:-1] + (-letter[-1],)


def _inverse_pair(a, b) -> bool:
    return a[:-1] == b[:-1] and a[-1] == -b[-1]


def is_normal(word: tuple) -> bool:
    """N0-N3, with an unfolded [[c]] counted as not normal."""
    for i, f in enumerate(word):
        prev = word[i - 1] if i else None
        if prev is not None and _inverse_pair(prev, f):
            return False
        if f[0] != "b":
            continue
        if prev is not None and prev[0] == "b" and prev[3] == f[3]:
            return False
        c = f[1]
        if len(c) == 1 and c[0][0] == "b" and c[0][3] > 0:
            return False
        if len(c) >= 2:
            if c[0][0] == "b" and c[0][3] > 0:
                return False
            if c[-1][0] == "b" and c[-1][3] > 0 and c[-1][2] >= 2:
                return False
        if not is_normal(c):
            return False
    return True


def shape(word: tuple):
    """(letters at every level, depth, breadth) of a word."""
    letters, depth = 0, 0
    for f in word:
        letters += 1
        if f[0] == "b":
            sub_letters, sub_depth, _ = shape(f[1])
            letters += sub_letters
            depth = max(depth, f[2] + sub_depth)
    return letters, depth, len(word)


def is_positive(word: tuple) -> bool:
    """In the positive sector: every bracket positive, with nonempty content.

    The program documents this sector as the one on which its normal form is
    faithful; outside it, two normal words can name one element.
    """
    return all(f[0] == "g" or (f[3] > 0 and f[1] and is_positive(f[1])) for f in word)


# --- three averaging groups --------------------------------------------------


def _perm_mul(p, q):
    """Apply q first, then p."""
    return tuple(p[q[i]] for i in range(3))


def _perm_inv(p):
    out = [0, 0, 0]
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def _perm_odd(p) -> bool:
    return sum(p[i] > p[j] for i in range(3) for j in range(i + 1, 3)) % 2 == 1


S3_NAMES = {
    "e": (0, 1, 2), "(12)": (1, 0, 2), "(13)": (2, 1, 0),
    "(23)": (0, 2, 1), "(123)": (1, 2, 0), "(132)": (2, 0, 1),
}
S3_BY_PERM = {p: n for n, p in S3_NAMES.items()}


class Target:
    def __init__(self, identity, mul, inv, op, assignment):
        self.identity, self.mul, self.inv, self.op = identity, mul, inv, op
        self.assignment = assignment


# Z with A(a) = a + 5; Z4 with A(a) = a + 1; S3 with the sign retraction
# onto {e, (12)}.  The assignments match the program's own hom suite.
TARGETS = (
    Target(0, lambda a, b: a + b, lambda a: -a, lambda a: a + 5,
           {"x": 2, "y": 3, "z": 4}),
    Target(0, lambda a, b: (a + b) % 4, lambda a: -a % 4, lambda a: (a + 1) % 4,
           {"x": 1, "y": 2, "z": 3}),
    Target(S3_NAMES["e"], _perm_mul, _perm_inv,
           lambda a: S3_NAMES["(12)"] if _perm_odd(a) else S3_NAMES["e"],
           {"x": S3_NAMES["(12)"], "y": S3_NAMES["(23)"], "z": S3_NAMES["(132)"]}),
)


def evaluate(word: tuple, t: Target):
    acc = t.identity
    for f in word:
        if f[0] == "g":
            v = t.assignment[f[1]]
        else:
            v = evaluate(f[1], t)
            for _ in range(f[2]):
                v = t.op(v)
        acc = t.mul(acc, v if f[-1] > 0 else t.inv(v))
    return acc


class Facts(NamedTuple):
    images: tuple     # in each of TARGETS
    normal: bool
    positive: bool
    letters: int      # at every level
    depth: int
    breadth: int


def facts(text: str) -> Facts:
    """What the references say about one rendered word."""
    w = read_word(text)
    return Facts(tuple(evaluate(w, t) for t in TARGETS), is_normal(w), is_positive(w),
                 *shape(w))


class FactBook(dict):
    """Facts per text, each worked out once: outputs repeat across a check."""

    def __missing__(self, text):
        self[text] = found = facts(text)
        return found


def mul_images(a: tuple, b: tuple) -> tuple:
    return tuple(t.mul(x, y) for t, x, y in zip(TARGETS, a, b))


def op_images(a: tuple, n: int = 1) -> tuple:
    out = []
    for t, x in zip(TARGETS, a):
        for _ in range(n):
            x = t.op(x)
        out.append(x)
    return tuple(out)


def inv_images(a: tuple) -> tuple:
    return tuple(t.inv(x) for t, x in zip(TARGETS, a))


# --- finite groups and the averaging law --------------------------------------
#
# Element orders follow the program's published naming (Z_n as 0..n-1, K4 as
# e, a, b, c, S3 in the cycle-notation order of S3_NAMES), so operator tables
# compare index by index.


def cyclic_table(n: int):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def klein_table():
    # e, a, b, c  <->  00, 01, 10, 11 as bit patterns: the product is XOR
    return [[i ^ j for j in range(4)] for i in range(4)]


def s3_table():
    perms = list(S3_NAMES.values())
    return [[perms.index(_perm_mul(p, q)) for q in perms] for p in perms]


GROUPS = {
    "Z4": cyclic_table(4),
    "K4": klein_table(),
    "Z5": cyclic_table(5),
    "Z6": cyclic_table(6),
    "S3": s3_table(),
}


def is_averaging(mul, op) -> bool:
    n = len(mul)
    for g in range(n):
        ag = op[g]
        for h in range(n):
            lhs = mul[ag][op[h]]
            if lhs != op[mul[ag][h]] or lhs != op[mul[g][op[h]]]:
                return False
    return True


def averaging_ops(mul, pointed: bool = False) -> list:
    """Every averaging operator table, in index order, by brute force."""
    n = len(mul)
    found = [op for op in itertools.product(range(n), repeat=n) if is_averaging(mul, op)]
    if pointed:
        found = [op for op in found if op[0] == 0]
    return found


# --- exact Lie algebras -------------------------------------------------------
#
# Structure constants are {(i, j): {k: value}} with zero-based indices and
# explicit antisymmetric mirrors; a matrix is a list of rows acting on
# column vectors.


def lie_complete(dim: int, brackets: dict) -> dict:
    full = {}
    for (i, j), coeffs in brackets.items():
        full[(i, j)] = {k: Fraction(v) for k, v in coeffs.items()}
        full[(j, i)] = {k: -Fraction(v) for k, v in coeffs.items()}
    return full


def _bracket(dim, consts, x, y):
    out = [Fraction(0)] * dim
    for (i, j), coeffs in consts.items():
        if x[i] and y[j]:
            for k, v in coeffs.items():
                out[k] += x[i] * y[j] * v
    return out


def _apply(M, x):
    return [sum((Fraction(M[r][c]) * x[c] for c in range(len(x))), Fraction(0))
            for r in range(len(x))]


def _unit(dim, i):
    return [Fraction(int(k == i)) for k in range(dim)]


def lie_averaging(dim: int, consts: dict, M) -> bool:
    for i, j in itertools.product(range(dim), repeat=2):
        ei, ej = _unit(dim, i), _unit(dim, j)
        aei, aej = _apply(M, ei), _apply(M, ej)
        lhs = _bracket(dim, consts, aei, aej)
        if lhs != _apply(M, _bracket(dim, consts, aei, ej)):
            return False
        if lhs != _apply(M, _bracket(dim, consts, ei, aej)):
            return False
    return True


def lie_leibniz(dim: int, consts: dict, M) -> bool:
    def br(x, y):
        return _bracket(dim, consts, _apply(M, x), y)

    for i, j, k in itertools.product(range(dim), repeat=3):
        x, y, z = _unit(dim, i), _unit(dim, j), _unit(dim, k)
        rhs = [a + b for a, b in zip(br(br(x, y), z), br(y, br(x, z)))]
        if br(x, br(y, z)) != rhs:
            return False
    return True
