"""Word core: parsing, rendering, reduction, folding, metrics, evaluation."""

import copy
import gc
import importlib
import os
import pickle
import random
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import avgroups
from avgroups.words import (
    MAX_NESTING,
    MAX_POWER_LETTERS,
    Br,
    Gen,
    ONE,
    UnassignedGenerator,
    Word,
    WordMetrics,
    WordSyntaxError,
    are_inverse,
    eval_operated,
    inverse,
    is_folded,
    is_reduced,
    make_br,
    make_gen,
    metrics,
    nesting,
    parse,
    reduce_concat,
    render,
)
from avgroups.avgroup import GenParams, random_normal_word, random_raw_word
from avgroups.structures import IntShiftGroup


def test_parse_render_round_trips():
    for text in [
        "1",
        "x",
        "x^-1",
        "x y z",
        "[x]",
        "[x]@2",
        "[x]^-1",
        "[x]@2^-1",
        "[x [y]]@2 [z]^-1",
        "[x^-1 [1]]",
        "[1]",
        "x [y x^-1] y^-1",
    ]:
        w = parse(text)
        assert render(w) == text
        assert parse(render(w)) == w


def test_parse_normalizes_spelling():
    # powers expand, identity letters vanish, whitespace is free
    assert parse("x^3") == Word((Gen("x", 1),) * 3)
    assert parse("x^-2") == Word((Gen("x", -1),) * 2)
    assert parse("1") == ONE
    assert parse("") == ONE
    assert parse("1^5 x 1") == parse("x")
    assert parse("  x   [ y ] ") == parse("x [y]")
    assert parse("[]") == parse("[1]")


def test_parse_reduces_and_folds():
    assert parse("x x^-1") == ONE
    assert parse("y x x^-1 y") == parse("y y")
    assert parse("[x] [x]^-1") == ONE
    # lone positive bracket content folds into the iteration count
    assert parse("[[x]]") == parse("[x]@2")
    assert parse("[[x]@2]@3") == parse("[x]@5")
    # negative inner bracket is a different letter and must not fold
    neg = parse("[[x]^-1]")
    assert neg[0].iter == 1
    assert render(neg) == "[[x]^-1]"


def test_bracket_letter_equality_is_structural():
    a = parse("[c]@3")[0]
    b = parse("[c]@2^-1")[0]
    assert not are_inverse(a, b)
    assert are_inverse(a, parse("[c]@3^-1")[0])
    assert reduce_concat(parse("[c]@3"), parse("[c]@2^-1")) == parse("[c]@3 [c]@2^-1")


def test_words_and_letters_are_immutable():
    w = parse("x [y]@2^-1")
    g, b = w
    for node, fields in ((g, Gen._fields), (b, Br._fields), (w, ("factors", "letters"))):
        for field in fields:
            for assign in (setattr, object.__setattr__):
                with pytest.raises(AttributeError):
                    assign(node, field, None)
    with pytest.raises(TypeError):
        w[0] = b
    assert w == Word((Gen("x", 1), Br(Word((Gen("y", 1),)), 2, -1)))


def test_equality_and_hashing_are_structural():
    for text in ("x", "y^-1", "[x]", "[x y]@2^-1", "[[x]@3 y] z"):
        u, v = parse(text), parse(text)
        assert u is not v and u == v and hash(u) == hash(v), text
        for f, g in zip(u, v):
            assert f is not g and f == g and hash(f) == hash(g), text
    assert make_gen("x", -1) == parse("x^-1")[0]
    assert make_br(parse("x"), 2, -1) == parse("[x]@2^-1")[0]
    # no two node types are equal: a Gen has two items, a Br three, a word letters
    assert Gen("x", 1) != Br(ONE, 1, 1) and Br(ONE, 1, 1) != Gen("x", 1)
    assert Gen("x", 1) != parse("x") != parse("[x]")[0]
    assert parse("x y") != Gen("x", 1) and parse("x [y] z") != Br(parse("y"), 1, 1)
    # the documented tuple semantics
    assert ONE == Word(()) == () and not ONE and parse("x y")
    assert parse("x") == (Gen("x", 1),) and Gen("x", 1) == ("x", 1)


@pytest.mark.parametrize("depth", [150, 300])
def test_equal_deep_words_built_apart_compare_and_hash_equal(depth):
    def nest(bottom):
        w = Word((Gen(bottom, 1),))
        for _ in range(depth):
            w = Word((Gen("x", 1), Br(w, 1, 1)))
        return w

    u, v = nest("y"), nest("y")
    assert u == v and hash(u) == hash(v)
    assert u != nest("z")


def test_hashing_a_too_deep_word_raises_recursion_error():
    # in a child process: C tuple hashing alone overflows the C stack
    # at this depth and kills the process
    code = """
from avgroups.words import Br, Gen, ONE, Word
w = ONE
for _ in range(100_000):
    w = Word((Gen("x", 1), Br(w, 1, 1)))
try:
    hash(w)
except RecursionError:
    print("RecursionError")
"""
    src = str(Path(avgroups.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert (done.returncode, done.stdout.strip()) == (0, "RecursionError"), done.stderr


# (text, message fragment, position) of every malformed input pinned here
PARSE_ERRORS = [
    ("[x", "expected ']'", 2),
    ("x]", "unexpected ']'", 1),
    ("x^0", "power 0", 2),
    ("x^", "nonzero integer", 2),
    ("x@2", "only valid after ']'", 1),
    ("1@2", "only valid after ']'", 1),
    ("[x]@0", "iteration must be >= 1", 4),
    ("[x]@", "positive integer", 4),
    ("X", "expected a factor", 0),
    ("x^-", "nonzero integer", 3),
    ("  [ x  ", "expected ']'", 7),
    ("x ^2", "expected a factor", 2),
    ("[x] @2", "expected a factor", 4),
    ("x\t]", "unexpected ']'", 2),
    ("[[x]@2 y^0]", "power 0", 9),
    ("12", "expected a factor", 1),
    ("x^-0", "power 0", 2),
    ("[x]@2^", "nonzero integer", 6),
    ("[x]@^2", "positive integer", 4),
    ("1^0", "power 0", 2),
    ("[x]@00", "iteration must be >= 1", 4),
    ("[x]@007^-02 y]", "unexpected ']'", 13),
    # superscripts are digits to str.isdigit but no int() can read them
    ("x^\u00b2", "nonzero integer", 2),
    ("[x]@\u00b2", "positive integer", 4),
    # a power is refused before any of its letters is made
    (f"y [x]^2 z^-{MAX_POWER_LETTERS + 1}", f"more than {MAX_POWER_LETTERS} letters", 8),
]


# int() refuses to read more digits than this from a string (0: no limit)
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(INT_DIGITS == 0, reason="int() reads numbers of any length here")
def test_numbers_too_long_for_int_are_syntax_errors():
    many = "9" * (INT_DIGITS + 1)
    # the error stands where the token with the number starts
    for text, pos in ((f"x^{many}", 0), (f"x^-{many}", 0), (f"z y^{many}x", 2),
                      (f"[x]@{many}", 2), (f"[x]@{many}^2", 2), (f"y [x]@2^{many}", 4)):
        with pytest.raises(WordSyntaxError) as exc:
            parse(text)
        assert str(exc.value) == f"number has too many digits (at position {pos})", text[:12]


def test_parse_errors():
    for text, fragment, pos in PARSE_ERRORS:
        with pytest.raises(WordSyntaxError) as exc:
            parse(text)
        assert fragment in str(exc.value), text
        assert exc.value.pos == pos, text
        assert str(exc.value).endswith(f"(at position {pos})")


def test_powers_are_bounded_per_call(monkeypatch):
    # the bound is on the letters of every power |k| >= 2 of one text together
    monkeypatch.setattr(avgroups.words, "MAX_POWER_LETTERS", 10)
    assert parse("x^4 [y]^-6 " + "x " * 20) == parse("x^4 [y]^-6") + parse("x") * 20
    for text, pos in (("x^4 [y]^-7", 6), ("[x^5 y^6]", 5), ("x^11", 0), ("z x^4 x^-7", 6)):
        with pytest.raises(WordSyntaxError) as exc:
            parse(text)
        assert str(exc.value) == f"powers expand to more than 10 letters (at position {pos})"
    # each call has the whole bound
    assert len(parse("x^10")) == len(parse("y^10")) == 10


def test_cached_spellings_are_placed_and_lettered_per_call():
    from avgroups.words import _spell
    # one malformed token, cached by its text, is placed where each call has it
    for _ in range(2):
        for text, pos in (("x@2", 1), ("  x@2", 3), ("[y x@2]", 4)):
            with pytest.raises(WordSyntaxError) as exc:
                parse(text)
            assert str(exc.value) == f"'@' is only valid after ']' (at position {pos})"
    u = parse("x y^2 [x]@2 x^-1")
    assert reduce_concat(u, parse("x [x]@2^-1 y^-2 x^-1")) == ONE
    assert parse("x y^2 [x]@2 x^-1") == u and reduce_concat(u, inverse(u)) == ONE
    # the cache is bounded and holds text and numbers, never letters
    assert _spell.cache_parameters()["maxsize"] == 512
    pieces = set()
    for i in range(300):
        text = f"v{i} v{i}^-3 [v{i}]@{i + 1}^2"
        assert parse(text) == parse(f"v{i}^-2 [v{i}]@{i + 1} [v{i}]@{i + 1}")
        text += f" v{i}@2"
        with pytest.raises(WordSyntaxError):
            parse(text)
        pieces.update(text.replace("[", " [ ").replace("]", " ]").split())
    assert _spell.cache_info().currsize == 512
    for piece in pieces:
        assert {type(v) for v in _spell(piece)} <= {str, int, type(None)}, piece
    # a piece over 32 characters is spelled uncached, so the cache keeps short texts
    _spell.cache_clear()
    n = int("7" * 31)
    u = parse(f"{'v' * 33} [x]@{n}^-1 x")
    assert u == (make_gen("v" * 33), make_br(parse("x"), n, -1), make_gen("x"))
    with pytest.raises(WordSyntaxError, match="too many digits"):
        parse("x^" + "9" * 5000)
    assert _spell.cache_info().currsize == 1  # "x" alone


# --- reference: the per-factor scanner parse used before the one-pass
# tokenizer, one regex match per factor and a call per pushed letter ---------

# group 1 "[", group 2 the end of the text, or a letter: group 3 an
# identifier, group 4 "]", group 5 "1", then group 6 the digits of "@n" and
# group 7 the signed digits of "^k"
_REF_FACTOR_RE = re.compile(
    r"\s*(?:(\[)|(\Z)|(?:([a-z][a-zA-Z0-9_]*)|(\])|(1))(?:@(\d*))?(?:\^(-?\d*))?)"
)
_REF_WS_RE = re.compile(r"\s*")


def _reference_push(out, f):
    g = out[-1] if out else None
    if (type(g) is type(f) and g.sign == -f.sign
            and (g.name == f.name if type(f) is Gen
                 else (g.iter, g.content) == (f.iter, f.content))):
        out.pop()
    else:
        out.append(f)


def _reference_parse(text):
    out, outer, i, powered = [], [], 0, 0
    while True:
        m = _REF_FACTOR_RE.match(text, i)
        if m is None:
            raise WordSyntaxError("expected a factor: identifier, '[', or '1'",
                                  _REF_WS_RE.match(text, i).end())
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
            letter = Gen(name, sign)
        else:
            continue
        if count > 1:
            powered += count
            if powered > MAX_POWER_LETTERS:
                raise WordSyntaxError(f"powers expand to more than {MAX_POWER_LETTERS} letters",
                                      m.start(3) if name else m.start(4))
        for _ in range(count):
            _reference_push(out, letter)


def _outcome(parser, text):
    """The word `parser` reads from `text`, or its error's text and position."""
    try:
        return parser(text)
    except WordSyntaxError as exc:
        return str(exc), exc.pos


_WHITESPACE = (" ", "  ", "\t", "\n", " ", "　")


def _respaced(rng, text):
    """`text` with each gap between characters dropped, kept, or widened at random."""
    out = []
    for ch in text:
        if ch == " " and rng.random() < 0.5:
            continue  # a dropped separator may join or split tokens
        out.append(ch)
        if rng.random() < 0.15:
            out.append(rng.choice(_WHITESPACE))
    return "".join(out)


def test_parse_matches_the_per_factor_reference():
    texts = ["x^2y", "[x]@2[y]", "[[x]@2y]", "1x", "x1", "[ ]", "", " ", "1",
             "x^3 x^-2 [y]^2 [y]^-3", "[x]@2^-1[x]@2", "[" * MAX_NESTING + "]" * MAX_NESTING,
             "[" * (MAX_NESTING + 1) + "]" * (MAX_NESTING + 1), "[x]@٣^٢",
             "x]@", "]^0", "[x]]@", "x^0]"]
    texts += [text for text, _, _ in PARSE_ERRORS]
    # pieces of several tokens, as the split leaves them, alone, inside
    # brackets, and with an error before, after or inside them
    tight = ["x^2y", "1x", "]x", "x#", "]@2^-1x", "[x]@2[y]", "] @2", "x^2y^0", "#x",
             "]#", "]@x", "]^2@3", "x@2y", "1^2x^-1", "x^-1^2", "x^2^3", "x1@2", "X1"]
    for piece in tight:
        texts += [piece, f"[{piece}]", f"[y {piece} z]@2", f"x^0 {piece}", f"{piece} x^0",
                  f"{piece} ]", f"[ {piece}", f"{piece} [" + "[" * MAX_NESTING]
    # every separator next to "[" and "]", and an error placed after it
    spaces = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]
    assert len(spaces) >= 25
    for c in spaces:
        texts += [f"{c}[{c}x{c}]{c}@2{c}[y]{c}^-1{c}", f"[{c}]{c}", f"x{c}]{c}y",
                  f"[x{c}[y]]@2{c}z^0", f"{c}]{c}@2"]
    # the refusal at nesting 101, after a tight piece and in a deep word
    deep = "[x " * (MAX_NESTING + 1) + "x" + "]" * (MAX_NESTING + 1)
    texts += [deep, "x^2y " + deep, deep[3:], "[x " * 250 + "x" + "]" * 250]
    rng = random.Random(12)
    # unreduced spellings: letters and their inverses side by side, so that
    # cancellation, cascading through the letters before, decides the word
    pieces = ("x", "x^-1", "y", "y^-1", "x^2", "x^-2", "1", "[x]", "[x]^-1", "[y]@2",
              "[y]@2^-1", "[x x^-1]")
    for _ in range(300):
        text = rng.choice(("", " ")).join(rng.choices(pieces, k=rng.randint(1, 10)))
        texts.append(f"[{text}]^-1 {text}" if rng.random() < 0.3 else text)
    for seed in range(300):
        p = GenParams(seed=seed, max_depth=5, max_breadth=6)
        for w in (random_raw_word(p), random_normal_word(p)):
            text = render(w)
            texts += [text, _respaced(rng, text)]
    for text in texts:
        want = _outcome(_reference_parse, text)
        assert _outcome(parse, text) == want, text
    errors = sum(type(_outcome(parse, t)) is tuple for t in texts)
    # both kinds of outcome occur, so neither side of the check is vacuous
    assert errors >= 100 and len(texts) - errors >= 900, errors


# --- reference: the index walk render used before the iterator walk --------


def _reference_render(w):
    if not w:
        return "1"
    out = []
    # (letters, next index, closing text) of each enclosing bracket
    outer = []
    fs, i, close = w, 0, ""
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
            fs, i = f.content, 0
            close = "]" + (f"@{f.iter}" if f.iter >= 2 else "") + ("^-1" if f.sign < 0 else "")
            out.append("[" if fs else "[1")
        elif outer:
            out.append(close)
            fs, i, close = outer.pop()
        else:
            return "".join(out)


def test_render_matches_the_index_walk_reference():
    words = [parse(text) for text in ("1", "[1]", "[1]@3^-1", "[1]^-1 x [[1]]", "[x]^-1",
                                      "[[x]@2^-1 y]@3^-1 [x [y]^-1]^-1", "x^-1 [1 [1]@2]")]
    sizes = ((3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9))
    for k in range(600):
        d, b = sizes[k % len(sizes)]
        p = GenParams(d, b, seed=64_000 + k)
        words += [random_raw_word(p), random_normal_word(p),
                  random_normal_word(p, via_oracle=True)]
    # built directly, not parsed, so no nesting bound applies
    deep = ONE
    for k in range(5000):
        deep = Word((Gen("x", 1), Br(deep, 1 + k % 3, -1 if k % 2 else 1), Gen("y", -1)))
    words.append(deep)
    for w in words:
        assert render(w) == _reference_render(w)
    assert render(deep).count("[") == 5000


def test_digits_are_decimal_digits_of_any_script():
    assert parse("[x]@\u0663") == parse("[x]@3")
    # superscript digits are refused: PARSE_ERRORS pins where


def test_parse_separators_are_any_unicode_whitespace():
    want = parse("x [y] [z]@2 y^-1")
    assert parse("x\t[y]\n[z]@2\r\n y^-1") == want
    assert parse("\u00a0x\u2003[ y\x0b]\x0c[z]@2\u3000y^-1\n") == want
    assert parse("[\t]\n") == parse("[1]")


def test_power_expansion_cancels_across_factors():
    assert parse("x^3 x^-2") == parse("x")
    assert parse("x^-2 x^2 y") == parse("y")
    assert parse("x^2 y^-1 y x^-2") == ONE
    assert render(parse("x^2 [y]^-3 [y]^2 x^-2")) == "x x [y]^-1 x^-1 x^-1"
    assert parse("[x]@2^3 [x]@2^-3") == ONE
    # different letters never cancel, whatever their powers
    assert render(parse("[x]@2^2 [x]^-1")) == "[x]@2 [x]@2 [x]^-1"
    assert parse("[x]@007^-02") == parse("[x]@7^-1 [x]@7^-1")


def test_make_gen_validates_names():
    assert make_gen("x") == Gen("x", 1)
    assert make_gen("ab_2C", -1) == Gen("ab_2C", -1)
    for bad in ("X", "_x", "2x", "", "x y"):
        with pytest.raises(ValueError):
            make_gen(bad)
    with pytest.raises(ValueError):
        make_gen("x", 0)
    # Gen(...) is make_gen; only _make and _replace build a letter as given
    for name, sign in (("X", 1), ("y", 2), ("", 1), ("x y", -1)):
        with pytest.raises(ValueError):
            Gen(name, sign)
    assert Gen._make(("X", 1)) == ("X", 1) and Gen("x", 1)._replace(sign=2) == ("x", 2)


def test_make_br_validates_and_folds():
    assert make_br(parse("[x]"), 2, 1) == Br(parse("x"), 3, 1)
    assert make_br(parse("[x]^-1"), 2, 1) == Br(parse("[x]^-1"), 2, 1)
    with pytest.raises(ValueError):
        make_br(ONE, 0, 1)
    with pytest.raises(ValueError):
        make_br(ONE, 1, 2)


def test_reduce_concat_cascades_at_the_seam():
    u = parse("x y")
    v = parse("y^-1 x^-1 z")
    assert reduce_concat(u, v) == parse("z")
    assert reduce_concat(parse("[a] [b]"), parse("[b]^-1 [a]^-1")) == ONE


def test_invert_is_an_involution_and_antihomomorphism():
    w = parse("x [y z^-1]@2 w^-1")
    assert render(inverse(w)) == "w [y z^-1]@2^-1 x^-1"
    assert inverse(inverse(w)) == w
    u, v = parse("x [y]"), parse("[z]@2 x")
    assert inverse(reduce_concat(u, v)) == reduce_concat(inverse(v), inverse(u))


def test_predicates():
    raw = Word((Gen("x", 1), Gen("x", -1)))
    assert not is_reduced(raw)
    assert is_reduced(parse("x y x^-1"))
    unfolded = Word((Br._make((Word((Br(ONE, 1, 1),)), 1, 1)),))
    assert not is_folded(unfolded)
    assert is_folded(parse("[[x]^-1]"))


def test_metrics():
    m = metrics(parse("[x [y]]@2"))
    assert (m.breadth, m.depth, m.op_degree) == (1, 3, 3)
    m = metrics(ONE)
    assert (m.breadth, m.depth, m.op_degree) == (0, 0, 0)
    m = metrics(parse("x y"))
    assert (m.breadth, m.depth, m.op_degree) == (2, 0, 0)
    m = metrics(parse("[x] [y [z]^-1]@3"))
    assert (m.breadth, m.depth, m.op_degree) == (2, 4, 5)
    assert metrics(parse("[x]@3 y [z]@2")).op_degree == 5


# --- reference copies: the recursive metrics the level walker replaced -------


def _ref_size(w):
    total = 0
    for f in w:
        total += 1
        if isinstance(f, Br):
            total += f.iter + _ref_size(f.content)
    return total


def _ref_generators(w):
    names = set()
    for f in w:
        if isinstance(f, Br):
            names |= _ref_generators(f.content)
        else:
            names.add(f.name)
    return names


def _ref_depth(w):
    return max((f.iter + _ref_depth(f.content) for f in w if isinstance(f, Br)),
               default=0)


def _ref_degree(w):
    return sum(f.iter + _ref_degree(f.content) for f in w if isinstance(f, Br))


@pytest.mark.parametrize("via_oracle", [False, True], ids=["positive", "full"])
def test_metrics_match_the_reference(via_oracle):
    sizes = ((3, 4), (4, 5), (5, 6), (6, 7), (7, 8))
    for k in range(500):
        d, b = sizes[k % len(sizes)]
        w = random_normal_word(GenParams(d, b, seed=62_000 + k), via_oracle=via_oracle)
        want = WordMetrics(len(w), _ref_depth(w), _ref_degree(w),
                           _ref_size(w), _ref_generators(w))
        assert metrics(w) == want, render(w)


def test_the_level_walker_answers_on_deep_words():
    # built directly, not parsed, so no nesting bound applies
    depth, x = 5000, Gen("x", 1)

    def nest(bottom):
        for _ in range(depth):
            bottom = Word((x, Br(bottom, 1, 1)))
        return bottom

    w = nest(ONE)
    assert is_reduced(w) and is_folded(w)
    assert metrics(w).op_degree == depth and nesting(w) == depth
    assert metrics(w) == WordMetrics(2, depth, depth, 3 * depth, frozenset({"x"}))
    assert not is_reduced(nest(Word((x, Gen("x", -1)))))
    # Br(...) would fold the unfolded letter into the bracket around it
    assert not is_folded(nest(Word((x, Br._make((Word((Br(ONE, 1, 1),)), 1, 1))))))


def test_bracket_literal_wraps_and_folds():
    assert Word((Br(parse("x y"), 1, 1),)) == parse("[x y]")
    assert Word((Br(parse("[x]@2"), 1, 1),)) == parse("[x]@3")


def test_built_brackets_fold_like_parsed_ones():
    x = parse("x")
    for content, n, sign in ((x, 1, 1), (parse("x y"), 3, -1), (ONE, 2, 1),
                             (parse("[x]"), 1, 1), (parse("[x]@2"), 2, -1),
                             (parse("[x]^-1"), 1, 1)):
        built = Br(content, n, sign)
        assert type(built) is Br and built == make_br(content, n, sign)
    assert Br(Word((Br(x, 1, 1),)), 1, 1) == parse("[x]@2")[0]
    assert Br(Word((Br(Word((Br(x, 1, 1),)), 1, 1),)), 2, -1) == parse("[x]@4^-1")[0]
    for n, sign in ((0, 1), (1, 0)):
        with pytest.raises(ValueError):
            Br(x, n, sign)


def test_words_survive_pickle_and_deepcopy():
    w = parse("x [y [z]@2^-1 x]@3 [[1]^-1] y^-1")
    for back in (pickle.loads(pickle.dumps(w)), copy.deepcopy(w)):
        assert back == w and type(back) is Word and type(back[1]) is Br
        assert type(back[0]) is Gen and type(back[-1]) is Gen
        assert (back[0].sign, back[-1].sign) == (1, -1)
        assert render(back) == render(w)


def test_eval_operated_in_integer_shift_group():
    zs = IntShiftGroup(5)
    w = parse("x [y]")
    assert eval_operated(w, zs, {"x": 2, "y": 3}) == 2 + (3 + 5)
    assert eval_operated(parse("[x [y]]@2"), zs, {"x": 2, "y": 3}) == 2 + 8 + 10
    assert eval_operated(ONE, zs, {}) == 0
    assert eval_operated(parse("x^-1"), zs, {"x": 4}) == -4
    assert eval_operated(parse("[x]^-1"), zs, {"x": 4}) == -9
    assert eval_operated(parse("[x]@1000000000"), zs, {"x": 2}) == 2 + 5 * 10**9


def test_eval_operated_missing_assignment():
    zs = IntShiftGroup(5)
    with pytest.raises(UnassignedGenerator):
        eval_operated(parse("x [w]"), zs, {"x": 1})


def test_render_parse_round_trip_on_random_words():
    # 150 draws, 50 at each size, the last at the top of the seed range
    for k, seed in enumerate([*range(149), 2**31]):
        depth, breadth = ((3, 4), (5, 6), (7, 8))[k % 3]
        p = GenParams(seed=seed, max_depth=depth, max_breadth=breadth)
        for w in (random_raw_word(p), random_normal_word(p)):
            assert is_reduced(w) and is_folded(w)
            assert parse(render(w)) == w


def test_a_dropped_fresh_import_is_collected():
    # nothing process-wide (such as typing's Union cache) may hold the module
    saved = {k: m for k, m in sys.modules.items()
             if k == "avgroups" or k.startswith("avgroups.")}
    try:
        for k in saved:
            del sys.modules[k]
        fresh = importlib.import_module("avgroups.words")
        assert fresh is not saved["avgroups.words"]
        gone = weakref.ref(fresh.parse)
        del fresh
    finally:
        sys.modules.update(saved)
    gc.collect()
    assert gone() is None
