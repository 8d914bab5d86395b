"""Word core: parsing, rendering, reduction, folding, metrics, evaluation."""

import gc
import importlib
import sys
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from avgroups.words import (
    Br,
    Gen,
    ONE,
    UnassignedGenerator,
    Word,
    WordSyntaxError,
    are_inverse,
    bracket_literal,
    eval_operated,
    invert,
    is_folded,
    is_reduced,
    make_br,
    make_gen,
    metrics,
    op_degree,
    parse,
    reduce_concat,
    render,
    single,
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
    assert neg.factors[0].iter == 1
    assert render(neg) == "[[x]^-1]"


def test_bracket_letter_equality_is_structural():
    a = parse("[c]@3").factors[0]
    b = parse("[c]@2^-1").factors[0]
    assert not are_inverse(a, b)
    assert are_inverse(a, parse("[c]@3^-1").factors[0])
    assert reduce_concat(parse("[c]@3"), parse("[c]@2^-1")) == parse("[c]@3 [c]@2^-1")


def test_parse_errors():
    for text, fragment, pos in [
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
    ]:
        with pytest.raises(WordSyntaxError) as exc:
            parse(text)
        assert fragment in str(exc.value), text
        assert exc.value.pos == pos, text
        assert str(exc.value).endswith(f"(at position {pos})")


def test_digits_are_decimal_digits_of_any_script():
    assert parse("[x]@\u0663") == parse("[x]@3")
    # superscripts are digits to str.isdigit but no int() can read them
    for text, fragment, pos in [
        ("x^\u00b2", "nonzero integer", 2),
        ("[x]@\u00b2", "positive integer", 4),
    ]:
        with pytest.raises(WordSyntaxError) as exc:
            parse(text)
        assert fragment in str(exc.value) and exc.value.pos == pos


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
    assert render(invert(w)) == "w [y z^-1]@2^-1 x^-1"
    assert invert(invert(w)) == w
    u, v = parse("x [y]"), parse("[z]@2 x")
    assert invert(reduce_concat(u, v)) == reduce_concat(invert(v), invert(u))


def test_predicates():
    raw = Word((Gen("x", 1), Gen("x", -1)))
    assert not is_reduced(raw)
    assert is_reduced(parse("x y x^-1"))
    unfolded = Word((Br(single(Br(ONE, 1, 1)), 1, 1),))
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
    assert op_degree(parse("[x]@3 y [z]@2")) == 5


def test_bracket_literal_wraps_and_folds():
    assert bracket_literal(parse("x y")) == parse("[x y]")
    assert bracket_literal(parse("[x]@2")) == parse("[x]@3")


def test_eval_operated_in_integer_shift_group():
    zs = IntShiftGroup(5)
    w = parse("x [y]")
    assert eval_operated(w, zs, {"x": 2, "y": 3}) == 2 + (3 + 5)
    assert eval_operated(parse("[x [y]]@2"), zs, {"x": 2, "y": 3}) == 2 + 8 + 10
    assert eval_operated(ONE, zs, {}) == 0
    assert eval_operated(parse("x^-1"), zs, {"x": 4}) == -4
    assert eval_operated(parse("[x]^-1"), zs, {"x": 4}) == -9


def test_eval_operated_missing_assignment():
    zs = IntShiftGroup(5)
    with pytest.raises(UnassignedGenerator):
        eval_operated(parse("x [w]"), zs, {"x": 1})


@settings(max_examples=150, derandomize=True)
@given(st.integers(0, 2**31), st.sampled_from([(3, 4), (5, 6), (7, 8)]))
def test_render_parse_round_trip_on_random_words(seed, size):
    p = GenParams(seed=seed, max_depth=size[0], max_breadth=size[1])
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
