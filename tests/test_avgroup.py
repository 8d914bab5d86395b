"""Recursive product, operator, evaluation, and random words.

The law tests evaluate the rows of ``laws.law_table`` on their own corpora.
"""

import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from avgroups.words import (
    ONE,
    Br,
    Gen,
    Word,
    are_inverse,
    eval_operated,
    is_reduced,
    make_br,
    metrics,
    parse,
    render,
    single,
)
from avgroups.normalform import is_normal, oracle_normalize
from avgroups.avgroup import (
    GenParams,
    diamond,
    inverse,
    op_apply,
    op_iter,
    random_normal_word,
    random_raw_word,
)
from avgroups import avgroup as avgroup_module
from avgroups.laws import law_commutes, law_table
from avgroups.structures import AveragingGroupHandle, IntShiftGroup, cyclic_group

LAWS = law_table(("x", "y", "z"))


def _corpus(n, base_seed=0, **kw):
    return [random_normal_word(GenParams(seed=base_seed + i, **kw)) for i in range(n)]


def _holds(suite, *words, label=None):
    """Assert every normal-corpus law of `suite` (or the one labelled) on `words`."""
    rows = [r for r in LAWS if r[0] == suite and r[3] == "normal"
            and label in (None, r[1])]
    assert rows
    for _, name, slots, _, law in rows:
        assert law(*words[:slots]), (name, [render(w) for w in words[:slots]])


def test_product_examples():
    assert render(diamond(parse("[x [y]]@2"), parse("[z]^-1"))) == "[x [y]]@2 [z]^-1"
    assert render(diamond(parse("[z]^-1"), parse("[z]@3"))) == "[z]^-1 [z]@3"
    assert render(diamond(parse("[x [y]]@2"), parse("[z]@3"))) == "[x [y [z]]]@4"


def test_operator_examples():
    assert render(op_apply(parse("[x [y]]@2"))) == "[x [y]]@3"
    assert render(op_apply(parse("[z]^-1"))) == "[[z]^-1]"
    assert render(op_apply(parse("[x]@3 y [z]@2"))) == "[x [y [z]]]@4"


def test_operator_case_split():
    # breadth one: positive brackets deepen, anything else wraps literally
    assert op_apply(parse("[x]")) == parse("[x]@2")
    assert op_apply(parse("x")) == parse("[x]")
    assert op_apply(ONE) == parse("[1]")
    assert op_apply(parse("[x]^-1")) == parse("[[x]^-1]")
    # trailing positive bracket at iteration >= 2 peels off
    assert op_apply(parse("y [x]@2")) == parse("[y [x]]@2")
    # no special shape: literal wrap
    assert op_apply(parse("x y^-1")) == parse("[x y^-1]")


def test_product_seam_merges_cascade():
    u = parse("[a] [b]^-1")
    v = parse("[b] [c]")
    assert diamond(u, v) == parse("[a [c]]")
    assert diamond(parse("x [a]"), parse("[b] x^-1")) == parse("x [a [b]] x^-1")
    # negative seam merges swap the contents
    assert diamond(parse("[a]^-1"), parse("[b]^-1")) == parse("[b [a]]^-1")


def test_op_iter_is_repeated_application():
    w = parse("x [y]^-1")
    assert op_iter(w, 1) == op_apply(w)
    assert op_iter(w, 3) == op_apply(op_apply(op_apply(w)))
    with pytest.raises(ValueError, match=r"^iteration count must be >= 0$"):
        op_iter(w, -1)


def test_group_laws_on_generated_words():
    words = _corpus(120, base_seed=500)
    for i, u in enumerate(words):
        assert is_normal(u)
        v = words[(i + 7) % len(words)]
        w = words[(i + 31) % len(words)]
        _holds("assoc", u, v, w)


def test_averaging_law_on_generated_words():
    words = _corpus(120, base_seed=900)
    for i, u in enumerate(words):
        _holds("averaging", u, words[(i + 13) % len(words)])


def test_iterated_averaging_laws_on_generated_words():
    words = _corpus(80, base_seed=1300)
    for i, u in enumerate(words):
        _holds("derived", u, words[(i + 11) % len(words)])


def test_outputs_stay_normal_even_on_oracle_built_words():
    # closure holds for arbitrary carriers, not just grammar-generated ones
    for seed in range(150):
        u = oracle_normalize(random_raw_word(GenParams(seed=seed)))
        v = oracle_normalize(random_raw_word(GenParams(seed=seed + 10_000)))
        _holds("closure", u, v)


def test_oracle_and_recursions_agree_everywhere():
    for seed in range(150):
        u = oracle_normalize(random_raw_word(GenParams(seed=3 * seed)))
        v = oracle_normalize(random_raw_word(GenParams(seed=3 * seed + 1)))
        _holds("oracle", u, v)


def test_operator_degree_grows_by_one_on_positive_words():
    for w in _corpus(150, base_seed=1700):
        assert metrics(op_apply(w)).op_degree == metrics(w).op_degree + 1


def test_operator_degree_can_collapse_on_mixed_words():
    # inverse brackets can cancel under the hood, so only <= +1 holds in general
    w = parse("x [c]^-1 [c]@2")
    assert is_normal(w)
    assert op_apply(w) == parse("[x]@2")
    assert metrics(op_apply(w)).op_degree == metrics(w).op_degree - 1


def test_evaluation_commutes_with_operations():
    z4 = AveragingGroupHandle(cyclic_group(4), (1, 2, 3, 0))
    commutes = law_commutes([
        (IntShiftGroup(5), {"x": 2, "y": 3, "z": 4}),
        (z4, {"x": 1, "y": 2, "z": 3}),
    ])
    words = _corpus(80, base_seed=2100)
    for i, u in enumerate(words):
        v = words[(i + 17) % len(words)]
        assert commutes(u, v), (render(u), render(v))


def test_self_target_evaluation_is_the_identity():
    for w in _corpus(120, base_seed=2500):
        _holds("hom", w, label="self-target evaluation")


def test_generator_determinism_and_bounds():
    p = GenParams(max_depth=2, max_breadth=3, alphabet=("a", "b"), seed=42)
    w1, w2 = random_normal_word(p), random_normal_word(p)
    assert w1 == w2
    for seed in range(60):
        q = GenParams(max_depth=2, max_breadth=3, alphabet=("a", "b"), seed=seed)
        w = random_normal_word(q)
        assert is_normal(w)
        m = metrics(w)
        assert m.depth <= 2 and m.breadth <= 3
    r = random_raw_word(p)
    assert is_reduced(r)
    assert random_normal_word(p, via_oracle=True) == oracle_normalize(random_raw_word(p))


def test_written_forms_can_alias_one_element():
    """Distinct normal spellings may name the same group element.

    Words that mix inverse or identity brackets admit more than one normal
    spelling of the same element, so the recursions, which work purely on
    spellings, can land on different ones depending on association order.
    Both spellings are normal and every evaluation sends them to the same
    value; the law suites therefore sample the all-positive sector, where
    spellings are faithful.  These frozen witnesses pin down the behavior.
    """
    zs = IntShiftGroup(5)
    asg = {"b": 2, "d": 4, "e": 5, "y": 25}

    p, q, r = parse("[b]@2 [d]^-1"), parse("[d]"), parse("[e]@3")
    left = diamond(diamond(p, q), r)
    right = diamond(p, diamond(q, r))
    assert render(left) == "[b [e]]@4"
    assert render(right) == "[b]@2 [d]^-1 [d [e]]@3"
    assert left != right
    assert is_normal(left) and is_normal(right)
    assert eval_operated(left, zs, asg) == eval_operated(right, zs, asg) == 32

    u = parse("y^-1")
    lhs = diamond(op_apply(u), op_apply(ONE))
    rhs = op_apply(diamond(op_apply(u), ONE))
    assert render(lhs) == "[y^-1 [1]]"
    assert render(rhs) == "[y^-1]@2"
    assert lhs != rhs
    assert is_normal(lhs) and is_normal(rhs)
    assert eval_operated(lhs, zs, asg) == eval_operated(rhs, zs, asg) == -15


@settings(max_examples=120, derandomize=True)
@given(st.integers(0, 2**31 - 3))
def test_law_properties_on_random_seeds(seed):
    u, v, w = (random_normal_word(GenParams(seed=seed + j)) for j in range(3))
    _holds("assoc", u, v, w)
    _holds("averaging", u, v)
    _holds("closure", u, v)


# --- reference copies of the word generators, drawing through
# --- random.choice and random.randint ------------------------------------


def _ref_random_normal_word(p):
    if p.max_breadth == 0:
        return ONE
    rng = random.Random(p.seed)
    for _ in range(1000):
        w = _ref_grow_positive(rng, p, p.max_depth, inside=False)
        if is_normal(w):
            return w
    raise RuntimeError("word generator failed to produce a normal word")


def _ref_random_raw_word(p):
    rng = random.Random(p.seed ^ 0x5EED)
    return _ref_grow_raw(rng, p, p.max_depth)


def _ref_grow_positive(rng, p, depth, inside):
    k = rng.randint(1, max(1, p.max_breadth))
    out = []
    for i in range(k):
        last = i == k - 1
        prev = out[-1] if out else None
        can_bracket = depth >= 1 and not isinstance(prev, Br) and not (inside and i == 0)
        if can_bracket and rng.random() < 0.4:
            it = rng.randint(1, max(1, min(3, depth)))
            if inside and last and it > 1:
                it = 1
            content = _ref_grow_positive(rng, p, depth - it, inside=True)
            out.append(make_br(content, it, 1))
            continue
        name = rng.choice(p.alphabet)
        sign = rng.choice((1, -1))
        if isinstance(prev, Gen) and prev.name == name and prev.sign == -sign:
            sign = -sign
        out.append(Gen(name, sign))
    return Word(out)


def _ref_grow_raw(rng, p, depth):
    k = rng.randint(0, p.max_breadth)
    out = []
    for _ in range(k):
        for _ in range(20):
            if depth >= 1 and rng.random() < 0.4:
                it = rng.randint(1, max(1, min(3, depth)))
                content = _ref_grow_raw(rng, p, depth - it)
                f = make_br(content, it, rng.choice((1, -1)))
            else:
                f = Gen(rng.choice(p.alphabet), rng.choice((1, -1)))
            if out and are_inverse(out[-1], f):
                continue
            out.append(f)
            break
    return Word(out)


GENERATOR_ALPHABETS = (("x",), ("x", "y"), ("x", "y", "z"), ("a", "b", "c", "d"),
                       ("a", "b", "c", "d", "e"), ("x", "y", "x"), ("x", "x"))


def test_word_generators_match_the_reference():
    """Raw, grammar and oracle-normalized words render as the reference's.

    5,000 seeded parameter sets, depth 0-9, breadth 0-9, alphabets of one to
    five names, one with a repeated name and one of a single name twice.
    """
    rng = random.Random(1919)
    for _ in range(5000):
        p = GenParams(rng.randint(0, 9), rng.randint(0, 9),
                      rng.choice(GENERATOR_ALPHABETS), rng.getrandbits(40))
        ref_raw = _ref_random_raw_word(p)
        assert render(random_raw_word(p)) == render(ref_raw), p
        assert render(random_normal_word(p)) == render(_ref_random_normal_word(p)), p
        assert render(random_normal_word(p, via_oracle=True)) == render(oracle_normalize(ref_raw)), p


@pytest.mark.parametrize("params, raw, normal, full", [
    (GenParams(seed=1),
     "x x z^-1 x^-1",
     "x^-1 [z^-1 x^-1 [z z y z] y]@2",
     "x x z^-1 x^-1"),
    (GenParams(3, 5, ("a", "b"), seed=2024),
     "[b^-1 a b a]@3^-1 [a^-1] [[a^-1 [a^-1 b a^-1] b^-1 a]^-1 a [b^-1]@2]^-1 b "
     "[[a a [a b^-1]]^-1]",
     "[a^-1 b b]@3 b [a b a^-1]@3 a^-1",
     "[b^-1 a b a]@3^-1 [a^-1] [[a^-1 [a^-1 b a^-1] b^-1 a]^-1 a [b^-1]]@2^-1 b "
     "[[a a [a b^-1]]^-1]"),
    (GenParams(2, 4, ("x", "y", "x"), seed=7),
     "[x^-1 x^-1 y x^-1] x^-1 [x y^-1 x^-1 x^-1]@2",
     "y [x x [x]] x^-1",
     "[x^-1 x^-1 y x^-1] x^-1 [x y^-1 x^-1 x^-1]@2"),
], ids=["default", "two-names", "repeated-name"])
def test_seeded_words_are_pinned(params, raw, normal, full):
    # a Python whose random draws differ moves every seeded corpus; it fails here
    assert render(random_raw_word(params)) == raw
    assert render(random_normal_word(params)) == normal
    assert render(random_normal_word(params, via_oracle=True)) == full


@pytest.mark.parametrize("params", [GenParams(alphabet=()), GenParams(max_breadth=-1),
                                    # names whose letters would print as other text
                                    GenParams(2, 3, ("x y",), 1), GenParams(2, 3, ("1",), 1),
                                    GenParams(2, 3, ("X",), 1), GenParams(2, 0, ("x", "é"), 1)],
                         ids=["empty-alphabet", "negative-breadth", "space-name", "digit-name",
                              "capital-name", "non-ascii-name-at-breadth-0"])
def test_word_generators_refuse_bad_parameters(params):
    for make in (random_raw_word, random_normal_word,
                 lambda p: random_normal_word(p, via_oracle=True)):
        with pytest.raises(ValueError):
            make(params)


def test_breadth_zero_gives_the_identity():
    # both generators keep to max_breadth; the grammar once drew one letter here
    for seed in range(50):
        for depth in (0, 3, 9):
            p = GenParams(depth, 0, ("x", "y", "z"), seed)
            assert random_raw_word(p) == ONE
            assert random_normal_word(p) == ONE
            assert random_normal_word(p, via_oracle=True) == ONE


def test_a_grammar_word_that_is_not_normal_is_refused(monkeypatch):
    # the grammar is normal by construction; is_normal confirms each draw
    monkeypatch.setattr(avgroup_module, "is_normal", lambda w: False)
    with pytest.raises(RuntimeError, match="word generator failed to produce a normal word"):
        random_normal_word(GenParams(seed=1))


# --- reference copies: the product as a deque walk over every letter of v,
# --- iteration as repeated application, normality by recursion -------------


def _ref_seam_merge(a, b):
    if a.sign > 0:
        content = _ref_diamond(a.content, single(make_br(b.content, 1, 1)))
        return make_br(content, a.iter + b.iter - 1, 1)
    content = _ref_diamond(b.content, single(make_br(a.content, 1, 1)))
    return make_br(content, a.iter + b.iter - 1, -1)


def _ref_diamond(u, v):
    out = list(u)
    queue = deque(v)
    while queue:
        b = queue.popleft()
        if out:
            a = out[-1]
            if are_inverse(a, b):
                out.pop()
                continue
            if isinstance(a, Br) and isinstance(b, Br) and a.sign == b.sign:
                out.pop()
                queue.appendleft(_ref_seam_merge(a, b))
                continue
        out.append(b)
    return Word(tuple(out))


def _ref_op_apply(w):
    fs = w
    if len(fs) == 1 and isinstance(fs[0], Br) and fs[0].sign > 0:
        f = fs[0]
        return single(Br(f.content, f.iter + 1, 1))
    if len(fs) <= 1:
        return single(make_br(w, 1, 1))
    first, last = fs[0], fs[-1]
    if isinstance(first, Br) and first.sign > 0:
        inner = _ref_op_apply(Word(fs[1:]))
        return _ref_op_iter(_ref_diamond(first.content, inner), first.iter)
    if isinstance(last, Br) and last.sign > 0 and last.iter >= 2:
        inner = _ref_op_apply(last.content)
        return _ref_op_iter(_ref_diamond(Word(fs[:-1]), inner), last.iter)
    return single(make_br(w, 1, 1))


def _ref_op_iter(w, n):
    for _ in range(n):
        w = _ref_op_apply(w)
    return w


def _ref_inverse(w):
    return Word(f._replace(sign=-f.sign) for f in reversed(w))


def _ref_is_normal(w):
    fs = w
    for i, f in enumerate(fs):
        if i > 0 and are_inverse(fs[i - 1], f):
            return False
        if i > 0 and isinstance(f, Br) and isinstance(fs[i - 1], Br) and f.sign == fs[i - 1].sign:
            return False
        if isinstance(f, Br):
            c = f.content
            if len(c) >= 2:
                first, last = c[0], c[-1]
                if isinstance(first, Br) and first.sign > 0:
                    return False
                if isinstance(last, Br) and last.sign > 0 and last.iter >= 2:
                    return False
            if not _ref_is_normal(f.content):
                return False
    return True


EQUIVALENCE_SIZES = ((3, 4), (4, 5), (5, 6), (6, 7), (7, 8))


def _battery(D, A, It, Inv, u, v, w):
    """Products, inverses, the averaging law's three sides, and A^n, n = 0..4."""
    uv, iu, au, av = D(u, v), Inv(u), A(u), A(v)
    outs = [uv, D(uv, w), D(u, D(v, w)), iu, D(u, iu), D(iu, u),
            au, D(au, av), A(D(au, v)), A(D(u, av))]
    for n in range(5):
        outs += [It(u, n), A(D(u, It(v, n))), It(D(u, av), n)]
    return outs


@pytest.mark.parametrize("via_oracle", [False, True], ids=["positive", "full"])
def test_product_hot_path_matches_the_reference(via_oracle):
    """diamond, op_apply, op_iter, inverse and is_normal give the reference's results.

    1000 seeded triples per sector, d3b4 to d7b8; the full sector reaches
    inverse and identity brackets and outputs that are not normal.
    """
    verdicts = set()
    for k in range(1000):
        d, b = EQUIVALENCE_SIZES[k % len(EQUIVALENCE_SIZES)]
        u, v, w = (random_normal_word(GenParams(d, b, seed=60_000 + 3 * k + j),
                                      via_oracle=via_oracle) for j in range(3))
        got = _battery(diamond, op_apply, op_iter, inverse, u, v, w)
        want = _battery(_ref_diamond, _ref_op_apply, _ref_op_iter, _ref_inverse, u, v, w)
        assert got == want, (render(u), render(v), render(w))
        for x in (u, v, w, *got):
            verdicts.add(is_normal(x))
            assert is_normal(x) == _ref_is_normal(x), render(x)
    assert verdicts == ({True, False} if via_oracle else {True})


def test_is_normal_matches_the_reference_on_raw_and_breaching_words():
    raw = [random_raw_word(GenParams(*EQUIVALENCE_SIZES[k % len(EQUIVALENCE_SIZES)],
                                     seed=61_000 + k)) for k in range(600)]
    x, y = Gen("x", 1), Gen("y", 1)
    breaches = [
        Word((x, Gen("x", -1))),                                   # N0, generators
        Word((y, Br(Word((x,)), 2, 1), Br(Word((x,)), 2, -1))),    # N0, brackets
        parse("y [x]^-1 [y]^-1"),                                  # N1
        parse("[[x] y]"),                                          # N2
        parse("z [w [y [x]@2]]"),                                  # N3 (an N2 breach inside)
    ]
    for w in breaches:
        assert not is_normal(w) and not _ref_is_normal(w), render(w)
    verdicts = [is_normal(w) for w in raw]
    assert verdicts == [_ref_is_normal(w) for w in raw]
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("depth", [600, 5000])
def test_is_normal_answers_on_deep_words(depth):
    # built directly, not parsed, so no nesting bound applies
    w = ONE
    for _ in range(depth):
        w = Word((Gen("x", 1), Br(w, 1, 1)))
    assert is_normal(w)
    bad = parse("[x] y")  # the innermost content starts with a positive bracket
    for _ in range(depth):
        bad = Word((Gen("x", 1), Br(bad, 1, 1)))
    assert not is_normal(bad)


@pytest.mark.parametrize("depth", [150, 5000])
def test_equal_contents_built_apart_cancel_at_any_depth(depth):
    # D and D2 are equal words but distinct objects at every level, so only a
    # structural comparison, not identity, finds [D] [D2]^-1 unreduced
    def nested():
        w = Word((Gen("y", 1),))
        for _ in range(depth):
            w = Word((Gen("x", 1), Br(w, 1, 1)))
        return w

    d, d2 = nested(), nested()
    w = Word((Br(d, 1, 1), Br(d2, 1, -1)))
    assert not is_normal(w)
    assert diamond(single(Br(d, 1, 1)), single(Br(d2, 1, -1))) == ONE
    # one letter apart at the bottom: no cancellation, and a merge-free seam
    d3 = Word((Gen("z", 1),))
    for _ in range(depth):
        d3 = Word((Gen("x", 1), Br(d3, 1, 1)))
    assert is_normal(Word((Br(d, 1, 1), Br(d3, 1, -1))))
    assert len(diamond(single(Br(d, 1, 1)), single(Br(d3, 1, -1)))) == 2

