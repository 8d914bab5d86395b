"""Recursive product, operator, homomorphism extension, and random words."""

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from avgroups.words import (
    ONE,
    Br,
    Gen,
    Word,
    are_inverse,
    bracket_literal,
    eval_operated,
    is_reduced,
    make_br,
    op_degree,
    parse,
    reduce_concat,
    render,
    single,
)
from avgroups.normalform import is_normal, oracle_normalize
from avgroups.avgroup import (
    GenParams,
    diamond,
    extend_hom,
    free_target,
    inverse,
    op_apply,
    op_iter,
    random_normal_word,
    random_raw_word,
)
from avgroups.structures import AveragingGroupHandle, IntShiftGroup, cyclic_group


def _corpus(n, base_seed=0, **kw):
    return [random_normal_word(GenParams(seed=base_seed + i, **kw)) for i in range(n)]


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


def test_group_laws_on_generated_words():
    words = _corpus(120, base_seed=500)
    for i, u in enumerate(words):
        assert is_normal(u)
        v = words[(i + 7) % len(words)]
        w = words[(i + 31) % len(words)]
        assert diamond(diamond(u, v), w) == diamond(u, diamond(v, w))
        assert diamond(u, ONE) == u and diamond(ONE, u) == u
        assert diamond(u, inverse(u)) == ONE
        assert diamond(inverse(u), u) == ONE


def test_averaging_law_on_generated_words():
    words = _corpus(120, base_seed=900)
    for i, u in enumerate(words):
        v = words[(i + 13) % len(words)]
        lhs = diamond(op_apply(u), op_apply(v))
        assert lhs == op_apply(diamond(op_apply(u), v))
        assert lhs == op_apply(diamond(u, op_apply(v)))


def test_iterated_averaging_laws_on_generated_words():
    words = _corpus(80, base_seed=1300)
    for i, u in enumerate(words):
        v = words[(i + 11) % len(words)]
        for n in (2, 3, 4):
            assert (op_apply(diamond(u, op_iter(v, n)))
                    == op_iter(diamond(u, op_apply(v)), n))


def test_outputs_stay_normal_even_on_oracle_built_words():
    # closure holds for arbitrary carriers, not just grammar-generated ones
    for seed in range(150):
        u = oracle_normalize(random_raw_word(GenParams(seed=seed)))
        v = oracle_normalize(random_raw_word(GenParams(seed=seed + 10_000)))
        assert is_normal(diamond(u, v))
        assert is_normal(op_apply(u))
        assert is_normal(inverse(u))


def test_oracle_and_recursions_agree_everywhere():
    for seed in range(150):
        u = oracle_normalize(random_raw_word(GenParams(seed=3 * seed)))
        v = oracle_normalize(random_raw_word(GenParams(seed=3 * seed + 1)))
        assert diamond(u, v) == oracle_normalize(reduce_concat(u, v))
        assert op_apply(u) == oracle_normalize(bracket_literal(u))


def test_operator_degree_grows_by_one_on_positive_words():
    for w in _corpus(150, base_seed=1700):
        assert op_degree(op_apply(w)) == op_degree(w) + 1


def test_operator_degree_can_collapse_on_mixed_words():
    # inverse brackets can cancel under the hood, so only <= +1 holds in general
    w = parse("x [c]^-1 [c]@2")
    assert is_normal(w)
    assert op_apply(w) == parse("[x]@2")
    assert op_degree(op_apply(w)) == op_degree(w) - 1


def test_extend_hom_into_integer_shift():
    zs = IntShiftGroup(5)
    hom = extend_hom({"x": 2, "y": 3}, zs)
    assert hom(parse("x [y]")) == 10
    assert hom(ONE) == 0


def test_extend_hom_commutes_with_operations():
    z4 = AveragingGroupHandle(cyclic_group(4), (1, 2, 3, 0))
    targets = [
        (IntShiftGroup(5), {"x": 2, "y": 3, "z": 4}),
        (z4, {"x": 1, "y": 2, "z": 3}),
    ]
    words = _corpus(80, base_seed=2100)
    for target, asg in targets:
        hom = extend_hom(asg, target)
        for i, u in enumerate(words):
            v = words[(i + 17) % len(words)]
            assert hom(diamond(u, v)) == target.mul(hom(u), hom(v))
            assert hom(op_apply(u)) == target.op(hom(u))
            assert hom(inverse(u)) == target.inv(hom(u))


def test_self_target_evaluation_is_the_identity():
    ft = free_target()
    asg = {a: parse(a) for a in ("x", "y", "z")}
    hom = extend_hom(asg, ft)
    for w in _corpus(120, base_seed=2500):
        assert hom(w) == w


def test_generator_determinism_and_bounds():
    p = GenParams(max_depth=2, max_breadth=3, alphabet=("a", "b"), seed=42)
    w1, w2 = random_normal_word(p), random_normal_word(p)
    assert w1 == w2
    for seed in range(60):
        q = GenParams(max_depth=2, max_breadth=3, alphabet=("a", "b"), seed=seed)
        w = random_normal_word(q)
        assert is_normal(w)
        from avgroups.words import metrics
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
    u = random_normal_word(GenParams(seed=seed))
    v = random_normal_word(GenParams(seed=seed + 1))
    w = random_normal_word(GenParams(seed=seed + 2))
    assert diamond(diamond(u, v), w) == diamond(u, diamond(v, w))
    lhs = diamond(op_apply(u), op_apply(v))
    assert lhs == op_apply(diamond(op_apply(u), v))
    assert lhs == op_apply(diamond(u, op_apply(v)))
    assert is_normal(diamond(u, v))


# --- reference copies: the product as a deque walk over every letter of v,
# --- iteration as repeated application, normality by recursion -------------


def _ref_seam_merge(a, b):
    if a.sign > 0:
        content = _ref_diamond(a.content, single(make_br(b.content, 1, 1)))
        return make_br(content, a.iter + b.iter - 1, 1)
    content = _ref_diamond(b.content, single(make_br(a.content, 1, 1)))
    return make_br(content, a.iter + b.iter - 1, -1)


def _ref_diamond(u, v):
    out = list(u.factors)
    queue = deque(v.factors)
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
    fs = w.factors
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


def _ref_is_normal(w):
    fs = w.factors
    for i, f in enumerate(fs):
        if i > 0 and are_inverse(fs[i - 1], f):
            return False
        if i > 0 and isinstance(f, Br) and isinstance(fs[i - 1], Br) and f.sign == fs[i - 1].sign:
            return False
        if isinstance(f, Br):
            c = f.content.factors
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


def _battery(D, A, It, u, v, w):
    """Products, inverses, the averaging law's three sides, and A^n, n = 0..4."""
    uv, iu, au, av = D(u, v), inverse(u), A(u), A(v)
    outs = [uv, D(uv, w), D(u, D(v, w)), iu, D(u, iu), D(iu, u),
            au, D(au, av), A(D(au, v)), A(D(u, av))]
    for n in range(5):
        outs += [It(u, n), A(D(u, It(v, n))), It(D(u, av), n)]
    return outs


@pytest.mark.parametrize("via_oracle", [False, True], ids=["positive", "full"])
def test_product_hot_path_matches_the_reference(via_oracle):
    """diamond, op_apply, op_iter and is_normal give the reference's results.

    1000 seeded triples per sector, d3b4 to d7b8; the full sector reaches
    inverse and identity brackets and outputs that are not normal.
    """
    verdicts = set()
    for k in range(1000):
        d, b = EQUIVALENCE_SIZES[k % len(EQUIVALENCE_SIZES)]
        u, v, w = (random_normal_word(GenParams(d, b, seed=60_000 + 3 * k + j),
                                      via_oracle=via_oracle) for j in range(3))
        got = _battery(diamond, op_apply, op_iter, u, v, w)
        want = _battery(_ref_diamond, _ref_op_apply, _ref_op_iter, u, v, w)
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
