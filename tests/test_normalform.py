"""Normality predicate and the rewriting oracle."""

import pytest
from hypothesis import given, settings, strategies as st

from avgroups.words import (
    Br,
    Gen,
    ONE,
    Word,
    bracket_literal,
    eval_operated,
    parse,
    reduce_concat,
    render,
)
from avgroups.normalform import (
    OracleStepLimit,
    RewriteStep,
    STRATEGIES,
    _apply_at,
    _matches_r2,
    _matches_r3,
    _pair_rule,
    is_normal,
    oracle_normalize,
    oracle_steps,
    replay_trace,
)
from avgroups.avgroup import GenParams, random_normal_word, random_raw_word
from avgroups.structures import IntShiftGroup


def test_is_normal_accepts_standard_forms():
    for text in [
        "1",
        "x",
        "x y^-1 x",
        "[x]",
        "[x]@5",
        "[x [y]]@2 [z]^-1",
        "[z]^-1 [z]@3",
        "[x [y [z]]]@4",
        "[x]^-1 [y]",
        "[y [x]]",
        "[[z]^-1]",
    ]:
        assert is_normal(parse(text)), text


def test_is_normal_rejects_each_violation():
    # unreduced sequence (built directly; parse() would cancel it)
    assert not is_normal(Word((Gen("x", 1), Gen("x", -1))))
    # adjacent same-sign bracket letters, both orientations
    assert not is_normal(parse("[x] [y]"))
    assert not is_normal(parse("[x]^-1 [y]^-1"))
    assert not is_normal(parse("[x]@2 [y]@3"))
    # content of breadth >= 2 starting with a positive bracket
    assert not is_normal(parse("[[x] y]"))
    # content of breadth >= 2 ending with a positive bracket iterated twice
    assert not is_normal(parse("[y [x]@2]"))
    assert is_normal(parse("[y [x]]"))
    # violations are found recursively
    assert not is_normal(parse("z [w [[x] y]]"))


def test_oracle_single_rules():
    assert oracle_normalize(parse("[x] [y]")) == parse("[x [y]]")
    assert oracle_normalize(parse("[x]@2 [y]@3")) == parse("[x [y]]@4")
    assert oracle_normalize(parse("[x]^-1 [y]^-1")) == parse("[y [x]]^-1")
    assert oracle_normalize(parse("[[x]@2 y]")) == parse("[x [y]]@2")
    assert oracle_normalize(parse("[y [x]@2]")) == parse("[y [x]]@2")
    # R0 at depth
    w = Word((Br(Word((Gen("x", 1), Gen("x", -1), Gen("y", 1))), 1, 1),))
    assert oracle_normalize(w) == parse("[y]")


def test_oracle_leaves_normal_words_alone():
    for text in ["1", "x", "[x [y]]@2 [z]^-1", "[z]^-1 [z]@3"]:
        w = parse(text)
        assert oracle_normalize(w) == w
        assert list(oracle_steps(w)) == []


def test_oracle_rule_names_and_trace_replay():
    w = parse("[[x]@2 y] [z]")
    normal, steps = oracle_normalize(w, trace=True)
    assert normal == parse("[x [y [z]]]@2")
    assert [s.rule for s in steps] == ["R2", "R1", "R1"]
    assert replay_trace(w, steps) == normal


def test_replay_rejects_tampered_trace():
    w = parse("[x] [y]")
    _, steps = oracle_normalize(w, trace=True)
    broken = [type(steps[0])(steps[0].rule, steps[0].path, "[q]", steps[0].after)]
    with pytest.raises(ValueError):
        replay_trace(w, broken)


def test_trace_renders_deep_intermediates():
    # x [x [x ... [x]]] [x], 300 deep: each R1 step moves the trailing [x] one
    # level in, so the traced steps render words about 300 deep.  Deep words
    # are compared by their text: dataclass equality on them overflows.
    x = Gen("x", 1)
    w = Word((x,))
    for _ in range(300):
        w = Word((x, Br(w, 1, 1)))
    w = Word(w.factors + (Br(Word((x,)), 1, 1),))
    normal, steps = oracle_normalize(w, trace=True)
    text = render(normal)
    assert text == "x [" * 301 + "x" + "]" * 301
    assert len(steps) == 300 and {s.rule for s in steps} == {"R1"}
    assert steps[0].before == render(Word(w.factors[1:]))
    assert render(oracle_normalize(w)) == text
    assert render(replay_trace(w, steps)) == text


def test_oracle_intermediates_are_identity_sound():
    # every rewrite step preserves the element named by the word
    zs = IntShiftGroup(5)
    asg = {"x": 2, "y": 3, "z": 4}
    for text in [
        "[x] [y] [z]",
        "[[x]@2 y]",
        "[y [x]@2] [z]^-1 [z]@3",
        "[x]^-1 [y]^-1 [z]@2",
    ]:
        w = parse(text)
        want = eval_operated(w, zs, asg)
        for inter, _ in oracle_steps(w):
            assert eval_operated(inter, zs, asg) == want


def test_two_strategies_agree_and_are_idempotent():
    for seed in range(200):
        r = random_raw_word(GenParams(seed=seed))
        n1 = oracle_normalize(r, STRATEGIES[0])
        n2 = oracle_normalize(r, STRATEGIES[1])
        assert n1 == n2
        assert is_normal(n1)
        assert oracle_normalize(n1) == n1


def test_step_limit_raises():
    with pytest.raises(OracleStepLimit):
        oracle_normalize(parse("[x] [y]"), step_limit=0)
    with pytest.raises(OracleStepLimit):
        list(oracle_steps(parse("[[x]@2 y] [z]"), step_limit=1))


def test_unknown_strategy_rejected():
    with pytest.raises(KeyError):
        oracle_normalize(parse("[x] [y]"), strategy="bogus")


@settings(max_examples=150, derandomize=True)
@given(st.integers(0, 2**31))
def test_oracle_output_is_always_normal(seed):
    r = random_raw_word(GenParams(seed=seed, max_depth=4))
    n = oracle_normalize(r)
    assert is_normal(n)
    assert oracle_normalize(bracket_literal(n)) == oracle_normalize(bracket_literal(r))


# --- reference: the search from the root at every step, with no memo ---------


def _reference_innermost_leftmost(w, path):
    fs = w.factors
    for i, f in enumerate(fs):
        if isinstance(f, Br):
            found = _reference_innermost_leftmost(f.content, path + (i,))
            if found is not None:
                return found
    for i, f in enumerate(fs):
        if _matches_r2(f):
            return path + (i,), "R2"
        if _matches_r3(f):
            return path + (i,), "R3"
        if i + 1 < len(fs):
            rule = _pair_rule(fs[i], fs[i + 1])
            if rule is not None:
                return path + (i,), rule
    return None


def _reference_outermost_rightmost(w, path):
    fs = w.factors
    for i in range(len(fs) - 1, -1, -1):
        if i + 1 < len(fs):
            rule = _pair_rule(fs[i], fs[i + 1])
            if rule is not None:
                return path + (i,), rule
        if _matches_r3(fs[i]):
            return path + (i,), "R3"
        if _matches_r2(fs[i]):
            return path + (i,), "R2"
    for i in range(len(fs) - 1, -1, -1):
        f = fs[i]
        if isinstance(f, Br):
            found = _reference_outermost_rightmost(f.content, path + (i,))
            if found is not None:
                return found
    return None


_REFERENCE_FINDERS = {
    "innermost-leftmost": _reference_innermost_leftmost,
    "outermost-rightmost": _reference_outermost_rightmost,
}


def _reference_normalize(w, strategy):
    find = _REFERENCE_FINDERS[strategy]
    cur, steps = w, []
    while (found := find(cur, ())) is not None:
        path, rule = found
        cur, before, after = _apply_at(cur, path, rule)
        steps.append(RewriteStep(rule, path, render(before), render(after)))
    return cur, steps


def _seeded_words():
    for (depth, breadth), seeds in (((5, 6), 120), ((7, 8), 60), ((8, 9), 30)):
        for seed in range(seeds):
            p = GenParams(seed=seed, max_depth=depth, max_breadth=breadth)
            yield random_raw_word(p)
            yield random_normal_word(p)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_memoized_search_takes_the_reference_steps(strategy):
    rewritten = steps_taken = 0
    for w in _seeded_words():
        want, want_steps = _reference_normalize(w, strategy)
        normal, steps = oracle_normalize(w, strategy, trace=True)
        assert steps == want_steps and normal == want, render(w)
        assert [s for _, s in oracle_steps(w, strategy)] == want_steps
        assert oracle_normalize(w, strategy) == want
        assert replay_trace(w, steps) == want
        rewritten += bool(steps)
        steps_taken += len(steps)
    # the sample reaches the oracle: 100 raw words take 1037-1115 steps
    assert rewritten >= 90 and steps_taken >= 1000


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_step_limit_fires_one_step_short(strategy):
    for seed in range(10):
        w = random_raw_word(GenParams(seed=seed, max_depth=5, max_breadth=6))
        want, steps = _reference_normalize(w, strategy)
        if not steps:
            continue
        assert oracle_normalize(w, strategy, step_limit=len(steps)) == want
        for trace in (False, True):
            with pytest.raises(OracleStepLimit):
                oracle_normalize(w, strategy, step_limit=len(steps) - 1, trace=trace)
