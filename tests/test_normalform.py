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
    make_br,
    parse,
    reduce_concat,
    render,
    single,
)
from avgroups.normalform import (
    OracleStepLimit,
    RewriteStep,
    STRATEGIES,
    _FINDERS,
    _matches_r2,
    _matches_r3,
    _pair_rule,
    is_normal,
    oracle_normalize,
    oracle_steps,
    replay_trace,
)
from avgroups.avgroup import GenParams, random_normal_word, random_raw_word
from avgroups.cli import law_table
from avgroups.structures import IntShiftGroup

# the table's row on raw words: both strategies agree, and the result is
# normal and a fixed point
(ORACLE_RAW_LAW,) = [r[4] for r in law_table(("x", "y", "z")) if r[3] == "raw"]


def _traced(w, strategy=STRATEGIES[0]):
    """The normal form of `w` and the steps `oracle_steps` takes to it."""
    normal, steps = w, []
    for normal, step in oracle_steps(w, strategy):
        steps.append(step)
    return normal, steps


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
    normal, steps = _traced(w)
    assert normal == parse("[x [y [z]]]@2")
    assert [s.rule for s in steps] == ["R2", "R1", "R1"]
    assert replay_trace(w, steps) == normal


def test_replay_rejects_tampered_trace():
    w = parse("[x] [y]")
    _, (step,) = _traced(w)
    for broken in (RewriteStep(step.rule, step.path, "[q]", step.after),
                   RewriteStep(step.rule, step.path, step.before, "[q]"),
                   RewriteStep("R9", step.path, step.before, step.after)):
        with pytest.raises(ValueError):
            replay_trace(w, [broken])


def test_replay_rejects_unlicensed_rewrites_and_bad_paths():
    # the recorded text matches the replacement, but the rule does not fit
    for text, step in (
        ("x y", RewriteStep("R0", (0,), "x y", "1")),
        ("[x]^-1 [y]^-1", RewriteStep("R1", (0,), "[x]^-1 [y]^-1", "[x [y]]")),
    ):
        with pytest.raises(ValueError, match="no R. redex"):
            replay_trace(parse(text), [step])
    # paths through a generator, to no level, and past the end
    w = Word((Gen("x", 1), Gen("x", -1)))  # unreduced; parse() would cancel it
    for path in ((0, 0), (), (7,)):
        with pytest.raises(ValueError, match="no R0 redex"):
            replay_trace(w, [RewriteStep("R0", path, "x x^-1", "1")])
    assert replay_trace(w, [RewriteStep("R0", (0,), "x x^-1", "1")]) == ONE
    # every real trace still replays, under both strategies
    for seed in range(40):
        w = random_raw_word(GenParams(4, 4, ("x", "y"), seed))
        for strategy in STRATEGIES:
            normal, steps = _traced(w, strategy)
            assert replay_trace(w, steps) == normal


def test_trace_renders_deep_intermediates():
    # x [x [x ... [x]]] [x], 300 deep: each R1 step moves the trailing [x] one
    # level in, so the traced steps render words about 300 deep.  Deep words
    # are compared by their text: dataclass equality on them overflows.
    x = Gen("x", 1)
    w = Word((x,))
    for _ in range(300):
        w = Word((x, Br(w, 1, 1)))
    w = Word(w.factors + (Br(Word((x,)), 1, 1),))
    normal, steps = _traced(w)
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
        assert ORACLE_RAW_LAW(r), render(r)


def test_is_normal_exactly_when_neither_finder_finds_a_redex():
    normal = total = 0
    for depth, breadth in ((3, 4), (5, 6), (7, 8)):
        for seed in range(400):
            p = GenParams(seed=seed, max_depth=depth, max_breadth=breadth)
            for w in (random_raw_word(p), random_normal_word(p),
                      random_normal_word(p, via_oracle=True)):
                clean = all(find(w, (), {}) is None for find in _FINDERS.values())
                assert is_normal(w) == clean, render(w)
                normal += clean
                total += 1
    # both verdicts occur: 3,105 of the 3,600 words are normal
    assert normal >= 3000 and total - normal >= 400


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
    assert ORACLE_RAW_LAW(r), render(r)
    n = oracle_normalize(r)
    assert oracle_normalize(bracket_literal(n)) == oracle_normalize(bracket_literal(r))


# --- reference: the search from the root at every step, with no memo, and a
# rule application written out rule by rule --------------------------------


def _reference_apply_local(fs, i, rule):
    """Apply `rule` at index i of the factor sequence; return (new, before, after)."""
    if rule == "R0":
        return fs[:i] + fs[i + 2 :], Word(fs[i : i + 2]), Word(())
    if rule == "R1":
        a, b = fs[i], fs[i + 1]
        merged = make_br(
            Word(a.content.factors + (make_br(b.content, 1, 1),)),
            a.iter + b.iter - 1,
            1,
        )
        return fs[:i] + (merged,) + fs[i + 2 :], Word(fs[i : i + 2]), single(merged)
    if rule == "R1-":
        a, b = fs[i], fs[i + 1]
        merged = make_br(
            Word(b.content.factors + (make_br(a.content, 1, 1),)),
            a.iter + b.iter - 1,
            -1,
        )
        return fs[:i] + (merged,) + fs[i + 2 :], Word(fs[i : i + 2]), single(merged)
    if rule == "R2":
        f = fs[i]
        head = f.content.factors[0]
        rest = Word(f.content.factors[1:])
        new = make_br(
            Word(head.content.factors + (make_br(rest, 1, 1),)),
            f.iter + head.iter - 1,
            f.sign,
        )
        return fs[:i] + (new,) + fs[i + 1 :], single(f), single(new)
    if rule == "R3":
        f = fs[i]
        last = f.content.factors[-1]
        new = make_br(
            Word(f.content.factors[:-1] + (make_br(last.content, 1, 1),)),
            f.iter + last.iter - 1,
            f.sign,
        )
        return fs[:i] + (new,) + fs[i + 1 :], single(f), single(new)
    raise ValueError(f"unknown rule {rule}")


def _reference_apply_at(w, path, rule):
    if len(path) == 1:
        new, before, after = _reference_apply_local(w.factors, path[0], rule)
        return Word(new), before, after
    i = path[0]
    f = w.factors[i]
    new_content, before, after = _reference_apply_at(f.content, path[1:], rule)
    nf = make_br(new_content, f.iter, f.sign)
    return Word(w.factors[:i] + (nf,) + w.factors[i + 1 :]), before, after


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
        cur, before, after = _reference_apply_at(cur, path, rule)
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
        normal, steps = _traced(w, strategy)
        assert steps == want_steps and normal == want, render(w)
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
        with pytest.raises(OracleStepLimit):
            oracle_normalize(w, strategy, step_limit=len(steps) - 1)
        with pytest.raises(OracleStepLimit):
            list(oracle_steps(w, strategy, step_limit=len(steps) - 1))
