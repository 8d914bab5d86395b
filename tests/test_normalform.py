"""Normality predicate and the rewriting oracle."""

import re

import pytest

from avgroups.words import (
    Br,
    Gen,
    ONE,
    Word,
    _levels,
    eval_operated,
    is_folded,
    make_br,
    parse,
    reduce_concat,
    render,
)
import avgroups.normalform as normalform_mod
from avgroups.normalform import (
    OracleStepLimit,
    RewriteStep,
    STRATEGIES,
    _find_outermost_rightmost,
    _redexes,
    is_normal,
    oracle_normalize,
    oracle_steps,
    replay_trace,
)
from avgroups.avgroup import GenParams, random_normal_word, random_raw_word
from avgroups.laws import law_table
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
    # are compared by their text: `==` on them nears the recursion limit.
    x = Gen("x", 1)
    w = Word((x,))
    for _ in range(300):
        w = Word((x, Br(w, 1, 1)))
    w = Word(w + (Br(Word((x,)), 1, 1),))
    normal, steps = _traced(w)
    text = render(normal)
    assert text == "x [" * 301 + "x" + "]" * 301
    assert len(steps) == 300 and {s.rule for s in steps} == {"R1"}
    assert steps[0].before == render(Word(w[1:]))
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


def test_is_normal_exactly_when_neither_finder_finds_a_redex(monkeypatch):
    words = []
    for depth, breadth in ((3, 4), (5, 6), (7, 8)):
        for seed in range(400):
            p = GenParams(seed=seed, max_depth=depth, max_breadth=breadth)
            words += (random_raw_word(p), random_normal_word(p),
                      random_normal_word(p, via_oracle=True))
    # the innermost engine takes no step exactly when a limit of 0 holds
    monkeypatch.setattr(normalform_mod, "STEP_LIMIT", 0)
    normal = total = 0
    for w in words:
        try:
            innermost_clean = oracle_normalize(w, STRATEGIES[0]) is w
        except OracleStepLimit:
            innermost_clean = False
        clean = innermost_clean and _find_outermost_rightmost(w, ()) is None
        assert is_normal(w) == clean, render(w)
        normal += clean
        total += 1
    # both verdicts occur: 3,105 of the 3,600 words are normal
    assert normal >= 3000 and total - normal >= 400


def test_is_normal_exactly_when_no_level_has_a_redex():
    # is_normal writes N0-N2 a second time, for speed; the redex scan is the
    # one statement of the rules, so the two must agree on every level
    normal = total = 0
    for depth, breadth in ((2, 3), (3, 4), (5, 6), (7, 8)):
        for seed in range(500):
            p = GenParams(seed=70_000 + seed, max_depth=depth, max_breadth=breadth)
            for w in (random_raw_word(p), random_normal_word(p),
                      random_normal_word(p, via_oracle=True)):
                clean = not any(_redexes(fs) for fs, _, _ in _levels(w))
                assert is_normal(w) == clean, render(w)
                normal += clean
                total += 1
    # both verdicts occur: 5,356 of the 6,000 words are normal
    assert normal >= 5000 and total - normal >= 500, (normal, total)


def test_step_limit_raises(monkeypatch):
    monkeypatch.setattr(normalform_mod, "STEP_LIMIT", 0)
    with pytest.raises(OracleStepLimit):
        oracle_normalize(parse("[x] [y]"))
    monkeypatch.setattr(normalform_mod, "STEP_LIMIT", 1)
    with pytest.raises(OracleStepLimit):
        list(oracle_steps(parse("[[x]@2 y] [z]")))


def test_unknown_strategy_rejected():
    known = re.escape(str(STRATEGIES))
    with pytest.raises(ValueError, match=f"unknown strategy 'bogus'; expected one of {known}"):
        oracle_normalize(parse("[x] [y]"), strategy="bogus")
    with pytest.raises(ValueError, match=known):
        list(oracle_steps(parse("[x] [y]"), strategy="bogus"))


def test_oracle_output_is_always_normal():
    for seed in [*range(149), 2**31]:  # 150 words, the last at the top of the seed range
        r = random_raw_word(GenParams(seed=seed, max_depth=4))
        assert ORACLE_RAW_LAW(r), render(r)
        n = oracle_normalize(r)
        assert oracle_normalize(Word((Br(n, 1, 1),))) == oracle_normalize(Word((Br(r, 1, 1),)))


# --- reference: the search from the root at every step, its own redex
# predicates, and a rule application written out rule by rule ---------------


def _reference_inverse(a, b):
    if type(a) is not type(b) or a.sign != -b.sign:
        return False
    if isinstance(a, Gen):
        return a.name == b.name
    return a.iter == b.iter and a.content == b.content


def _reference_pair_rule(a, b):
    if _reference_inverse(a, b):
        return "R0"
    if isinstance(a, Br) and isinstance(b, Br) and a.sign == b.sign:
        return "R1" if a.sign > 0 else "R1-"
    return None


def _reference_r2(f):
    """[[a]@t rest]@n: a content of breadth >= 2 opening with a positive bracket."""
    if not isinstance(f, Br) or len(f.content) < 2:
        return False
    head = f.content[0]
    return isinstance(head, Br) and head.sign > 0


def _reference_r3(f):
    """[u [v]@m]@n, m >= 2: a content of breadth >= 2 closing with such a bracket."""
    if not isinstance(f, Br) or len(f.content) < 2:
        return False
    last = f.content[-1]
    return isinstance(last, Br) and last.sign > 0 and last.iter >= 2


def _reference_apply_local(fs, i, rule):
    """Apply `rule` at index i of the factor sequence; return (new, before, after)."""
    if rule == "R0":
        return fs[:i] + fs[i + 2 :], Word(fs[i : i + 2]), Word(())
    if rule == "R1":
        a, b = fs[i], fs[i + 1]
        merged = make_br(
            Word(a.content + (make_br(b.content, 1, 1),)),
            a.iter + b.iter - 1,
            1,
        )
        return fs[:i] + (merged,) + fs[i + 2 :], Word(fs[i : i + 2]), Word((merged,))
    if rule == "R1-":
        a, b = fs[i], fs[i + 1]
        merged = make_br(
            Word(b.content + (make_br(a.content, 1, 1),)),
            a.iter + b.iter - 1,
            -1,
        )
        return fs[:i] + (merged,) + fs[i + 2 :], Word(fs[i : i + 2]), Word((merged,))
    if rule == "R2":
        f = fs[i]
        head = f.content[0]
        rest = Word(f.content[1:])
        new = make_br(
            Word(head.content + (make_br(rest, 1, 1),)),
            f.iter + head.iter - 1,
            f.sign,
        )
        return fs[:i] + (new,) + fs[i + 1 :], Word((f,)), Word((new,))
    if rule == "R3":
        f = fs[i]
        last = f.content[-1]
        new = make_br(
            Word(f.content[:-1] + (make_br(last.content, 1, 1),)),
            f.iter + last.iter - 1,
            f.sign,
        )
        return fs[:i] + (new,) + fs[i + 1 :], Word((f,)), Word((new,))
    raise ValueError(f"unknown rule {rule}")


def _reference_apply_at(w, path, rule):
    if len(path) == 1:
        new, before, after = _reference_apply_local(w, path[0], rule)
        return Word(new), before, after
    i = path[0]
    f = w[i]
    new_content, before, after = _reference_apply_at(f.content, path[1:], rule)
    nf = make_br(new_content, f.iter, f.sign)
    return Word(w[:i] + (nf,) + w[i + 1 :]), before, after


def _reference_innermost_leftmost(w, path):
    fs = w
    for i, f in enumerate(fs):
        if isinstance(f, Br):
            found = _reference_innermost_leftmost(f.content, path + (i,))
            if found is not None:
                return found
    for i, f in enumerate(fs):
        if _reference_r2(f):
            return path + (i,), "R2"
        if _reference_r3(f):
            return path + (i,), "R3"
        if i + 1 < len(fs):
            rule = _reference_pair_rule(fs[i], fs[i + 1])
            if rule is not None:
                return path + (i,), rule
    return None


def _reference_outermost_rightmost(w, path):
    fs = w
    for i in range(len(fs) - 1, -1, -1):
        if i + 1 < len(fs):
            rule = _reference_pair_rule(fs[i], fs[i + 1])
            if rule is not None:
                return path + (i,), rule
        if _reference_r3(fs[i]):
            return path + (i,), "R3"
        if _reference_r2(fs[i]):
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
def test_engines_take_the_reference_steps(strategy):
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


def _small_words(size, names):
    """Every reduced word over `names` of size at most `size`, brackets built at @1.

    A generator counts 1 and a bracket 1 plus its content.  Letters take
    both signs.  Br(...) folds a lone positive bracket content, so
    ``[[x]]`` is built as ``[x]@2``, the word parse reads from that text.
    """
    letters = {1: [Gen(a, s) for a in names for s in (1, -1)]}
    seqs = {0: [()]}
    for n in range(1, size + 1):
        letters.setdefault(n, [])
        letters[n] += [Br(Word(c), 1, s) for c in seqs[n - 1] for s in (1, -1)]
        seqs[n] = [(f,) + rest for k in range(1, n + 1) for f in letters[k]
                   for rest in seqs[n - k] if not (rest and _reference_inverse(f, rest[0]))]
    return [Word(w) for n in range(size + 1) for w in seqs[n]]


def test_innermost_trace_matches_the_reference_on_every_small_word():
    words = _small_words(5, ("x",)) + _small_words(4, ("x", "y"))
    assert len(words) == 10_269 + 4_225
    steps_taken = 0
    for w in words:
        want, want_steps = _reference_normalize(w, STRATEGIES[0])
        normal, steps = _traced(w)
        assert steps == want_steps and normal == want, render(w)
        assert oracle_normalize(w) == want
        assert replay_trace(w, steps) == want
        steps_taken += len(steps)
    assert steps_taken == 8_705


def test_small_words_read_back_and_normalize_to_folded_words():
    words = _small_words(4, ("x",))
    assert len(words) == 1_249
    for strategy in STRATEGIES:
        outputs = set()
        for w in words:
            assert parse(render(w)) == w, render(w)
            normal = oracle_normalize(w, strategy)
            assert is_normal(normal) and is_folded(normal), render(w)
            outputs.add(normal)
        # as many as the parsed words give: a built word is the parsed one
        assert len(outputs) == 773, strategy


def test_bracket_power_steps_build_a_fixed_number_of_brackets(monkeypatch):
    # [x]^k takes k(k-1)/2 steps, the later ones up to k levels deep; a
    # search from the root at every step rebuilt each level on the way
    built = steps = 0
    real_make_br, real_replacement = normalform_mod.make_br, normalform_mod._replacement

    def make_br(*args):
        nonlocal built
        built += 1
        return real_make_br(*args)

    def replacement(*args):
        nonlocal steps
        steps += 1
        return real_replacement(*args)

    monkeypatch.setattr(normalform_mod, "make_br", make_br)
    monkeypatch.setattr(normalform_mod, "_replacement", replacement)
    for k in (100, 200):
        built = steps = 0
        normal = oracle_normalize(parse(f"[x]^{k}"))
        assert steps == k * (k - 1) // 2
        assert render(normal) == "[x " * (k - 1) + "[x" + "]" * k
        # the restart search built 34.7 and 68.0 brackets per step
        assert built / steps < 3.5, (k, built / steps)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_step_limit_fires_one_step_short(strategy, monkeypatch):
    for seed in range(10):
        w = random_raw_word(GenParams(seed=seed, max_depth=5, max_breadth=6))
        want, steps = _reference_normalize(w, strategy)
        if not steps:
            continue
        monkeypatch.setattr(normalform_mod, "STEP_LIMIT", len(steps))
        assert oracle_normalize(w, strategy) == want
        monkeypatch.setattr(normalform_mod, "STEP_LIMIT", len(steps) - 1)
        with pytest.raises(OracleStepLimit):
            oracle_normalize(w, strategy)
        with pytest.raises(OracleStepLimit):
            list(oracle_steps(w, strategy))
