"""Acceptance gate: one test per criterion, one verdict line each.

Run with -s (or read the -v test ids) to see the per-criterion lines.
Randomized suites are seeded, so every run checks the same corpus.  The law
criteria evaluate the rows of ``laws.law_table``, the table ``avgroups check``
runs.
"""

import itertools
import time
from fractions import Fraction
from types import SimpleNamespace

import avgroups.avgroup as avgroup_mod
import avgroups.laws as laws_mod
import avgroups.normalform as normalform_mod
from avgroups.words import Br, Word, parse, render
from avgroups.normalform import is_normal
from avgroups.avgroup import (
    GenParams,
    diamond,
    inverse,
    op_apply,
    op_iter,
    random_normal_word,
    random_raw_word,
)
from avgroups.laws import law_commutes, law_table, run_suites
from avgroups.structures import (
    AveragingGroupHandle,
    check_disemigroup,
    check_pointed_consequences,
    check_rack,
    cyclic_group,
    idempotent_endo_operator,
    klein_four_group,
    search_averaging_ops,
    sym3,
    sym3_sign_retraction,
)
from avgroups.linearalg import (
    LieAlgebraSpec,
    check_antipode_averaging,
    check_averaging_lie,
    check_coalgebra_map,
    check_hopf_equivalence,
    check_leibniz,
)

EXACT_PRODUCTS = [
    ("[x [y]]@2", "[z]^-1", "[x [y]]@2 [z]^-1"),
    ("[z]^-1", "[z]@3", "[z]^-1 [z]@3"),
    ("[x [y]]@2", "[z]@3", "[x [y [z]]]@4"),
]
EXACT_OPS = [
    ("[x [y]]@2", "[x [y]]@3"),
    ("[z]^-1", "[[z]^-1]"),
    ("[x]@3 y [z]@2", "[x [y [z]]]@4"),
]

_closure_outputs = []

LAWS = law_table(("x", "y", "z"))


def _holds(suite, *words, corpus="normal", label=None):
    """Assert every law of `suite` on `corpus` (or the one labelled) on `words`."""
    rows = [r for r in LAWS if r[0] == suite and r[3] == corpus
            and label in (None, r[1])]
    assert rows
    for _, name, slots, _, law in rows:
        assert law(*words[:slots]), (name, [render(w) for w in words[:slots]])


def _passed(num, detail):
    print(f"criterion {num}: PASS - {detail}")


def _words(trial, slot, **kw):
    return random_normal_word(GenParams(seed=1_000_003 * 11 + trial * 17 + slot, **kw))


def test_criterion_01_exact_example_reproduction():
    for left, right, want in EXACT_PRODUCTS:
        u, v = parse(left), parse(right)
        diamond(u, v)  # warm
        best = min(_timed(lambda: diamond(u, v)) for _ in range(3))
        dt, got = best
        assert render(got) == want
        assert dt < 0.001, f"took {dt * 1000:.3f} ms"
    for text, want in EXACT_OPS:
        w = parse(text)
        op_apply(w)
        dt, got = min(_timed(lambda: op_apply(w)) for _ in range(3))
        assert render(got) == want
        assert dt < 0.001, f"took {dt * 1000:.3f} ms"
    _passed(1, "six exact strings, each under 1 ms")


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def test_criterion_02_group_law_suite():
    t0 = time.perf_counter()
    for trial in range(1000):
        u, v, w = (_words(trial, s) for s in range(3))
        _holds("assoc", u, v, w)
        _closure_outputs.extend((diamond(u, v), diamond(v, w), inverse(u)))
    dt = time.perf_counter() - t0
    assert dt < 30.0
    _passed(2, f"associativity, identity, inverses on 1000 triples in {dt:.2f}s")


def test_criterion_03_averaging_and_derived_laws():
    t0 = time.perf_counter()
    for trial in range(1000):
        u = _words(trial, 5)
        v = _words(trial, 6)
        _holds("averaging", u, v)
        _holds("derived", u, v)
        # outputs the laws produce, for criterion 4
        au = op_apply(u)
        _closure_outputs.extend((au, diamond(au, op_apply(v))))
        _closure_outputs.extend(op_apply(diamond(u, op_iter(v, n))) for n in (2, 3, 4))
    dt = time.perf_counter() - t0
    assert dt < 30.0
    _passed(3, f"averaging plus iterated laws (n <= 4) on 1000 pairs in {dt:.2f}s")


def test_criterion_04_closure():
    assert _closure_outputs, "law suites must run first"
    for w in _closure_outputs:
        assert is_normal(w)
    code, lines = run_suites("closure", 1000, GenParams(seed=4))
    assert code == 0, lines
    _passed(4, f"all {len(_closure_outputs)} suite outputs normal, "
               "plus 1000 fresh closure trials")


def test_criterion_05_oracle_equivalence():
    for trial in range(1000):
        _holds("oracle", _words(trial, 7), _words(trial, 8))
    for seed in range(400):
        _holds("oracle", random_raw_word(GenParams(seed=seed ^ 0xACE)), corpus="raw")
    _passed(5, "oracle agreement on 1000 pairs; idempotence and "
               "two-strategy confluence on 400 raw words")


def _search_handles():
    handles = []
    for n in (2, 3, 4):
        t = cyclic_group(n)
        for op in search_averaging_ops(t):
            handles.append(AveragingGroupHandle(t, op))
    return handles


def test_criterion_06_homomorphism_suite():
    handles = _search_handles()
    handles.append(idempotent_endo_operator(sym3(), sym3_sign_retraction()))
    assert len(handles) >= 3 + 4 + 4 + 1
    for hi, h in enumerate(handles):
        n = len(h.table)
        commutes = law_commutes([(h, {a: (i + 1) % n for i, a in enumerate(("x", "y", "z"))})])
        for trial in range(100):
            u = _words(1000 * hi + trial, 1)
            v = _words(1000 * hi + trial, 2)
            assert commutes(u, v), (hi, render(u), render(v))
    for trial in range(100):
        _holds("hom", _words(trial, 3), label="self-target evaluation")
    _passed(6, f"evaluation commutes on {len(handles)} searched handles x 100 "
               "words; self-target is the identity on 100 words")


def test_criterion_07_structure_theory():
    z2 = cyclic_group(2)
    ops = search_averaging_ops(z2)
    assert ops == [(0, 0), (0, 1), (1, 0)]  # constant-0, identity, shift-1

    handles = _search_handles()
    for t in (klein_four_group(), sym3(), cyclic_group(5), cyclic_group(6)):
        for op in search_averaging_ops(t):
            handles.append(AveragingGroupHandle(t, op))
    pointed = 0
    for h in handles:
        assert len(h.table) <= 6
        rep = check_disemigroup(h)
        assert all(ok for _, ok, _ in rep.entries[:5]), rep.lines()
        units_ok, _ = rep.entry("dimonoid units")
        assert units_ok == h.is_pointed()
        rack = check_rack(h)
        cons = check_pointed_consequences(h)
        if h.is_pointed():
            pointed += 1
            assert rack.ok, rack.lines()
            assert cons.ok, cons.lines()
        else:
            assert not rack.entries[0][1] and "inapplicable" in rack.entries[0][2]
            assert not cons.entries[0][1] and "inapplicable" in cons.entries[0][2]
    _passed(7, f"Z2 search exact; disemigroup identities on {len(handles)} "
               f"handles of order <= 6; dimonoid, rack, and operator "
               f"consequences exactly on the {pointed} pointed ones")


def test_criterion_08_hopf_equivalence():
    t0 = time.perf_counter()
    counted = 0
    for g, n in ((cyclic_group(2), 2), (cyclic_group(3), 3), (cyclic_group(4), 4)):
        for op in itertools.product(range(n), repeat=n):
            gv, av = check_hopf_equivalence(g, op)
            assert gv == av
            counted += 1
    assert counted == 4 + 27 + 256
    for g, n in ((cyclic_group(2), 2), (cyclic_group(3), 3)):
        for op in itertools.product(range(n), repeat=n):
            assert check_coalgebra_map(g, op).ok
    assert check_antipode_averaging(cyclic_group(2)).ok
    assert check_antipode_averaging(klein_four_group()).ok
    dt = time.perf_counter() - t0
    assert dt < 60.0
    _passed(8, f"verdicts agree on all 287 maps; set-map coalgebra checks and "
               f"both antipode cases in {dt:.2f}s")


def test_criterion_09_lie_layer():
    solvable = LieAlgebraSpec.from_brackets(2, {(0, 1): {1: 1}})
    proj_e1 = [[1, 0], [0, 0]]
    proj_e2 = [[0, 0], [0, 1]]
    assert check_averaging_lie(solvable, proj_e1).ok
    assert check_leibniz(solvable, proj_e1).ok
    rep = check_averaging_lie(solvable, proj_e2)
    assert not rep.ok and "(e1, e2)" in rep.entries[0][2]
    abelian = LieAlgebraSpec.from_brackets(3, {})
    import random
    rng = random.Random(99)
    for _ in range(100):
        M = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3)]
             for _ in range(3)]
        assert check_averaging_lie(abelian, M).ok
    _passed(9, "solvable projections split as required; 100 random operators "
               "pass on the abelian algebra")


# --- mutants: each breaks one operation the laws check -------------------------


def _seam_merge_off_by_one(m):
    real = avgroup_mod._seam_merge
    m.setattr(avgroup_mod, "_seam_merge",
              lambda a, b: (lambda r: Br(r.content, r.iter + 1, r.sign))(real(a, b)))


def _literal(w):
    fs = w
    if len(fs) == 1 and isinstance(fs[0], Br) and fs[0].sign > 0:
        return Word((Br(fs[0].content, fs[0].iter + 1, 1),))
    return Word((Br(w, 1, 1),))


def _literal_iter(w, n):
    for _ in range(n):
        w = _literal(w)
    return w


def _operator_is_a_literal_wrap(m):
    m.setattr(avgroup_mod, "op_apply", _literal)
    m.setattr(laws_mod, "op_apply", _literal)
    m.setattr(laws_mod, "op_iter", _literal_iter)


def _product_drops_the_last_letter(m):
    real = laws_mod.diamond
    m.setattr(laws_mod, "diamond",
              lambda u, v: real(u, v if not v else type(v)(v[:-1])))


def _oracle_without_r2(m):
    real = normalform_mod._redexes
    m.setattr(normalform_mod, "_redexes",
              lambda fs: [r for r in real(fs) if r[1] != "R2"])


def _evaluation_ignores_the_operator(m):
    real = laws_mod.eval_operated
    m.setattr(laws_mod, "eval_operated", lambda w, t, asg: real(
        w, SimpleNamespace(identity=t.identity, mul=t.mul, inv=t.inv, op=lambda a, n=1: a), asg))


MUTANTS = (_seam_merge_off_by_one, _operator_is_a_literal_wrap,
           _product_drops_the_last_letter, _oracle_without_r2,
           _evaluation_ignores_the_operator)


def test_criterion_10_mutation_sensitivity(monkeypatch):
    # mutant A: merged-seam exponent off by one
    with monkeypatch.context() as m:
        _seam_merge_off_by_one(m)
        got = render(diamond(parse("[x [y]]@2"), parse("[z]@3")))
        assert got != "[x [y [z]]]@4"
        code, _ = run_suites("oracle", 40, GenParams(seed=7))
        assert code != 0

    # mutant B: operator degenerates to a literal wrap
    with monkeypatch.context() as m:
        _operator_is_a_literal_wrap(m)
        got = render(_literal(parse("[x]@3 y [z]@2")))
        assert got != "[x [y [z]]]@4"
        code, _ = run_suites("oracle", 40, GenParams(seed=7))
        assert code != 0
    _passed(10, "both recursion mutants break the exact examples and the "
                "oracle-equivalence suite")


def test_no_law_row_is_vacuous(monkeypatch):
    """Every row of the law table fails on a seeded tuple under some mutant."""
    params = GenParams(seed=7)
    rows = law_table(params.alphabet)
    killed = set()
    for mutate in MUTANTS:
        with monkeypatch.context() as m:
            mutate(m)
            for _, label, slots, corpus, law in rows:
                if label not in killed and any(
                        not law(*(laws_mod._sample(params, t, s, raw=corpus == "raw")
                                  for s in range(slots)))
                        for t in range(40)):
                    killed.add(label)
    assert killed == {row[1] for row in rows}
