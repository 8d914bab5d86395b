"""Finite tables: validation, operator constructors, search, derived structure."""

import itertools
import json
import random
from types import SimpleNamespace

import pytest

import avgroups.structures as structures_mod
from avgroups.structures import (
    AveragingGroupHandle,
    CheckFailed,
    CheckReport,
    FiniteGroupTable,
    IntShiftGroup,
    TableError,
    as_operator,
    check_disemigroup,
    check_pointed_consequences,
    check_rack,
    cyclic_group,
    idempotent_endo_operator,
    klein_four_group,
    load_group_file,
    rack_op,
    search_averaging_ops,
    sym3,
    sym3_sign_retraction,
    validate_averaging,
    validate_group,
)


def test_table_construction_checks_shape_only():
    t = FiniteGroupTable(["e", "a"], [[0, 1], [1, 0]])
    assert len(t) == 2
    assert t.index("a") == 1 and t.name(0) == "e"
    with pytest.raises(TableError):
        FiniteGroupTable(["e", "e"], [[0, 1], [1, 0]])
    with pytest.raises(TableError):
        FiniteGroupTable(["e", "a"], [[0, 1]])
    with pytest.raises(TableError):
        FiniteGroupTable(["e", "a"], [[0, 5], [1, 0]])
    with pytest.raises(TableError):
        FiniteGroupTable([], [])
    # a malformed mul is refused by the table itself, with load_group_file's text
    for mul, why in (([["x"]], "invalid literal for int() with base 10: 'x'"),
                     ([[1.5]], "1.5 is not an integer"),
                     (5, "'int' object is not iterable")):
        with pytest.raises(TableError) as info:
            FiniteGroupTable(["e"], mul)
        assert str(info.value) == f"'mul' must be a row-major table of element indices: {why}"
    with pytest.raises(TableError):
        t.index("zz")
    with pytest.raises(TableError, match=r"^cyclic group needs n >= 1$"):
        cyclic_group(0)


def test_identity_and_inverses_are_inferred():
    t = cyclic_group(3)
    assert t.identity() == 0
    assert t.inverses() == (0, 2, 1)
    # a left-only identity is not an identity
    broken = FiniteGroupTable(["a", "b"], [[0, 1], [0, 1]])
    with pytest.raises(TableError):
        broken.identity()


def test_validate_group_names_the_failing_triple():
    assert validate_group(sym3()).ok
    assert validate_group(klein_four_group()).ok
    broken = FiniteGroupTable(["e", "a", "b"], [[0, 1, 2], [1, 2, 0], [2, 1, 0]])
    rep = validate_group(broken)
    assert not rep.ok
    assert "fails at (a, a, a)" in dict((n, d) for n, _, d in rep.entries)["associativity"]


def test_validate_group_size_cap():
    cap = structures_mod.MAX_GROUP_ORDER
    with pytest.raises(TableError, match=f"^carrier size {cap + 1} exceeds the exhaustive-check "
                                         f"cap {cap}$"):
        validate_group(cyclic_group(cap + 1))
    assert validate_group(cyclic_group(cap)).ok


def test_a_group_report_is_made_once_per_table(monkeypatch):
    laws = []
    real = structures_mod._law
    monkeypatch.setattr(structures_mod, "_law",
                        lambda law, *args: laws.append(law) or real(law, *args))
    s3 = sym3()
    AveragingGroupHandle(s3, range(6))
    AveragingGroupHandle(s3, (0,) * 6)
    assert laws.count("associativity") == 1
    assert validate_group(s3).entries == (("identity", True, "inferred 'e'"),
                                          ("inverses", True, ""), ("associativity", True, ""))
    broken = FiniteGroupTable(["e", "a", "b"], [[0, 1, 2], [1, 2, 0], [2, 1, 0]])
    assert validate_group(broken) is validate_group(broken)
    assert laws.count("associativity") == 2
    assert validate_group(broken).entries[-1] == ("associativity", False, "fails at (a, a, a)")
    # the cap is checked on every call, a kept report or not
    monkeypatch.setattr(structures_mod, "MAX_GROUP_ORDER", 5)
    with pytest.raises(TableError, match="exceeds the exhaustive-check cap 5"):
        validate_group(s3)


def test_validate_averaging():
    z2 = cyclic_group(2)
    assert validate_averaging(z2, (1, 0)).ok
    assert validate_averaging(z2, (0, 1)).ok
    rep = validate_averaging(z2, (1, 1))
    assert not rep.ok
    assert "fails at (0, 0)" in rep.lines()[0]
    with pytest.raises(TableError):
        validate_averaging(z2, (0, 7))
    with pytest.raises(TableError):
        validate_averaging(z2, (0,))
    # entries follow the group files' integer rule: no truncated floats or bools
    for op in ((1.7, 0.2), (True, False), (1, "x")):
        with pytest.raises(TableError, match="operator entry must be an integer"):
            validate_averaging(z2, op)
    assert validate_averaging(z2, ("1", "0")).ok


class _Index(int):
    """An int subclass: read by int(), like an integer string."""


def test_as_operator_fast_path_keeps_every_result_and_error_text():
    from avgroups.linearalg import check_hopf_equivalence

    z3 = cyclic_group(3)
    # plain ints, in any sequence, pass through as the same tuple
    for op in ((1, 2, 0), [1, 2, 0], range(3)):
        assert as_operator(z3, op) == tuple(op)
        assert validate_averaging(z3, op).ok == (tuple(op) in ((1, 2, 0), (0, 1, 2)))
    # integer strings and int subclasses are still read as plain ints
    for op in (("1", "2", "0"), [1, "2", 0], (_Index(1), 2, _Index(0))):
        assert as_operator(z3, op) == (1, 2, 0)
        assert all(type(v) is int for v in as_operator(z3, op))
        assert check_hopf_equivalence(z3, op) == (True, True)
        assert AveragingGroupHandle(z3, op).op_table == (1, 2, 0)
    entry = "operator entry must be an integer, got {!r}"
    shape = "operator must map every element to an element"
    cases = [((True, 2, 0), entry.format(True)), ((1, False, 0), entry.format(False)),
             ((1.0, 2, 0), entry.format(1.0)), ((1, 2, 0.5), entry.format(0.5)),
             (("x", 2, 0), entry.format("x")), ((1, "2.0", 0), entry.format("2.0")),
             ((1, None, 0), entry.format(None)),
             ((-1, 2, 0), shape), ((1, 2, 3), shape), ((1, 2), shape), ((1, 2, 0, 0), shape),
             ((), shape), (("-1", 2, 0), shape)]
    for op, text in cases:
        for fn in (as_operator, validate_averaging, check_hopf_equivalence,
                   AveragingGroupHandle):
            with pytest.raises(TableError) as exc:
                fn(z3, op)
            assert str(exc.value) == text, (fn.__name__, op)


def test_validate_averaging_names_the_first_failing_pair():
    # pairs are tried in index order, the left element first
    assert validate_averaging(cyclic_group(2), (1, 1)).entries == \
        (("averaging", False, "fails at (0, 0)"),)
    assert validate_averaging(sym3(), (1,) * 6).entries == \
        (("averaging", False, "fails at (e, e)"),)
    assert validate_averaging(cyclic_group(3), (0, 0, 1)).entries == \
        (("averaging", False, "fails at (0, 2)"),)
    assert validate_averaging(klein_four_group(), (0, 0, 2, 0)).entries == \
        (("averaging", False, "fails at (a, b)"),)
    assert validate_averaging(sym3(), sym3_sign_retraction()).entries == \
        (("averaging", True, ""),)


NOT_A_GROUP = FiniteGroupTable(["e", "a", "b"], [[0, 1, 2], [1, 2, 0], [2, 1, 0]])


def test_constructor_errors_carry_the_full_witness():
    def message(fn, *args):
        with pytest.raises(TableError) as exc:
            fn(*args)
        return str(exc.value)

    assert message(AveragingGroupHandle, NOT_A_GROUP, (0, 1, 2)) == (
        "identity: ok inferred 'e'; inverses: FAIL element 'a' has no inverse; "
        "associativity: FAIL fails at (a, a, a)")
    assert message(AveragingGroupHandle, cyclic_group(2), (1, 1)) == \
        "averaging: FAIL fails at (0, 0)"
    assert message(idempotent_endo_operator, cyclic_group(4), (0, 2, 0, 2)) == \
        "not idempotent: fails at 1"
    assert message(idempotent_endo_operator, cyclic_group(4), (0, 0, 1, 0)) == \
        "not a homomorphism: fails at (1, 1)"


def test_handle_validates_on_construction():
    z2 = cyclic_group(2)
    h = AveragingGroupHandle(z2, (1, 0))
    assert h.identity() == 0 and h.mul(1, 1) == 0 and h.inv(1) == 1 and h.op(0) == 1
    assert h.element("1") == 1 and h.name(1) == "1"
    assert not h.is_pointed()
    # A^n for n >= 1 only: the Z4 translation's A^0(0) would be 0, not A(0)
    z4 = AveragingGroupHandle(cyclic_group(4), (1, 2, 3, 0))
    assert [z4.op(0, n) for n in (1, 2, 5)] == [1, 2, 1]
    for n in (0, -1):
        with pytest.raises(ValueError, match=r"^iteration count must be >= 1$"):
            z4.op(0, n)
    with pytest.raises(TableError):
        AveragingGroupHandle(z2, (1, 1))


def test_idempotent_endo_operator():
    s3 = sym3()
    h = idempotent_endo_operator(s3, sym3_sign_retraction())
    assert h.is_pointed()
    assert [h.name(h.op(i)) for i in range(6)] == ["e", "(12)", "(12)", "(12)", "e", "e"]
    assert idempotent_endo_operator(s3, (0,) * 6).op_table == (0,) * 6
    with pytest.raises(TableError) as exc:
        idempotent_endo_operator(cyclic_group(4), (0, 2, 0, 2))
    assert "not idempotent" in str(exc.value)
    with pytest.raises(TableError) as exc:
        idempotent_endo_operator(cyclic_group(4), (0, 0, 1, 0))
    assert "not a homomorphism" in str(exc.value)


def test_search_on_small_cyclic_groups():
    assert search_averaging_ops(cyclic_group(2)) == [(0, 0), (0, 1), (1, 0)]
    ops3 = search_averaging_ops(cyclic_group(3))
    assert ops3 == [(0, 0, 0), (0, 1, 2), (1, 2, 0), (2, 0, 1)]
    ops4 = search_averaging_ops(cyclic_group(4))
    # four shifts, the constant, and two idempotent-image operators
    assert (0, 0, 0, 0) in ops4 and (0, 1, 2, 3) in ops4 and (1, 2, 3, 0) in ops4
    # averaging without being an endomorphism: A(1)+A(1) = 0 but A(2) = 2
    assert (0, 0, 2, 2) in ops4
    for op in ops4:
        assert validate_averaging(cyclic_group(4), op).ok


def test_search_flags_and_caps():
    z2 = cyclic_group(2)
    assert search_averaging_ops(z2, pointed_only=True) == [(0, 0), (0, 1)]
    assert len(search_averaging_ops(sym3())) == 14
    # the listing is bounded by its own size, summed before any table is built:
    # Z2^5 (xor on 0..31) and S5 hold more than MAX_LISTED operators, pointed
    # ones too
    z2_5 = FiniteGroupTable(range(32), [[i ^ j for j in range(32)] for i in range(32)])
    perms = sorted(itertools.permutations(range(5)))
    s5 = FiniteGroupTable(range(120), [[perms.index(tuple(p[i] for i in q)) for q in perms]
                                       for p in perms])
    for t in (z2_5, s5):
        for pointed in (False, True):
            with pytest.raises(TableError, match=rf"^more than 100,000 operators on {len(t)} "
                                                 "elements to list$"):
                search_averaging_ops(t, pointed_only=pointed)


def test_a_listed_table_that_fails_the_converse_is_refused(monkeypatch):
    # one value of the search's first choice changed: on Z3, H = {0} and its
    # double cosets {1} and {2} give (0, 0, 0), which becomes (0, 1, 0); that
    # table's image is not H, so it goes to the averaging check and is refused
    def product(*value_lists):
        for i, choice in enumerate(itertools.product(*value_lists)):
            yield (choice[0], [1]) + choice[2:] if i == 0 else choice

    monkeypatch.setattr(structures_mod, "itertools", SimpleNamespace(product=product))
    with pytest.raises(CheckFailed, match=r"^averaging: FAIL fails at \(1, 1\)$"):
        search_averaging_ops(cyclic_group(3))


def test_search_past_24_elements():
    # carriers with few operators list at any size the group check takes
    for n, plain, pointed in ((25, 3151, 627), (29, 30, 2)):
        t = cyclic_group(n)
        assert len(search_averaging_ops(t)) == plain
        assert len(search_averaging_ops(t, pointed_only=True)) == pointed
    # counts found independently: Z7 has 8 and 2, Z8 has 41 and 14
    for n, plain, pointed in ((7, 8, 2), (8, 41, 14)):
        t = cyclic_group(n)
        ops = search_averaging_ops(t)
        pointed_ops = search_averaging_ops(t, pointed_only=True)
        assert (len(ops), len(pointed_ops)) == (plain, pointed)
        assert ops == sorted(ops) and pointed_ops == [op for op in ops if op[0] == 0]
        assert all(validate_averaging(t, op).ok for op in ops)


# --- references: each check's law read off the table, tuple by tuple, in
# --- itertools.product order ------------------------------------------------

# Z1-Z6, K4, S3, and Z2^3 as bitwise xor on 0..7
GROUPS = [cyclic_group(n) for n in range(1, 7)] + [
    klein_four_group(), sym3(),
    FiniteGroupTable([str(i) for i in range(8)], [[i ^ j for j in range(8)] for i in range(8)])]


def _random_tables(rng, count):
    """Tables of 2 to 6 elements; most have an identity, few are associative."""
    tables = []
    for _ in range(count):
        n = rng.randint(2, 6)
        mul = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.85:
            e = rng.randrange(n)
            for x in range(n):
                mul[e][x] = mul[x][e] = x
        tables.append(FiniteGroupTable([f"g{i}" for i in range(n)], mul))
    return tables


def _fails_at(t, bad):
    return "" if bad is None else f"fails at ({', '.join(t.name(x) for x in bad)})"


def _reference_identity(t):
    n = len(t)
    for e in range(n):
        if all(t.mul(e, x) == x and t.mul(x, e) == x for x in range(n)):
            return e
    raise TableError("table has no two-sided identity")


def _reference_inverses(t):
    e = _reference_identity(t)
    inv = []
    for a in range(len(t)):
        for b in range(len(t)):
            if t.mul(a, b) == e and t.mul(b, a) == e:
                inv.append(b)
                break
        else:
            raise TableError(f"element {t.name(a)!r} has no inverse")
    return tuple(inv)


def _reference_validate_group(t):
    entries = []
    try:
        entries.append(("identity", True, f"inferred {t.name(_reference_identity(t))!r}"))
    except TableError as exc:
        return CheckReport((("identity", False, str(exc)),))
    try:
        _reference_inverses(t)
        entries.append(("inverses", True, ""))
    except TableError as exc:
        entries.append(("inverses", False, str(exc)))
    bad = next(((a, b, c) for a, b, c in itertools.product(range(len(t)), repeat=3)
                if t.mul(t.mul(a, b), c) != t.mul(a, t.mul(b, c))), None)
    entries.append(("associativity", bad is None, _fails_at(t, bad)))
    return CheckReport(tuple(entries))


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except TableError as exc:
        return "error", str(exc)


def test_cached_identity_and_inverses_match_the_table():
    rng = random.Random(7)
    tables = [cyclic_group(5), klein_four_group(), sym3(),
              FiniteGroupTable(["a", "b"], [[0, 1], [0, 1]]),          # no identity
              FiniteGroupTable(["e", "a", "b"], [[0, 1, 2], [1, 1, 1], [2, 1, 0]])]
    for _ in range(300):
        n = rng.randint(1, 4)
        e = rng.randrange(n)
        mul = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.7:  # mostly tables with an identity, so inverses get tested
            for x in range(n):
                mul[e][x] = mul[x][e] = x
        tables.append(FiniteGroupTable([f"g{i}" for i in range(n)], mul))
    errors = {"identity": 0, "inverses": 0}
    for t in tables:
        identity = _outcome(_reference_identity, t)
        inverses = _outcome(_reference_inverses, t)
        assert _outcome(t.identity) == identity
        assert _outcome(t.inverses) == inverses
        for a in range(len(t)):
            assert _outcome(t.inv, a) == (
                inverses if inverses[0] == "error" else ("value", inverses[1][a]))
        assert validate_group(t).entries == _reference_validate_group(t).entries
        errors["identity"] += identity[0] == "error"
        errors["inverses"] += inverses[0] == "error"
    # both failures occur among the sampled tables
    assert errors["identity"] > 10 and errors["inverses"] > errors["identity"] + 10


def test_validate_group_matches_the_reference():
    failing = 0
    for t in _random_tables(random.Random(15), 240) + GROUPS:
        entries = validate_group(t).entries
        assert entries == _reference_validate_group(t).entries, (t.elements, t.mul_table)
        failing += entries[-1][0] == "associativity" and not entries[-1][1]
    assert failing > 150, failing


def _reference_validate_averaging(t, op):
    n = len(t)
    bad = next(((g, h) for g, h in itertools.product(range(n), repeat=2)
                if not t.mul(op[g], op[h]) == op[t.mul(op[g], h)] == op[t.mul(g, op[h])]), None)
    return (("averaging", bad is None, _fails_at(t, bad)),)


def test_validate_averaging_matches_the_reference():
    rng = random.Random(16)
    passing = failing = 0
    for t in GROUPS + _random_tables(random.Random(17), 40):
        n = len(t)
        maps = [[rng.randrange(n) for _ in range(n)] for _ in range(30)]
        if n <= 6 and t in GROUPS:
            maps += search_averaging_ops(t)
        for op in maps:
            entries = validate_averaging(t, op).entries
            assert entries == _reference_validate_averaging(t, op), (t.elements, op)
            passing += entries[0][1]
            failing += not entries[0][1]
    assert passing > 50 and failing > 500


def _reference_idempotent_endo(t, phi):
    n = len(t)
    bad = next(((a, b) for a, b in itertools.product(range(n), repeat=2)
                if phi[t.mul(a, b)] != t.mul(phi[a], phi[b])), None)
    if bad is not None:
        raise TableError(f"not a homomorphism: {_fails_at(t, bad)}")
    bad = next((a for a in range(n) if phi[phi[a]] != phi[a]), None)
    if bad is not None:
        raise TableError(f"not idempotent: fails at {t.name(bad)}")
    return AveragingGroupHandle(t, phi)


def test_idempotent_endo_operator_matches_the_reference():
    rng = random.Random(18)
    errors = set()
    for t in GROUPS:
        n = len(t)
        for phi in [[rng.randrange(n) for _ in range(n)] for _ in range(40)]:
            want = _outcome(lambda: _reference_idempotent_endo(t, phi).op_table)
            assert _outcome(lambda: idempotent_endo_operator(t, phi).op_table) == want, phi
            if want[0] == "error":
                errors.add(want[1].split(":")[0])
    assert errors == {"not a homomorphism", "not idempotent"}


def test_pointed_consequences():
    s3h = idempotent_endo_operator(sym3(), sym3_sign_retraction())
    rep = check_pointed_consequences(s3h)
    assert rep.ok
    assert [n for n, _, _ in rep.entries] == [
        "pointed", "idempotence", "inverse preservation", "Ad-equivariance"]
    shifted = AveragingGroupHandle(cyclic_group(2), (1, 0))
    rep = check_pointed_consequences(shifted)
    assert not rep.ok
    assert "inapplicable" in rep.entries[0][2]
    assert len(rep.entries) == 1


def test_disemigroup_identities():
    z2s = AveragingGroupHandle(cyclic_group(2), (1, 0))
    rep = check_disemigroup(z2s)
    five = rep.entries[:5]
    assert all(ok for _, ok, _ in five)
    units_ok, detail = rep.entry("dimonoid units")
    assert not units_ok and "not pointed" in detail

    pointed = idempotent_endo_operator(sym3(), sym3_sign_retraction())
    rep = check_disemigroup(pointed)
    assert rep.ok


def test_rack_values_and_laws():
    h = idempotent_endo_operator(sym3(), sym3_sign_retraction())
    s3 = h.table
    assert s3.name(rack_op(h, s3.index("(12)"), s3.index("(123)"))) == "(132)"
    assert s3.name(rack_op(h, s3.index("(123)"), s3.index("(12)"))) == "(12)"
    assert check_rack(h).ok
    shifted = AveragingGroupHandle(cyclic_group(2), (1, 0))
    with pytest.raises(TableError):
        rack_op(shifted, 0, 1)
    rep = check_rack(shifted)
    assert not rep.ok and "inapplicable" in rep.entries[0][2]


def _reference_pointed_consequences(h):
    t, A = h.table, h.op_table
    e = t.identity()
    if A[e] != e:
        return ((("pointed", False, f"A(e) = {t.name(A[e])!r}; consequences inapplicable"),))
    n = len(t)
    bad1 = next((g for g in range(n) if A[A[g]] != A[g]), None)
    bad2 = next((g for g in range(n) if t.inv(A[g]) != A[t.inv(A[g])]), None)
    bad3 = next(((g, k) for g, k in itertools.product(range(n), repeat=2)
                 if t.mul(t.mul(A[g], A[k]), t.inv(A[g]))
                 != A[t.mul(t.mul(A[g], k), t.inv(A[g]))]), None)
    return (("pointed", True, ""),
            ("idempotence", bad1 is None, "" if bad1 is None else f"fails at {t.name(bad1)}"),
            ("inverse preservation", bad2 is None,
             "" if bad2 is None else f"fails at {t.name(bad2)}"),
            ("Ad-equivariance", bad3 is None,
             "" if bad3 is None else f"fails at ({t.name(bad3[0])}, {t.name(bad3[1])})"))


def _reference_disemigroup(h):
    t, n = h.table, len(h.table)
    left = lambda g, k: h.mul(g, h.op(k))
    right = lambda g, k: h.mul(h.op(g), k)
    laws = (
        ("(f-|g)-|h = f-|(g-|h)", lambda f, g, k: left(left(f, g), k) == left(f, left(g, k))),
        ("(f-|g)-|h = f-|(g|-h)", lambda f, g, k: left(left(f, g), k) == left(f, right(g, k))),
        ("(f|-g)-|h = f|-(g-|h)", lambda f, g, k: left(right(f, g), k) == right(f, left(g, k))),
        ("(f-|g)|-h = f|-(g|-h)", lambda f, g, k: right(left(f, g), k) == right(f, right(g, k))),
        ("(f|-g)|-h = f|-(g|-h)", lambda f, g, k: right(right(f, g), k) == right(f, right(g, k))),
    )
    entries = []
    for name, law in laws:
        bad = next((fgk for fgk in itertools.product(range(n), repeat=3) if not law(*fgk)),
                   None)
        entries.append((name, bad is None, _fails_at(t, bad)))
    e = t.identity()
    bad = next((g for g in range(n) if left(g, e) != g or right(e, g) != g), None)
    detail = ""
    if bad is not None:
        detail = f"fails at {t.name(bad)}" + ("" if h.is_pointed() else " (not pointed)")
    entries.append(("dimonoid units", bad is None, detail))
    return tuple(entries)


def _reference_rack(h):
    t, n = h.table, len(h.table)
    if not h.is_pointed():
        return (("pointed", False, f"A(e) = {h.name(h.op(h.identity()))!r}; rack inapplicable"),)
    r = lambda g, k: h.mul(h.mul(h.op(g), k), h.inv(h.op(g)))
    bad = next(((f, g, k) for f, g, k in itertools.product(range(n), repeat=3)
                if r(f, r(g, k)) != r(r(f, g), r(f, k))), None)
    bij = next((g for g in range(n) if len({r(g, k) for k in range(n)}) != n), None)
    return (("pointed", True, ""), ("self-distributivity", bad is None, _fails_at(t, bad)),
            ("translation bijectivity", bij is None,
             "" if bij is None else f"L_{t.name(bij)} is not a bijection"))


def test_derived_checks_match_the_reference_reports():
    rng = random.Random(3)
    groups = [cyclic_group(n) for n in range(2, 7)] + [klein_four_group(), sym3()]
    handles = [AveragingGroupHandle(t, op) for t in groups for op in search_averaging_ops(t)]
    # the checks read only the handle's data, so unvalidated maps probe the
    # failing witnesses too
    for t in groups:
        for _ in range(40):
            h = object.__new__(AveragingGroupHandle)
            h.table = t
            h.op_table = tuple(rng.randrange(len(t)) for _ in range(len(t)))
            handles.append(h)
    failing = 0
    for h in handles:
        assert check_pointed_consequences(h).entries == _reference_pointed_consequences(h)
        assert check_disemigroup(h).entries == _reference_disemigroup(h)
        assert check_rack(h).entries == _reference_rack(h)
        failing += not check_disemigroup(h).ok and not check_rack(h).entries[-1][1]
    assert failing > 20


def test_int_shift_group_protocol():
    zs = IntShiftGroup(5)
    assert zs.identity() == 0
    assert zs.mul(2, 3) == 5 and zs.inv(4) == -4 and zs.op(1) == 6


def test_load_group_file(tmp_path):
    path = tmp_path / "z2.json"
    path.write_text(json.dumps({
        "elements": ["0", "1"],
        "mul": [[0, 1], [1, 0]],
        "op": {"0": "1", "1": "0"},
    }))
    t, op = load_group_file(str(path))
    assert t.elements == ("0", "1") and op == (1, 0)
    t2, op2 = load_group_file({"elements": ["0", "1"], "mul": [[0, 1], [1, 0]]})
    assert op2 is None
    with pytest.raises(TableError):
        load_group_file({"elements": ["0"], "mul": [[0]], "op": {"9": "0"}})
    with pytest.raises(TableError):
        load_group_file({"elements": ["0", "1"], "mul": [[0, 1], [1, 0]],
                         "op": {"0": "1"}})
    with pytest.raises(TableError):
        load_group_file({"mul": [[0]]})
    with pytest.raises(TableError):
        load_group_file({"elements": ["0"], "mul": [[0]], "op": [0]})
    # a table of names instead of indices is a data error, not a crash
    with pytest.raises(TableError, match="indices"):
        load_group_file({"elements": ["e", "g"],
                         "mul": [["e", "g"], ["g", "e"]]})
    # int() would read 1.7 as 1 and true as 1: neither is an index
    for entry in (1.7, True, None, [1]):
        with pytest.raises(TableError, match="indices"):
            load_group_file({"elements": ["0", "1"], "mul": [[0, entry], [1, 0]]})
    assert load_group_file({"elements": ["0", "1"], "mul": [[0, "1"], [1, 0]]})[0].mul(0, 1) == 1
    # a string row is not a row of indices: "01" would read as [0, 1]
    for mul in (["01", "10"], [[0, 1], "10"], "0110", [(0, 1), range(2)]):
        with pytest.raises(TableError, match="^mul table must be a square of indices in range$"):
            load_group_file({"elements": ["e", "a"], "mul": mul})
    assert load_group_file({"elements": ["e", "a"], "mul": ((0, 1), (1, 0))})[0].mul(1, 1) == 0
    # element names are strings or integers, and an integer keeps its decimal text
    for elements in ([None, True], ["e", False], [[1], "a"], [{"a": 1}, "b"], ["e", 1.5]):
        with pytest.raises(TableError, match="^element names must be strings or integers$"):
            load_group_file({"elements": elements, "mul": [[0, 1], [1, 0]]})
    assert load_group_file({"elements": [0, 1], "mul": [[0, 1], [1, 0]]})[0].elements == ("0", "1")


def test_check_report_helpers():
    rep = CheckReport((("a", True, ""), ("b", False, "bad")))
    assert not rep.ok
    assert rep.lines() == ["a: ok", "b: FAIL bad"]
    assert rep.entry("b") == (False, "bad")
    with pytest.raises(KeyError):
        rep.entry("zz")
