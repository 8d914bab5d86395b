"""Finite tables: validation, operator constructors, search, derived structure."""

import itertools
import json
import random

import pytest

from avgroups.structures import (
    AveragingGroupHandle,
    CheckReport,
    FiniteGroupTable,
    IntShiftGroup,
    TableError,
    as_operator,
    check_disemigroup,
    check_pointed_consequences,
    check_rack,
    compose_operators,
    cyclic_group,
    disemigroup_ops,
    idempotent_endo_operator,
    klein_four_group,
    load_group_file,
    rack_op,
    search_averaging_ops,
    shift_operator,
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
    with pytest.raises(TableError):
        t.index("zz")


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
    with pytest.raises(TableError):
        validate_group(cyclic_group(25))
    assert validate_group(cyclic_group(25), max_size=25).ok


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
    assert message(compose_operators, cyclic_group(2), (0, 1), (1, 1)) == \
        "averaging: FAIL fails at (0, 0)"
    assert message(compose_operators, sym3(), (0,) * 6, (1, 0, 0, 0, 1, 1)) == \
        "operators do not commute: fail at 'e'"
    assert message(shift_operator, sym3(), "(12)") == \
        "shift element '(12)' is not central: fails against '(13)'"
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
    with pytest.raises(TableError):
        AveragingGroupHandle(z2, (1, 1))


def test_shift_operator_requires_centrality():
    h = shift_operator(cyclic_group(6), "2")
    assert h.op_table == (2, 3, 4, 5, 0, 1)
    h0 = shift_operator(cyclic_group(6), 0)
    assert h0.is_pointed()
    with pytest.raises(TableError) as exc:
        shift_operator(sym3(), "(12)")
    assert "not central" in str(exc.value)


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


def test_compose_operators():
    z6 = cyclic_group(6)
    shift = lambda z: tuple((z + x) % 6 for x in range(6))
    h = compose_operators(z6, shift(2), shift(3))
    assert h.op_table == shift(5)
    # composing an idempotent operator with itself changes nothing
    s3 = sym3()
    A = sym3_sign_retraction()
    assert compose_operators(s3, A, A).op_table == A
    # a non-commuting pair of averaging operators is rejected
    ops = search_averaging_ops(s3)
    pair = next(((a, b) for a, b in itertools.combinations(ops, 2)
                 if any(a[b[x]] != b[a[x]] for x in range(6))), None)
    assert pair is not None
    with pytest.raises(TableError) as exc:
        compose_operators(s3, *pair)
    assert "do not commute" in str(exc.value)
    # non-averaging factors are rejected before anything else
    with pytest.raises(TableError):
        compose_operators(cyclic_group(2), (1, 1), (0, 1))


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
    with pytest.raises(TableError):
        search_averaging_ops(cyclic_group(7))
    assert len(search_averaging_ops(sym3())) == 14


def _exhaustive_search(t, pointed_only=False):
    """Reference: every one of the |G|^|G| maps, tested in index order."""
    n = len(t)
    e = t.identity()
    found = []
    for op in itertools.product(range(n), repeat=n):
        if pointed_only and op[e] != e:
            continue
        if all(t.mul(op[g], op[k]) == op[t.mul(op[g], k)] == op[t.mul(g, op[k])]
               for g, k in itertools.product(range(n), repeat=2)):
            found.append(op)
    return found


def test_search_returns_the_exhaustive_list_in_order():
    groups = [cyclic_group(n) for n in range(2, 7)] + [klein_four_group(), sym3()]
    for t in groups:
        for pointed in (False, True):
            assert search_averaging_ops(t, pointed_only=pointed) == \
                _exhaustive_search(t, pointed), (t.elements, pointed)


def test_search_beyond_the_default_cap():
    with pytest.raises(TableError, match="exceeds the search cap 6"):
        search_averaging_ops(cyclic_group(7))
    # counts found independently: Z7 has 8 and 2, Z8 has 41 and 14
    for n, plain, pointed in ((7, 8, 2), (8, 41, 14)):
        t = cyclic_group(n)
        ops = search_averaging_ops(t, max_size=n)
        pointed_ops = search_averaging_ops(t, pointed_only=True, max_size=n)
        assert (len(ops), len(pointed_ops)) == (plain, pointed)
        assert ops == sorted(ops) and pointed_ops == [op for op in ops if op[0] == 0]
        assert all(validate_averaging(t, op).ok for op in ops)


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
    entries.append(("associativity", bad is None, "" if bad is None else
                    f"fails at ({t.name(bad[0])}, {t.name(bad[1])}, {t.name(bad[2])})"))
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
    left, right = disemigroup_ops(z2s)
    assert left(0, 0) == 1   # 0 + A(0)
    assert right(1, 1) == 1  # A(1) + 1
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


def _triple(t, bad):
    return "" if bad is None else f"fails at ({', '.join(t.name(x) for x in bad)})"


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
        entries.append((name, bad is None, _triple(t, bad)))
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
    return (("pointed", True, ""), ("self-distributivity", bad is None, _triple(t, bad)),
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
    assert zs.element("-3") == -3 and zs.name(7) == "7"
    assert IntShiftGroup(0).is_pointed() and not zs.is_pointed()


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


def test_check_report_helpers():
    rep = CheckReport((("a", True, ""), ("b", False, "bad")))
    assert not rep.ok
    assert rep.lines() == ["a: ok", "b: FAIL bad"]
    assert rep.entry("b") == (False, "bad")
    with pytest.raises(KeyError):
        rep.entry("zz")
