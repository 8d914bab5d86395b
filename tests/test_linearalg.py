"""Group algebra and Lie structure-constant layer, all exact arithmetic."""

import functools
import itertools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from avgroups import linearalg
from avgroups.structures import (
    CheckFailed,
    TableError,
    _holds,
    cyclic_group,
    klein_four_group,
    load_group_file,
    search_averaging_ops,
    sym3,
    validate_averaging,
)
from avgroups.linearalg import (
    MAX_LIE_DIM,
    LieAlgebraSpec,
    _samples,
    check_antipode_averaging,
    check_averaging_algebra,
    check_averaging_lie,
    check_coalgebra_map,
    check_hopf_equivalence,
    check_leibniz,
    coproduct,
    counit,
    ga_add,
    ga_basis,
    ga_mul,
    ga_scale,
    leibniz_bracket,
    linear_extend,
    load_lie_file,
    load_operator_file,
    validate_lie,
)

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from avbench.workloads import _lie_inputs  # noqa: E402


def test_group_algebra_arithmetic():
    z3 = cyclic_group(3)
    assert ga_mul(ga_basis(1), ga_basis(2), z3) == ga_basis(0)
    a = ga_add(ga_basis(1), ga_basis(2))
    assert ga_mul(ga_basis(0), a, z3) == a
    assert ga_mul(a, ga_basis(1), z3) == ga_add(ga_basis(2), ga_basis(0))
    # coefficients cancel out of the support entirely
    assert ga_add(a, ga_scale(-1, a)) == {}
    assert ga_scale("2/3", ga_basis(1)) == {1: Fraction(2, 3)}
    with pytest.raises(TableError):
        ga_mul({5: Fraction(1)}, ga_basis(0), z3)
    # a right factor outside the carrier is refused with the left one inside
    with pytest.raises(TableError, match=r"^support index 5 outside the carrier$"):
        ga_mul(ga_basis(0), {5: Fraction(1)}, z3)


def test_lie_operator_rows_must_match_the_dimension():
    L = LieAlgebraSpec.from_brackets(2, {})
    with pytest.raises(TableError, match=r"^operator matrix must match the algebra dimension$"):
        check_averaging_lie(L, [[1, 0], [0, 1], [0, 0]])


def test_linear_extend():
    z2 = cyclic_group(2)
    P = linear_extend(z2, (1, 0))
    x = ga_add(ga_scale(2, ga_basis(0)), ga_scale(3, ga_basis(1)))
    assert P(x) == {0: Fraction(3), 1: Fraction(2)}
    assert P({}) == {}
    # explicit basis images work too
    Q = linear_extend(z2, [ga_add(ga_basis(0), ga_basis(1)), ga_basis(1)])
    assert Q(ga_basis(0)) == {0: Fraction(1), 1: Fraction(1)}
    with pytest.raises(TableError):
        linear_extend(z2, [ga_basis(0)])
    # explicit images stay in the carrier, as ga_mul's arguments do
    for stray in (5, -1):
        images = [{stray: 1}, ga_basis(1)]
        for check in (linear_extend, check_coalgebra_map, check_averaging_algebra):
            with pytest.raises(TableError, match=f"support index {stray} outside the carrier"):
                check(z2, images)


def test_explicit_images_must_all_be_coefficient_maps():
    z2 = cyclic_group(2)
    text = "each basis image must be an {index: coefficient} map"
    for images in ([{0: 1}, 1], [{0: 1}, [1]], [{0: 1}, (1,)], [{0: 1}, "1"], [{0: 1}, None]):
        for fn in (linear_extend, check_averaging_algebra, check_coalgebra_map):
            with pytest.raises(TableError) as exc:
                fn(z2, images)
            assert str(exc.value) == text, (fn.__name__, images)
    # the length is still checked first, and well-formed images still pass
    with pytest.raises(TableError, match="one basis image per carrier element"):
        linear_extend(z2, [{0: 1}, 1, 1])
    assert check_averaging_algebra(z2, [{1: 1}, {0: 1}]).ok


def test_averaging_algebra_check():
    z2 = cyclic_group(2)
    assert check_averaging_algebra(z2, (1, 0)).ok
    assert check_averaging_algebra(z2, (0, 1)).ok
    rep = check_averaging_algebra(z2, (1, 1))
    assert not rep.ok and "fails at (0, 0)" in rep.lines()[0]
    # the random spot checks are recorded alongside the basis verdict
    full = check_averaging_algebra(z2, (1, 0))
    assert [n for n, _, _ in full.entries] == [
        "averaging on basis pairs", "averaging on random combinations"]


def test_coproduct_and_counit():
    a = ga_add(ga_scale(2, ga_basis(0)), ga_basis(1))
    assert coproduct(a) == {(0, 0): Fraction(2), (1, 1): Fraction(1)}
    assert counit(a) == Fraction(3)
    assert coproduct({}) == {} and counit({}) == 0


def test_coalgebra_map_check():
    z3 = cyclic_group(3)
    # every set-map extension is a coalgebra map for the diagonal coproduct
    for op in itertools.product(range(3), repeat=3):
        assert check_coalgebra_map(z3, op).ok
    # spreading one basis vector over two breaks both compatibilities
    spread = [ga_add(ga_basis(0), ga_basis(1)), ga_basis(1), ga_basis(2)]
    rep = check_coalgebra_map(z3, spread)
    assert not rep.ok
    assert any("coproduct" in n and not ok for n, ok, _ in rep.entries)
    # scaling breaks the counit but a plain permutation does not
    assert check_coalgebra_map(z3, (1, 2, 0)).ok


def test_hopf_equivalence_agrees_everywhere():
    # the verdicts are those of the reports: the group law, then both algebra laws
    rng = random.Random(23)
    s3 = sym3()
    cases = [(g, op) for g in [cyclic_group(n) for n in range(2, 6)] + [klein_four_group()]
             for op in itertools.product(range(len(g)), repeat=len(g))]
    cases += [(s3, op) for op in search_averaging_ops(s3)]
    cases += [(s3, tuple(rng.randrange(6) for _ in range(6))) for _ in range(300)]
    # maps of S3 that keep A(g)A(h) = A(A(g)h) but not A(gA(h)), and the other way round
    cases += [(s3, op) for op in ((0, 0, 2, 2, 2, 0), (0, 1, 0, 1, 0, 1),
                                  (0, 0, 2, 2, 0, 2), (0, 1, 0, 1, 1, 0))]
    passing = 0
    for g, op in cases:
        pair = check_hopf_equivalence(g, op)
        assert pair == (validate_averaging(g, op).ok, check_averaging_algebra(g, op).ok
                        and check_coalgebra_map(g, op).ok), (g.elements, op)
        passing += pair[0]
    assert passing == 3 + 4 + 9 + 6 + 17 + 14 + 1
    assert len(cases) == 4 + 27 + 256 + 3125 + 256 + 14 + 300 + 4
    assert check_hopf_equivalence(cyclic_group(2), (1, 0)) == (True, True)
    assert check_hopf_equivalence(cyclic_group(2), (1, 1)) == (False, False)


def test_rows_and_pairs_give_one_verdict_on_every_set_map():
    # the averaging law read row by row, through b* = sum_h 2^h e_h, against
    # the law read basis pair by basis pair
    groups = [cyclic_group(n) for n in range(2, 7)] + [klein_four_group(), sym3()]
    for g, want in zip(groups, (3, 4, 9, 6, 24, 17, 14)):
        m, n, passing = g.mul_table, len(g), 0
        for op in itertools.product(range(n), repeat=n):
            P = linearalg._set_map(op)
            images = [P({i: 1}) for i in range(n)]
            verdict = _holds(linearalg._averaging_chunks(P, images, m)[0])
            assert _holds(linearalg._averaging_rows(P, images, m)) == verdict, (g.elements, op)
            passing += verdict
        assert passing == want, g.elements


def _passing_maps(g):
    return [op for op in itertools.product(range(len(g)), repeat=len(g))
            if validate_averaging(g, op).ok]


def test_a_seeded_break_on_the_algebra_side_raises(monkeypatch):
    coproduct_ = linearalg.coproduct
    monkeypatch.setattr(linearalg, "coproduct", lambda a: dict(list(coproduct_(a).items())[1:]))
    for g in (cyclic_group(4), klein_four_group()):
        for op in _passing_maps(g):
            with pytest.raises(RuntimeError, match="group True, algebra False"):
                check_hopf_equivalence(g, op)


def test_a_break_only_the_seeded_pairs_see_raises(monkeypatch):
    conv = linearalg._conv

    def broken(a, b, m):
        # exact on basis vectors; any other input loses a term of its product
        out = conv(a, b, m)
        basis = len(a) == len(b) == 1 and 1 == next(iter(a.values())) == next(iter(b.values()))
        return out if basis else dict(list(out.items())[1:])

    monkeypatch.setattr(linearalg, "_conv", broken)
    for g in (cyclic_group(4), klein_four_group()):
        # on a translation A(g) = cg every side moves by c alike, whatever _conv does
        ops = [op for op in _passing_maps(g) if len(set(op)) < len(op)]
        assert len(ops) == {"1": 5, "a": 13}[g.elements[1]]
        for op in ops:
            basis, seeded = check_averaging_algebra(g, op).entries
            assert basis == ("averaging on basis pairs", True, "") and not seeded[1]
            with pytest.raises(RuntimeError, match="group True, algebra False"):
                check_hopf_equivalence(g, op)


def test_antipode_averaging():
    rep = check_antipode_averaging(cyclic_group(2))
    assert rep.ok and rep.entries[0][0] == "S squared equals S"
    assert check_antipode_averaging(klein_four_group()).ok
    rep = check_antipode_averaging(cyclic_group(3))
    assert not rep.ok
    assert len(rep.entries) == 1 and "nothing to assert" in rep.entries[0][2]
    # a carrier with non-self-inverse elements mixed in also fails the hypothesis
    assert not check_antipode_averaging(sym3()).ok


def test_coalgebra_and_antipode_reports_keep_their_text():
    passed = (("coproduct compatibility on basis", True, ""),
              ("counit preservation on basis", True, ""),
              ("compatibility on random combinations", True, "20 samples, seed 1"))
    averaging = (("S squared equals S", True, ""),
                 ("averaging on basis pairs", True, ""),
                 ("averaging on random combinations", True, "100 pairs, seed 0"))
    for g in (cyclic_group(2), cyclic_group(3), klein_four_group(), sym3()):
        assert check_coalgebra_map(g, tuple(range(len(g)))).entries == passed
    assert check_antipode_averaging(cyclic_group(2)).entries == averaging
    assert check_antipode_averaging(klein_four_group()).entries == averaging
    assert check_antipode_averaging(cyclic_group(3)).entries == \
        (("S squared equals S", False, "fails at 1; nothing to assert"),)
    assert check_antipode_averaging(sym3()).entries == \
        (("S squared equals S", False, "fails at (123); nothing to assert"),)
    z3 = cyclic_group(3)
    rest = [ga_basis(1), ga_basis(2)]
    spread = [ga_add(ga_basis(0), ga_basis(1))] + rest
    assert check_coalgebra_map(z3, spread).entries == (
        ("coproduct compatibility on basis", False, "fails at 0"),
        ("counit preservation on basis", False, "fails at 0"))
    half = [ga_scale("1/2", ga_add(ga_basis(0), ga_basis(1)))] + rest
    assert check_coalgebra_map(z3, half).entries == (
        ("coproduct compatibility on basis", False, "fails at 0"),
        ("counit preservation on basis", True, ""))
    dropped = [ga_basis(0), {}, ga_basis(2)]
    assert check_coalgebra_map(z3, dropped).entries == (
        ("coproduct compatibility on basis", True, ""),
        ("counit preservation on basis", False, "fails at 1"))


SOLVABLE = LieAlgebraSpec.from_brackets(2, {(0, 1): {1: 1}})
PROJ_E1 = [[1, 0], [0, 0]]
PROJ_E2 = [[0, 0], [0, 1]]


def test_lie_spec_and_validation():
    assert validate_lie(SOLVABLE).ok
    # [e1, e2] = e2 as given, [e2, e1] = -e2 filled in, no zero constant kept
    assert SOLVABLE.brackets == (({}, {1: 1}), ({1: -1}, {}))
    # antisymmetry violation: the explicit empty mirror is kept as written
    skew = LieAlgebraSpec.from_brackets(2, {(0, 1): {1: 1}, (1, 0): {}})
    rep = validate_lie(skew)
    assert not rep.ok and not rep.entry("antisymmetry")[0]
    # Jacobi violation: [e1,e2]=e1, [e1,e3]=e3, [e2,e3]=0
    nojac = LieAlgebraSpec.from_brackets(3, {(0, 1): {0: 1}, (0, 2): {2: 1}})
    rep = validate_lie(nojac)
    assert rep.entry("antisymmetry")[0] and not rep.entry("Jacobi")[0]
    with pytest.raises(TableError):
        LieAlgebraSpec.from_brackets(0, {})
    # from_brackets is the one constructor: no dense cube is read
    with pytest.raises(TypeError):
        LieAlgebraSpec(2, [[[0, 0], [0, 1]], [[0, 0], [0, 0]]])
    # every index is an int in 0..dim-1: -1 must not read as the last one
    for bad in (-1, 2, 5, "1", 1.0, True, None):
        for brackets in ({(0, 1): {bad: 1}}, {(bad, 1): {0: 1}}, {(0, bad): {0: 1}}):
            with pytest.raises(TableError, match=r"basis index must be an int in 0\.\.1"):
                LieAlgebraSpec.from_brackets(2, brackets)
    # malformed shapes and oversized dimensions are typed errors too
    for brackets in ({(0, 1): 5}, {0: {1: 1}}, {(0, 1, 2): {1: 1}}, {(0,): {1: 1}},
                     [((0, 1), {1: 1})]):
        with pytest.raises(TableError):
            LieAlgebraSpec.from_brackets(2, brackets)
    assert LieAlgebraSpec.from_brackets(MAX_LIE_DIM, {}).dim == MAX_LIE_DIM
    with pytest.raises(TableError, match="exceeds the limit"):
        LieAlgebraSpec.from_brackets(MAX_LIE_DIM + 1, {})
    # a dimension is an integer: no float truncation, no bool, no raw ValueError
    for dim in (2.7, True, "x"):
        with pytest.raises(TableError, match="dimension must be an integer"):
            LieAlgebraSpec.from_brackets(dim, {})


def test_averaging_lie_examples():
    assert check_averaging_lie(SOLVABLE, PROJ_E1).ok
    rep = check_averaging_lie(SOLVABLE, PROJ_E2)
    assert not rep.ok and "fails at (e1, e2)" in rep.lines()[0]
    abelian = LieAlgebraSpec.from_brackets(3, {})
    rng = random.Random(4)
    for _ in range(50):
        M = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        assert check_averaging_lie(abelian, M).ok
    nojac = LieAlgebraSpec.from_brackets(3, {(0, 1): {0: 1}, (0, 2): {2: 1}})
    with pytest.raises(TableError):
        check_averaging_lie(nojac, [[0] * 3] * 3)


def test_leibniz_bracket_and_check():
    br = leibniz_bracket(SOLVABLE, PROJ_E1)
    assert br({0: 1}, {1: 1}) == {1: 1}
    assert br({1: 1}, {0: 1}) == {}
    assert check_leibniz(SOLVABLE, PROJ_E1).ok
    # every pair that passes the averaging check passes Leibniz
    abelian = LieAlgebraSpec.from_brackets(2, {})
    pool = [
        (SOLVABLE, PROJ_E1),
        (SOLVABLE, [[0, 0], [0, 0]]),
        (SOLVABLE, [[1, 0], [0, 1]]),
        (SOLVABLE, [[2, 0], [0, 2]]),
        (abelian, [[1, 2], [3, 4]]),
    ]
    for L, M in pool:
        assert check_averaging_lie(L, M).ok
        assert check_leibniz(L, M).ok


def test_file_loaders(tmp_path):
    lie = tmp_path / "lie.json"
    lie.write_text(json.dumps(
        {"dim": 2, "brackets": [{"i": 1, "j": 2, "coeffs": {"2": "1"}}]}))
    L = load_lie_file(str(lie))
    assert L.brackets == SOLVABLE.brackets
    op = tmp_path / "op.json"
    op.write_text(json.dumps({"dim": 2, "matrix": ["1", "0", "0", "0"]}))
    M = load_operator_file(str(op))
    assert M == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(0)))
    nested = load_operator_file({"dim": 2, "matrix": [["1/2", "0"], ["0", "1"]]})
    assert nested[0][0] == Fraction(1, 2)
    with pytest.raises(TableError):
        load_operator_file({"dim": 2, "matrix": ["1", "0"]})
    with pytest.raises(TableError):
        load_operator_file({"dim": 2, "matrix": [0.5, 0, 0, 0]})
    with pytest.raises(TableError):
        load_lie_file({"dim": 2, "brackets": [{"i": 5, "j": 1, "coeffs": {}}]})
    with pytest.raises(TableError) as exc:
        load_lie_file({"dim": 2, "brackets": [{"i": 1, "j": 2, "coeffs": {"3": "1"}}]})
    assert str(exc.value) == ("coefficient index out of range in "
                              "{'i': 1, 'j': 2, 'coeffs': {'3': '1'}}")
    with pytest.raises(TableError):
        load_lie_file({"dim": 2, "brackets": [
            {"i": 1, "j": 2, "coeffs": {"2": "1"}},
            {"i": 1, "j": 2, "coeffs": {"2": "2"}}]})
    # explicit mirrors are honored, missing ones are filled antisymmetrically
    both = load_lie_file({"dim": 2, "brackets": [
        {"i": 1, "j": 2, "coeffs": {"2": "1"}},
        {"i": 2, "j": 1, "coeffs": {"2": "-1"}}]})
    assert both.brackets == SOLVABLE.brackets


def test_loaders_reject_malformed_shapes():
    # every wire-shape mistake must surface as TableError, never a raw
    # TypeError/ValueError, so the CLI can map it to a clean usage exit
    with pytest.raises(TableError):
        load_lie_file({"dim": 2, "brackets": {"[1,2]": {"2": "1"}}})
    with pytest.raises(TableError):
        load_lie_file({"dim": 2, "brackets": [["i", "j"]]})
    with pytest.raises(TableError):
        load_lie_file({"dim": 2, "brackets": [{"j": 2, "coeffs": {}}]})
    with pytest.raises(TableError):
        load_lie_file({"dim": "two", "brackets": []})
    with pytest.raises(TableError):
        load_lie_file({"dim": 2, "brackets": [
            {"i": 1, "j": 2, "coeffs": {"x": "1"}}]})
    with pytest.raises(TableError):
        load_lie_file({"dim": 2, "brackets": [
            {"i": 1, "j": 2, "coeffs": {"2": "one"}}]})
    with pytest.raises(TableError):
        load_operator_file({"dim": 2, "matrix": "1 0 0 0"})
    with pytest.raises(TableError):
        load_operator_file({"dim": 2, "matrix": [["1", "0"], "bad row"]})
    with pytest.raises(TableError):
        load_operator_file({"dim": 2, "matrix": [["1", "0"], ["0", "x"]]})
    with pytest.raises(TableError):
        load_operator_file({"dim": True, "matrix": []})
    # JSON booleans are not rationals, as they are not group-table indices
    with pytest.raises(TableError, match="not a rational value: True"):
        load_operator_file({"dim": 2, "matrix": [True, False, False, True]})
    with pytest.raises(TableError, match="not a rational value: True"):
        load_lie_file({"dim": 2, "brackets": [{"i": 1, "j": 2, "coeffs": {"2": True}}]})
    for coeffs in (5, None, [], "x"):
        with pytest.raises(TableError):
            load_lie_file({"dim": 2, "brackets": [{"i": 1, "j": 2, "coeffs": coeffs}]})
    # a group file's carrier that is no list is named as such, not blamed on 'mul'
    for elements in (5, None, "01", {"0": 0}):
        with pytest.raises(TableError, match="^'elements' must be a list of element names$"):
            load_group_file({"elements": elements, "mul": [[0]]})


# --- reference copies: dense Lie arithmetic on a cube built here from the
# --- bracket data, and the group algebra summed from Fraction(0), as the
# --- checks were first written ---------------------------------------------

def _ref_cube(d, brackets):
    """c[i][j][k] of zero-based bracket data; an absent mirror is antisymmetric."""
    c = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for (i, j), coeffs in brackets.items():
        for k, v in coeffs.items():
            c[i][j][k] = Fraction(v)
            if (j, i) not in brackets:
                c[j][i][k] = -Fraction(v)
    return c


@functools.lru_cache(maxsize=None)
def _ref_basis(d, i):
    return tuple(Fraction(int(j == i)) for j in range(d))


def _ref_bracket(c, x, y):
    d = len(c)
    out = [Fraction(0)] * d
    for i in range(d):
        if x[i] == 0:
            continue
        for j in range(d):
            if y[j] == 0:
                continue
            xy, cij = x[i] * y[j], c[i][j]
            for k in range(d):
                if cij[k]:
                    out[k] += xy * cij[k]
    return tuple(out)


def _ref_mat_apply(M, v):
    return tuple(sum((M[i][j] * v[j] for j in range(len(v)) if M[i][j] and v[j]), Fraction(0))
                 for i in range(len(v)))


def _ref_validate_lie(c):
    d = len(c)
    bad = next(((i, j) for i, j, k in itertools.product(range(d), repeat=3)
                if c[i][j][k] != -c[j][i][k]), None)
    entries = [("antisymmetry", bad is None,
                "" if bad is None else f"fails at (e{bad[0]+1}, e{bad[1]+1})")]
    bad = None
    for i, j, k in itertools.product(range(d), repeat=3):
        ei, ej, ek = _ref_basis(d, i), _ref_basis(d, j), _ref_basis(d, k)
        total = [a + b + e for a, b, e in zip(
            _ref_bracket(c, ei, _ref_bracket(c, ej, ek)),
            _ref_bracket(c, ej, _ref_bracket(c, ek, ei)),
            _ref_bracket(c, ek, _ref_bracket(c, ei, ej)))]
        if any(total):
            bad = (i, j, k)
            break
    entries.append(("Jacobi", bad is None,
                    "" if bad is None else f"fails at (e{bad[0]+1}, e{bad[1]+1}, e{bad[2]+1})"))
    return tuple(entries)


def _ref_averaging_lie(c, M):
    d = len(c)
    bad = None
    for i, j in itertools.product(range(d), repeat=2):
        ei, ej = _ref_basis(d, i), _ref_basis(d, j)
        Aei, Aej = _ref_mat_apply(M, ei), _ref_mat_apply(M, ej)
        lhs = _ref_bracket(c, Aei, Aej)
        if (lhs != _ref_mat_apply(M, _ref_bracket(c, Aei, ej))
                or lhs != _ref_mat_apply(M, _ref_bracket(c, ei, Aej))):
            bad = (i, j)
            break
    return (("averaging on basis pairs", bad is None,
             "" if bad is None else f"fails at (e{bad[0]+1}, e{bad[1]+1})"),)


def _ref_leibniz(c, M):
    d = len(c)

    def br(x, y):
        return _ref_bracket(c, _ref_mat_apply(M, x), y)

    bad = None
    for i, j, k in itertools.product(range(d), repeat=3):
        x, y, z = _ref_basis(d, i), _ref_basis(d, j), _ref_basis(d, k)
        rhs = tuple(a + b for a, b in zip(br(br(x, y), z), br(y, br(x, z))))
        if br(x, br(y, z)) != rhs:
            bad = (i, j, k)
            break
    return (("left Leibniz on basis triples", bad is None,
             "" if bad is None else f"fails at (e{bad[0]+1}, e{bad[1]+1}, e{bad[2]+1})"),)


def _lie_cases():
    """(dim, brackets, matrices) triples: the benchmark's algebras, fixed
    examples, and seeded random ones."""
    def eye(d):
        return [[int(i == j) for j in range(d)] for i in range(d)]

    def proj(d):
        return [[int(i == j == 0) for j in range(d)] for i in range(d)]

    def shift(d):
        return [[int(j == i + 1) for j in range(d)] for i in range(d)]

    def random_matrix(d):
        return [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(d)] for _ in range(d)]

    rng = random.Random(11)
    cases = [(dim, brackets, [M for _, M in mats]) for _, dim, brackets, mats in _lie_inputs()]
    specs = [
        (3, {}),
        (3, {(0, 1): {2: 1}, (2, 0): {0: 2}, (2, 1): {1: -2}}),
        (6, {(0, i): {i + 1: 1} for i in range(1, 5)}),
        (2, {(0, 1): {1: 1}}),
        (2, {(0, 1): {1: 1}, (1, 0): {}}),
        (3, {(0, 1): {0: 1}, (0, 2): {2: 1}}),
    ]
    # random antisymmetric constants: a few satisfy Jacobi, most do not
    for _ in range(12):
        d = rng.randint(2, 4)
        specs.append((d, {
            (i, j): {k: rng.choice((0, 0, 1, -1, 2, "1/2")) for k in range(d)}
            for i in range(d) for j in range(i + 1, d) if rng.random() < 0.5}))
    for d, brackets in specs:
        mats = [eye(d), proj(d), shift(d), [[0] * d for _ in range(d)]]
        cases.append((d, brackets, mats + [random_matrix(d) for _ in range(4)]))
    # 200 more, five matrices each: half random constants, half e1 acting on
    # the abelian ideal spanned by the rest by a random matrix, which always
    # satisfies Jacobi, with a random mirror written out now and then
    for n in range(200):
        d = rng.randint(2, 4)
        if n % 2:
            brackets = {(i, j): {k: rng.choice((0, 0, 1, -1, "1/2")) for k in range(d)}
                        for i in range(d) for j in range(i + 1, d) if rng.random() < 0.5}
        else:
            brackets = {(0, i): {k: rng.choice((0, 0, 1, -1, 2)) for k in range(1, d)}
                        for i in range(1, d)}
        if brackets and rng.random() < 0.2:
            (i, j), coeffs = rng.choice(sorted(brackets.items()))
            brackets[j, i] = {k: -Fraction(v) for k, v in coeffs.items()}
        mats = [rng.choice((eye, proj, shift))(d)] + [random_matrix(d) for _ in range(4)]
        cases.append((d, brackets, mats))
    return cases


def _outcome(fn, *args):
    try:
        return "report", fn(*args).entries
    except CheckFailed as exc:
        return "failed", str(exc)


def _lines(entries):
    return [f"{law}: {'ok' if ok else 'FAIL'}" + (f" {detail}" if detail else "")
            for law, ok, detail in entries]


def test_sparse_lie_layer_matches_the_dense_reference():
    rng = random.Random(5)
    seen, checks = set(), 0
    for d, brackets, mats in _lie_cases():
        L, c = LieAlgebraSpec.from_brackets(d, brackets), _ref_cube(d, brackets)
        want = _ref_validate_lie(c)
        assert validate_lie(L).entries == want
        assert validate_lie(L) is validate_lie(L)  # made once per spec
        valid = all(ok for _, ok, _ in want)
        for M in mats:
            matrix = tuple(tuple(Fraction(v) for v in row) for row in M)
            for check, ref in ((check_averaging_lie, _ref_averaging_lie),
                               (check_leibniz, _ref_leibniz)):
                got = _outcome(check, L, M)
                assert got == (("report", ref(c, matrix)) if valid
                               else ("failed", "; ".join(_lines(want))))
                seen.add((check.__name__, got[0], got[0] == "report" and got[1][0][1]))
                checks += 1
            # the derived bracket on sparse vectors, against [A x, y] on dense ones
            br = leibniz_bracket(L, M)
            x = tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(d))
            y = tuple(Fraction(rng.randint(-2, 2)) for _ in range(d))
            got = br({i: v for i, v in enumerate(x) if v}, {i: v for i, v in enumerate(y) if v})
            want_br = _ref_bracket(c, _ref_mat_apply(matrix, x), y)
            assert got == {k: v for k, v in enumerate(want_br) if v}
            assert all(type(v) is Fraction for v in got.values())
    # every outcome kind occurs: invalid spec, passing and failing reports
    assert len(seen) == 6, seen
    assert checks >= 2 * 200 * 5


def _ref_ga_mul(a, b, g):
    out = {}
    for i, ci in a.items():
        for j, cj in b.items():
            k = g.mul(i, j)
            out[k] = out.get(k, Fraction(0)) + ci * cj
    return {k: v for k, v in out.items() if v != 0}


def _ref_extend(images):
    def apply(a):
        out = {}
        for i, c in a.items():
            for k, v in images[i].items():
                out[k] = out.get(k, Fraction(0)) + c * v
        return {k: v for k, v in out.items() if v != 0}
    return apply


def test_group_algebra_arithmetic_matches_the_reference():
    rng = random.Random(9)
    for g in (cyclic_group(4), klein_four_group(), sym3()):
        n = len(g)
        elements = [{rng.randrange(n): Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                     for _ in range(rng.randint(0, 4))} for _ in range(30)]
        elements = [{k: v for k, v in a.items() if v} for a in elements]
        op = [rng.randrange(n) for _ in range(n)]
        spread = [{rng.randrange(n): Fraction(rng.randint(-2, 2)) for _ in range(2)}
                  for _ in range(n)]
        P, Q = linear_extend(g, op), linear_extend(g, spread)
        P_ref = _ref_extend([{k: Fraction(1)} for k in op])
        Q_ref = _ref_extend([{k: v for k, v in img.items() if v} for img in spread])
        for a, b in zip(elements, reversed(elements)):
            assert ga_mul(a, b, g) == _ref_ga_mul(a, b, g)
            assert P(a) == P_ref(a) and Q(a) == Q_ref(a)
            assert all(type(v) is Fraction for v in {**P(a), **Q(a), **ga_mul(a, b, g)}.values())


def test_int_coefficients_stay_ints_and_mix_exactly_with_fractions():
    rng = random.Random(17)
    for g in (cyclic_group(4), klein_four_group(), sym3()):
        n = len(g)
        for mixed in (False, True):
            def coeff(lo, hi):
                c = rng.randint(lo, hi)
                return Fraction(c, rng.randint(1, 3)) if mixed and rng.random() < 0.5 else c

            elements = [{rng.randrange(n): coeff(-3, 3) for _ in range(rng.randint(0, 4))}
                         for _ in range(30)]
            elements = [{k: v for k, v in a.items() if v} for a in elements]
            op = [rng.randrange(n) for _ in range(n)]
            spread = [{rng.randrange(n): coeff(-2, 2) for _ in range(2)} for _ in range(n)]
            P, Q = linear_extend(g, op), linear_extend(g, spread)
            P_ref = _ref_extend([{k: Fraction(1)} for k in op])
            Q_ref = _ref_extend([{k: Fraction(v) for k, v in img.items() if v} for img in spread])
            for a, b in zip(elements, reversed(elements)):
                fa, fb = ({k: Fraction(v) for k, v in x.items()} for x in (a, b))
                assert ga_mul(a, b, g) == _ref_ga_mul(fa, fb, g)
                assert P(a) == P_ref(fa) and Q(a) == Q_ref(fa)
                assert counit(a) == sum(fa.values(), Fraction(0))
                if not mixed:
                    outs = [ga_mul(a, b, g), P(a), Q(a), coproduct(a), ga_scale(2, a)]
                    assert all(type(v) is int for out in outs for v in out.values())
                    assert type(counit(a)) is int and type(counit(Q(a))) is int
    assert type(ga_basis(3)[3]) is int


def test_lie_values_written_as_ints_or_fractions_give_identical_reports():
    half = ("half", 3, {(0, 1): {1: Fraction(1, 2)}, (0, 2): {2: 1}},
            (("P", [[1, 0, 0], [0, 0, 0], [0, 0, 0]]), ("H", [[0, 0, 0], [0, 1, 0], [0, 0, 1]]),
             ("Q", [[Fraction(1, 2), 0, 0], [0, 1, 0], [0, 0, 0]])))
    for name, dim, brackets, mats in _lie_inputs() + (half,):
        as_fractions = {pair: {k: Fraction(v) for k, v in cell.items()}
                        for pair, cell in brackets.items()}
        L, F = (LieAlgebraSpec.from_brackets(dim, b) for b in (brackets, as_fractions))
        # integer values stay ints; a Fraction stays where one is written
        assert all(type(v) is int or v.denominator > 1
                   for row in L.brackets for cell in row for v in cell.values())
        assert validate_lie(L).entries == validate_lie(F).entries
        for mname, M in mats:
            MF = [[Fraction(v) for v in row] for row in M]
            for check in (check_averaging_lie, check_leibniz):
                want = check(F, MF).entries
                assert check(L, M).entries == want == check(L, MF).entries == \
                    check(F, M).entries, (name, mname, check.__name__)


def _fresh_draws(n, seed, count, per_sample):
    """The samples of random.Random(seed), drawn here without the module's cache."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        sample = []
        for _ in range(per_sample):
            x = {}
            for _ in range(rng.randint(1, 3)):
                x[rng.randrange(n)] = Fraction(rng.randint(-3, 3))
            sample.append({k: v for k, v in x.items() if v})
        out.append(tuple(sample))
    return tuple(out)


def _ref_averaging_algebra(g, P, spot_checks=100, seed=0):
    n = len(g)

    def holds(a, b):
        lhs = _ref_ga_mul(P(a), P(b), g)
        return lhs == P(_ref_ga_mul(P(a), b, g)) and lhs == P(_ref_ga_mul(a, P(b), g))

    bad = next(((i, j) for i, j in itertools.product(range(n), repeat=2)
                if not holds({i: Fraction(1)}, {j: Fraction(1)})), None)
    entries = [("averaging on basis pairs", bad is None,
                "" if bad is None else f"fails at ({g.name(bad[0])}, {g.name(bad[1])})")]
    if bad is None:
        spot_bad = next((t for t, (a, b) in enumerate(_fresh_draws(n, seed, spot_checks, 2))
                         if not holds(a, b)), None)
        entries.append(("averaging on random combinations", spot_bad is None,
                        f"{spot_checks} pairs, seed {seed}" if spot_bad is None
                        else f"fails at sample {spot_bad}, seed {seed}"))
    return tuple(entries)


def test_averaging_algebra_reports_match_the_reference():
    rng = random.Random(13)
    passing = {True: 0, False: 0}  # by whether the operator is a set map
    for g in (cyclic_group(2), cyclic_group(3), klein_four_group(), cyclic_group(4)):
        n = len(g)
        ops = [list(op) for op in itertools.product(range(n), repeat=n)]
        # explicit images: scaled and spread basis vectors
        ops += [[{rng.randrange(n): rng.choice((1, 1, -1, 2)) for _ in range(rng.randint(1, 2))}
                 for _ in range(n)] for _ in range(40)]
        for op in ops:
            P_ref = _ref_extend([{k: Fraction(1)} for k in op] if isinstance(op[0], int)
                                else [{k: Fraction(v) for k, v in img.items()} for img in op])
            rep = check_averaging_algebra(g, op)
            assert rep.entries == _ref_averaging_algebra(g, P_ref), op
            passing[isinstance(op[0], int)] += rep.ok
    assert passing[True] == 3 + 4 + 17 + 9 and passing[False] > 0


def test_spot_check_samples_are_drawn_once_and_never_change():
    _samples.cache_clear()
    g = cyclic_group(4)
    # the mean over the carrier: averaging on the algebra, but no coalgebra map
    mean = [ga_scale("1/4", {h: 1 for h in range(4)})] * 4

    def reports(op):
        return check_averaging_algebra(g, op).entries, check_coalgebra_map(g, op).entries

    first = reports(mean)
    assert first == (
        (("averaging on basis pairs", True, ""),
         ("averaging on random combinations", True, "100 pairs, seed 0")),
        (("coproduct compatibility on basis", False, "fails at 0"),
         ("counit preservation on basis", True, "")))
    passing = reports((0, 0, 0, 0))
    assert all(ok for entries in passing for _, ok, _ in entries)
    assert passing[1][-1] == ("compatibility on random combinations", True, "20 samples, seed 1")
    assert reports(mean) == first
    assert _samples(4, 0, 100, 2) == _fresh_draws(4, 0, 100, 2)
    assert _samples(4, 1, 20, 1) == _fresh_draws(4, 1, 20, 1)
    assert _samples.cache_info().misses == 2
