"""The tabulated failing-witness kernel against the per-tuple kernel it replaced.

`_ref_first_failure` and `_ref_law` copy the earlier kernel, which called a
predicate once per index tuple in itertools.product order.  Each reference
check below states its law in that predicate form, as the library did
before its laws became tabulated sides; the (law, ok, detail) entries and
the error texts must be identical.
"""

import itertools
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from avgroups.structures import (
    AveragingGroupHandle,
    FiniteGroupTable,
    TableError,
    as_operator,
    cyclic_group,
    idempotent_endo_operator,
    klein_four_group,
    search_averaging_ops,
    sym3,
    validate_averaging,
    validate_group,
)
from avgroups.linearalg import (
    LieAlgebraSpec,
    _apply,
    _bilinear,
    _columns,
    _combine,
    _conv,
    _samples,
    as_matrix,
    check_antipode_averaging,
    check_averaging_algebra,
    check_averaging_lie,
    check_coalgebra_map,
    check_hopf_equivalence,
    check_leibniz,
    coproduct,
    counit,
    ga_basis,
    leibniz_bracket,
    linear_extend,
    validate_lie,
)

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from avbench.workloads import _lie_inputs  # noqa: E402


def _ref_first_failure(holds, n, arity):
    for args in itertools.product(range(n), repeat=arity):
        if not holds(*args):
            return args
    return None


def _ref_law(law, holds, n, arity, names):
    bad = _ref_first_failure(holds, n, arity)
    if bad is None:
        return law, True, ""
    shown = ", ".join(names(i) for i in bad)
    return law, False, f"fails at {shown}" if arity == 1 else f"fails at ({shown})"


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except TableError as exc:
        return "error", str(exc)


def _z2_cubed():
    elems = list(itertools.product(range(2), repeat=3))
    mul = [[elems.index(tuple((x + y) % 2 for x, y in zip(p, q))) for q in elems]
           for p in elems]
    return FiniteGroupTable(["".join(map(str, p)) for p in elems], mul)


GROUPS = [cyclic_group(n) for n in range(1, 7)] + [klein_four_group(), sym3(), _z2_cubed()]


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


# --- structures --------------------------------------------------------------

def _ref_validate_group(t):
    try:
        e = t.identity()
    except TableError as exc:
        return (("identity", False, str(exc)),)
    entries = [("identity", True, f"inferred {t.name(e)!r}")]
    try:
        t.inverses()
        entries.append(("inverses", True, ""))
    except TableError as exc:
        entries.append(("inverses", False, str(exc)))
    m = t.mul_table
    entries.append(_ref_law("associativity", lambda a, b, c: m[m[a][b]][c] == m[a][m[b][c]],
                            len(t), 3, t.name))
    return tuple(entries)


def _ref_validate_averaging(t, op):
    op = as_operator(t, op)
    m = t.mul_table

    def holds(g, h):
        lhs = m[op[g]][op[h]]
        return lhs == op[m[op[g]][h]] and lhs == op[m[g][op[h]]]

    return (_ref_law("averaging", holds, len(t), 2, t.name),)


def test_validate_group_matches_the_per_tuple_kernel():
    tables = _random_tables(random.Random(15), 240) + GROUPS
    failing = 0
    for t in tables:
        entries = validate_group(t).entries
        assert entries == _ref_validate_group(t)
        failing += entries[-1][0] == "associativity" and not entries[-1][1]
    assert failing > 150


def test_validate_averaging_matches_the_per_tuple_kernel():
    rng = random.Random(16)
    passing = failing = 0
    for t in GROUPS + _random_tables(random.Random(17), 40):
        n = len(t)
        maps = [[rng.randrange(n) for _ in range(n)] for _ in range(30)]
        if n <= 6 and t in GROUPS:
            maps += search_averaging_ops(t)
        for op in maps:
            entries = validate_averaging(t, op).entries
            assert entries == _ref_validate_averaging(t, op), (t.elements, op)
            passing += entries[0][1]
            failing += not entries[0][1]
    assert passing > 50 and failing > 500


def _ref_idempotent_endo(t, phi):
    phi = as_operator(t, phi)
    for law, holds, arity in (
            ("not a homomorphism", lambda a, b: phi[t.mul(a, b)] == t.mul(phi[a], phi[b]), 2),
            ("not idempotent", lambda a: phi[phi[a]] == phi[a], 1)):
        _, ok, detail = _ref_law(law, holds, len(t), arity, t.name)
        if not ok:
            raise TableError(f"{law}: {detail}")
    return AveragingGroupHandle(t, phi)


def _handle_outcome(fn, *args):
    kind, value = _outcome(fn, *args)
    return (kind, value.op_table) if kind == "value" else (kind, value)


def test_constructor_error_texts_match_the_per_tuple_kernel():
    rng = random.Random(18)
    errors = set()
    for t in GROUPS:
        n = len(t)
        endos = [[rng.randrange(n) for _ in range(n)] for _ in range(40)]
        for phi in endos:
            want = _handle_outcome(_ref_idempotent_endo, t, phi)
            assert _handle_outcome(idempotent_endo_operator, t, phi) == want
            if want[0] == "error":
                errors.add(want[1].split(":")[0])
    assert errors == {"not a homomorphism", "not idempotent"}


# --- linearalg ---------------------------------------------------------------

def _ref_averaging_algebra(g, A):
    P = linear_extend(g, A)
    n, m = len(g), g.mul_table

    def holds(a, b):
        pa, pb = P(a), P(b)
        lhs = _conv(pa, pb, m)
        return lhs == P(_conv(pa, b, m)) and lhs == P(_conv(a, pb, m))

    entries = [_ref_law("averaging on basis pairs",
                        lambda i, j: holds(ga_basis(i), ga_basis(j)), n, 2, g.name)]
    if entries[0][1]:
        samples = _samples(n, 0, 100, 2)
        law, ok, detail = _ref_law("averaging on random combinations",
                                   lambda t: holds(*samples[t]), 100, 1,
                                   lambda t: f"sample {t}, seed 0")
        entries.append((law, ok, detail if not ok else "100 pairs, seed 0"))
    return tuple(entries)


def _ref_coalgebra_map(g, A):
    P = linear_extend(g, A)
    n = len(g)
    images = [P(ga_basis(i)) for i in range(n)]

    def tensor_P(t):
        return _combine((c, {(a, b): x * y for a, x in images[i].items()
                             for b, y in images[j].items()}) for (i, j), c in t.items())

    def holds(x):
        return coproduct(P(x)) == tensor_P(coproduct(x)) and counit(P(x)) == counit(x)

    entries = [
        _ref_law("coproduct compatibility on basis",
                 lambda i: coproduct(P(ga_basis(i))) == tensor_P(coproduct(ga_basis(i))),
                 n, 1, g.name),
        _ref_law("counit preservation on basis",
                 lambda i: counit(P(ga_basis(i))) == counit(ga_basis(i)), n, 1, g.name),
    ]
    if all(ok for _, ok, _ in entries):
        samples = _samples(n, 1, 20, 1)
        law, ok, detail = _ref_law("compatibility on random combinations",
                                   lambda t: holds(*samples[t]), 20, 1,
                                   lambda t: f"sample {t}, seed 1")
        entries.append((law, ok, detail if not ok else "20 samples, seed 1"))
    return tuple(entries)


def _ref_antipode(g):
    inv = g.inverses()
    law, ok, detail = _ref_law("S squared equals S", lambda x: inv[inv[x]] == inv[x],
                               len(g), 1, g.name)
    if not ok:
        return ((law, False, f"{detail}; nothing to assert"),)
    return ((law, True, ""),) + _ref_averaging_algebra(g, inv)


def test_antipode_reports_match_the_per_tuple_kernel():
    asserted = 0
    for g in GROUPS:
        entries = check_antipode_averaging(g).entries
        assert entries == _ref_antipode(g)
        asserted += len(entries) > 1
    assert asserted == 4  # Z1, Z2, K4 and Z2^3: every element is self-inverse


def test_group_algebra_reports_match_the_per_tuple_kernel():
    rng = random.Random(19)
    seen = set()
    for g in (cyclic_group(3), klein_four_group(), sym3()):
        n = len(g)
        ops = [[rng.randrange(n) for _ in range(n)] for _ in range(25)]
        ops += [[{rng.randrange(n): rng.choice((1, -1, 2, Fraction(1, 2)))
                  for _ in range(rng.randint(1, 2))} for _ in range(n)] for _ in range(25)]
        # spot checks that fail: averaging on the basis, but not a set map
        ops += [[{g.identity(): Fraction(1, n)} for _ in range(n)], [{} for _ in range(n)]]
        for op in ops:
            avg = check_averaging_algebra(g, op).entries
            coalg = check_coalgebra_map(g, op).entries
            assert avg == _ref_averaging_algebra(g, op), op
            assert coalg == _ref_coalgebra_map(g, op), op
            if isinstance(op[0], int):
                verdict = _ref_validate_averaging(g, op)[0][1]
                assert check_hopf_equivalence(g, op) == (verdict, verdict)
            seen.update((law, ok) for law, ok, _ in avg + coalg)
    assert ("averaging on basis pairs", False) in seen
    assert ("compatibility on random combinations", True) in seen
    assert ("coproduct compatibility on basis", False) in seen


def _ref_validate_lie(L):
    d, sc = L.dim, L.brackets
    basis = [{i: Fraction(1)} for i in range(d)]

    def jacobi_holds(i, j, k):
        return not _combine((1, _bilinear(sc, basis[a], sc[b][c]))
                            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)))

    e = lambda i: f"e{i + 1}"
    return (
        _ref_law("antisymmetry", lambda i, j: sc[i][j] == {k: -v for k, v in sc[j][i].items()},
                 d, 2, e),
        _ref_law("Jacobi", jacobi_holds, d, 3, e),
    )


def _ref_averaging_lie(L, M):
    sc, cols = L.brackets, _columns(as_matrix(L.dim, M))
    basis = [{i: Fraction(1)} for i in range(L.dim)]

    def holds(i, j):
        lhs = _bilinear(sc, cols[i], cols[j])
        return (lhs == _apply(cols, _bilinear(sc, cols[i], basis[j]))
                and lhs == _apply(cols, _bilinear(sc, basis[i], cols[j])))

    return (_ref_law("averaging on basis pairs", holds, L.dim, 2, lambda i: f"e{i + 1}"),)


def _ref_leibniz(L, M):
    br, d = leibniz_bracket(L, M), L.dim
    basis = [{i: Fraction(1)} for i in range(d)]
    D = [[br(basis[a], basis[b]) for b in range(d)] for a in range(d)]

    def holds(i, j, k):
        return _bilinear(D, basis[i], D[j][k]) == _combine(
            ((1, _bilinear(D, D[i][j], basis[k])), (1, _bilinear(D, basis[j], D[i][k]))))

    return (_ref_law("left Leibniz on basis triples", holds, d, 3, lambda i: f"e{i + 1}"),)


def test_lie_reports_match_the_per_tuple_kernel():
    rng = random.Random(20)
    failing = set()
    for _, dim, brackets, mats in _lie_inputs():
        L = LieAlgebraSpec.from_brackets(dim, brackets)
        assert validate_lie(L).entries == _ref_validate_lie(L)
        randoms = [[[rng.choice((0, 0, 1, -1, 2)) for _ in range(dim)] for _ in range(dim)]
                   for _ in range(6)]
        for M in [M for _, M in mats] + randoms:
            for check, ref in ((check_averaging_lie, _ref_averaging_lie),
                               (check_leibniz, _ref_leibniz)):
                entries = check(L, M).entries
                assert entries == ref(L, M), (dim, M)
                if not entries[0][1]:
                    failing.add(check.__name__)
    assert failing == {"check_averaging_lie", "check_leibniz"}
    skew = LieAlgebraSpec.from_brackets(2, {(0, 1): {1: 1}, (1, 0): {}})
    nojac = LieAlgebraSpec.from_brackets(3, {(0, 1): {0: 1}, (0, 2): {2: 1}})
    for L, text in ((skew, "antisymmetry: FAIL fails at (e1, e2)"),
                    (nojac, "Jacobi: FAIL fails at (e1, e2, e3)")):
        assert validate_lie(L).entries == _ref_validate_lie(L)
        assert text in validate_lie(L).lines()
        for check in (check_averaging_lie, check_leibniz):
            with pytest.raises(TableError, match=re.escape(text)):
                check(L, [[0] * L.dim] * L.dim)
