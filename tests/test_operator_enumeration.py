"""Averaging operators listed from subgroups and double cosets, checked
against the backtracking search they replaced and against the structure
theorem they rest on."""

import pytest

from avgroups.structures import (
    CheckFailed,
    FiniteGroupTable,
    cyclic_group,
    klein_four_group,
    search_averaging_ops,
    sym3,
    validate_averaging,
    validate_group,
)


def _backtracking_search(t, pointed_only=False):
    """Reference: assign op[0], op[1], ... in turn, each value in increasing
    order, and abandon a partial table as soon as a pair (g, h) breaks the
    averaging law once op[g], op[h], op[A(g)h] and op[gA(h)] are assigned.
    Every complete table is confirmed, and the hits come in lexicographic
    order."""
    n, e, m = len(t), t.identity(), t.mul_table
    op, found = [0] * n, []

    def breaks(g):
        # the pairs decided by assigning op[g]: all their indices are <= g
        # and one of them is g, so each pair is checked exactly once
        for a in range(g + 1):
            for b in range(g + 1):
                u, v = m[op[a]][b], m[a][op[b]]
                if u <= g and v <= g and g in (a, b, u, v):
                    lhs = m[op[a]][op[b]]
                    if lhs != op[u] or lhs != op[v]:
                        return True
        return False

    def extend(g):
        if g == n:
            if validate_averaging(t, op).ok:
                found.append(tuple(op))
            return
        for value in ((e,) if pointed_only and g == e else range(n)):
            op[g] = value
            if not breaks(g):
                extend(g + 1)

    extend(0)
    return found


def permutation_group(gens):
    """The closure of `gens` (tuples mapping i to p[i]) under composition;
    elements are named by their images and sorted, the product applies the
    right factor first."""
    n = len(gens[0])
    perms, seen = [tuple(range(n))], {tuple(range(n))}
    for p in perms:
        for s in gens:
            q = tuple(p[s[i]] for i in range(n))
            if q not in seen:
                seen.add(q)
                perms.append(q)
    perms.sort()
    index = {p: i for i, p in enumerate(perms)}
    return FiniteGroupTable(["".join(map(str, p)) for p in perms],
                            [[index[tuple(p[x] for x in q)] for q in perms] for p in perms])


def direct_product(a, b):
    pairs = [(x, y) for x in range(len(a)) for y in range(len(b))]
    index = {p: i for i, p in enumerate(pairs)}
    return FiniteGroupTable([f"{a.name(x)},{b.name(y)}" for x, y in pairs],
                            [[index[a.mul(x, u), b.mul(y, v)] for u, v in pairs]
                             for x, y in pairs])


Z2 = cyclic_group(2)
SMALL = {f"Z{n}": cyclic_group(n) for n in range(1, 9)}
SMALL.update({
    "K4": klein_four_group(),
    "S3": sym3(),
    "Z2xZ4": direct_product(Z2, cyclic_group(4)),
    "Z2^3": direct_product(direct_product(Z2, Z2), Z2),
    # the symmetries of a square: a quarter turn and a reflection
    "D4": permutation_group([(1, 2, 3, 0), (0, 3, 2, 1)]),
    # the regular representation of i and j
    "Q8": permutation_group([(1, 2, 3, 0, 5, 6, 7, 4), (4, 7, 6, 5, 2, 1, 0, 3)]),
})


def test_the_small_groups_are_the_fourteen_of_order_up_to_8():
    for t in SMALL.values():
        assert validate_group(t).ok
    m, e = SMALL["Q8"].mul_table, SMALL["Q8"].identity()
    involutions = [g for g in range(8) if g != e and m[g][g] == e]
    assert len(involutions) == 1 and any(m[a][b] != m[b][a] for a in range(8) for b in range(8))


@pytest.mark.parametrize("name", sorted(SMALL))
def test_enumeration_equals_backtracking(name):
    t = SMALL[name]
    for pointed in (False, True):
        assert search_averaging_ops(t, pointed_only=pointed) == \
            _backtracking_search(t, pointed), pointed


LARGER = {
    "Z12": (cyclic_group(12), 258, 83),
    "A4": (permutation_group([(1, 2, 0, 3), (1, 0, 3, 2)]), 86, 38),
    "S4": (permutation_group([(1, 2, 3, 0), (1, 0, 2, 3)]), 1546, 778),
}


@pytest.mark.parametrize("name", sorted(LARGER))
def test_every_operator_is_a_bimodule_map_onto_its_image(name):
    t, plain, pointed = LARGER[name]
    n, e, m = len(t), t.identity(), t.mul_table
    ops = search_averaging_ops(t)
    assert len(ops) == plain and ops == sorted(set(ops))
    assert search_averaging_ops(t, pointed_only=True) == [op for op in ops if op[e] == e]
    assert sum(op[e] == e for op in ops) == pointed
    for op in ops:
        assert validate_averaging(t, op).ok
        H = set(op)
        assert all(m[a][b] in H for a in H for b in H)
        # A(hg) = hA(g) and A(gk) = A(g)k, so A(hgk) = hA(g)k
        assert all(op[m[h][g]] == m[h][op[g]] and op[m[g][h]] == m[op[g]][h]
                   for h in H for g in range(n))
        # c = A(e) is central in H, and A^k(g) = A(g)c^(k-1) for 1 <= k <= |G|
        c = op[e]
        assert all(m[c][h] == m[h][c] for h in H)
        for g in range(n):
            ak = agc = op[g]  # A^k(g) and A(g)c^(k-1), from k = 1
            for _ in range(n - 1):
                ak, agc = op[ak], m[agc][c]
                assert ak == agc, (op, g)


def test_a_table_that_is_not_a_group_is_refused_with_its_report():
    # e is an identity, but a has no inverse and the product is not associative
    t = FiniteGroupTable(["e", "a", "b"], [[0, 1, 2], [1, 2, 0], [2, 1, 0]])
    for pointed in (False, True):
        with pytest.raises(CheckFailed) as exc:
            search_averaging_ops(t, pointed_only=pointed)
        assert exc.value.report == validate_group(t)
        assert str(exc.value) == ("identity: ok inferred 'e'; inverses: FAIL element 'a' "
                                  "has no inverse; associativity: FAIL fails at (a, a, a)")
