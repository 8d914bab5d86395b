"""Exact-rational linear layer: group algebras and Lie structure constants.

Group algebra elements are finitely supported maps from element index to an
exact coefficient, a plain int or a Fraction; zero coefficients never appear
in the support.  Integral data stays in ints (basis vectors, set-map
extensions, the seeded spot-check samples); a Fraction enters only where a
caller supplies one, and int-Fraction arithmetic stays exact.

The group algebra carries the diagonal coproduct, the sum counit, and the
inversion antipode, which together feed the operator checks: an operator
table is averaging on the group exactly when its linear extension is
averaging on the algebra and a coalgebra map, and that equivalence is
asserted, never assumed.  The Lie side works over Fraction structure
constants; no floating point enters this module.
"""

from fractions import Fraction
import functools
import random

from .structures import (
    CheckReport,
    FiniteGroupTable,
    TableError,
    _as_int,
    _law,
    _load_json,
    as_operator,
    validate_averaging,
)


def _frac(v) -> Fraction:
    if isinstance(v, float):
        raise TableError("rational values must be exact (int or 'p/q' string)")
    if isinstance(v, bool):
        # an int subclass: JSON true/false would pass for 1 and 0
        raise TableError(f"not a rational value: {v!r}")
    try:
        return Fraction(str(v)) if isinstance(v, str) else Fraction(v)
    except (ValueError, ZeroDivisionError, TypeError):
        raise TableError(f"not a rational value: {v!r}") from None


def _coeff(v):
    """A group algebra coefficient: an int stays an int, anything else is read by _frac."""
    return v if type(v) is int else _frac(v)


_ZERO = 0


def _norm(coeffs: dict) -> dict:
    return {k: v for k, v in coeffs.items() if v}


def _combine(terms) -> dict:
    """Zero-free sum of q * vec over the (q, vec) pairs of `terms`.

    Each vec is a sparse {key: coefficient} map; a key's first term is
    stored as it is, so no sum starts from a zero.
    """
    out: dict = {}
    for q, vec in terms:
        for k, v in vec.items():
            s = out.get(k)
            out[k] = q * v if s is None else s + q * v
    return _norm(out)


def ga_basis(i: int) -> dict:
    return {i: 1}


def ga_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, _ZERO) + v
    return _norm(out)


def ga_scale(q, a: dict) -> dict:
    q = _coeff(q)
    return _norm({k: q * v for k, v in a.items()})


def ga_mul(a: dict, b: dict, g: FiniteGroupTable) -> dict:
    """Convolution product; the identity basis element is the unit."""
    n, m = len(g), g.mul_table
    # an index of b outside the carrier is reported once a's first index passes
    bad_j = next((j for j in b if not 0 <= j < n), None)
    out: dict = {}
    for i, ci in a.items():
        if not 0 <= i < n:
            raise TableError(f"support index {i} outside the carrier")
        if bad_j is not None:
            raise TableError(f"support index {bad_j} outside the carrier")
        row = m[i]
        for j, cj in b.items():
            k = row[j]
            s = out.get(k)
            out[k] = ci * cj if s is None else s + ci * cj
    return _norm(out)


def linear_extend(g: FiniteGroupTable, A):
    """Linear operator on the group algebra from its basis images.

    Accepts an index table (a set map, extended linearly) or an explicit
    list of group algebra elements, one per basis vector.
    """
    seq = list(A)
    if seq and isinstance(seq[0], dict):
        if len(seq) != len(g):
            raise TableError("one basis image per carrier element required")
        images = [_norm({int(k): _coeff(v) for k, v in img.items()}) for img in seq]

        def apply(a: dict) -> dict:
            return _combine((c, images[i]) for i, c in a.items())

        return apply
    target = as_operator(g, seq)

    def move(a: dict) -> dict:
        # a set map moves each coefficient onto the image's basis vector
        out: dict = {}
        for i, c in a.items():
            k = target[i]
            s = out.get(k)
            out[k] = c if s is None else s + c
        return _norm(out)

    return move


def _random_element(rng, n: int) -> dict:
    out = {}
    for _ in range(rng.randint(1, 3)):
        out[rng.randrange(n)] = rng.randint(-3, 3)
    return _norm(out)


@functools.lru_cache(maxsize=32)
def _samples(n: int, seed: int, count: int, per_sample: int) -> tuple:
    """`count` samples of `per_sample` random elements over a carrier of size n.

    Drawn once per argument tuple, with the random.Random(seed) calls the
    checks would make one sample at a time; the checks only read them.
    """
    rng = random.Random(seed)
    return tuple(tuple(_random_element(rng, n) for _ in range(per_sample))
                 for _ in range(count))


def check_averaging_algebra(g: FiniteGroupTable, A) -> CheckReport:
    """P(a)P(b) = P(P(a)b) = P(aP(b)) on the group algebra.

    Both sides are bilinear, so basis pairs decide the law; the random
    non-basis pairs only guard the linear-extension plumbing.  Those seeded
    pairs are drawn once per (carrier size, seed) and reused by every call.
    """
    P = linear_extend(g, A)
    n = len(g)

    def holds(a, b):
        pa, pb = P(a), P(b)
        lhs = ga_mul(pa, pb, g)
        return lhs == P(ga_mul(pa, b, g)) and lhs == P(ga_mul(a, pb, g))

    entries = [_law("averaging on basis pairs",
                    lambda i, j: holds(ga_basis(i), ga_basis(j)), n, 2, g.name)]
    if entries[0][1]:
        entries.append(_spot_checks(
            "averaging on random combinations", holds, n, 100, 2, "pairs", 0))
    return CheckReport(tuple(entries))


def _spot_checks(law, holds, n, count, per_sample, noun, seed):
    """Entry of a seeded random check: holds(*sample) on each cached sample in turn."""
    samples = _samples(n, seed, count, per_sample)
    law, ok, detail = _law(law, lambda t: holds(*samples[t]), count, 1,
                           lambda t: f"sample {t}, seed {seed}")
    return law, ok, detail if not ok else f"{count} {noun}, seed {seed}"


def coproduct(a: dict) -> dict:
    """Diagonal coproduct: each basis vector goes to its own tensor square."""
    return _norm({(i, i): c for i, c in a.items()})


def counit(a: dict):
    return sum(a.values(), _ZERO)


def _tensor_square(a: dict, b: dict) -> dict:
    return _norm({(i, j): ci * cj for i, ci in a.items() for j, cj in b.items()})


def check_coalgebra_map(g: FiniteGroupTable, A) -> CheckReport:
    """Coproduct and counit compatibility of an operator on the algebra.

    Verifies cop(P(x)) = (P tensor P)(cop(x)) and counit(P(x)) = counit(x),
    on the basis and on random combinations.  Linear extensions of set maps
    always pass; genuinely spread-out operators can fail.  The seeded
    samples are drawn once per (carrier size, seed) and reused by every call.
    """
    P = linear_extend(g, A)
    n = len(g)
    images = [P(ga_basis(i)) for i in range(n)]

    def tensor_P(t: dict) -> dict:
        return _combine((c, _tensor_square(images[i], images[j])) for (i, j), c in t.items())

    def cop_ok(x):
        return coproduct(P(x)) == tensor_P(coproduct(x))

    def counit_ok(x):
        return counit(P(x)) == counit(x)

    entries = [
        _law("coproduct compatibility on basis", lambda i: cop_ok(ga_basis(i)), n, 1, g.name),
        _law("counit preservation on basis", lambda i: counit_ok(ga_basis(i)), n, 1, g.name),
    ]
    if all(ok for _, ok, _ in entries):
        entries.append(_spot_checks(
            "compatibility on random combinations",
            lambda x: cop_ok(x) and counit_ok(x), n, 20, 1, "samples", 1))
    return CheckReport(tuple(entries))


def check_hopf_equivalence(g: FiniteGroupTable, A):
    """Group-level and algebra-level averaging verdicts, asserted equal.

    Returns (group_ok, algebra_ok).  The two verdicts must coincide; if
    they ever disagree that is a bug in one of the checkers, so the
    function raises instead of returning the pair.
    """
    A = as_operator(g, A)
    group_ok = validate_averaging(g, A).ok
    algebra_ok = check_averaging_algebra(g, A).ok and check_coalgebra_map(g, A).ok
    if group_ok != algebra_ok:
        raise RuntimeError(
            f"verdicts disagree on {A}: group {group_ok}, algebra {algebra_ok}")
    # constant pairs: a caller that keeps many verdicts holds no tuple per call
    return (True, True) if group_ok else (False, False)


def check_antipode_averaging(g: FiniteGroupTable) -> CheckReport:
    """Inversion as an operator: averaging whenever it is idempotent.

    S maps each basis vector to the inverse element.  S o S = S holds
    exactly when every element is self-inverse; only then is the averaging
    claim asserted.  Otherwise the report records the failed hypothesis and
    makes no claim either way.
    """
    inv = g.inverses()
    law, ok, detail = _law("S squared equals S", lambda x: inv[inv[x]] == inv[x],
                           len(g), 1, g.name)
    if not ok:
        return CheckReport(((law, False, f"{detail}; nothing to assert"),))
    return CheckReport(((law, True, ""),) + check_averaging_algebra(g, inv).entries)


def _sparse(v) -> dict:
    """Zero-free {index: coefficient} form of a coefficient sequence."""
    return {i: x for i, x in enumerate(v) if x}


def _units(d: int) -> list:
    """The basis vectors e_0 .. e_{d-1}, as sparse vectors."""
    return [{i: Fraction(1)} for i in range(d)]


def _bilinear(table, u: dict, v: dict) -> dict:
    """The bilinear map with table[a][b] as the image of (e_a, e_b), on sparse u, v."""
    return _combine((ua * vb, table[a][b]) for a, ua in u.items() for b, vb in v.items())


class LieAlgebraSpec:
    """Structure constants c[i][j][k] for [e_i, e_j] = sum_k c[i][j][k] e_k.

    The nonzero constants are also kept sparsely, one zero-free
    {k: c[i][j][k]} map per pair (i, j), for the exact checks below.
    """

    def __init__(self, dim: int, constants):
        dim = int(dim)
        if dim < 1:
            raise TableError("Lie algebra dimension must be at least 1")
        c = []
        for i in range(dim):
            row = []
            for j in range(dim):
                cell = tuple(_frac(v) for v in constants[i][j])
                if len(cell) != dim:
                    raise TableError("structure constant array must be dim^3")
                row.append(cell)
            c.append(tuple(row))
        self.dim = dim
        self.c = tuple(c)
        self._sparse_c = tuple(tuple(_sparse(cell) for cell in row) for row in self.c)
        self._report = None  # validate_lie's report, made on first use

    @classmethod
    def from_brackets(cls, dim: int, brackets: dict):
        """Build from sparse {(i, j): {k: value}} data, zero-based.

        A pair whose mirror is absent gets the antisymmetric counterpart
        filled in; explicitly given mirrors are kept as written.
        """
        c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
        for (i, j), coeffs in brackets.items():
            for k, v in coeffs.items():
                c[i][j][k] = _frac(v)
        for (i, j), coeffs in brackets.items():
            if (j, i) not in brackets:
                for k, v in coeffs.items():
                    c[j][i][k] = -_frac(v)
        return cls(dim, c)

    def bracket(self, x, y):
        """[x, y] on coefficient tuples."""
        v = _bilinear(self._sparse_c, _sparse(x), _sparse(y))
        return tuple(v.get(i, Fraction(0)) for i in range(self.dim))

    def basis(self, i: int):
        return tuple(Fraction(1) if j == i else Fraction(0) for j in range(self.dim))

    def zero(self):
        return (Fraction(0),) * self.dim


def validate_lie(L: LieAlgebraSpec) -> CheckReport:
    """Antisymmetry and the Jacobi identity on basis vectors.

    The report depends on the spec alone; it is made once and kept on it.
    """
    if L._report is not None:
        return L._report
    d, sc = L.dim, L._sparse_c
    basis = _units(d)

    def jacobi_holds(i, j, k):
        # [e_i, [e_j, e_k]] + [e_j, [e_k, e_i]] + [e_k, [e_i, e_j]] = 0
        return not _combine((1, _bilinear(sc, basis[a], sc[b][c]))
                            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)))

    L._report = CheckReport((
        _law("antisymmetry", lambda i, j: sc[i][j] == {k: -v for k, v in sc[j][i].items()},
             d, 2, _e),
        _law("Jacobi", jacobi_holds, d, 3, _e),
    ))
    return L._report


def _e(i: int) -> str:
    """Name of the basis vector e_{i+1} in reports: indices are one-based there."""
    return f"e{i + 1}"


def mat_apply(M, v):
    """Row-major matrix action: result_i = sum_j M[i][j] v[j]."""
    d = len(v)
    return tuple(sum((M[i][j] * v[j] for j in range(d)), Fraction(0)) for i in range(d))


def _columns(M):
    """The images M e_j, as sparse vectors."""
    return [_sparse(col) for col in zip(*M)]


def as_matrix(dim: int, M):
    rows = []
    for row in M:
        if not isinstance(row, (list, tuple)):
            raise TableError("operator matrix rows must be lists")
        row = tuple(_frac(v) for v in row)
        if len(row) != dim:
            raise TableError("operator matrix must match the algebra dimension")
        rows.append(row)
    if len(rows) != dim:
        raise TableError("operator matrix must match the algebra dimension")
    return tuple(rows)


def check_averaging_lie(L: LieAlgebraSpec, M) -> CheckReport:
    """[A e_i, A e_j] = A([A e_i, e_j]) = A([e_i, A e_j]) on basis pairs.

    The identity is bilinear, so basis pairs decide it.  The Lie spec is
    validated first; an invalid spec is an error, not a report entry.
    """
    validate_lie(L).require()
    M = as_matrix(L.dim, M)
    sc, cols = L._sparse_c, _columns(M)
    basis = _units(L.dim)

    def A(v):
        return _combine((x, cols[j]) for j, x in v.items())

    def holds(i, j):
        lhs = _bilinear(sc, cols[i], cols[j])
        return (lhs == A(_bilinear(sc, cols[i], basis[j]))
                and lhs == A(_bilinear(sc, basis[i], cols[j])))

    return CheckReport((_law("averaging on basis pairs", holds, L.dim, 2, _e),))


def leibniz_bracket(L: LieAlgebraSpec, M):
    """The derived bracket {x, y} = [A(x), y]."""
    M = as_matrix(L.dim, M)

    def br(x, y):
        return L.bracket(mat_apply(M, x), y)

    return br


def check_leibniz(L: LieAlgebraSpec, M) -> CheckReport:
    """Left Leibniz law {x,{y,z}} = {{x,y},z} + {y,{x,z}} on basis triples."""
    validate_lie(L).require()
    M = as_matrix(L.dim, M)
    d, sc, cols = L.dim, L._sparse_c, _columns(M)
    basis = _units(d)
    # the derived bracket is bilinear: tabulate it on basis pairs once
    D = [[_bilinear(sc, cols[a], basis[b]) for b in range(d)] for a in range(d)]

    def holds(i, j, k):
        return _bilinear(D, basis[i], D[j][k]) == _combine(
            ((1, _bilinear(D, D[i][j], basis[k])), (1, _bilinear(D, basis[j], D[i][k]))))

    return CheckReport((_law("left Leibniz on basis triples", holds, d, 3, _e),))


def load_lie_file(source) -> LieAlgebraSpec:
    """Read {"dim": d, "brackets": [{"i":1,"j":2,"coeffs":{"2":"1"}}]} data.

    Indices are one-based in the file; rationals are "p/q" strings or
    integers.  Pairs without an explicit mirror are completed
    antisymmetrically.
    """
    data = _load_json(source)
    if not isinstance(data, dict) or "dim" not in data:
        raise TableError("Lie file needs 'dim' and 'brackets'")
    dim = _as_int(data["dim"], "'dim'")
    entries = data.get("brackets", ())
    if not isinstance(entries, (list, tuple)):
        raise TableError("'brackets' must be a list of {'i','j','coeffs'} entries")
    brackets = {}
    for entry in entries:
        if not isinstance(entry, dict) or "i" not in entry or "j" not in entry:
            raise TableError(f"malformed bracket entry {entry!r}")
        i = _as_int(entry["i"], "'i'") - 1
        j = _as_int(entry["j"], "'j'") - 1
        if not (0 <= i < dim and 0 <= j < dim):
            raise TableError(f"bracket index out of range in {entry!r}")
        raw = entry.get("coeffs", {})
        if not isinstance(raw, dict):
            raise TableError(f"malformed bracket entry {entry!r}")
        coeffs = {}
        for k, v in raw.items():
            k = _as_int(k, "coefficient index") - 1
            if not 0 <= k < dim:
                raise TableError(f"coefficient index out of range in {entry!r}")
            coeffs[k] = _frac(v)
        if (i, j) in brackets:
            raise TableError(f"duplicate bracket entry for (e{i+1}, e{j+1})")
        brackets[(i, j)] = coeffs
    return LieAlgebraSpec.from_brackets(dim, brackets)


def load_operator_file(source, dim: int = None):
    """Read {"dim": d, "matrix": [...]} with row-major rational strings."""
    data = _load_json(source)
    if not isinstance(data, dict) or "matrix" not in data:
        raise TableError("operator file needs 'dim' and 'matrix'")
    d = _as_int(data.get("dim", dim or 0), "'dim'")
    if dim is not None and d != dim:
        raise TableError(f"operator dimension {d} does not match algebra dimension {dim}")
    flat = data["matrix"]
    if not isinstance(flat, (list, tuple)):
        raise TableError("'matrix' must be a list")
    if flat and isinstance(flat[0], (list, tuple)):
        return as_matrix(d, flat)
    if len(flat) != d * d:
        raise TableError("flat matrix must have dim*dim entries")
    return as_matrix(d, [flat[r * d:(r + 1) * d] for r in range(d)])
