"""Exact-rational linear layer: group algebras and Lie structure constants.

Vectors are finitely supported maps from a basis index to an exact
coefficient, a plain int or a Fraction; zero coefficients never appear in
the support.  Integral data stays in ints (basis vectors, set-map
extensions, the seeded spot-check samples, structure constants and matrix
entries): `_coeff` reads "3", "6/2", Fraction(3) and 3 as the int 3, so a
Fraction enters only where a value is not integral; int-Fraction arithmetic
stays exact.

The group algebra carries the diagonal coproduct, the sum counit, and the
inversion antipode, which together feed the operator checks: an operator
table is averaging on the group exactly when its linear extension is
averaging on the algebra and a coalgebra map, and that equivalence is
asserted, never assumed.  The Lie side reads structure constants and
operator matrices by the same rule; no floating point enters this module.

Range checks live at the entry points: `linear_extend` checks explicit
images' keys (a set map goes through `as_operator`), `from_brackets` every
Lie index.  Past them the checks use the convolution product `_conv`, which
checks no index, and pass lazy chunks to the witness kernel.  The
algebra laws' chunks are built from the linear map and its basis images, so
`check_hopf_equivalence` reads and extends the operator once, and one set
of basis images serves both algebra laws.

There one pair refutes and one pair confirms, on either side of the group
verdict: the group law's first failing basis pair, or a star pair whose
bitmask coefficients keep every basis pair apart.  That reading is exact
only while P and `_conv` are linear, which the seeded pairs and samples
check, so they stay.  The reports still read the per-pair chunks.
"""

from fractions import Fraction
import functools
import itertools
import random

from .structures import (
    CheckReport,
    FiniteGroupTable,
    TableError,
    _as_int,
    _averaging_sides,
    _law,
    _load_json,
    _witness,
    as_operator,
)


def _coeff(v):
    """An exact coefficient: an int where the value is integral, else a Fraction."""
    if type(v) is int:
        return v
    if isinstance(v, float):
        raise TableError("rational values must be exact (int or 'p/q' string)")
    if isinstance(v, bool) or isinstance(v, str) and ("e" in v or "E" in v):
        # JSON true/false would pass for 1 and 0; Fraction expands "1e9999999"
        raise TableError(f"not a rational value: {v!r}")
    try:
        q = Fraction(v)
    except (ValueError, ZeroDivisionError, TypeError):
        raise TableError(f"not a rational value: {v!r}") from None
    return q.numerator if q.denominator == 1 else q


def _norm(coeffs: dict) -> dict:
    """A fresh coefficient dict without its zeros; most have none to drop."""
    return coeffs if all(coeffs.values()) else {k: v for k, v in coeffs.items() if v}


def _combine(terms) -> dict:
    """Zero-free sum of q * vec over the (q, vec) pairs of `terms`.

    Each vec is a sparse {key: coefficient} map; a key's first term is
    stored as it is, so no sum starts from a zero.
    """
    out: dict = {}
    for q, vec in terms:
        for k, v in vec.items():
            out[k] = out[k] + q * v if k in out else q * v
    return _norm(out)


def _apply(images, v: dict) -> dict:
    """The linear map with images[j] as the image of basis vector j, on sparse v."""
    return _combine((x, images[j]) for j, x in v.items())


def _conv(a: dict, b: dict, m) -> dict:
    """The convolution product over the table rows m, on supports in the carrier."""
    out: dict = {}
    for i, ci in a.items():
        row = m[i]
        for j, cj in b.items():
            k = row[j]
            out[k] = out[k] + ci * cj if k in out else ci * cj
    return out if all(out.values()) else {k: v for k, v in out.items() if v}


def linear_extend(g: FiniteGroupTable, A):
    """Linear operator on the group algebra from its basis images.

    Accepts an index table (a set map, extended linearly) or an explicit
    list of group algebra elements, one per basis vector, each supported
    on carrier indices.
    """
    seq, n = list(A), len(g)
    if seq and isinstance(seq[0], dict):
        if len(seq) != n:
            raise TableError("one basis image per carrier element required")
        if not all(isinstance(img, dict) for img in seq):
            raise TableError("each basis image must be an {index: coefficient} map")
        for k in (k for img in seq for k in img):
            if type(k) is not int or not 0 <= k < n:
                raise TableError(f"support index {k!r} outside the carrier")
        images = [_norm({k: _coeff(v) for k, v in img.items()}) for img in seq]
        return functools.partial(_apply, images)
    return _set_map(as_operator(g, A if isinstance(A, str) else seq))  # a str is refused


def _set_map(target: tuple):
    """The linear extension of the index table `target`, read by as_operator."""
    def move(a: dict) -> dict:
        # a set map moves each coefficient onto the image's basis vector
        out: dict = {}
        for i, c in a.items():
            k = target[i]
            out[k] = out[k] + c if k in out else c
        return out if all(out.values()) else {k: v for k, v in out.items() if v}

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


def _extension(g: FiniteGroupTable, A):
    """The linear map P of A and its basis images P(e_i)."""
    P = linear_extend(g, A)
    return P, [P({i: 1}) for i in range(len(g))]


def _sides(P, m, a, b, pa, pb):
    """P(a)P(b), P(P(a)b) and P(aP(b)) on vectors a, b with pa = P(a), pb = P(b)."""
    return _conv(pa, pb, m), P(_conv(pa, b, m)), P(_conv(a, pb, m))


def _averaging_chunks(P, images, m):
    """Lazy chunks of P(a)P(b) = P(P(a)b) = P(aP(b)): one per basis pair, in
    product order, each side alone, so a failing law stops at its first
    failing pair, then one for the seeded pairs, drawn once per (carrier
    size, seed)."""
    return ((tuple(zip(_sides(P, m, {a: 1}, {b: 1}, pa, pb)))
             for a, pa in enumerate(images) for b, pb in enumerate(images)),
            (tuple(zip(*(_sides(P, m, a, b, P(a), P(b))
                         for a, b in _samples(len(images), 0, 100, 2))))
             for _ in (0,)))


def check_averaging_algebra(g: FiniteGroupTable, A) -> CheckReport:
    """P(a)P(b) = P(P(a)b) = P(aP(b)) on the group algebra.

    Both sides are bilinear, so basis pairs decide the law; the random
    non-basis pairs only guard the linear-extension plumbing.  Those seeded
    pairs are drawn once per (carrier size, seed) and reused by every call.
    """
    pairs, seeded = _averaging_chunks(*_extension(g, A), g.mul_table)
    entries = [_law("averaging on basis pairs", pairs, len(g), 2, g.name)]
    if entries[0][1]:
        entries.append(_spot_checks("averaging on random combinations", seeded, 100, "pairs", 0))
    return CheckReport(tuple(entries))


def _spot_checks(law, chunks, count, noun, seed):
    """Entry of a seeded random check; offset t of the chunks is sample t."""
    law, ok, detail = _law(law, chunks, count, 1, lambda t: f"sample {t}, seed {seed}")
    return law, ok, detail if not ok else f"{count} {noun}, seed {seed}"


def coproduct(a: dict) -> dict:
    """Diagonal coproduct: each basis vector goes to its own tensor square."""
    return _norm({(i, i): c for i, c in a.items()})


def counit(a: dict):
    return sum(a.values(), 0)


def _coalgebra_chunks(P, images):
    """Chunks of the coalgebra-map laws: the coproduct on the basis, the
    counit on the basis, then one lazy chunk for the seeded samples."""
    # cop(x) is diagonal: P tensor P only meets the squares (P tensor P)(e_i tensor e_i)
    squares = [_norm({(i, j): ci * cj for i, ci in img.items() for j, cj in img.items()})
               for img in images]

    def sides(x, px):
        return ((coproduct(px), counit(px)),
                (_combine((c, squares[i]) for (i, _), c in coproduct(x).items()), counit(x)))

    return ((([coproduct(img) for img in images], squares),),
            (([counit(img) for img in images], [1] * len(images)),),
            (tuple(zip(*(sides(x, P(x)) for x, in _samples(len(images), 1, 20, 1))))
             for _ in (0,)))


def check_coalgebra_map(g: FiniteGroupTable, A) -> CheckReport:
    """Coproduct and counit compatibility of an operator on the algebra.

    Verifies cop(P(x)) = (P tensor P)(cop(x)) and counit(P(x)) = counit(x),
    on the basis and on random combinations.  Linear extensions of set maps
    always pass; genuinely spread-out operators can fail.  The seeded
    samples are drawn once per (carrier size, seed) and reused by every call.
    """
    cop, cou, seeded = _coalgebra_chunks(*_extension(g, A))
    entries = [_law("coproduct compatibility on basis", cop, len(g), 1, g.name),
               _law("counit preservation on basis", cou, len(g), 1, g.name)]
    if all(ok for _, ok, _ in entries):
        entries.append(_spot_checks("compatibility on random combinations",
                                    seeded, 20, "samples", 1))
    return CheckReport(tuple(entries))


def check_hopf_equivalence(g: FiniteGroupTable, A):
    """Group-level and algebra-level averaging verdicts, asserted equal.

    Returns (group_ok, algebra_ok); if the verdicts ever disagree, one of
    the checkers is wrong, so the function raises instead.  The operator is
    read once; its set-map extension P and basis images P(e_i) = e_{A(i)}
    serve both algebra laws.

    One pair refutes, one pair confirms.  When the group law fails first at
    (x, y), the algebra law is read at (e_x, e_y), whose sides for a set map
    are e_{A(x)A(y)}, e_{A(A(x)y)} and e_{A(xA(y))}; only a broken P or
    `_conv` lets it hold, and then the function raises.  When the group law
    holds, the algebra law is read at the star pair
    (sum_g 2^(g n) e_g, sum_h 2^h e_h): each basis pair's side is one basis
    vector, so a star side's coefficient of e_z is the bitmask, over bits
    g n + h, of the pairs (g, h) whose side is e_z, and the star pair holds
    exactly when every basis pair does.  That leans on P and `_conv` being
    linear, which the 100 seeded pairs and 20 seeded coalgebra samples
    check, so they stay.
    """
    A = as_operator(g, A)
    m = g.mul_table
    P = _set_map(A)
    for x, (left, mid, right) in enumerate(_averaging_sides(m, A)):
        if left != mid or left != right:
            # the group law fails first at (x, y); so does the algebra law at (e_x, e_y)
            y = next(y for y, (u, v, w) in enumerate(zip(left, mid, right))
                     if u != v or u != w)
            left, mid, right = _sides(P, m, {x: 1}, {y: 1}, {A[x]: 1}, {A[y]: 1})
            if left != mid or left != right:
                return False, False
            raise RuntimeError(f"verdicts disagree on {A}: group False, algebra True")
    n = len(A)
    a, b = {x: 1 << x * n for x in range(n)}, {y: 1 << y for y in range(n)}
    left, mid, right = _sides(P, m, a, b, P(a), P(b))
    images = [{z: 1} for z in A]
    chunks = (_averaging_chunks(P, images, m)[1], *_coalgebra_chunks(P, images))
    if left != mid or left != right or any(
            _witness(law, count, 1) is not None for law, count in zip(chunks, (100, n, n, 20))):
        raise RuntimeError(f"verdicts disagree on {A}: group True, algebra False")
    return True, True


def check_antipode_averaging(g: FiniteGroupTable) -> CheckReport:
    """Inversion as an operator: averaging whenever it is idempotent.

    S maps each basis vector to the inverse element.  S o S = S holds
    exactly when every element is self-inverse; only then is the averaging
    claim asserted.  Otherwise the report records the failed hypothesis and
    makes no claim either way.
    """
    inv = g.inverses()
    law, ok, detail = _law("S squared equals S", (([inv[x] for x in inv], list(inv)),),
                           len(g), 1, g.name)
    if not ok:
        return CheckReport(((law, False, f"{detail}; nothing to assert"),))
    return CheckReport(((law, True, ""),) + check_averaging_algebra(g, inv).entries)


def _bilinear(table, u: dict, v: dict) -> dict:
    """The bilinear map with table[a][b] as the image of (e_a, e_b), on sparse u, v."""
    return _combine((ua * vb, table[a][b]) for a, ua in u.items() for b, vb in v.items())


# Largest Lie algebra dimension from_brackets accepts; a file naming dim 100000
# would otherwise allocate 10^10 pair maps.  validate_lie and check_leibniz cost
# dim^3 * (nonzeros per bracket)^2: about 1 s for a sparse dim 64, and 0.25 s
# each for a dense dim 24, however its coefficients are written (README).
MAX_LIE_DIM = 64


class LieAlgebraSpec:
    """Structure constants of [e_i, e_j] = sum_k c_ijk e_k, kept sparsely.

    `brackets[i][j]` is the zero-free {k: c_ijk} map of the pair (i, j).
    Specs are built by from_brackets alone.
    """

    @classmethod
    def from_brackets(cls, dim: int, brackets: dict):
        """Build from sparse {(i, j): {k: value}} data, zero-based.

        A pair whose mirror is absent gets the antisymmetric counterpart
        filled in; explicitly given mirrors are kept as written.  Every
        index must be an int in 0..dim-1, and dim at most MAX_LIE_DIM; a
        refusal names the basis vector one-based, as reports do.
        """
        dim = _as_int(dim, "Lie algebra dimension")
        if dim < 1:
            raise TableError("Lie algebra dimension must be at least 1")
        if dim > MAX_LIE_DIM:
            raise TableError(f"Lie algebra dimension {dim} exceeds the limit of {MAX_LIE_DIM}")

        def index(v):
            if type(v) is not int:
                raise TableError(f"basis index must be an int, got {v!r}")
            if not 0 <= v < dim:
                raise TableError(f"no basis vector {_e(v)} in dimension {dim}")
            return v

        if not isinstance(brackets, dict):
            raise TableError("brackets must be a {(i, j): {k: value}} dict")
        table = [[{} for _ in range(dim)] for _ in range(dim)]
        for pair, coeffs in brackets.items():
            if type(pair) is not tuple or len(pair) != 2 or not isinstance(coeffs, dict):
                raise TableError("bracket entry must be (i, j): {k: value}, "
                                 f"got {pair!r}: {coeffs!r}")
            i, j = pair
            cell = _norm({index(k): _coeff(v) for k, v in coeffs.items()})
            table[index(i)][index(j)] = cell
            if (j, i) not in brackets:
                table[j][i] = {k: -v for k, v in cell.items()}
        spec = object.__new__(cls)
        spec.dim, spec.brackets = dim, tuple(map(tuple, table))
        spec._report = None  # validate_lie's report, made on first use
        return spec


def validate_lie(L: LieAlgebraSpec) -> CheckReport:
    """Antisymmetry and the Jacobi identity on basis vectors.

    The report depends on the spec alone; it is made once and kept on it.
    """
    if L._report is not None:
        return L._report
    d, sc = L.dim, L.brackets
    basis = [{i: 1} for i in range(d)]
    # [e_i, [e_j, e_k]] + [e_j, [e_k, e_i]] + [e_k, [e_i, e_j]] = 0
    jacobi = (((_combine((1, _bilinear(sc, basis[a], sc[b][c]))
                         for a, b, c in ((i, j, k), (j, k, i), (k, i, j))),), ({},))
              for i, j, k in itertools.product(range(d), repeat=3))
    L._report = CheckReport((
        _law("antisymmetry", (((sc[i][j],), ({k: -v for k, v in sc[j][i].items()},))
                              for i, j in itertools.product(range(d), repeat=2)), d, 2, _e),
        _law("Jacobi", jacobi, d, 3, _e),
    ))
    return L._report


def _e(i: int) -> str:
    """Name of the basis vector e_{i+1} in reports: indices are one-based there."""
    return f"e{i + 1}"


def _columns(M):
    """The images M e_j, as sparse vectors."""
    return [{i: x for i, x in enumerate(col) if x} for col in zip(*M)]


def as_matrix(dim: int, M):
    if not isinstance(M, (list, tuple)):
        raise TableError("operator matrix must be a list of rows")
    rows = []
    for row in M:
        if not isinstance(row, (list, tuple)):
            raise TableError("operator matrix rows must be lists")
        row = tuple(_coeff(v) for v in row)
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
    sc, cols = L.brackets, _columns(as_matrix(L.dim, M))
    basis = [{i: 1} for i in range(L.dim)]
    sides = (((_bilinear(sc, cols[i], cols[j]),),
              (_apply(cols, _bilinear(sc, cols[i], basis[j])),),
              (_apply(cols, _bilinear(sc, basis[i], cols[j])),))
             for i, j in itertools.product(range(L.dim), repeat=2))
    return CheckReport((_law("averaging on basis pairs", sides, L.dim, 2, _e),))


def leibniz_bracket(L: LieAlgebraSpec, M):
    """The derived bracket {x, y} = [A x, y], on sparse vectors."""
    sc, cols = L.brackets, _columns(as_matrix(L.dim, M))
    return lambda x, y: _bilinear(sc, _apply(cols, x), y)


def check_leibniz(L: LieAlgebraSpec, M) -> CheckReport:
    """Left Leibniz law {x,{y,z}} = {{x,y},z} + {y,{x,z}} on basis triples."""
    validate_lie(L).require()
    br, d = leibniz_bracket(L, M), L.dim
    basis = [{i: 1} for i in range(d)]
    # the derived bracket is bilinear: tabulate it on basis pairs once
    D = [[br(basis[a], basis[b]) for b in range(d)] for a in range(d)]

    sides = (((_bilinear(D, basis[i], D[j][k]),),
              (_combine(((1, _bilinear(D, D[i][j], basis[k])),
                         (1, _bilinear(D, basis[j], D[i][k])))),))
             for i, j, k in itertools.product(range(d), repeat=3))
    return CheckReport((_law("left Leibniz on basis triples", sides, d, 3, _e),))


def load_lie_file(source):
    """Read {"dim": d, "brackets": [{"i":1,"j":2,"coeffs":{"2":"1"}}], "matrix": [[...]]}.

    Indices are one-based in the file; rationals are "p/q" strings or
    integers.  from_brackets checks the dimension, every index and every
    coefficient; only a repeated pair or coefficient index, which its dicts
    cannot hold, is refused here.  Pairs without an explicit mirror are
    completed antisymmetrically; no brackets is the abelian algebra.
    Returns (spec, matrix or None): the optional "matrix" is the operator's
    rows, read once the spec is built, so an oversized dim is refused first.
    """
    data = _load_json(source)
    if not isinstance(data, dict) or "dim" not in data:
        raise TableError("Lie file needs 'dim'")
    entries = data.get("brackets", ())
    if not isinstance(entries, (list, tuple)):
        raise TableError("'brackets' must be a list of {'i','j','coeffs'} entries")
    brackets = {}
    for entry in entries:
        if (not isinstance(entry, dict) or "i" not in entry or "j" not in entry
                or not isinstance(entry.get("coeffs", {}), dict)):
            raise TableError(f"malformed bracket entry {entry!r}")
        pair = _as_int(entry["i"], "'i'") - 1, _as_int(entry["j"], "'j'") - 1
        if pair in brackets:
            raise TableError(f"duplicate bracket entry for ({_e(pair[0])}, {_e(pair[1])})")
        coeffs = entry.get("coeffs", {})
        brackets[pair] = {_as_int(k, "coefficient index") - 1: v for k, v in coeffs.items()}
        if len(brackets[pair]) < len(coeffs):  # "2" and "02" both spell e2
            raise TableError(f"coefficient index repeated in ({_e(pair[0])}, {_e(pair[1])})")
    spec = LieAlgebraSpec.from_brackets(data["dim"], brackets)
    M = data.get("matrix")
    return spec, None if M is None else as_matrix(spec.dim, M)
