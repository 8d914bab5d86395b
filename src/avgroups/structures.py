"""Finite averaging groups over explicit multiplication tables.

A group is given as a table of element names and a square index table for
the product.  The identity and the inverses are inferred from the table and
double checked, never declared.  An operator is a plain index map.  The
module validates group and averaging axioms by brute force, builds the
operator of an idempotent endomorphism, lists every averaging operator on a
group, and checks the derived structure: pointed-operator consequences, the
induced disemigroup, and the conjugation rack.

The list rests on a structure theorem.  Let A be averaging on G, H = A(G)
and c = A(e).  Then H is a subgroup, A is an H-bimodule map, A(hgk) =
hA(g)k for h, k in H, and c is central in H with A(h) = hc on H.
Conversely, every bimodule map of G onto a subgroup H is averaging.
Derivation: A(g)A(h) = A(A(g)h) gives A(uw) = uA(w) for u in H.  Put
w = u^-1, so A(u^-1) = u^-1 c is in H; put u = c^2, so c^-1 = A(c^-2) is in
H, and H is closed under inverses.  A(e)A(h) = A(A(h)) = A(h)A(e), so c
commutes with H.

Every exhaustive law goes through one failing-witness kernel, `_witness`:
a law lists its sides, one value per index tuple in itertools.product
order, the kernel compares them with C list equality and decodes the first
mismatching offset into its tuple.  Table laws pass whole tables, except the
averaging law, which passes one lazy chunk per row; laws with expensive
values pass lazy one-tuple chunks.  Either way a failing law stops early.
A caller that keeps only the verdict asks whether the witness is None.
"""

from dataclasses import dataclass
import itertools
import json


class TableError(ValueError):
    """Malformed table data or an unsatisfiable construction."""


class CheckFailed(TableError):
    """A failed CheckReport, raised; the message is its lines joined by '; '."""

    def __init__(self, report):
        super().__init__("; ".join(report.lines()))
        self.report = report


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a structured verification: (law, ok, detail) entries."""

    entries: tuple

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.entries)

    def lines(self):
        return [f"{law}: {'ok' if ok else 'FAIL'}" + (f" {detail}" if detail else "")
                for law, ok, detail in self.entries]

    def entry(self, law):
        for name, ok, detail in self.entries:
            if name == law:
                return ok, detail
        raise KeyError(law)

    def require(self):
        """Raise CheckFailed unless every entry passed."""
        if not self.ok:
            raise CheckFailed(self)


def _witness(chunks, n, arity):
    """First index tuple over range(n)**arity at which a law fails, or None.

    `chunks` yields (lhs, rhs, ...) tuples of equal-length sequences of one
    type: the law's sides on consecutive tuples in itertools.product order,
    so offset k is the tuple that spells k in base n, most significant digit
    first.  The law holds where lhs equals every rhs.  A chunk passes on C
    sequence equality; a failing one is scanned for its first mismatch.
    """
    start = 0
    for lhs, *rhss in chunks:
        if rhss.count(lhs) < len(rhss):  # some rhs differs from lhs
            # the first offset whose values are not all equal to lhs's
            k = start + next(i for i, x in enumerate(zip(lhs, *rhss)) if x.count(x[0]) < len(x))
            return tuple(k // n ** p % n for p in reversed(range(arity)))
        start += len(lhs)
    return None


def _law(law, chunks, n, arity, names):
    """(law, ok, detail) entry of an exhaustive check; the detail names the
    first failing tuple, as "fails at x" or "fails at (x, y, ...)"."""
    bad = _witness(chunks, n, arity)
    if bad is None:
        return law, True, ""
    shown = ", ".join(names(i) for i in bad)
    return law, False, f"fails at {shown}" if arity == 1 else f"fails at ({shown})"


class FiniteGroupTable:
    """Multiplication table over named elements.

    Construction checks shape only; axioms are the job of validate_group.
    The identity, the inverses and the name index are inferred once, at
    construction; identity(), inverses() and inv() raise TableError, when
    called, if the table does not determine them.
    """

    def __init__(self, elements, mul):
        try:  # a name is a str or an int, and an int keeps its decimal text
            elements = tuple(str(e) if isinstance(e, str) else str(_int(e)) for e in elements)
        except TypeError:
            raise TableError("element names must be strings or integers") from None
        if len(set(elements)) != len(elements):
            raise TableError("element names must be unique")
        if not elements:
            raise TableError("empty carrier")
        n = len(elements)
        rows = []
        try:  # rows are read in order, and the first malformed one is refused
            for row in mul:
                # a row must be a list: a string would read digit by digit
                row = tuple(map(_int, row)) if isinstance(row, (list, tuple)) else ()
                if len(row) != n or any(not 0 <= v < n for v in row):
                    rows = None
                    break
                rows.append(row)
        except (ValueError, TypeError) as exc:
            raise TableError(f"'mul' must be a row-major table of element indices: {exc}") from None
        if rows is None or len(rows) != n:
            raise TableError("mul table must be a square of indices in range")
        self.elements = elements
        self.mul_table = tuple(rows)
        self._index = {name: i for i, name in enumerate(elements)}
        # the first element that is a two-sided identity, or None
        self._identity = next(
            (e for e in range(n)
             if all(rows[e][x] == x and rows[x][e] == x for x in range(n))), None)
        # each element's first two-sided inverse, or None (all None with no identity)
        e = self._identity
        self._inverses = tuple(
            next((b for b, v in enumerate(row) if v == e and rows[b][a] == e), None)
            for a, row in enumerate(rows))
        self._report = None  # validate_group's report, made on first use

    def __len__(self):
        return len(self.elements)

    def index(self, name) -> int:
        try:
            return self._index[str(name)]
        except KeyError:
            raise TableError(f"unknown element {name!r}") from None

    def name(self, i: int) -> str:
        return self.elements[i]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def identity(self) -> int:
        if self._identity is None:
            raise TableError("table has no two-sided identity")
        return self._identity

    def inverses(self):
        if None in self._inverses:
            self.identity()
            raise TableError(f"element {self.name(self._inverses.index(None))!r} has no inverse")
        return self._inverses

    def inv(self, a: int) -> int:
        return self.inverses()[a]


# Largest carrier validate_group checks.  Associativity reads n^3 index
# triples: at 128 (Z128) that took 0.07 s and 34 MB of index lists on a
# 2-core CPython 3.11 host, and S5 (120 elements) took 0.06 s.
MAX_GROUP_ORDER = 128
# Default cap on the carrier search_averaging_ops lists (search-ops --max-size).
MAX_SEARCH_ORDER = 24


def validate_group(t: FiniteGroupTable) -> CheckReport:
    """Brute-force group axioms; the first failing witness is named.

    The report depends on the table alone; it is made once and kept on it.
    The size cap, MAX_GROUP_ORDER, is checked on every call.
    """
    n = len(t)
    if n > MAX_GROUP_ORDER:
        raise TableError(f"carrier size {n} exceeds the exhaustive-check cap {MAX_GROUP_ORDER}")
    if t._report is None:
        t._report = _group_report(t)
    return t._report


def _group_report(t: FiniteGroupTable) -> CheckReport:
    entries = []

    try:
        e = t.identity()
        entries.append(("identity", True, f"inferred {t.name(e)!r}"))
    except TableError as exc:
        entries.append(("identity", False, str(exc)))
        return CheckReport(tuple(entries))

    try:
        t.inverses()
        entries.append(("inverses", True, ""))
    except TableError as exc:
        entries.append(("inverses", False, str(exc)))

    n, m = len(t), t.mul_table
    ab = [v for row in m for v in row]  # ab[a*n + b] = ab
    entries.append(_law("associativity", (([x for v in ab for x in m[v]],        # (ab)c
                                            [row[v] for row in m for v in ab]),),  # a(bc)
                        n, 3, t.name))
    return CheckReport(tuple(entries))


def as_operator(t: FiniteGroupTable, op) -> tuple:
    """Normalize an operator to an index tuple, total on the carrier."""
    if isinstance(op, str):  # a string would read digit by digit
        raise TableError("operator must map every element to an element")
    op = tuple(op)
    if set(map(type, op)) != {int}:  # plain ints need no conversion
        op = tuple(_as_int(v, "operator entry") for v in op)
    if len(op) != len(t) or min(op) < 0 or max(op) >= len(t):
        raise TableError("operator must map every element to an element")
    return op


def validate_averaging(t: FiniteGroupTable, op) -> CheckReport:
    """Check A(g)A(h) = A(A(g)h) = A(gA(h)) on all pairs."""
    sides = _averaging_sides(t.mul_table, as_operator(t, op))
    return CheckReport((_law("averaging", sides, len(t), 2, t.name),))


def _averaging_sides(m, op: tuple):
    """The averaging law's three sides, one lazy chunk per row g: the pairs
    (g, h) for every h, over the table rows m.  A failing law stops at its
    first failing row."""
    for row, a in zip(m, op):
        row_a = m[a]  # the row of A(g)
        yield ([row_a[b] for b in op],      # A(g)A(h)
               [op[v] for v in row_a],      # A(A(g)h)
               [op[row[b]] for b in op])    # A(gA(h))


class AveragingGroupHandle:
    """A validated (table, operator) pair, usable as an evaluation target.

    The evaluation protocol works on element indices: identity(), mul(),
    inv(), op().  The table passed validate_group, so its identity and
    inverses exist and are read straight from it.
    """

    def __init__(self, table: FiniteGroupTable, op):
        validate_group(table).require()
        op = as_operator(table, op)
        validate_averaging(table, op).require()
        self.table = table
        self.op_table = op

    def identity(self) -> int:
        return self.table._identity

    def mul(self, a: int, b: int) -> int:
        return self.table.mul_table[a][b]

    def inv(self, a: int) -> int:
        return self.table._inverses[a]

    def op(self, a: int) -> int:
        return self.op_table[a]

    def element(self, name) -> int:
        return self.table.index(name)

    def name(self, i: int) -> str:
        return self.table.name(i)

    def is_pointed(self) -> bool:
        return self.op(self.identity()) == self.identity()


class IntShiftGroup:
    """The integers with A(a) = a + z; averaging by two-line arithmetic."""

    def __init__(self, z: int):
        self.z = int(z)

    def identity(self) -> int:
        return 0

    def mul(self, a: int, b: int) -> int:
        return a + b

    def inv(self, a: int) -> int:
        return -a

    def op(self, a: int) -> int:
        return a + self.z


def idempotent_endo_operator(t: FiniteGroupTable, phi) -> AveragingGroupHandle:
    """A = an idempotent group endomorphism; both properties checked."""
    phi = as_operator(t, phi)
    m = t.mul_table
    for law, sides, arity in (
            ("not a homomorphism", ([phi[v] for row in m for v in row],              # A(ab)
                                    [row[b] for row in (m[a] for a in phi) for b in phi]), 2),
            ("not idempotent", ([phi[a] for a in phi], list(phi)), 1)):
        _, ok, detail = _law(law, (sides,), len(t), arity, t.name)
        if not ok:
            raise TableError(f"{law}: {detail}")
    return AveragingGroupHandle(t, phi)


def _conjugations(t: FiniteGroupTable, A) -> list:
    """g |> k = A(g) k A(g)^-1 as rack_op reads it, at r[g][k]."""
    m, inv = t.mul_table, t.inverses()
    cols = list(zip(*m))
    return [[cols[inv[a]][x] for x in m[a]] for a in A]


def check_pointed_consequences(h: AveragingGroupHandle) -> CheckReport:
    """Idempotence, inverse preservation, and Ad-equivariance of A.

    All three follow from A(e) = e; a non-pointed handle gets a single
    inapplicable entry instead of law checks.
    """
    t, A = h.table, h.op_table
    e = t.identity()
    if A[e] != e:
        return CheckReport((("pointed", False,
                             f"A(e) = {t.name(A[e])!r}; consequences inapplicable"),))
    n, inv = len(t), t.inverses()
    ia = [inv[a] for a in A]  # A(g)^-1
    r = _conjugations(t, A)
    return CheckReport((
        ("pointed", True, ""),
        _law("idempotence", (([A[a] for a in A], list(A)),), n, 1, t.name),
        _law("inverse preservation", ((ia, [A[b] for b in ia]),), n, 1, t.name),
        _law("Ad-equivariance", (([A[v] for row in r for v in row],     # A(g |> k)
                                  [row[b] for row in r for b in A]),),  # g |> A(k)
             n, 2, t.name),
    ))


def check_disemigroup(h: AveragingGroupHandle) -> CheckReport:
    """The five disemigroup identities, plus dimonoid units when pointed."""
    t, A = h.table, h.op_table
    n, m = len(t), t.mul_table
    lt = [[row[a] for a in A] for row in m]  # g -| k = g A(k)
    rt = [m[a] for a in A]                   # g |- k = A(g) k
    # each law reads p(q(f, g), h) = r(f, s(g, h)); (p, q, r, s) are tables
    laws = (
        ("(f-|g)-|h = f-|(g-|h)", (lt, lt, lt, lt)),
        ("(f-|g)-|h = f-|(g|-h)", (lt, lt, lt, rt)),
        ("(f|-g)-|h = f|-(g-|h)", (lt, rt, rt, lt)),
        ("(f-|g)|-h = f|-(g|-h)", (rt, lt, rt, rt)),
        ("(f|-g)|-h = f|-(g|-h)", (rt, rt, rt, rt)),
    )
    entries = []
    for name, (p, q, r, s) in laws:
        sgh = [v for row in s for v in row]
        entries.append(_law(name, (([x for row in q for v in row for x in p[v]],
                                    [rf[v] for rf in r for v in sgh]),), n, 3, t.name))
    e = t.identity()
    law, ok, detail = _law("dimonoid units",
                           ((list(range(n)), [row[e] for row in lt], list(rt[e])),),
                           n, 1, t.name)
    if not ok and not h.is_pointed():
        detail += " (not pointed)"
    entries.append((law, ok, detail))
    return CheckReport(tuple(entries))


def rack_op(h: AveragingGroupHandle, g: int, k: int) -> int:
    """g |> k = A(g) k A(g)^{-1}; requires a pointed operator."""
    if not h.is_pointed():
        raise TableError("rack structure needs A(e) = e")
    ag = h.op(g)
    return h.mul(h.mul(ag, k), h.inv(ag))


def check_rack(h: AveragingGroupHandle) -> CheckReport:
    """Self-distributivity and bijectivity of every left translation."""
    if not h.is_pointed():
        e = h.identity()
        return CheckReport((("pointed", False,
                             f"A(e) = {h.name(h.op(e))!r}; rack inapplicable"),))
    t, A = h.table, h.op_table
    n = len(t)
    r = _conjugations(t, A)
    gk = [v for row in r for v in row]
    bad = _witness((([len(set(row)) for row in r], [n] * n),), n, 1)
    return CheckReport((
        ("pointed", True, ""),
        _law("self-distributivity", (([rf[v] for rf in r for v in gk],
                                      [r[x][y] for rf in r for x in rf for y in rf]),),
             n, 3, t.name),
        ("translation bijectivity", bad is None,
         "" if bad is None else f"L_{t.name(bad[0])} is not a bijection"),
    ))


def search_averaging_ops(t: FiniteGroupTable, pointed_only: bool = False,
                         max_size: int = MAX_SEARCH_ORDER):
    """All averaging operator tables on a group, in lexicographic order.

    The tables are built from the module's structure theorem, not searched
    for: A is fixed by its image H, a subgroup; by c = A(e), central in H
    (c = e when `pointed_only`), with A(h) = hc on H; and by one value A(g)
    in H for each H x H double coset HgH of G - H, at its smallest index g,
    among the values that every pair (h, k) with hgk = g fixes, since A(hgk)
    = hA(g)k.  Each table is built once: H = A(G) and c = A(e) are read back
    from it, and A(g) is one of its entries.  Each table is confirmed by the
    theorem's converse: its image is H, and A(sg) = sA(g) and A(gs) = A(g)s
    for every g and every generator s that closed H.  A table that fails goes
    to validate_averaging, so a flaw in the construction raises CheckFailed
    instead of returning a wrong table.  A table that is not a group raises
    validate_group's report, since the construction needs the group axioms.
    """
    n = len(t)
    if n > max_size:
        raise TableError(f"carrier size {n} exceeds the search cap {max_size}")
    validate_group(t).require()
    e, m = t.identity(), t.mul_table
    # every subgroup: each H and g outside it give <H, g>, closed from e
    # under right products by g and the generators that built H
    subgroups, seen = [(frozenset((e,)), ())], set()
    for H, gens in subgroups:
        for g in range(n):
            if g not in H:
                gens_g, K, todo = gens + (g,), {e}, [e]
                for x in todo:
                    row = m[x]
                    for s in gens_g:
                        if row[s] not in K:
                            K.add(row[s])
                            todo.append(row[s])
                K = frozenset(K)
                if K not in seen:
                    seen.add(K)
                    subgroups.append((K, gens_g))
    cols, found = list(zip(*m)), []
    for hset, gens in subgroups:
        H = sorted(hset)
        # the translations g -> sg and g -> gs by each generator s of H
        shifts = [m[s] for s in gens] + [cols[s] for s in gens]
        # (cells, their values under each choice): H itself for each c, then
        # each double coset HgH for each allowed A(g)
        cosets = [(H, [[m[h][c] for h in H] for c in ([e] if pointed_only else H)
                       if all(m[c][h] == m[h][c] for h in H)])]
        covered = set(H)
        for g in range(n):
            if g not in covered:
                pairs = [(m[m[h][g]][k], h, k) for h in H for k in H]
                cells = {x: (h, k) for x, h, k in pairs}  # x = hgk, one pair each
                stab = [(h, k) for x, h, k in pairs if x == g]
                covered.update(cells)
                cosets.append((list(cells), [[m[m[h][a]][k] for h, k in cells.values()]
                                             for a in H
                                             if all(m[m[h][a]][k] == a for h, k in stab)]))
        order = [x for cells, _ in cosets for x in cells]
        where = sorted(range(n), key=order.__getitem__)  # order[where[g]] == g
        for choice in itertools.product(*(values for _, values in cosets)):
            flat = [v for values in choice for v in values]
            op = tuple(flat[i] for i in where)
            if set(op) != hset or any([op[x] for x in T] != [T[a] for a in op] for T in shifts):
                validate_averaging(t, op).require()
            found.append(op)
    return sorted(found)


def cyclic_group(n: int) -> FiniteGroupTable:
    """Z_n with elements named 0..n-1."""
    if n < 1:
        raise TableError("cyclic group needs n >= 1")
    return FiniteGroupTable([str(i) for i in range(n)],
                            [[(i + j) % n for j in range(n)] for i in range(n)])


def klein_four_group() -> FiniteGroupTable:
    """Z_2 x Z_2 with the classical e,a,b,c naming: index i is the pair (i & 1, i >> 1)."""
    return FiniteGroupTable(["e", "a", "b", "c"], [[i ^ j for j in range(4)] for i in range(4)])


_S3_PERMS = (
    ("e", (0, 1, 2)),
    ("(12)", (1, 0, 2)),
    ("(13)", (2, 1, 0)),
    ("(23)", (0, 2, 1)),
    ("(123)", (1, 2, 0)),
    ("(132)", (2, 0, 1)),
)


def sym3() -> FiniteGroupTable:
    """S_3 in cycle notation; the product applies the right factor first."""
    perms = [p for _, p in _S3_PERMS]
    # p q maps i to p[q[i]]
    mul = [[perms.index(tuple(p[x] for x in q)) for q in perms] for p in perms]
    return FiniteGroupTable([n for n, _ in _S3_PERMS], mul)


def sym3_sign_retraction() -> tuple:
    """Retraction of S_3 onto {e, (12)}: even to e, odd to (12)."""
    odd = {"(12)", "(13)", "(23)"}
    names = [n for n, _ in _S3_PERMS]
    return tuple(names.index("(12)") if n in odd else names.index("e") for n in names)


def load_group_file(source):
    """Read {"elements": [...], "mul": [[...]], "op": {...}} data.

    Accepts a path or an already-parsed dict.  The optional "op" block maps
    element names to element names.  Returns (table, op or None); the
    identity and inverses are inferred by the table itself.
    """
    data = _load_json(source)
    if not isinstance(data, dict) or "elements" not in data or "mul" not in data:
        raise TableError("group file needs 'elements' and 'mul'")
    if not isinstance(data["elements"], (list, tuple)):
        raise TableError("'elements' must be a list of element names")
    table = FiniteGroupTable(data["elements"], data["mul"])
    op = None
    if data.get("op") is not None:
        op = op_from_names(table, data["op"])
    return table, op


def _load_json(source):
    """JSON data from a path; a dict is already data."""
    if isinstance(source, dict):
        return source
    with open(source, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _int(v) -> int:
    """An int or an integer string as an int.

    bool is an int subclass and int() truncates a float, so JSON true/false
    and 1.5 raise TypeError instead of passing for indices.
    """
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise TypeError(f"{v!r} is not an integer")
    return int(v)


def _as_int(v, what) -> int:
    try:
        return _int(v)
    except (TypeError, ValueError):
        raise TableError(f"{what} must be an integer, got {v!r}") from None


def op_from_names(table: FiniteGroupTable, raw) -> tuple:
    """Index table of an operator given as {element name: element name}."""
    if not isinstance(raw, dict):
        raise TableError("'op' must map element names to element names")
    op_list = [None] * len(table)
    for k, v in raw.items():
        op_list[table.index(k)] = table.index(v)
    if any(v is None for v in op_list):
        missing = [table.name(i) for i, v in enumerate(op_list) if v is None]
        raise TableError(f"'op' is not total; missing {missing}")
    return tuple(op_list)
