"""Finite averaging groups over explicit multiplication tables.

A group is given as a table of element names and a square index table for
the product.  The identity and the inverses are inferred from the table and
double checked, never declared.  An operator is a plain index map.  The
module validates group and averaging axioms by brute force, constructs the
standard operator families (central shifts, idempotent endomorphisms,
commuting compositions), searches small carriers exhaustively, and checks
the derived structure: pointed-operator consequences, the induced
disemigroup, and the conjugation rack.
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
        out = []
        for law, ok, detail in self.entries:
            mark = "ok" if ok else "FAIL"
            out.append(f"{law}: {mark}" + (f" {detail}" if detail else ""))
        return out

    def entry(self, law):
        for name, ok, detail in self.entries:
            if name == law:
                return ok, detail
        raise KeyError(law)

    def require(self):
        """Raise CheckFailed unless every entry passed."""
        if not self.ok:
            raise CheckFailed(self)


def _first_failure(holds, n, arity):
    """First index tuple over range(n), in itertools.product order, that
    fails holds(*tuple); None when every tuple holds."""
    for args in itertools.product(range(n), repeat=arity):
        if not holds(*args):
            return args
    return None


def _law(law, holds, n, arity, names):
    """(law, ok, detail) entry of an exhaustive check; the detail names the
    first failing tuple, as "fails at x" or "fails at (x, y, ...)"."""
    bad = _first_failure(holds, n, arity)
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
        elements = tuple(str(e) for e in elements)
        if len(set(elements)) != len(elements):
            raise TableError("element names must be unique")
        if not elements:
            raise TableError("empty carrier")
        n = len(elements)
        rows = []
        for row in mul:
            row = tuple(map(_int, row))
            if len(row) != n or any(not 0 <= v < n for v in row):
                raise TableError("mul table must be a square of indices in range")
            rows.append(row)
        if len(rows) != n:
            raise TableError("mul table must be a square of indices in range")
        self.elements = elements
        self.mul_table = tuple(rows)
        self._index = {name: i for i, name in enumerate(elements)}
        # the first element that is a two-sided identity, or None
        self._identity = next(
            (e for e in range(n)
             if all(rows[e][x] == x and rows[x][e] == x for x in range(n))), None)
        # each element's first two-sided inverse; on failure, the first
        # element that has none
        self._inverses = self._no_inverse = None
        if self._identity is not None:
            e, inv = self._identity, []
            for a in range(n):
                b = next((b for b in range(n) if rows[a][b] == e and rows[b][a] == e), None)
                if b is None:
                    self._no_inverse = a
                    break
                inv.append(b)
            else:
                self._inverses = tuple(inv)

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
        if self._inverses is None:
            self.identity()
            raise TableError(f"element {self.name(self._no_inverse)!r} has no inverse")
        return self._inverses

    def inv(self, a: int) -> int:
        return self.inverses()[a]


def validate_group(t: FiniteGroupTable, max_size: int = 24) -> CheckReport:
    """Brute-force group axioms; the first failing witness is named."""
    n = len(t)
    if n > max_size:
        raise TableError(f"carrier size {n} exceeds the exhaustive-check cap {max_size}")
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

    m = t.mul_table
    entries.append(_law("associativity", lambda a, b, c: m[m[a][b]][c] == m[a][m[b][c]],
                        n, 3, t.name))
    return CheckReport(tuple(entries))


def as_operator(t: FiniteGroupTable, op) -> tuple:
    """Normalize an operator to an index tuple, total on the carrier."""
    op = tuple(_as_int(v, "operator entry") for v in op)
    n = len(t)
    if len(op) != n or any(not 0 <= v < n for v in op):
        raise TableError("operator must map every element to an element")
    return op


def validate_averaging(t: FiniteGroupTable, op) -> CheckReport:
    """Check A(g)A(h) = A(A(g)h) = A(gA(h)) on all pairs."""
    op = as_operator(t, op)
    m = t.mul_table

    def holds(g, h):
        lhs = m[op[g]][op[h]]
        return lhs == op[m[op[g]][h]] and lhs == op[m[g][op[h]]]

    return CheckReport((_law("averaging", holds, len(t), 2, t.name),))


class AveragingGroupHandle:
    """A validated (table, operator) pair, usable as an evaluation target.

    The evaluation protocol works on element indices: identity(), mul(),
    inv(), op().
    """

    def __init__(self, table: FiniteGroupTable, op):
        validate_group(table).require()
        op = as_operator(table, op)
        validate_averaging(table, op).require()
        self.table = table
        self.op_table = op

    def identity(self) -> int:
        return self.table.identity()

    def mul(self, a: int, b: int) -> int:
        return self.table.mul(a, b)

    def inv(self, a: int) -> int:
        return self.table.inv(a)

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

    def element(self, name) -> int:
        return int(name)

    def name(self, i: int) -> str:
        return str(i)

    def is_pointed(self) -> bool:
        return self.z == 0


def shift_operator(t: FiniteGroupTable, z) -> AveragingGroupHandle:
    """A(h) = z*h for a central z; centrality is checked, not assumed."""
    zi = z if isinstance(z, int) else t.index(z)
    bad = _first_failure(lambda x: t.mul(zi, x) == t.mul(x, zi), len(t), 1)
    if bad is not None:
        raise TableError(f"shift element {t.name(zi)!r} is not central: "
                         f"fails against {t.name(bad[0])!r}")
    op = tuple(t.mul(zi, x) for x in range(len(t)))
    return AveragingGroupHandle(t, op)


def idempotent_endo_operator(t: FiniteGroupTable, phi) -> AveragingGroupHandle:
    """A = an idempotent group endomorphism; both properties checked."""
    phi = as_operator(t, phi)
    n = len(t)
    for law, holds, arity in (
            ("not a homomorphism", lambda a, b: phi[t.mul(a, b)] == t.mul(phi[a], phi[b]), 2),
            ("not idempotent", lambda a: phi[phi[a]] == phi[a], 1)):
        _, ok, detail = _law(law, holds, n, arity, t.name)
        if not ok:
            raise TableError(f"{law}: {detail}")
    return AveragingGroupHandle(t, phi)


def compose_operators(g, a1, a2) -> AveragingGroupHandle:
    """Composite A1 o A2 of two commuting averaging operators.

    Accepts a table or a handle for the carrier.  Each factor is validated
    as averaging, commutation is checked, and the composite handle is
    validated again rather than trusted.
    """
    t = g.table if isinstance(g, AveragingGroupHandle) else g
    a1 = as_operator(t, a1)
    a2 = as_operator(t, a2)
    for op in (a1, a2):
        validate_averaging(t, op).require()
    bad = _first_failure(lambda x: a1[a2[x]] == a2[a1[x]], len(t), 1)
    if bad is not None:
        raise TableError(f"operators do not commute: fail at {t.name(bad[0])!r}")
    comp = tuple(a1[a2[x]] for x in range(len(t)))
    return AveragingGroupHandle(t, comp)


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
    n, m, inv = len(t), t.mul_table, t.inverses()
    return CheckReport((
        ("pointed", True, ""),
        _law("idempotence", lambda g: A[A[g]] == A[g], n, 1, t.name),
        _law("inverse preservation", lambda g: inv[A[g]] == A[inv[A[g]]], n, 1, t.name),
        _law("Ad-equivariance",
             lambda g, k: m[m[A[g]][A[k]]][inv[A[g]]] == A[m[m[A[g]][k]][inv[A[g]]]],
             n, 2, t.name),
    ))


def disemigroup_ops(h):
    """The pair (left, right): g -| h = g A(h) and g |- h = A(g) h."""
    def left(g, k):
        return h.mul(g, h.op(k))

    def right(g, k):
        return h.mul(h.op(g), k)

    return left, right


def check_disemigroup(h: AveragingGroupHandle) -> CheckReport:
    """The five disemigroup identities, plus dimonoid units when pointed."""
    left, right = disemigroup_ops(h)
    n = len(h.table)
    t = h.table
    lt = [[left(g, k) for k in range(n)] for g in range(n)]
    rt = [[right(g, k) for k in range(n)] for g in range(n)]
    # each law reads p(q(f, g), h) = r(f, s(g, h)); (p, q, r, s) are tables
    laws = (
        ("(f-|g)-|h = f-|(g-|h)", (lt, lt, lt, lt)),
        ("(f-|g)-|h = f-|(g|-h)", (lt, lt, lt, rt)),
        ("(f|-g)-|h = f|-(g-|h)", (lt, rt, rt, lt)),
        ("(f-|g)|-h = f|-(g|-h)", (rt, lt, rt, rt)),
        ("(f|-g)|-h = f|-(g|-h)", (rt, rt, rt, rt)),
    )
    entries = [_law(name, lambda f, g, k, p=p, q=q, r=r, s=s: p[q[f][g]][k] == r[f][s[g][k]],
                    n, 3, t.name)
               for name, (p, q, r, s) in laws]
    e = t.identity()
    law, ok, detail = _law("dimonoid units", lambda g: lt[g][e] == g and rt[e][g] == g,
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
    n = len(h.table)
    t = h.table
    r = [[rack_op(h, g, k) for k in range(n)] for g in range(n)]
    bad = _first_failure(lambda g: len(set(r[g])) == n, n, 1)
    return CheckReport((
        ("pointed", True, ""),
        _law("self-distributivity", lambda f, g, k: r[f][r[g][k]] == r[r[f][g]][r[f][k]],
             n, 3, t.name),
        ("translation bijectivity", bad is None,
         "" if bad is None else f"L_{t.name(bad[0])} is not a bijection"),
    ))


def search_averaging_ops(t: FiniteGroupTable, pointed_only: bool = False,
                         max_size: int = 6):
    """All operator tables satisfying the averaging law, in index order.

    The carrier is capped because the search space is |G|^|G|.  The search
    assigns op[0], op[1], ... in turn, each value in increasing order, and
    abandons a partial table as soon as a pair (g, h) breaks the law once
    op[g], op[h] and the two lookups op[A(g)h], op[gA(h)] are all assigned.
    Every complete table is confirmed by validate_averaging before it is
    returned, so the hits come in the order of the full |G|^|G| enumeration.
    """
    n = len(t)
    if n > max_size:
        raise TableError(f"carrier size {n} exceeds the search cap {max_size}")
    e = t.identity()
    m = t.mul_table
    op = [0] * n
    found = []

    def breaks(g):
        # the pairs decided by assigning op[g]: all their indices are <= g
        # and one of them is g, so each pair is checked exactly once
        for a in range(g + 1):
            pa = op[a]
            for b in range(g + 1):
                pb = op[b]
                u, v = m[pa][b], m[a][pb]
                if u <= g and v <= g and g in (a, b, u, v):
                    lhs = m[pa][pb]
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


def cyclic_group(n: int) -> FiniteGroupTable:
    """Z_n with elements named 0..n-1."""
    if n < 1:
        raise TableError("cyclic group needs n >= 1")
    return FiniteGroupTable([str(i) for i in range(n)],
                            [[(i + j) % n for j in range(n)] for i in range(n)])


def klein_four_group() -> FiniteGroupTable:
    """Z_2 x Z_2 with the classical e,a,b,c naming."""
    names = ["e", "a", "b", "c"]
    pairs = [(0, 0), (1, 0), (0, 1), (1, 1)]
    idx = {p: i for i, p in enumerate(pairs)}
    mul = [[idx[((p[0] + q[0]) % 2, (p[1] + q[1]) % 2)] for q in pairs] for p in pairs]
    return FiniteGroupTable(names, mul)


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
    names = [n for n, _ in _S3_PERMS]

    def compose(p, q):
        return tuple(p[q[i]] for i in range(3))

    mul = [[perms.index(compose(p, q)) for q in perms] for p in perms]
    return FiniteGroupTable(names, mul)


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
    try:
        table = FiniteGroupTable(data["elements"], data["mul"])
    except TableError:
        raise
    except (ValueError, TypeError) as exc:
        raise TableError(f"'mul' must be a row-major table of element indices: {exc}") from None
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
