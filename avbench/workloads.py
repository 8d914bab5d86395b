"""The four workloads: seeded inputs, the timed ops, and their checks.

Each ``build_*`` function runs the program's own set-up for one workload
(corpus generation, tables, handles, files) and returns a ``Prepared``: the
ops of each pass the timed loop runs, in a fixed seeded order, and a
``check`` that takes what was kept of every output of every pass and judges
it against :mod:`avbench.reference`, outside the timed region.  The program
under test only ever receives the generated inputs; the seed stays in the
benchmark.

No pass repeats an input.  Pass 0 runs the corpus as drawn; every later pass
runs it with its letters renamed (see :class:`Renaming`) and on freshly built
tables, handles and words, so each pass does the same work on inputs the
program has not seen: a cache held by an input object, or keyed on a word
or text, gains nothing from an earlier pass.  (The tables, maps and
matrices of finite-verdicts are fixed inputs: rebuilt, but equal in content
every pass.)  Outputs are spelled back before they are kept, and every one
is checked.

A check sorts what it finds into two tallies.  ``failures`` are executions
whose output is wrong on inputs the program claims to handle; any of them
makes the run incorrect.  ``known_defects`` are outcomes of the documented
open defects (structural laws and normality on the full carrier, deep
nesting through the CLI), counted by class on pass 0, so that a fix shows as
a drop.  The exact counts also come from pass 0, the corpus as drawn.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import random
import statistics
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Callable

from . import reference as ref

ALPHABET = ("x", "y", "z")
FRESH = "abcdefghijklmnopqrstuvw"   # the letters a renamed pass spells words with


class Renaming:
    """How one item's letters are spelled in one pass, and how to read back.

    Without a generator it is the identity (pass 0).  Otherwise it sends x, y,
    z to three distinct letters of FRESH, and reading back sends those letters
    home and x, y, z to '#', which no word contains: a stray original letter
    in an output then fails the check.  Read-back text is interned, so the
    outputs kept from many passes share one copy of each text.
    """

    def __init__(self, rng: random.Random | None = None):
        if rng is None:
            self.to = self.back = {}
        else:
            letters = "".join(rng.sample(FRESH, len(ALPHABET)))
            self.to = str.maketrans("".join(ALPHABET), letters)
            self.back = str.maketrans(letters + "".join(ALPHABET), "".join(ALPHABET) + "###")

    def spell(self, text: str) -> str:
        return text.translate(self.to)

    def read(self, text: str) -> str:
        return sys.intern(text.translate(self.back))


def renamings(workload: str, seed: int, k: int, n: int) -> list:
    """The renaming of each of `n` items in pass `k`."""
    if k == 0:
        return [Renaming()] * n
    rng = random.Random(f"{workload}:{seed}:pass{k}")
    return [Renaming(rng) for _ in range(n)]


def _same(out):
    return out


@dataclass
class Op:
    tag: str
    run: Callable[[], object]
    keep: Callable[[object], object] = _same   # what the check needs of an output


@dataclass
class Verdict:
    failures: Counter = field(default_factory=Counter)    # class -> executions
    failed_ops: set = field(default_factory=set)         # (pass, op index)
    known_defects: Counter = field(default_factory=Counter)
    exact: dict = field(default_factory=dict)
    corpus: dict = field(default_factory=dict)

    def fail(self, k: int, i: int, cls: str) -> None:
        self.failures[cls] += 1
        self.failed_ops.add((k, i))


@dataclass
class Prepared:
    size: int                                  # items, each renamed on its own
    ops: Callable[[list], list]                # renamings -> the ops of one pass
    check: Callable[[list], Verdict]           # kept outputs of every pass -> verdict


class Raised:
    """The output of an op that raised instead of returning."""

    def __init__(self, exc: BaseException):
        self.name = type(exc).__name__

    def __eq__(self, other):
        return isinstance(other, Raised) and other.name == self.name

    def __repr__(self):
        return f"Raised({self.name})"


def word_eq(a, b) -> bool:
    """Structural equality of two words, as the law battery compares them."""
    return a == b


def _facts(book, text):
    """The reference's facts about an output text, or None if it is not a word."""
    try:
        return book[text]
    except (ref.TextError, KeyError):
        return None


def _params(av, rng, d: int, b: int):
    return av.avgroup.GenParams(max_depth=d, max_breadth=b, alphabet=ALPHABET,
                                seed=rng.getrandbits(32))


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(item.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _text_stats(texts, book) -> dict:
    found = [book[t] for t in texts]
    return {
        "words": len(texts),
        "mean_chars": round(statistics.fmean(len(t) for t in texts), 2),
        "mean_depth": round(statistics.fmean(f.depth for f in found), 3),
        "mean_breadth": round(statistics.fmean(f.breadth for f in found), 3),
        "normal_share": round(sum(f.normal for f in found) / len(texts), 4),
    }


def _shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


# --- oracle-normalize --------------------------------------------------------

# (tag, size, words, raw?, strata); about a quarter of the corpus is already
# normal.  The cost of normalizing a raw word grows steeply with its size, so
# the large sizes are fewer: d8b9 alone still takes about half the time.
#
# That cost is heavy-tailed: a plain random sample of a few hundred words
# moves the mean and the p99 by 20% from seed to seed.  Each class is
# therefore drawn `strata` times over and thinned to every strata-th word in
# order of rendered length, so every seed gets nearly the same spread of
# sizes and only the words themselves change.  The tail classes get more.
ORACLE_CLASSES = (
    ("d5b6", (5, 6), 1200, True, 2), ("d7b8", (7, 8), 600, True, 3),
    ("d8b9", (8, 9), 200, True, 6), ("normal", (5, 6), 240, False, 2),
    ("normal", (7, 8), 230, False, 2), ("normal", (8, 9), 230, False, 2),
)


def _stratified(rng, words, n, strata):
    words = sorted(words, key=lambda t: (len(t), t))
    return words[rng.randrange(strata)::strata][:n]


def build_oracle(av, rng, workdir) -> Prepared:
    W, N, G = av.words, av.normalform, av.avgroup
    items = []
    for tag, (d, b), n, raw, strata in ORACLE_CLASSES:
        gen = G.random_raw_word if raw else G.random_normal_word
        drawn = [W.render(gen(_params(av, rng, d, b))) for _ in range(n * strata)]
        items += [(tag, text) for text in _stratified(rng, drawn, n, strata)]
    items = _shuffled(rng, items)

    def op(text):
        return lambda: av.words.render(av.normalform.oracle_normalize(av.words.parse(text)))

    def ops(names):
        return [Op(tag, op(r.spell(text)), r.read) for (tag, text), r in zip(items, names)]

    def check(kept) -> Verdict:
        v = Verdict()
        book = ref.FactBook()
        rules = Counter()
        steps_by_tag = Counter()
        other = N.STRATEGIES[1]
        for k, outputs in enumerate(kept):
            for i, ((tag, text), out) in enumerate(zip(items, outputs)):
                if isinstance(out, Raised):
                    v.fail(k, i, f"exception:{out.name}")
                    continue
                found = _facts(book, out)
                if found is None:
                    v.fail(k, i, "unreadable")
                else:
                    if found.images != book[text].images:
                        v.fail(k, i, "image")
                    if not found.normal:
                        v.fail(k, i, "not-normal")
                if k > 0:
                    continue
                word = W.parse(text)
                if W.render(N.oracle_normalize(word, other)) != out:
                    if tag == "normal":
                        v.fail(k, i, "strategies-disagree")
                    else:
                        # raw words reach the full carrier, where two normal
                        # spellings can name one element: the open defect
                        v.known_defects["full/strategies-disagree"] += 1
                for _, step in N.oracle_steps(word):
                    rules[step.rule] += 1
                    steps_by_tag[tag] += 1
        v.exact = {
            "oracle_steps": sum(rules.values()),
            "oracle_rules": dict(sorted(rules.items())),
            "oracle_steps_by_size": dict(sorted(steps_by_tag.items())),
            "outputs_digest": _digest(f"{o}" for o in kept[0]),
        }
        v.corpus = {
            "generator": {"classes": [[t, list(s), n, "raw" if r else "normal", k]
                                      for t, s, n, r, k in ORACLE_CLASSES],
                          "alphabet": list(ALPHABET)},
            "by_class": {tag: _text_stats([t for g, t in items if g == tag], book)
                         for tag in dict.fromkeys(c[0] for c in ORACLE_CLASSES)},
            **_text_stats([t for _, t in items], book),
        }
        return v

    return Prepared(len(items), ops, check)


# --- product-laws ------------------------------------------------------------

PRODUCT_SIZES = ((5, 6), (6, 7), (7, 8))
PRODUCT_TRIPLES = 500         # per sector
LAWS = ("assoc", "inverses", "averaging", "iterated.2", "iterated.3",
        "iterated.4", "closure")
# Each battery output, and how its image follows from the images of u, v, w.
OUTPUTS = (
    ("uv", lambda a, b, c: ref.mul_images(a, b)),
    ("(uv)w", lambda a, b, c: ref.mul_images(ref.mul_images(a, b), c)),
    ("u(vw)", lambda a, b, c: ref.mul_images(a, ref.mul_images(b, c))),
    ("u^-1", lambda a, b, c: ref.inv_images(a)),
    ("u u^-1", lambda a, b, c: ref.mul_images(a, ref.inv_images(a))),
    ("u^-1 u", lambda a, b, c: ref.mul_images(ref.inv_images(a), a)),
    ("A(u)", lambda a, b, c: ref.op_images(a)),
    ("A(u)A(v)", lambda a, b, c: ref.mul_images(ref.op_images(a), ref.op_images(b))),
    ("A(A(u)v)", lambda a, b, c: ref.op_images(ref.mul_images(ref.op_images(a), b))),
    ("A(uA(v))", lambda a, b, c: ref.op_images(ref.mul_images(a, ref.op_images(b)))),
) + tuple(
    row for n in (2, 3, 4) for row in (
        (f"A(u A^{n}(v))",
         lambda a, b, c, n=n: ref.op_images(ref.mul_images(a, ref.op_images(b, n)))),
        (f"A^{n}(u A(v))",
         lambda a, b, c, n=n: ref.op_images(ref.mul_images(a, ref.op_images(b)), n)),
    )
)


def law_battery(av, u, v, w):
    """Outputs (in OUTPUTS order) and law verdicts for one triple."""
    D, A = av.avgroup.diamond, av.avgroup.op_apply
    It, I = av.avgroup.op_iter, av.avgroup.inverse
    uv = D(u, v)
    uv_w, u_vw = D(uv, w), D(u, D(v, w))
    iu = I(u)
    u_iu, iu_u = D(u, iu), D(iu, u)
    au, av_ = A(u), A(v)
    avg = (D(au, av_), A(D(au, v)), A(D(u, av_)))
    outputs = [uv, uv_w, u_vw, iu, u_iu, iu_u, au, *avg]
    one = av.words.ONE
    verdicts = {
        "assoc": word_eq(uv_w, u_vw),
        "inverses": word_eq(u_iu, one) and word_eq(iu_u, one),
        "averaging": word_eq(avg[0], avg[1]) and word_eq(avg[0], avg[2]),
    }
    u_av = D(u, av_)
    for n in (2, 3, 4):
        left, right = A(D(u, It(v, n))), It(u_av, n)
        outputs += [left, right]
        verdicts[f"iterated.{n}"] = word_eq(left, right)
    is_normal = av.normalform.is_normal
    verdicts["closure"] = is_normal(uv) and is_normal(au) and is_normal(iu)
    return tuple(outputs), verdicts


def build_product(av, rng, workdir) -> Prepared:
    G = av.avgroup
    triples = []
    for sector, via_oracle in (("positive", False), ("full", True)):
        for k in range(PRODUCT_TRIPLES):
            d, b = PRODUCT_SIZES[k % len(PRODUCT_SIZES)]
            triple = tuple(G.random_normal_word(_params(av, rng, d, b), via_oracle=via_oracle)
                           for _ in range(3))
            triples.append((sector, triple))
    triples = _shuffled(rng, triples)
    texts = []   # the rendered inputs, made when a renamed pass first needs them

    def ops(names):
        parse, render = av.words.parse, av.words.render
        if names[0].to and not texts:
            texts.extend(tuple(render(x) for x in t) for _, t in triples)
        out = []
        for n, ((sector, triple), r) in enumerate(zip(triples, names)):
            if r.to:
                triple = tuple(parse(r.spell(t)) for t in texts[n])

            def keep(result, r=r):
                words, verdicts = result
                return (tuple(r.read(av.words.render(x)) for x in words),
                        tuple(law for law in LAWS if not verdicts[law]))

            out.append(Op(sector, (lambda t=triple: law_battery(av, *t)), keep))
        return out

    def check(kept) -> Verdict:
        v = Verdict()
        render, book = av.words.render, ref.FactBook()
        expected = []
        for _, triple in triples:
            a, b, c = (book[render(x)].images for x in triple)
            expected.append([expect(a, b, c) for _, expect in OUTPUTS])
        letters = 0
        for k, outputs in enumerate(kept):
            for i, ((sector, _), out) in enumerate(zip(triples, outputs)):
                if isinstance(out, Raised):
                    v.fail(k, i, f"{sector}/exception:{out.name}")
                    continue
                texts_out, broken = out
                normal = True
                for (label, _), text, want in zip(OUTPUTS, texts_out, expected[i]):
                    found = _facts(book, text)
                    if found is None or found.images != want:
                        v.fail(k, i, f"{sector}/image:{label}")
                        continue
                    normal &= found.normal
                    if k == 0:
                        letters += found.letters
                broken = list(broken) + ([] if normal else ["not-normal"])
                for law in broken:
                    if sector == "positive":
                        v.fail(k, i, f"positive/{law}")
                    elif k == 0:
                        # the carrier is documented as faithful on the positive
                        # sector only; full-carrier breaks are the open defect
                        v.known_defects[f"full/{law}"] += 1
        v.exact = {"output_letters": letters,
                   "outputs_digest": _digest(f"{o}" for o in kept[0])}
        sectors = {}
        for sector in ("positive", "full"):
            inputs = [render(x) for s, t in triples if s == sector for x in t]
            sectors[sector] = _text_stats(inputs, book)
        v.corpus = {
            "generator": {"sizes": [list(s) for s in PRODUCT_SIZES],
                          "triples_per_sector": PRODUCT_TRIPLES,
                          "full_sector": "random_normal_word(via_oracle=True)",
                          "alphabet": list(ALPHABET)},
            **sectors,
        }
        return v

    return Prepared(len(triples), ops, check)


# --- finite-verdicts ---------------------------------------------------------

FINITE_GROUPS = ("Z4", "K4", "Z5", "Z6", "S3")
HOPF_GROUPS = ("Z4", "K4")
EVAL_WORDS = 150
EVAL_SIZE = (7, 8)


def _lie_inputs():
    """(name, dim, brackets, matrices) with zero-based bracket indices."""
    def eye(d):
        return [[int(i == j) for j in range(d)] for i in range(d)]

    def proj(d):
        return [[int(i == j == 0) for j in range(d)] for i in range(d)]

    def shift(d):
        return [[int(j == i + 1) for j in range(d)] for i in range(d)]

    return (
        ("abelian3", 3, {}, (("P", proj(3)), ("N", shift(3)))),
        ("sl2", 3, {(0, 1): {2: 1}, (2, 0): {0: 2}, (2, 1): {1: -2}},
         (("I", eye(3)), ("P", proj(3)))),
        ("filiform6", 6, {(0, i): {i + 1: 1} for i in range(1, 5)},
         (("I", eye(6)), ("N", shift(6)))),
    )


def _tables(S) -> dict:
    return {"Z4": S.cyclic_group(4), "K4": S.klein_four_group(),
            "Z5": S.cyclic_group(5), "Z6": S.cyclic_group(6), "S3": S.sym3()}


def build_finite(av, rng, workdir) -> Prepared:
    S, L, W, G = av.structures, av.linearalg, av.words, av.avgroup
    found = {g: S.search_averaging_ops(t) for g, t in _tables(S).items()}
    words = [G.random_raw_word(_params(av, rng, *EVAL_SIZE)) for _ in range(EVAL_WORDS)]
    texts = [W.render(w) for w in words]

    rows = []   # (tag, detail)
    for g in FINITE_GROUPS:
        rows += [(f"search:{g}", pointed) for pointed in (False, True)]
    for g in HOPF_GROUPS:
        rows += [(f"hopf:{g}", m) for m in itertools.product(range(4), repeat=4)]
    for g in FINITE_GROUPS:
        for op in found[g]:
            rows.append((f"handle:{g}", op))
            rows += [(f"derived:{c}", (g, op))
                     for c in ("check_disemigroup", "check_rack", "check_pointed_consequences")]
    for name, _, _, mats in _lie_inputs():
        for mname, _ in mats:
            rows += [("lie:averaging", (name, mname)), ("lie:leibniz", (name, mname))]
    rows += [(f"eval:{target}", n) for n in range(EVAL_WORDS) for target in ("z4", "s3")]
    rows = _shuffled(rng, rows)

    def ops(names):
        """The ops of one pass, on tables, handles and algebras built for it."""
        S, L, W = av.structures, av.linearalg, av.words
        tables = _tables(S)
        handles = {(g, op): S.AveragingGroupHandle(tables[g], op)
                   for g in FINITE_GROUPS for op in found[g]}
        targets = {"z4": S.AveragingGroupHandle(S.cyclic_group(4), (1, 2, 3, 0)),
                   "s3": S.idempotent_endo_operator(S.sym3(), S.sym3_sign_retraction())}
        images = {"z4": [str(i + 1) for i in range(len(ALPHABET))],
                  "s3": ["(12)", "(23)", "(132)"]}
        lie = {name: (L.LieAlgebraSpec.from_brackets(dim, br), dict(mats))
               for name, dim, br, mats in _lie_inputs()}
        out = []
        for (tag, detail), r in zip(rows, names):
            kind, _, what = tag.partition(":")
            keep = _same
            if kind == "search":
                fn = (lambda t=tables[what], p=detail:
                      av.structures.search_averaging_ops(t, pointed_only=p))
            elif kind == "hopf":
                fn = (lambda t=tables[what], m=detail:
                      av.linearalg.check_hopf_equivalence(t, m))
            elif kind == "handle":
                fn = (lambda t=tables[what], op=detail:
                      av.structures.AveragingGroupHandle(t, op).is_pointed())
            elif kind == "derived":
                fn = lambda h=handles[detail], c=what: getattr(av.structures, c)(h).ok
            elif kind == "lie":
                spec, mats = lie[detail[0]]
                check_lie = "check_averaging_lie" if what == "averaging" else "check_leibniz"
                fn = (lambda s=spec, M=mats[detail[1]], c=check_lie:
                      getattr(av.linearalg, c)(s, M).ok)
            else:
                h = targets[what]
                w = W.parse(r.spell(texts[detail])) if r.to else words[detail]
                a = {r.spell(x): h.element(e) for x, e in zip(ALPHABET, images[what])}
                fn = lambda w=w, h=h, a=a: av.words.eval_operated(w, h, a)
                keep = h.name
            out.append(Op(tag, fn, keep))
        return out

    def check(kept) -> Verdict:
        v = Verdict()
        book = ref.FactBook()
        expected_ops = {(g, p): ref.averaging_ops(ref.GROUPS[g], p)
                        for g in FINITE_GROUPS for p in (False, True)}
        lie_ref = {}
        for name, dim, br, mats in _lie_inputs():
            consts = ref.lie_complete(dim, br)
            for mname, M in mats:
                lie_ref[("lie:averaging", (name, mname))] = ref.lie_averaging(dim, consts, M)
                lie_ref[("lie:leibniz", (name, mname))] = ref.lie_leibniz(dim, consts, M)
        found_counts, hopf_true, derived_ok = Counter(), Counter(), Counter()
        for k, outputs in enumerate(kept):
            for i, ((tag, detail), out) in enumerate(zip(rows, outputs)):
                kind, _, what = tag.partition(":")
                if isinstance(out, Raised):
                    v.fail(k, i, f"{kind}/exception:{out.name}")
                    continue
                if kind == "search":
                    if k == 0:
                        found_counts[f"{what}.{'pointed' if detail else 'plain'}"] = len(out)
                    ok = list(out) == expected_ops[(what, detail)]
                elif kind == "hopf":
                    law = ref.is_averaging(ref.GROUPS[what], detail)
                    if k == 0:
                        hopf_true[what] += out[0]
                    ok = tuple(out) == (law, law)
                elif kind == "handle":
                    ok = out == (detail[0] == 0)
                elif kind == "derived":
                    if k == 0:
                        derived_ok[what] += out
                    ok = out == (detail[1][0] == 0)
                elif kind == "lie":
                    ok = out == lie_ref[(tag, detail)]
                else:
                    want = book[texts[detail]].images
                    if what == "z4":
                        ok = out == str(want[1])
                    else:
                        ok = ref.S3_NAMES.get(out) == want[2]
                if not ok:
                    v.fail(k, i, f"{kind}/wrong")
        v.exact = {
            "operators_found": dict(sorted(found_counts.items())),
            "hopf_group_ok": dict(sorted(hopf_true.items())),
            "derived_ok": dict(sorted(derived_ok.items())),
            "outputs_digest": _digest(repr(o) for o in kept[0]),
        }
        v.corpus = {
            "generator": {"groups": list(FINITE_GROUPS), "hopf_groups": list(HOPF_GROUPS),
                          "lie": [[n, d, [m for m, _ in ms]] for n, d, _, ms in _lie_inputs()],
                          "eval_words": EVAL_WORDS, "eval_size": list(EVAL_SIZE),
                          "alphabet": list(ALPHABET)},
            "ops_by_kind": dict(sorted(Counter(t.split(":")[0] for t, _ in rows).items())),
            "eval": _text_stats(texts, book),
        }
        return v

    return Prepared(len(rows), ops, check)


# --- cli-requests ------------------------------------------------------------

CLI_SIZE = (3, 4)
# Equal shares of the subcommands the CLI offers, and two small fixed shares
# of hostile input: malformed words (must exit 2) and words nested
# DEEP_NESTING deep (the contract says exit 2; today RecursionError escapes
# main, the open defect).  The hostile shares are round figures, not measured
# usage; there is no usage data to weight the mix by.
#
# A deep request takes 6-10 ms, several times an ordinary one, so at 2% of
# the mix the deep requests set latency_ms_p99.  Most go through normalize,
# so that the p99 falls inside a cluster of equal-cost requests: spread
# evenly over four commands of unequal cost, it jumped between their costs
# from run to run, and with deep requests under 1% it rested on rare garbage
# collection pauses and moved by as much as half between seeds.
CLI_KINDS = ("normalize", "check-only", "mul", "op", "op-iter", "inv", "eval")
CLI_PER_KIND = 130
CLI_MALFORMED = 50
CLI_RAW_SHARE = 0.5   # of the words, drawn raw rather than normal
DEEP_COMMANDS = ("normalize",) * 17 + ("op", "inv", "mul")
WORD_OUTPUT = ("normalize", "mul", "op", "op-iter", "inv")
MALFORMED = ("{} ]", "[ {}", "{} x@2", "{} y^0", "{} #")
DEEP_NESTING = 250
S3_MAP = "x=(12),y=(23),z=(132)"


def _s3_group_file(path: str) -> None:
    """S3 with the sign retraction, written from the reference's tables."""
    sign = ref.TARGETS[2].op
    data = {"elements": list(ref.S3_NAMES), "mul": ref.s3_table(),
            "op": {n: ref.S3_BY_PERM[sign(p)] for n, p in ref.S3_NAMES.items()}}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def run_cli(av, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = av.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _deep_word() -> str:
    return "[x " * DEEP_NESTING + "x" + "]" * DEEP_NESTING


def build_cli(av, rng, workdir) -> Prepared:
    W, G = av.words, av.avgroup
    group_file = os.path.join(workdir, "s3.json")
    _s3_group_file(group_file)

    def word():
        p = _params(av, rng, *CLI_SIZE)
        raw = rng.random() < CLI_RAW_SHARE
        return W.render(G.random_raw_word(p) if raw else G.random_normal_word(p))

    kinds = [k for k in CLI_KINDS for _ in range(CLI_PER_KIND)]
    kinds += ["malformed"] * CLI_MALFORMED + ["deep"] * len(DEEP_COMMANDS)
    # (kind, argv as (text, spelled with the pass's letters?), words, extra)
    requests = []
    deep_commands = iter(DEEP_COMMANDS)
    for kind in _shuffled(rng, kinds):
        w = None if kind == "deep" else word()
        if kind == "normalize":
            requests.append((kind, [("normalize", 0), (w, 1)], (w,), None))
        elif kind == "check-only":
            requests.append((kind, [("normalize", 0), ("--check-only", 0), (w, 1)], (w,), None))
        elif kind == "mul":
            b = word()
            requests.append((kind, [("mul", 0), (w, 1), (b, 1)], (w, b), None))
        elif kind == "op":
            requests.append((kind, [("op", 0), (w, 1)], (w,), None))
        elif kind == "op-iter":
            k = rng.randint(2, 4)
            requests.append((kind, [("op", 0), ("--iter", 0), (str(k), 0), (w, 1)], (w,), k))
        elif kind == "inv":
            requests.append((kind, [("inv", 0), (w, 1)], (w,), None))
        elif kind == "eval":
            requests.append((kind, [("eval", 0), (w, 1), ("--group", 0), (group_file, 0),
                                    ("--map", 0), (S3_MAP, 1)], (w,), None))
        elif kind == "malformed":
            bad = rng.choice(MALFORMED).format(w)
            requests.append((kind, [("normalize", 0), (bad, 1)], (bad,), None))
        else:
            command = next(deep_commands)
            argv = [(command, 0), (_deep_word(), 1)] + ([("x", 1)] if command == "mul" else [])
            requests.append((kind, argv, (), command))

    def ops(names):
        out = []
        for (kind, argv, _, _), r in zip(requests, names):
            argv = [r.spell(text) if spelled else text for text, spelled in argv]

            def keep(result, r=r, kind=kind):
                code, stdout, _ = result
                line = stdout.strip()
                return code, (r.read(line) if kind in WORD_OUTPUT else line)

            out.append(Op(kind, (lambda argv=argv: run_cli(av, argv)), keep))
        return out

    def expected(kind, words, extra, book):
        """(exit code, the stdout line wanted or the images of the word wanted)."""
        if kind == "malformed":
            return 2, ""
        imgs = [book[w].images for w in words]
        if kind == "check-only":
            return (0, "normal") if book[words[0]].normal else (1, "not normal")
        if kind == "eval":
            return 0, ref.S3_BY_PERM[imgs[0][2]]
        return 0, {
            "normalize": lambda: imgs[0],
            "mul": lambda: ref.mul_images(imgs[0], imgs[1]),
            "op": lambda: ref.op_images(imgs[0]),
            "op-iter": lambda: ref.op_images(imgs[0], extra),
            "inv": lambda: ref.inv_images(imgs[0]),
        }[kind]()

    def check(kept) -> Verdict:
        v = Verdict()
        book = ref.FactBook()
        exits = Counter()
        wanted = [None if kind == "deep" else expected(kind, words, extra, book)
                  for kind, _, words, extra in requests]
        for k, outputs in enumerate(kept):
            defects = v.known_defects if k == 0 else Counter()
            for i, ((kind, _, words, extra), out, want) in enumerate(
                    zip(requests, outputs, wanted)):
                code = "exception" if isinstance(out, Raised) else out[0]
                if k == 0:
                    exits[str(code)] += 1
                if kind == "deep":
                    # hostile input: the exit contract says 2 for unusable input
                    if code != "exception":
                        if code != 2:
                            defects[f"deep-nesting/{extra}/exit:{code}"] += 1
                    elif out.name == "RecursionError":
                        defects[f"deep-nesting/{extra}/RecursionError"] += 1
                    else:
                        v.fail(k, i, f"deep/exception:{out.name}")
                    continue
                if code == "exception":
                    v.fail(k, i, f"{kind}/exception:{out.name}")
                    continue
                line = out[1]
                want_code, want_out = want
                if code != want_code:
                    v.fail(k, i, f"{kind}/exit:{code}")
                elif isinstance(want_out, str):
                    if line != want_out:
                        v.fail(k, i, f"{kind}/output")
                else:
                    got = _facts(book, line)
                    if got is None or got.images != want_out:
                        v.fail(k, i, f"{kind}/output")
                    elif got.normal:
                        pass
                    elif all(book[w].positive for w in words):
                        v.fail(k, i, f"{kind}/not-normal")
                    else:
                        # an input outside the positive sector: the open
                        # full-carrier defect, as in product-laws
                        defects[f"not-normal/{kind}"] += 1
        v.exact = {"cli_exit": dict(sorted((+exits).items())),
                   "outputs_digest": _digest(f"{o}" for o in kept[0])}
        v.corpus = {
            "generator": {"size": list(CLI_SIZE), "per_kind": CLI_PER_KIND,
                          "kinds": list(CLI_KINDS), "malformed": CLI_MALFORMED,
                          "deep": list(DEEP_COMMANDS), "deep_nesting": DEEP_NESTING,
                          "raw_share": CLI_RAW_SHARE, "alphabet": list(ALPHABET)},
            "requests_by_kind": dict(sorted(Counter(k for k, _, _, _ in requests).items())),
            **_text_stats([w for k, _, ws, _ in requests if k != "malformed" for w in ws],
                          book),
        }
        return v

    return Prepared(len(requests), ops, check)


WORKLOADS = {
    "oracle-normalize": build_oracle,
    "product-laws": build_product,
    "finite-verdicts": build_finite,
    "cli-requests": build_cli,
}


def seeded_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")
