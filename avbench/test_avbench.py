"""Self-tests of the benchmark: its references, its renamed passes, and its
determinism.

    python3 -m pytest avbench -q

The references must be right for the benchmark's correctness checks to mean
anything, so they are tested here against known counts and against the
program on seeded words.  A renamed pass must read back to the outputs of
the pass as drawn and pass the same check.  The determinism test runs the
benchmark twice on one seed, under different string-hash seeds, and requires
the same exact counts, failure tallies and output digests.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from avgroups import (  # noqa: E402
    AveragingGroupHandle,
    GenParams,
    IntShiftGroup,
    LieAlgebraSpec,
    check_averaging_lie,
    check_disemigroup,
    check_hopf_equivalence,
    check_leibniz,
    check_pointed_consequences,
    check_rack,
    cyclic_group,
    eval_operated,
    idempotent_endo_operator,
    is_normal,
    klein_four_group,
    random_normal_word,
    random_raw_word,
    render,
    search_averaging_ops,
    sym3,
    sym3_sign_retraction,
)

from avbench import reference as ref  # noqa: E402
from avbench import workloads  # noqa: E402
from avbench.run import Program  # noqa: E402

# plain / pointed averaging operators on each carrier
KNOWN_COUNTS = {"Z4": (9, 4), "K4": (17, 8), "Z5": (6, 2), "Z6": (24, 9), "S3": (14, 8)}
TABLES = {"Z4": lambda: cyclic_group(4), "K4": klein_four_group,
          "Z5": lambda: cyclic_group(5), "Z6": lambda: cyclic_group(6), "S3": sym3}


@pytest.mark.parametrize("group", sorted(KNOWN_COUNTS))
def test_reference_counts_averaging_operators(group):
    plain = ref.averaging_ops(ref.GROUPS[group])
    pointed = ref.averaging_ops(ref.GROUPS[group], pointed=True)
    assert (len(plain), len(pointed)) == KNOWN_COUNTS[group]
    assert search_averaging_ops(TABLES[group]()) == plain
    assert search_averaging_ops(TABLES[group](), pointed_only=True) == pointed


def test_reference_tables_match_the_programs():
    for group, make in TABLES.items():
        t = make()
        assert [list(row) for row in t.mul_table] == ref.GROUPS[group]


@pytest.mark.parametrize("group", ["Z4", "K4"])
def test_hopf_group_verdicts_count_the_searched_operators(group):
    t = TABLES[group]()
    verdicts = [check_hopf_equivalence(t, m)[0] for m in itertools.product(range(4), repeat=4)]
    assert sum(verdicts) == KNOWN_COUNTS[group][0] == len(search_averaging_ops(t))


@pytest.mark.parametrize("group", sorted(KNOWN_COUNTS))
def test_derived_checks_pass_exactly_on_pointed_operators(group):
    t = TABLES[group]()
    for op in ref.averaging_ops(ref.GROUPS[group]):
        h = AveragingGroupHandle(t, op)
        pointed = op[0] == 0
        assert check_disemigroup(h).ok == pointed
        assert check_rack(h).ok == pointed
        assert check_pointed_consequences(h).ok == pointed


def test_reference_reads_and_evaluates_words():
    assert ref.facts("[x [y]]").images[0] == 2 + 3 + 5 + 5
    assert ref.facts("1").images == ref.facts("x x^-1").images == ref.facts("[y]^2 [y]^-2").images
    assert ref.facts("[x]@3").images[1] == (1 + 3) % 4
    assert ref.facts("[x]").images[2] == ref.S3_NAMES["(12)"]
    with pytest.raises(ref.TextError):
        ref.read_word("[x")


@pytest.mark.parametrize("text, normal", [
    ("[x [y]]", True), ("[x]@2 y", True), ("[x]^-1 [y]", True), ("[1]", True),
    ("[x] [y]", False), ("[x]^-1 [y]^-1", False), ("x x^-1", False),
    ("[[x] y]", False), ("[y [x]@2]", False), ("[[x]]", False), ("[y x^-1 x]", False),
])
def test_reference_normality_on_written_words(text, normal):
    assert ref.facts(text).normal == normal


def test_reference_agrees_with_the_program_on_seeded_words():
    rng = random.Random(5)
    z4 = AveragingGroupHandle(cyclic_group(4), (1, 2, 3, 0))
    s3 = idempotent_endo_operator(sym3(), sym3_sign_retraction())
    s3_map = {"x": s3.element("(12)"), "y": s3.element("(23)"), "z": s3.element("(132)")}
    for k in range(300):
        p = GenParams(max_depth=5, max_breadth=6, seed=rng.getrandbits(32))
        w = random_raw_word(p) if k % 2 else random_normal_word(p)
        found = ref.facts(render(w))
        assert found.normal == is_normal(w), render(w)
        assert found.images[0] == eval_operated(w, IntShiftGroup(5), {"x": 2, "y": 3, "z": 4})
        assert found.images[1] == eval_operated(w, z4, {"x": 1, "y": 2, "z": 3})
        assert ref.S3_BY_PERM[found.images[2]] == s3.name(eval_operated(w, s3, s3_map))


def test_reference_lie_checks_match_the_program():
    for name, dim, brackets, mats in workloads._lie_inputs():
        spec = LieAlgebraSpec.from_brackets(dim, brackets)
        consts = ref.lie_complete(dim, brackets)
        for _, M in mats:
            assert ref.lie_averaging(dim, consts, M) == check_averaging_lie(spec, M).ok, name
            assert ref.lie_leibniz(dim, consts, M) == check_leibniz(spec, M).ok, name


def test_renaming_reads_back_and_rejects_stray_letters():
    r = workloads.renamings("w", 1, 1, 1)[0]
    spelled = r.spell("[x y^-1]@2 z")
    assert not set("xyz") & set(spelled)
    assert r.read(spelled) == "[x y^-1]@2 z"
    assert "#" in r.read("x")
    assert workloads.renamings("w", 1, 0, 1)[0].spell("x y") == "x y"


@pytest.mark.parametrize("workload", ["cli-requests", "finite-verdicts"])
def test_a_renamed_pass_reads_back_to_the_pass_as_drawn(workload, tmp_path):
    av = Program()
    prepared = workloads.WORKLOADS[workload](av, workloads.seeded_rng(workload, 4), str(tmp_path))
    kept = []
    for k in (0, 1):
        names = workloads.renamings(workload, 4, k, prepared.size)
        outputs = []
        for op in prepared.ops(names):
            try:
                outputs.append(op.keep(op.run()))
            except RecursionError as exc:
                outputs.append(workloads.Raised(exc))
        kept.append(outputs)
    assert kept[1] == kept[0]
    verdict = prepared.check(kept)
    assert not verdict.failed_ops, verdict.failures


def _run_once(workload: str, seed: int, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run(
        [sys.executable, str(ROOT / "avbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", "0"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300, check=True)
    lines = out.stdout.strip().splitlines()
    info = json.loads(lines[-2])["info"]
    result = json.loads(lines[-1])
    return {"exact": info["exact"], "failures": info["failures"],
            "known_defects": info["known_defects"], "corpus": info["corpus"],
            "correct": result["correct"]}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_one_seed_gives_identical_counts_and_outputs(workload):
    first = _run_once(workload, 3, "1")
    second = _run_once(workload, 3, "2")
    assert first == second
    assert first["correct"]
