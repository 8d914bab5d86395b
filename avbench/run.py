"""Run one avgroups benchmark workload and print its metrics as JSON.

    python3 avbench/run.py --workload oracle-normalize --seed 1 --seconds 15 --trace 0

The program is imported from ``src/`` next to this directory.  One run:

1. sets up several times (a fresh import of avgroups, then the workload's
   corpus, tables, handles, files and first-pass ops) and reports the median
   as ``setup_s``;
2. runs the ops in closed loop, one client, in whole passes until
   ``--seconds`` have gone by; every pass after the first runs the corpus
   with renamed letters on fresh objects, so no op sees an input twice;
3. reads the peak resident memory, then checks every kept output of every
   pass against the benchmark's independent references;
4. prints one ``{"info": ...}`` line (corpus statistics, exact counts, the
   failure and known-defect tallies, raw timings) and, last, the result.

Each execution's time is scaled to the reference host speed (see
:mod:`avbench.measure`); ``ops_per_s`` is the executions over the time spent
in them, and the latency percentiles are over all executions.  ``--trace 1``
spends half the time untraced and half traced, and prints the per-layer
metrics and the tracing overhead instead of the end-to-end metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MODULES = ("words", "normalform", "avgroup", "structures", "linearalg", "cli")


class Program:
    """The package under test, freshly imported."""

    def __init__(self):
        for key in [k for k in sys.modules if k == "avgroups" or k.startswith("avgroups.")]:
            del sys.modules[key]
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"avgroups.{name}"))


# --- per-layer metrics ----------------------------------------------------------

GROUPS = ("Z4", "K4", "Z5", "Z6", "S3")
ORACLE_SIZES = ("d5b6", "d7b8", "d8b9")
RULES = ("R0", "R1", "R1-", "R2", "R3")
PER_OP_SPANS = (
    "words.parse", "words.render", "words.eq", "words.eval_operated",
    "normalform.oracle_normalize", "normalform.is_normal",
    "avgroup.diamond", "avgroup.op_apply", "avgroup.op_iter", "avgroup.inverse",
    "structures.derived_checks",
    "linearalg.check_hopf_equivalence", "linearalg.check_averaging_algebra",
    "linearalg.check_coalgebra_map", "linearalg.check_averaging_lie",
    "linearalg.check_leibniz", "cli.main",
)
DEFECT_LAWS = ("assoc", "inverses", "averaging", "iterated", "closure", "not-normal")


def traced_functions(av, workloads_module):
    """(span name, owner, attribute, work) for every traced public function."""
    W, N, G, S, L, C = (av.words, av.normalform, av.avgroup, av.structures,
                        av.linearalg, av.cli)
    return [
        ("words.parse", W, "parse", lambda a: len(a[0])),
        ("words.render", W, "render", None),
        ("words.eq", workloads_module, "word_eq", None),
        ("words.eval_operated", W, "eval_operated", None),
        ("normalform.oracle_normalize", N, "oracle_normalize", None),
        ("normalform.is_normal", N, "is_normal", None),
        ("avgroup.diamond", G, "diamond", None),
        ("avgroup.op_apply", G, "op_apply", None),
        ("avgroup.op_iter", G, "op_iter", None),
        ("avgroup.inverse", G, "inverse", None),
        ("structures.search_averaging_ops", S, "search_averaging_ops", None),
        ("structures.FiniteGroupTable.inv", S.FiniteGroupTable, "inv", None),
        ("structures.AveragingGroupHandle.init", S.AveragingGroupHandle, "__init__", None),
        ("structures.derived_checks", S, "check_disemigroup", None),
        ("structures.derived_checks", S, "check_rack", None),
        ("structures.derived_checks", S, "check_pointed_consequences", None),
        ("linearalg.check_hopf_equivalence", L, "check_hopf_equivalence", None),
        ("linearalg.check_averaging_algebra", L, "check_averaging_algebra", None),
        ("linearalg.check_coalgebra_map", L, "check_coalgebra_map", None),
        ("linearalg.check_averaging_lie", L, "check_averaging_lie", None),
        ("linearalg.check_leibniz", L, "check_leibniz", None),
        ("linearalg.validate_lie", L, "validate_lie", None),
        ("cli.build_parser", C, "build_parser", None),
        ("cli.main", C, "main", None),
    ]


def per_layer(m, verdict, overhead_ratio: float) -> dict:
    """The per-layer metrics of a traced measurement `m`."""
    def total(kind, span, tag=None):
        return sum(v for (k, s, t), v in m.layers.items()
                   if k == kind and s == span and (tag is None or t == tag))

    def per_call_ms(span, tag=None):
        calls = total("calls", span, tag)
        return total("total_s", span, tag) / calls * 1e3 if calls else 0.0

    out = {f"{span}.self_ms": (total("self_s", span) / m.executed * 1e3, "ms/op")
           for span in PER_OP_SPANS}
    parse_s = total("self_s", "words.parse")
    out["words.parse.chars_per_s"] = (
        total("work", "words.parse") / parse_s if parse_s else 0.0, "chars/s")
    exact = verdict.exact
    rules = exact.get("oracle_rules", {})
    out["normalform.oracle.steps"] = (exact.get("oracle_steps", 0), "count")
    for rule in RULES:
        out[f"normalform.oracle.steps.{rule}"] = (rules.get(rule, 0), "count")
    steps_by_size = exact.get("oracle_steps_by_size", {})
    for size in ORACLE_SIZES:
        steps = steps_by_size.get(size, 0) * m.passes
        spent = total("total_s", "normalform.oracle_normalize", size)
        out[f"normalform.oracle.us_per_step.{size}"] = (
            spent / steps * 1e6 if steps else 0.0, "us")
    out["avgroup.diamond.calls"] = (m.first_calls["avgroup.diamond"], "count")
    out["avgroup.output_factors"] = (exact.get("output_letters", 0), "count")
    for g in GROUPS:
        out[f"structures.search_averaging_ops.ms.{g}"] = (
            per_call_ms("structures.search_averaging_ops", f"search:{g}"), "ms")
    out["structures.FiniteGroupTable.inv.calls"] = (
        m.first_calls["structures.FiniteGroupTable.inv"], "count")
    out["structures.AveragingGroupHandle.init_ms"] = (
        per_call_ms("structures.AveragingGroupHandle.init"), "ms")
    out["linearalg.validate_lie.calls"] = (m.first_calls["linearalg.validate_lie"], "count")
    out["cli.build_parser.ms"] = (per_call_ms("cli.build_parser"), "ms")
    # exits 0 and 1 and the operators found are fixed by the corpus and the
    # references; they are in the info line, not among the metrics
    exits = exact.get("cli_exit", {})
    for code in ("2", "exception"):
        out[f"cli.exit.{code}"] = (exits.get(code, 0), "count")
    defects = verdict.known_defects
    out["normalform.full.strategies_disagree"] = (
        defects.get("full/strategies-disagree", 0), "count")
    for law in DEFECT_LAWS:
        out[f"product.full.broken.{law}"] = (
            sum(c for k, c in defects.items() if k.startswith(f"full/{law}")), "count")
    out["cli.full.not_normal"] = (
        sum(c for k, c in defects.items() if k.startswith("not-normal/")), "count")
    out["product.positive.failed"] = (
        sum(c for k, c in verdict.failures.items() if k.startswith("positive/")), "count")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out


# --- entry ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "avgroups" / "__init__.py").is_file():
        print(f"error: the avgroups sources are missing from {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from avbench import measure, tracing, workloads

    build = workloads.WORKLOADS.get(args.workload)
    if build is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    # the CLI workload's group file lives in the checkout, for this run only
    with tempfile.TemporaryDirectory(prefix=".avbench-", dir=ROOT) as workdir:
        def setup():
            av = Program()
            prepared = build(av, workloads.seeded_rng(args.workload, args.seed), workdir)
            return av, prepared, prepared.ops(workloads.renamings(
                args.workload, args.seed, 0, prepared.size))

        kernel = measure.CLI if args.workload == "cli-requests" else measure.WORDS
        (av, prepared, first_ops), setup_scaled, setup_raw = measure.timed_setups(setup, kernel)
        if not Path(av.words.__file__).resolve().is_relative_to(SRC.resolve()):
            print(f"error: avgroups was imported from {av.words.__file__}, not {SRC}",
                  file=sys.stderr)
            return 2

        def pass_ops(k):
            if k == 0:
                return first_ops
            return prepared.ops(workloads.renamings(args.workload, args.seed, k, prepared.size))

        if args.trace:
            untraced = measure.measure(pass_ops, 0, args.seconds / 2, kernel, workloads.Raised)
            tracer = tracing.Tracer()
            with tracing.Instrumented(tracer, traced_functions(av, workloads), [workloads]):
                traced = measure.measure(pass_ops, untraced.passes, args.seconds / 2, kernel,
                                         workloads.Raised, tracer)
            runs = [untraced, traced]
        else:
            untraced = measure.measure(pass_ops, 0, args.seconds, kernel, workloads.Raised)
            runs = [untraced]
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        verdict = prepared.check([kept for r in runs for kept in r.kept])

    attempted = sum(r.executed for r in runs)
    failed = len(verdict.failed_ops)
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "latency_samples": [r.executed for r in runs],
        "passes": [r.passes for r in runs],
        "host_speed": [r.speed for r in runs],
        "raw": {"setup_s": statistics.median(setup_raw),
                "ops_per_s": [r.ops_per_s(raw=True) for r in runs],
                "wall_ops_per_s": [r.executed / r.wall for r in runs],
                "latency_ms_p50": [r.latency_ms(50, raw=True) for r in runs],
                "latency_ms_p99": [r.latency_ms(99, raw=True) for r in runs]},
        "setup_reps_s": setup_scaled,
        "corpus": verdict.corpus, "exact": verdict.exact,
        "failures": dict(sorted(verdict.failures.items())),
        "fail_ratio": failed / attempted,
        "known_defects": dict(sorted(verdict.known_defects.items())),
    }
    print(json.dumps({"info": info}, sort_keys=True))
    if args.trace:
        values = per_layer(traced, verdict, traced.ops_per_s() / untraced.ops_per_s())
    else:
        values = {
            "setup_s": (statistics.median(setup_scaled), "s"),
            "ops_per_s": (untraced.ops_per_s(), "1/s"),
            "latency_ms_p50": (untraced.latency_ms(50), "ms"),
            "latency_ms_p99": (untraced.latency_ms(99), "ms"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
