"""Closed-loop timing on a host whose speed drifts.

The hosts this benchmark runs on are shared: the same pure-Python work runs
up to 1.9x slower for stretches of seconds to minutes, depending on what else
the machine is doing.  A raw timing would mostly measure the neighbours.  So
the loop times a fixed stdlib ``kernel`` (which does not touch avgroups) every
``SAMPLE_EVERY_S`` of wall time, and every op's time is scaled by how fast
the kernel ran around it:

    scaled = raw * kernel.reference_s / (median kernel time near the op)

A scaled time is what the op takes on a host as fast as the reference, one
on which the kernel takes ``reference_s``.  Changes to avgroups move
the raw time and not the kernel, so they move the scaled time by the same
factor.  The raw figures and the host speed are reported alongside.
"""

from __future__ import annotations

import argparse
import gc
import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

SAMPLE_EVERY_S = 0.04
WINDOW = 4  # kernel samples on each side of an op that set its scale


@dataclass(frozen=True)
class Kernel:
    """Fixed stdlib work, and its time on the reference host.

    The reference is a round figure for the 2-core 2.1 GHz Xeon (CPython
    3.11) the first baseline was taken on; scaled figures are quoted at
    that speed.
    """

    work: Callable[[], int]
    reference_s: float


def _word_work() -> int:
    """Small tuples, recursion and dicts: the shape of the word calculus."""
    def grow(n):
        return () if n == 0 else (n, grow(n - 1))

    total = 0
    seen = {}
    for i in range(260):
        t = grow(i % 12)
        while t:
            n, t = t
            total += n if isinstance(n, int) else 0
        seen[i & 63] = total
    return total + len(seen)


def _cli_work() -> int:
    """Building and running an argparse parser: the shape of the CLI."""
    parser = argparse.ArgumentParser(prog="kernel")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("a", "b", "c", "d", "e"):
        s = sub.add_parser(name, help=name)
        s.add_argument("word")
        s.add_argument("--n", type=int, default=1)
        s.add_argument("--flag", action="store_true")
    return sum(len(vars(parser.parse_args(argv)))
               for argv in (["a", "x", "--n", "3"], ["b", "y", "--flag"], ["c", "z"]))


# The drift does not slow all code alike: the word calculus slows about twice
# as much as argparse.  Each workload is scaled by the kernel shaped like it;
# with the word kernel alone the CLI workload came out up to 40% slow.
WORDS = Kernel(_word_work, 0.00045)
CLI = Kernel(_cli_work, 0.0011)


class Yardstick:
    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.samples = []
        self._due = 0.0

    def sample(self) -> float:
        t0 = perf_counter()
        self.kernel.work()
        t1 = perf_counter()
        self.samples.append(t1 - t0)
        self._due = t1 + SAMPLE_EVERY_S
        return t1 - t0

    def segment(self) -> int:
        """Index of the latest sample, taking a new one when one is due."""
        if perf_counter() >= self._due:
            self.sample()
        return len(self.samples) - 1

    def speed(self, samples) -> float:
        """Host speed relative to the reference, from kernel times."""
        return self.kernel.reference_s / statistics.median(samples)

    def scales(self) -> list:
        s = self.samples
        return [self.speed(s[max(0, i - WINDOW):i + WINDOW + 1]) for i in range(len(s))]


SETUP_REPS = (5, 15)   # fewest and most set-ups per run
SETUP_BUDGET_S = 3.0   # no further set-up once the reps have taken this long


def timed_setups(setup, kernel: Kernel):
    """Run `setup` several times; returns (last result, scaled s, raw s).

    Cheap set-ups run more often, so that the median is as steady as that of
    an expensive one.
    """
    yard = Yardstick(kernel)
    scaled, raw = [], []
    result = None
    fewest, most = SETUP_REPS
    while len(raw) < fewest or (len(raw) < most and sum(raw) < SETUP_BUDGET_S):
        result = None
        gc.collect()
        before = [yard.sample() for _ in range(3)]
        start = perf_counter()
        result = setup()
        dt = perf_counter() - start
        after = [yard.sample() for _ in range(3)]
        raw.append(dt)
        scaled.append(dt * yard.speed(before + after))
    return result, scaled, raw


class Measurement:
    """Every execution's time and kept output, and what the tracer saw."""

    def __init__(self, kernel: Kernel):
        self.times = []          # (raw seconds, kernel sample index), per execution
        self.kept = []           # per pass, what the check needs of each output
        self.first_calls = Counter()
        self.wall = 0.0
        self.yardstick = Yardstick(kernel)
        self._layers = defaultdict(Counter)        # sample -> (kind, span, tag) -> amount

    @property
    def passes(self) -> int:
        return len(self.kept)

    @property
    def executed(self) -> int:
        return len(self.times)

    def finish(self) -> None:
        scales = self.yardstick.scales()
        self.speed = self.yardstick.speed(self.yardstick.samples)
        self.latency = [dt * scales[k] for dt, k in self.times]
        self.raw_latency = [dt for dt, _ in self.times]
        self.layers = Counter()
        for k, amounts in self._layers.items():
            for key, v in amounts.items():
                self.layers[key] += v * scales[k] if key[0].endswith("_s") else v

    def ops_per_s(self, raw: bool = False) -> float:
        """Executions over the time spent in them."""
        return self.executed / sum(self.raw_latency if raw else self.latency)

    def latency_ms(self, q: int, raw: bool = False) -> float:
        values = [t * 1e3 for t in (self.raw_latency if raw else self.latency)]
        return statistics.quantiles(values, n=100)[q - 1]


def measure(pass_ops, first_pass: int, seconds: float, kernel: Kernel, raised,
            tracer=None) -> Measurement:
    """Whole passes, one op at a time, until `seconds` have gone by.

    `pass_ops(k)` gives the ops of pass k; passes are numbered from
    `first_pass`, and only the op calls themselves are timed.  Each op runs
    once; its output, or a `raised` for the exception it raised, is reduced
    by the op's `keep` (outside the timed call) and kept for the check.
    """
    m = Measurement(kernel)
    yard = m.yardstick
    start = perf_counter()
    deadline = start + seconds
    while m.passes == 0 or perf_counter() < deadline:
        ops = pass_ops(first_pass + m.passes)
        # A pass's inputs are built in one go and live through the pass; the
        # full collections their bulk would trigger belong to the benchmark,
        # not to the ops, so they are run here, untimed.
        gc.collect()
        kept = []
        for op in ops:
            k = yard.segment()
            if tracer is not None:
                tracer.begin_op()
            t0 = perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a failing op is counted, not fatal
                out = raised(exc)
            dt = perf_counter() - t0
            m.times.append((dt, k))
            if tracer is not None:
                if not m.kept:
                    m.first_calls.update(tracer.calls)
                seen = m._layers[k]
                for kind, amounts in tracer.snapshot().items():
                    for span, v in amounts.items():
                        seen[(kind, span, op.tag)] += v
            kept.append(out if isinstance(out, raised) else op.keep(out))
        m.kept.append(kept)
        ops = op = None   # let this pass's inputs go before the next pass's are built
    yard.sample()
    m.wall = perf_counter() - start
    m.finish()
    return m
