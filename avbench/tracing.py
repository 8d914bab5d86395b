"""Spans around calls into the program's public functions.

The benchmark never edits the program.  While tracing, it rebinds each
traced function, in every avgroups module namespace that refers to it, to a
wrapper that opens a span on entry and closes it on exit.  Calls the program
makes to its own public functions (the oracle calling ``render``, the CLI
calling ``parse``, ``diamond`` recursing through its seam merge) therefore
show up as child spans, and a span's self time is its duration minus that of
its children.  Spans are folded into per-op totals as they close, so memory
stays flat however many calls an op makes.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self._open = []  # child time accumulated by each open span
        self.begin_op()

    def begin_op(self) -> None:
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = Counter()
        self.work = Counter()

    def snapshot(self) -> dict:
        return {"self_s": self.self_s, "total_s": self.total_s,
                "calls": self.calls, "work": self.work}

    def wrap(self, name: str, fn, work=None):
        opened = self._open

        def traced(*args, **kwargs):
            children = [0.0]
            opened.append(children)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                opened.pop()
                if opened:
                    opened[-1][0] += dur
                self.self_s[name] += dur - children[0]
                self.total_s[name] += dur
                self.calls[name] += 1
                if work is not None:
                    self.work[name] += work(args)

        traced.__wrapped__ = fn
        return traced


class Instrumented:
    """Context manager that installs a tracer's wrappers and removes them.

    `functions` holds (span name, owner, attribute, work) rows.  A module
    owner's function is rebound wherever a loaded avgroups module (or an
    extra module passed in) binds the same object; a class owner's method is
    replaced on the class.
    """

    def __init__(self, tracer: Tracer, functions, extra_modules=()):
        self.tracer = tracer
        self.functions = functions
        self.extra_modules = tuple(extra_modules)
        self._undo = []

    def __enter__(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "avgroups" or name.startswith("avgroups.")]
        modules.extend(self.extra_modules)
        for span, owner, attr, work in self.functions:
            original = getattr(owner, attr)
            wrapper = self.tracer.wrap(span, original, work)
            if isinstance(owner, type):
                self._rebind(owner, attr, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._rebind(m, key, wrapper)
        return self.tracer

    def _rebind(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
        return False
