"""Spans and call counts around spectre's public functions, taken from
outside the package.

`Tracer.install()` replaces every module-level binding of a public
function of the traced modules with a wrapper, including the bindings a
module imports by name from another (`from .epset import sumset` in
`setsys`).  Calls a module makes to private helpers, such as
`setsys` calling `epset._natstar`, are not seen.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

MODULES = ("cli", "dsl", "compile", "setsys", "pseries", "epset")


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # function id -> "module.function"
        # one span per call: (function id, operation, parent span or -1, start, end)
        self.spans: list = []
        self._stack = [-1]
        self.op = -1

    def install(self) -> None:
        modules = [importlib.import_module(f"spectre.{m}") for m in MODULES]
        wrappers = {}
        for module in modules:
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                owner = fn.__module__.rpartition(".")[2]
                if fn.__module__.startswith("spectre.") and owner in MODULES and fn not in wrappers:
                    wrappers[fn] = self._wrap(f"{owner}.{fn.__name__}", fn)
        for module in modules + [importlib.import_module("spectre")]:
            for attr, fn in list(vars(module).items()):
                if inspect.isfunction(fn) and fn in wrappers:
                    setattr(module, attr, wrappers[fn])

    def _wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (fid, self.op, parent, start, end)

        return wrapper

    def summary(self) -> dict:
        """Per operation: calls and self time (span time minus the time
        of its child spans) of every traced function."""
        covered = [0.0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: dict = defaultdict(lambda: defaultdict(int))
        self_s: dict = defaultdict(lambda: defaultdict(float))
        for i, (fid, op, _, start, end) in enumerate(self.spans):
            name = self.names[fid]
            calls[op][name] += 1
            self_s[op][name] += end - start - covered[i]
        return {"calls": {op: dict(c) for op, c in calls.items()},
                "self_s": {op: dict(s) for op, s in self_s.items()}}

    def dump(self) -> dict:
        return {"functions": self.names,
                "columns": ["function", "operation", "parent", "start", "end"],
                "spans": self.spans}
