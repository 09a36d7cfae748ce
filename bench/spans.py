"""Spans around calls into diamramsey's public functions, taken from outside.

The tracer replaces every public function of the package's modules with a
wrapper, in every diamramsey namespace that binds it, so calls between
modules are caught too; nothing under src/ knows about it.  Spans stay in
memory until the benchmark writes them out.  Calls to the functions named in
ALLOC_FUNCTIONS are also kept, with their arguments, and replayed once tracing ends
under tracemalloc for their peak allocation; tracemalloc slows every Python
allocation, so it stays out of the timed spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc

MODULES = ("geometry", "spheres", "obstruction", "spread", "coloring",
           "constructions", "formats", "cli")
ALLOC_FUNCTIONS = ("geometry.diameter", "spheres.min_enclosing_ball")


class Span:
    __slots__ = ("name", "op", "start", "end", "parent", "failed", "peak_bytes")

    def __init__(self, name, op, parent):
        self.name, self.op, self.parent = name, op, parent
        self.start = self.end = 0.0
        self.failed = False
        self.peak_bytes = None

    def to_dict(self, index):
        return {"id": index, "name": self.name, "op": self.op,
                "start": self.start, "end": self.end, "parent": self.parent,
                "failed": self.failed, "peak_bytes": self.peak_bytes}


def public_functions(module):
    """Public functions defined in the module itself (not imported names)."""
    return {name: obj for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__}


class Tracer:
    """Install with `with Tracer()`; set `op` before each operation."""

    def __init__(self):
        self.alloc_calls: list = []  # (span index, fn, args, kwargs)
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[int] = []
        self._patched: list = []

    def __enter__(self):
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "diamramsey" or name.startswith("diamramsey.")]
        for short in MODULES:
            module = sys.modules["diamramsey." + short]
            for fname, original in public_functions(module).items():
                wrapper = self._wrap(f"{short}.{fname}", original)
                for namespace in namespaces:
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            setattr(namespace, attr, wrapper)
                            self._patched.append((namespace, attr, original))
        return self

    def __exit__(self, *exc):
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()
        return False

    def _wrap(self, name, fn):
        keep_args = name in ALLOC_FUNCTIONS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, self.op, self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            if keep_args:
                self.alloc_calls.append((len(self.spans) - 1, fn, args, kwargs))
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()

        return wrapper

    def replay_allocations(self) -> None:
        """Peak traced allocation of each kept call, run again untimed."""
        for index, fn, args, kwargs in self.alloc_calls:
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
            finally:
                self.spans[index].peak_bytes = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
        self.alloc_calls.clear()

    def summary(self) -> dict:
        """Per function: calls, busy (inclusive) and self seconds, failures, peak MB."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out: dict[str, dict] = {}
        for index, span in enumerate(self.spans):
            row = out.setdefault(span.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                             "failed": 0, "peak_alloc_mb": None})
            duration = span.end - span.start
            row["calls"] += 1
            row["busy_s"] += duration
            row["self_s"] += duration - child_time[index]
            row["failed"] += span.failed
            if span.peak_bytes is not None:
                peak = span.peak_bytes / 2**20
                row["peak_alloc_mb"] = max(row["peak_alloc_mb"] or 0.0, peak)
        return out

    def module_busy(self, module: str) -> float:
        """Seconds inside the module's functions, counting nested calls within it once."""
        prefix = module + "."
        total = 0.0
        for span in self.spans:
            if span.name.startswith(prefix) and not (
                    span.parent is not None
                    and self.spans[span.parent].name.startswith(prefix)):
                total += span.end - span.start
        return total

    def to_json(self) -> list:
        return [span.to_dict(i) for i, span in enumerate(self.spans)]
