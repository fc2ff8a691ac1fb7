"""In-memory span recorder for the traced run.

A span is recorded around every call into a public function of the traced
littlebit modules. The wrapper is installed at every module attribute that
refers to the function, because that is where the caller resolves the
name: ``littlebit.cli.quantize`` is ``littlebit.dualsvid.quantize`` and
``littlebit.layer`` reaches the kernels as ``bitpack.gemv_right``. Spans
stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager

TRACED_MODULES = ("tensor", "dualsvid", "bitpack", "layer", "qat", "cli")

# Span fields, in the order each span list holds them.
NAME, START, END, PARENT, RUN = range(5)


class SpanRecorder:
    """Spans as [name, start_ns, end_ns, parent index or -1, run id].

    ``run_id`` is set by the caller before each operation, so all spans of
    one operation (a token, a chunk, a linear) share it. Single-threaded:
    the open spans form one stack.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.run_id = 0
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, open_spans = self.spans, self._open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, open_spans[-1] if open_spans else -1,
                    self.run_id]
            open_spans.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                open_spans.pop()

        return traced

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({**header, "fields": ["name", "start_ns", "end_ns",
                                            "parent", "run_id"],
                       "spans": self.spans}, f)


def public_functions() -> dict[int, tuple[object, str]]:
    """id(function) -> (function, "module.name") for every public
    module-level function defined in the traced modules."""
    found = {}
    for short in TRACED_MODULES:
        mod = sys.modules[f"littlebit.{short}"]
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == mod.__name__):
                found[id(obj)] = (obj, f"{short}.{attr}")
    return found


@contextmanager
def installed(recorder: SpanRecorder):
    """Wrap every public traced function at every littlebit module
    attribute that refers to it; restore the originals on exit."""
    wrappers = {key: (fn, recorder.wrap(name, fn))
                for key, (fn, name) in public_functions().items()}
    patched = []
    for modname, mod in list(sys.modules.items()):
        if modname != "littlebit" and not modname.startswith("littlebit."):
            continue
        for attr, obj in list(vars(mod).items()):
            entry = wrappers.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(mod, attr, entry[1])
                patched.append((mod, attr, obj))
    try:
        yield recorder
    finally:
        for mod, attr, obj in patched:
            setattr(mod, attr, obj)


def covered_ns(start: int, end: int, intervals) -> int:
    """Length of the part of [start, end] that the union of *intervals*
    covers."""
    total, reach = 0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds and self seconds, where a span's
    self time is its duration minus the time its child spans cover."""
    children: list[list[tuple[int, int]]] = [[] for _ in spans]
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    out: dict[str, dict[str, float]] = {}
    for s, kids in zip(spans, children):
        dur = s[END] - s[START]
        agg = out.setdefault(s[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["s"] += dur / 1e9
        agg["self_s"] += (dur - covered_ns(s[START], s[END], kids)) / 1e9
    return out
