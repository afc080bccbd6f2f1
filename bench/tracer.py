"""Outside-in tracer: wraps a package's public functions and records one span per call.

Spans (name, start, end, parent) stay in memory during the run and are
written out once it ends.  The tracer assumes one thread: the parent of a
span is the innermost span open when it starts.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list[int]] = []  # [name index, start ns, end ns, parent span index or -1]
        self._open: list[int] = []

    def _wrap(self, name: str, fn):
        name_index = len(self.names)
        self.names.append(name)
        spans, open_spans, clock = self.spans, self._open, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_index, clock(), 0, open_spans[-1] if open_spans else -1]
            open_spans.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                open_spans.pop()
                span[2] = clock()

        return traced

    def install(self, package: str, targets) -> None:
        """Replace each ``<module>.<attribute path>`` target at every binding in the package."""
        for target in targets:
            rebind(package, target, lambda fn, target=target: self._wrap(target, fn))

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), spans=np.array(self.spans, dtype=np.int64).reshape(-1, 4))


class Laps:
    """Marks every entry into one function, and runs a calibration kernel there.

    ``marks`` holds the clock at each entry, before the kernel runs, and
    ``kernel_ns`` how long the kernel took; the marked function starts when
    the kernel ends.
    """

    def __init__(self, package: str, target: str, kernel):
        self.marks: list[int] = []
        self.kernel_ns: list[int] = []
        marks, kernel_ns, clock = self.marks, self.kernel_ns, time.perf_counter_ns

        def wrap(fn):
            @functools.wraps(fn)
            def marked(*args, **kwargs):
                marks.append(clock())
                kernel_ns.append(kernel())
                return fn(*args, **kwargs)

            return marked

        rebind(package, target, wrap)


def rebind(package: str, target: str, wrap) -> None:
    """Replace the ``<module>.<attribute path>`` target by ``wrap(target)`` at every binding in the package.

    A module-level function is replaced in every loaded module of the
    package that binds it; a method is replaced on its class.  Raises when
    the target is missing, so a renamed function fails loudly.
    """
    modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
    module_name, *owners, attr = target.split(".")
    owner = sys.modules[f"{package}.{module_name}"]
    for name in owners:
        owner = getattr(owner, name)
    original = getattr(owner, attr)
    wrapped = wrap(original)
    if owners:
        setattr(owner, attr, wrapped)
        return
    for module in modules:
        for key in [k for k, v in vars(module).items() if v is original]:
            setattr(module, key, wrapped)


def layer_times(path) -> dict[str, dict]:
    """Self time and call count per span name.

    Self time is a span's duration minus the durations of its child spans.
    Raises when a span's children outlast it, which means broken nesting.
    """
    with np.load(path) as data:
        names, spans = list(data["names"]), data["spans"]
    name_index, start, end, parent = spans.T
    duration = end - start
    children = np.zeros(len(spans), dtype=np.int64)
    nested = parent >= 0
    np.add.at(children, parent[nested], duration[nested])
    self_ns = duration - children
    if np.any(self_ns < 0):
        raise ValueError(f"{int(np.sum(self_ns < 0))} spans have children that outlast them")
    calls = np.bincount(name_index, minlength=len(names))
    self_total = np.bincount(name_index, weights=self_ns, minlength=len(names))
    return {
        str(name): {"self_s": float(self_total[i]) / 1e9, "calls": int(calls[i])} for i, name in enumerate(names)
    }
