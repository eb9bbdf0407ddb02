"""Span tracing for the benchmark's traced run.

The tracer wraps functions of the ``rahman`` layers from outside the
program.  The package binds names with ``from ... import``, so a function
is replaced in every ``rahman`` module whose globals hold it, not only in
the module that defines it.  Each call records a span (name, start, end,
parent); a layer's self time is its spans' durations minus the part that
their child spans cover.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


class Tracer:
    """Records nested spans and per-name counters for one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []      # [name, start, end, parent index or -1]
        self.counters = defaultdict(float)
        self._stack: list = []
        self._patches: list = []   # (owner, attribute, original), for restore

    # -- recording -------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order (open: {popped})")
        self.spans[index][2] = self.clock()

    def wrap(self, name: str, fn, on_call=None, on_return=None):
        """A wrapper of ``fn`` that records one span named ``name`` per call.

        ``on_call(tracer, args, kwargs)`` runs inside the span before the
        call and ``on_return(tracer, result)`` after it; both feed counters.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                if on_call is not None:
                    on_call(self, args, kwargs)
                result = fn(*args, **kwargs)
                if on_return is not None:
                    on_return(self, result)
                return result
            finally:
                self.end(index)

        return traced

    # -- patching --------------------------------------------------------

    def patch_function(self, fn, name: str, **hooks) -> None:
        """Replace ``fn`` wherever a ``rahman`` module binds it."""
        wrapper = self.wrap(name, fn, **hooks)
        modules = [module for module_name, module in list(sys.modules.items())
                   if module_name == "rahman" or module_name.startswith("rahman.")]
        for module in modules:
            for attribute, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attribute, fn))
                    setattr(module, attribute, wrapper)

    def patch_method(self, cls, attribute: str, name: str) -> None:
        """Replace a method on its class; instances look it up there."""
        original = cls.__dict__[attribute]
        self._patches.append((cls, attribute, original))
        setattr(cls, attribute, self.wrap(name, original))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- accounting ------------------------------------------------------

    def self_times(self) -> list:
        """Self time of every span, in span order.

        Self time is the span's duration minus the length of the union of
        its children's intervals, each clipped to the span.
        """
        children = defaultdict(list)
        for index, (_, start, end, parent) in enumerate(self.spans):
            if end is None:
                raise RuntimeError(f"span {index} was never closed")
            if parent >= 0:
                children[parent].append((start, end))
        out = []
        for index, (_, start, end, _) in enumerate(self.spans):
            covered = 0.0
            reach = start
            for child_start, child_end in sorted(children[index]):
                lo = max(child_start, reach)
                hi = min(child_end, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append((end - start) - covered)
        return out

    def summary(self) -> dict:
        """Per-name totals: calls, self_s and inclusive total_s."""
        table: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for span, own in zip(self.spans, self.self_times()):
            row = table[span[0]]
            row["calls"] += 1
            row["self_s"] += own
            row["total_s"] += span[2] - span[1]
        return dict(table)

