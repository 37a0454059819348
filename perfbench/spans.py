"""Span tracing around the program's public functions, from outside.

A Tracer replaces module-level names at the places the program calls them
(for example `mch.choices.area_oriented_candidates`, which is what
`multi_strategy_choices` looks up) with wrappers that record a span: name,
start, end and parent.  Spans stay in memory until the run writes them out.

A name that no longer exists is recorded as absent and left alone, so the
benchmark keeps running when the program's API moves; that layer's metrics
then read 0 and the run lists it.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import Callable, Optional


class Tracer:
    def __init__(self):
        self.spans: list = []        # [name, start, end, parent index]
        self.counts: dict = defaultdict(float)
        self.absent: list = []
        self._open: list = []
        self._patched: list = []     # (owner, attribute, original)

    def span(self, name: str):
        """Context manager recording one span (used for the benchmark's own
        pass and operation boundaries)."""
        return _Span(self, name)

    def _start(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    def wrap(self, target: str, name: str,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> None:
        """Wrap `module.attr` or `module.Class.attr` in a span called name.

        before(args) runs ahead of the span and its result goes to
        after(tracer, state, result), which runs once the span has ended;
        both are for counters and stay out of the span's time.
        """
        mod_name, _, rest = target.partition(":")
        try:
            owner = importlib.import_module(mod_name)
            *path, attr = rest.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
        except (ImportError, AttributeError, ValueError):
            fn = None
        if not callable(fn):
            if target not in self.absent:
                self.absent.append(target)
            return
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args) if before is not None else None
            idx = tracer._start(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end(idx)
            if after is not None:
                after(tracer, state, result)
            return result

        self._patched.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def unwrap(self) -> None:
        """Put every wrapped name back."""
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def times(self) -> tuple[dict, dict, dict]:
        """(self time, total time, call count) per span name.

        Self time is a span's duration minus the time of its direct
        children, which do not overlap in a single thread.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_t: dict = defaultdict(float)
        total: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        for (name, start, end, _), ch in zip(self.spans, child):
            self_t[name] += end - start - ch
            total[name] += end - start
            calls[name] += 1
        return self_t, total, calls


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.idx = self.tracer._start(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._end(self.idx)
        return False
