"""Spans around the calls into the package's layers, recorded from outside.

The tracer replaces a function, as the calling module sees it, with a wrapper
that records one span per call: name, start, end, the span that caused it and
the round it belongs to. Spans stay in memory and are written out when the run
ends. A layer's self time is its spans' durations minus the time their child
spans cover; the layer is the part of the span name before the first dot.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (round, name, start, end, parent index)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()  # counters recorded at the boundaries
        self.round = -1
        self._stack: list[int] = []
        self._child: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        self._child.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            child = self._child.pop()
            duration = end - start
            self.spans[idx] = (self.round, name, start, end, parent)
            self.self_time[name] += duration - child
            self.calls[name] += 1
            if self._child:
                self._child[-1] += duration

    def wrap(self, name: str, fn, after=None, on_error=None):
        """fn wrapped in a span; after(args, kwargs, result) and
        on_error(exc) run outside the span, so their cost is not the layer's."""
        def wrapper(*args, **kwargs):
            try:
                with self.span(name):
                    result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def patch(self, module, attr: str, name: str, after=None, on_error=None) -> None:
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, after, on_error))

    def replace(self, module, attr: str, make) -> None:
        """Install make(original) in place of module.attr."""
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, make(original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Flat view of every accumulator: '<span>_s' self seconds,
        '<span>_calls' and counter values."""
        out = {f"{name}_s": value for name, value in self.self_time.items()}
        out.update({f"{name}_calls": float(value) for name, value in self.calls.items()})
        out.update({name: float(value) for name, value in self.counts.items()})
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (rnd, name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "round": rnd, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
