"""Spans recorded around calls into splitsamp, from the benchmark's side.

A span is (name, start, end, parent).  Names have the form
``<module>.<function>`` or ``<module>.<function>.<design>``, where the
module is the splitsamp module that owns the call.  Spans stay in
memory until the run ends; ``write`` then dumps them as CSV.

``Tracer(enabled=False)`` calls straight through, so the untraced run
pays one extra Python call per traced call and records nothing.
"""

from __future__ import annotations

import contextlib
import csv
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        # Each span is [name, start, end, parent index or -1].
        self.spans: list[list] = []
        self._open: list[int] = []
        # name -> [total, number of additions]
        self._counts: dict[str, list[float]] = defaultdict(lambda: [0.0, 0])

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``, inside a span when tracing."""
        if not self.enabled:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        span = [name, perf_counter(), 0.0, self._open[-1] if self._open else -1]
        self.spans.append(span)
        self._open.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._open.pop()
            span[2] = perf_counter()

    def wrap(self, name: str, fn):
        """``fn`` itself when not tracing, else ``fn`` inside a span."""
        if not self.enabled:
            return fn
        return lambda *args, **kwargs: self.call(name, fn, *args, **kwargs)

    def count(self, name: str, value: float) -> None:
        """Record one observation of a work count, such as steps per run."""
        if self.enabled:
            entry = self._counts[name]
            entry[0] += value
            entry[1] += 1

    def count_means(self) -> dict[str, float]:
        return {name: total / k for name, (total, k) in self._counts.items()}

    def per_call(self) -> dict[str, tuple[float, float, int]]:
        """name -> (mean inclusive seconds, mean self seconds, calls).

        Self time is a span's duration minus the durations of the spans
        it directly caused.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0, 0])
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = total[name]
            entry[0] += end - start
            entry[1] += end - start - child[i]
            entry[2] += 1
        return {
            name: (incl / k, self_ / k, int(k))
            for name, (incl, self_, k) in total.items()
        }

    def write(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "name", "start_s", "end_s", "parent"])
            for i, (name, start, end, parent) in enumerate(self.spans):
                out.writerow([i, name, repr(start), repr(end), parent])


@contextlib.contextmanager
def patched(module, **replacements):
    """Replace module attributes for the duration of the block."""
    saved = {name: getattr(module, name) for name in replacements}
    for name, value in replacements.items():
        setattr(module, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(module, name, value)
