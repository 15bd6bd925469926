"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the alexgeo modules from outside the
package.  Each wrapped call opens a span (name, start, end, parent) that is
kept in memory and written out when the run ends.  A call made while a span
of the same layer is already open (recursion such as `distance` on a join
calling `distance` on its factors) is not recorded separately, so counts are
of calls into the layer, not of its internal recursion.

Modules import functions by name (`nets` holds its own `self_distance_matrix`
binding), so `install` replaces every binding of the function object in
every loaded alexgeo module, not only the defining one.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self):
        self.enabled = False
        self.labels: list = []
        self.parents: list = []
        self.starts: list = []
        self.ends: list = []
        self.counts = defaultdict(float)
        self._stack: list = []
        self._open: dict = defaultdict(int)

    def _begin(self, label: str) -> int:
        i = len(self.starts)
        self.labels.append(label)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self._stack.append(i)
        return i

    def _end(self, i: int):
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, label: str):
        """Span opened by the benchmark itself (around a CLI call)."""
        if not self.enabled:
            yield
            return
        i = self._begin(label)
        try:
            yield
        finally:
            self._end(i)

    def wrap(self, fn, layer: str, label=None, after=None, span: bool = True):
        """`fn` recorded as a `layer` span; `label(*args)` may refine the span name.

        `after(counts, result, *args, **kwargs)` updates counters once per
        outermost call; with `span=False` only the counters are updated.
        """

        def wrapper(*args, **kwargs):
            if not self.enabled or self._open[layer]:
                return fn(*args, **kwargs)
            self._open[layer] += 1
            i = self._begin(label(*args, **kwargs) if label else layer) if span else None
            try:
                out = fn(*args, **kwargs)
            finally:
                if span:
                    self._end(i)
                self._open[layer] -= 1
            if after is not None:
                after(self.counts, out, *args, **kwargs)
            return out

        return wrapper

    def install(self, module, attr: str, layer: str, **kw):
        fn = getattr(module, attr)
        wrapper = self.wrap(fn, layer, **kw)
        for name, mod in list(sys.modules.items()):
            if name == "alexgeo" or name.startswith("alexgeo."):
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)

    def summary(self) -> dict:
        """Per label: calls, total (inclusive) seconds and self seconds.

        Self time is a span's duration minus the time its child spans cover.
        Calls are sequential, so children of one span never overlap and the
        covered time is the sum of their durations.
        """
        n = len(self.starts)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        covered = [0.0] * n
        for i, p in enumerate(self.parents):
            if p >= 0:
                covered[p] += dur[i]
        out: dict = {}
        for i, label in enumerate(self.labels):
            row = out.setdefault(label, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += dur[i]
            row["self_s"] += dur[i] - covered[i]
        return out

    def write(self, path: Path):
        """Spans as tab-separated rows: index, name, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\n")
            for i in range(len(self.starts)):
                fh.write(f"{i}\t{self.labels[i]}\t{self.starts[i]:.9f}\t{self.ends[i]:.9f}\t"
                         f"{self.parents[i]}\n")
