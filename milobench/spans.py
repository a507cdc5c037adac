"""In-memory span recording, self-time arithmetic and the self-time tree.

A span is one timed call at a layer boundary: name, start, end, the index of
the enclosing span (``-1`` for a root) and the benchmark repetition (run id)
it belongs to.  Names are ``<layer>.<call>``, the layer being the program
module whose public function was timed (``serving.scheduler.admit`` belongs
to layer ``serving.scheduler``).  Spans are stored column-wise, in the order
they were opened, so a traced run of a million calls stays small.

A span's *self time* is its duration minus the part of its interval that its
child spans cover.  Children are visited in the order they were opened
(non-decreasing start), and the covered part is the union of their
intervals clipped to the parent, so overlapping children are not counted
twice.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator, NamedTuple

#: Name of the span covering one whole measured repetition (layer
#: ``milobench``: the harness's own time between the program's calls).
ROOT = "milobench.rep"


def layer_of(name: str) -> str:
    """``serving.scheduler.admit`` -> ``serving.scheduler``."""
    return name.rsplit(".", 1)[0]


class Spans:
    """Column-wise span storage, index = order in which spans were opened."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.runs = array("q")

    def __len__(self) -> int:
        return len(self.names)

    def add(self, name: str, start: float, end: float, parent: int, run: int) -> int:
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        self.runs.append(run)
        return len(self.names) - 1


class SpanRecorder:
    """Collects spans from wrapped calls; single-threaded by design."""

    def __init__(self) -> None:
        self.spans = Spans()
        #: Run id stamped on every span opened from now on.
        self.run = 0
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = self.spans.add(name, 0.0, 0.0, parent, self.run)
        self._stack.append(index)
        return index

    def _close(self, index: int, start: float) -> None:
        self.spans.ends[index] = time.perf_counter()
        self.spans.starts[index] = start
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, start)

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        observe: Callable[[Any], None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` timed as a span called ``name``; ``observe`` sees each result."""
        open_, close = self._open, self._close
        clock = time.perf_counter

        def wrapped(*args: Any, **kwargs: Any) -> Any:
            index = open_(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(index, start)
            if observe is not None:
                observe(result)
            return result

        return wrapped

    def finished(self) -> Spans:
        if self._stack:
            raise RuntimeError("spans still open")
        return self.spans


def write_spans(spans: Spans, path: Any) -> None:
    """Write spans as gzipped tab-separated lines, with a header; times are
    integer nanoseconds since the first span opened."""
    origin = spans.starts[0] if len(spans) else 0.0
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("index\tname\tstart_ns\tend_ns\tparent\trun\n")
        for i, name in enumerate(spans.names):
            fh.write(
                f"{i}\t{name}\t{round((spans.starts[i] - origin) * 1e9)}\t"
                f"{round((spans.ends[i] - origin) * 1e9)}\t"
                f"{spans.parents[i]}\t{spans.runs[i]}\n"
            )


def self_times(spans: Spans) -> array:
    """Self time of every span, index-aligned with ``spans``."""
    n = len(spans)
    starts, ends, parents = spans.starts, spans.ends, spans.parents
    covered = array("d", bytes(8 * n))
    cursor = array("d", starts)  # per parent: end of the part covered so far
    for i in range(n):
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], cursor[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            cursor[p] = hi
    return array("d", (ends[i] - starts[i] - covered[i] for i in range(n)))


class Profile(NamedTuple):
    """Per-name totals of a traced run."""

    total_s: float                 # summed duration of the root spans
    inclusive_s: dict[str, float]  # per span name
    self_s: dict[str, float]       # per span name
    calls: dict[str, int]          # per span name

    def layer_self_s(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, s in self.self_s.items():
            out[layer_of(name)] += s
        return dict(out)


def profile(spans: Spans) -> Profile:
    inclusive: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    total = 0.0
    for i, self_s in enumerate(self_times(spans)):
        name = spans.names[i]
        duration = spans.ends[i] - spans.starts[i]
        inclusive[name] += duration
        own[name] += self_s
        calls[name] += 1
        if spans.parents[i] < 0:
            total += duration
    return Profile(total, dict(inclusive), dict(own), dict(calls))


def render_tree(prof: Profile, title: str) -> list[str]:
    """Self-time tree: total, then per-layer shares, then the bottleneck.

    Each layer line carries its self time and share of the total; under it,
    each timed call's self time, share of the layer, and call count.  The
    layer with the largest self time is marked ``← BOTTLENECK``.
    """
    total = prof.total_s
    ranked = sorted(prof.layer_self_s().items(), key=lambda kv: -kv[1])
    lines = [title, f"Total: {total:.4f} s (100.0%)"]
    for li, (layer, layer_s) in enumerate(ranked):
        last_layer = li == len(ranked) - 1
        mark = "  ← BOTTLENECK" if li == 0 else ""
        lines.append(
            f"{'└─' if last_layer else '├─'} {layer:<22} {layer_s:9.4f} s "
            f"({layer_s / total:6.1%} of total){mark}"
        )
        names = sorted(
            (n for n in prof.self_s if layer_of(n) == layer),
            key=lambda n: -prof.self_s[n],
        )
        for ni, name in enumerate(names):
            part = prof.self_s[name] / layer_s if layer_s else 0.0
            lines.append(
                f"{'   ' if last_layer else '│  '}{'└─' if ni == len(names) - 1 else '├─'} "
                f"{name.rsplit('.', 1)[-1]:<19} {prof.self_s[name]:9.4f} s "
                f"({part:6.1%} of layer)  {prof.calls[name]:,} calls"
            )
    return lines
