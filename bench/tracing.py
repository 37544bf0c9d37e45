"""In-memory spans around the benchmark's calls into the package.

A span records one call the benchmark makes into a public function of a
``seriesinv`` module: its name, start and end (``perf_counter_ns``), the
span that was open when it started (its parent) and the op it belongs to.
Spans inside the package are not recorded; the benchmark only wraps its own
call sites.  When a counter is passed, the span also records how many
matrix-matrix (mmm) and matrix-vector (mvm) products the call added to it.

:class:`NullTracer` has the same interface and records nothing; untraced
runs use it so that both runs execute the same benchmark code.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    op: str
    mmm: int | None = None
    mvm: int | None = None

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) * 1e-9


class NullTracer:
    """Tracing off: calls go straight through."""

    enabled = False

    def call(self, name, ctr, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def open(self, name):
        return None

    def close(self, token):
        pass

    def set_op(self, op: str) -> None:
        pass


class Tracer:
    """Tracing on: every :meth:`call` and every :meth:`open`/:meth:`close`
    pair becomes a span.  Single-threaded: spans opened by one thread only."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = "setup"

    def set_op(self, op: str) -> None:
        self._op = op

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(sid, name, time.perf_counter_ns(), 0, parent, self._op))
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid].end_ns = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {sid} closed while span {popped} was open")

    def call(self, name, ctr, fn, *args, **kwargs):
        before = (ctr.mmm, ctr.mvm) if ctr is not None else None
        sid = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(sid)
            if before is not None:
                span = self.spans[sid]
                span.mmm = ctr.mmm - before[0]
                span.mvm = ctr.mvm - before[1]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Seconds of each span not covered by its child spans.

    Children of one span never overlap (one thread opens them in turn), so
    the covered part is the sum of the children's durations.
    """
    covered = {s.id: 0 for s in spans}
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end_ns - s.start_ns
    return {s.id: (s.end_ns - s.start_ns - covered[s.id]) * 1e-9 for s in spans}


@dataclass(frozen=True)
class LayerTime:
    calls: int
    median_s: float
    median_self_s: float
    total_s: float
    total_self_s: float


def layer_times(spans: list[Span], names: tuple[str, ...], op: str | None = None) -> LayerTime:
    """Per-call medians and totals over every span with one of ``names``
    (restricted to one op id when ``op`` is given)."""
    selves = self_times(spans)
    chosen = [s for s in spans if s.name in names and (op is None or s.op == op)]
    if not chosen:
        return LayerTime(0, 0.0, 0.0, 0.0, 0.0)
    durations = [s.seconds for s in chosen]
    own = [selves[s.id] for s in chosen]
    return LayerTime(
        calls=len(chosen),
        median_s=statistics.median(durations),
        median_self_s=statistics.median(own),
        total_s=sum(durations),
        total_self_s=sum(own),
    )
