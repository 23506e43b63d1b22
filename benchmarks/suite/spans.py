"""In-memory span recorder for the traced run.

The traced run marches each workload through the program's public ports
from the benchmark's side and brackets every call into a layer with a
span: name, start, end, the span that caused it, and the id of the unit
of work (step or job) it belongs to.  Spans stay in a list until the run
ends and are written out once.  A layer's *self time* is its span's
duration minus the part its child spans cover.

One recorder per thread of control: SCMD rank ``main``\\ s each build
their own, so no lock is needed.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from typing import Any, Iterator


class SpanRecorder:
    """Nested spans on one thread; ``clock`` is ``time.perf_counter``."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        #: [name, start, end, parent index or None, unit id]
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, unit: Any = None) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        if unit is None and parent is not None:
            unit = self.spans[parent][4]
        record = [name, time.perf_counter(), None, parent, unit]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    # -- reductions -------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent, _unit in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _parent, _unit), covered in zip(
                self.spans, child_time):
            out[name] = out.get(name, 0.0) + (end - start) - covered
        return out

    def durations(self, name: str) -> list[float]:
        """Seconds per span called ``name``, in recording order."""
        return [end - start for n, start, end, _p, _u in self.spans
                if n == name]

    def to_json(self) -> dict[str, Any]:
        return {
            "workload": self.workload,
            "fields": ["name", "start_s", "end_s", "parent", "unit"],
            "spans": self.spans,
        }


class NullRecorder:
    """Stands in for a recorder in the timed runs: tracing is off."""

    _off = nullcontext()

    def span(self, name: str, unit: Any = None) -> nullcontext:
        return self._off


def summarize(recorder: SpanRecorder, root: str,
              structural: tuple[str, ...] = ()) -> dict[str, Any]:
    """What the traced run reports for one recorder.

    ``root`` names the span that brackets the whole timed call.  The
    self time of ``root`` and of the ``structural`` spans (the per-step
    bracket) is what no layer span accounts for.
    """
    self_s = recorder.self_times()
    wall = sum(recorder.durations(root))
    unaccounted = sum(self_s.pop(name, 0.0)
                      for name in (root,) + tuple(structural))
    return {
        "wall_s": wall,
        "self_s": self_s,
        "accounted_frac": (wall - unaccounted) / wall if wall > 0 else 0.0,
    }


def dump(path: str, recorders: list[SpanRecorder]) -> None:
    """Write every recorder's spans as one JSON document."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"recorders": [r.to_json() for r in recorders]}, fh)
        fh.write("\n")
