"""Flight-recorder sampling profiler.

The tracer (:mod:`repro.obs.trace`) records what instrumented layers
*chose* to report; this module answers the complementary question —
"where is the time actually going, right now?" — the way TAU's sampling
mode (the paper's §6 tooling) or py-spy would: a background thread
periodically snapshots

* every thread's **live span stack** (maintained by the tracer while
  tracing is on — component/port/integrator attribution for free), and
* every thread's **Python frame stack** (``sys._current_frames()``),

into a bounded ring buffer (a flight recorder: always-on capable, memory
use capped, oldest samples evicted first).  Exports:

* :meth:`SamplingProfiler.folded` — folded-stack text, one
  ``frame;frame;frame count`` line per distinct stack, ready for any
  flamegraph renderer (span names are sanitized at creation time so
  ``;`` never appears inside a frame);
* :meth:`SamplingProfiler.component_table` /
  :meth:`SamplingProfiler.report` — per-component self/cumulative
  sampled seconds, the TAU-profile view derived from samples instead of
  instrumentation.

Cost discipline: **off by default**; when off there is no sampler thread
and the only residual cost anywhere is the tracer's usual flag check.
When on, the sampled threads pay nothing directly — the sampler does all
the walking on its own thread (GIL acquisition is the only interference,
measured single-digit-percent by ``benchmarks/bench_profiler_overhead``
at the default 25 ms interval).

Enable per-process with ``REPRO_PROFILE=1`` (interval:
``REPRO_PROFILE_INTERVAL`` seconds; folded output:
``REPRO_PROFILE_PATH``, default ``profile.folded``) or in code::

    from repro.obs import profiler

    with profiler.profiling(path="profile.folded") as prof:
        run_reaction_diffusion(...)
    print(prof.report())
"""

from __future__ import annotations

import atexit
import os
import sys
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Iterable, NamedTuple

from repro.obs import trace as _trace
from repro.util.options import env_flag

#: Master switch mirror (True while a module-level sampler is running).
on: bool = False

DEFAULT_INTERVAL = 0.025      #: seconds between snapshots (40 Hz keeps
#: the GIL-handoff tax on C-extension-heavy workloads well under 5%)
DEFAULT_CAPACITY = 120_000    #: ring-buffer sample cap (~50 min at 25 ms)
MAX_STACK_DEPTH = 64          #: Python frames kept per sample (leafmost)


class Sample(NamedTuple):
    """One flight-recorder snapshot of one thread."""

    ts: float                      # perf_counter at snapshot time
    thread: str                    # sampled thread's name
    rank: int | None               # SCMD rank, when the thread has spans
    spans: tuple[tuple[str, str], ...]   # live (name, cat), root first
    frames: tuple[str, ...]        # python frames, root first


def _frame_label(frame) -> str:
    """``module.qualname`` for one Python frame, flamegraph-safe."""
    code = frame.f_code
    mod = os.path.basename(code.co_filename)
    if mod.endswith(".py"):
        mod = mod[:-3]
    qual = getattr(code, "co_qualname", code.co_name)
    return _trace.sanitize(f"{mod}.{qual}")


def _component_of(name: str, cat: str) -> str:
    """Attribution bucket for a span: port spans are
    ``Provider:port.method`` -> the providing component instance;
    anything else (integrator, samr, mpi spans) keeps its span name."""
    if cat == "port" and ":" in name:
        return name.split(":", 1)[0]
    return name


class SamplingProfiler:
    """Background-thread sampler with a bounded ring buffer."""

    def __init__(self, interval: float = DEFAULT_INTERVAL,
                 capacity: int = DEFAULT_CAPACITY,
                 max_depth: int = MAX_STACK_DEPTH) -> None:
        if interval <= 0.0:
            raise ValueError(f"interval must be > 0, got {interval}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.interval = float(interval)
        self.capacity = int(capacity)
        self.max_depth = int(max_depth)
        self._ring: deque[Sample] = deque(maxlen=self.capacity)
        self._stop_event = threading.Event()
        self._thread: threading.Thread | None = None
        self.ticks = 0            # sampling rounds completed
        self.samples_taken = 0    # thread snapshots recorded (evictions included)

    # -- lifecycle --------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "SamplingProfiler":
        """Spawn the sampler thread (idempotent)."""
        if self.running:
            return self
        self._stop_event.clear()
        self._thread = threading.Thread(
            target=self._run, name="obs-profiler", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> "SamplingProfiler":
        """Stop the sampler; collected samples stay readable."""
        thread = self._thread
        if thread is not None:
            self._stop_event.set()
            thread.join(timeout=5.0)
            self._thread = None
        return self

    def _run(self) -> None:
        while not self._stop_event.wait(self.interval):
            self._sample_once()

    # -- collection -------------------------------------------------------
    def _sample_once(self) -> None:
        """One sampling round: snapshot every thread except our own."""
        now = time.perf_counter()
        span_stacks = {
            ident: (name, rank, frames)
            for ident, name, rank, frames in _trace.active_stacks()
        }
        me = threading.get_ident()
        names = {t.ident: t.name for t in threading.enumerate()}
        for ident, frame in sys._current_frames().items():
            if ident == me:
                continue
            stack: list[str] = []
            depth = 0
            while frame is not None and depth < self.max_depth:
                stack.append(_frame_label(frame))
                frame = frame.f_back
                depth += 1
            stack.reverse()
            entry = span_stacks.get(ident)
            if entry is not None:
                thread_name, rank, spans = entry
            else:
                thread_name, rank, spans = names.get(ident, str(ident)), \
                    None, ()
            self._ring.append(Sample(now, thread_name, rank, spans,
                                     tuple(stack)))
            self.samples_taken += 1
        self.ticks += 1

    def samples(self) -> list[Sample]:
        """The ring buffer's current contents, oldest first."""
        return list(self._ring)

    def absorb(self, shipped: Iterable[Sample | tuple]) -> int:
        """Fold samples shipped from another process into the ring.

        The parent-side half of ``mp``-backend profile shipping: worker
        ranks sample themselves (the fork kills the inherited sampler
        thread, so each worker restarts its own) and ship their rings
        home at teardown, rank-tagged.  Returns the number absorbed.
        """
        n = 0
        for s in shipped:
            if not isinstance(s, Sample):
                s = Sample(*s)
            self._ring.append(s)
            self.samples_taken += 1
            n += 1
        return n

    def clear(self) -> None:
        self._ring.clear()

    # -- exports ----------------------------------------------------------
    def folded(self, kind: str = "mixed",
               samples: Iterable[Sample] | None = None) -> str:
        """Folded-stack flamegraph text (``a;b;c count`` lines).

        ``kind`` selects the stack source per sample:

        * ``"spans"``  — tracer span stacks only (samples with no open
          span fold under ``(no span)``);
        * ``"frames"`` — raw Python frame stacks;
        * ``"mixed"``  — span stack as the attribution prefix with the
          Python frames appended below it (the default: flame cells read
          "inside component X's port method, in this function").

        Every stack is prefixed with its rank (``rank 3``) when the
        sample carries one, giving per-rank flame columns for SCMD runs.
        """
        if kind not in ("spans", "frames", "mixed"):
            raise ValueError(f"unknown folded kind {kind!r}")
        counts: dict[tuple[str, ...], int] = {}
        for s in (self.samples() if samples is None else samples):
            span_names = tuple(name for name, _cat in s.spans)
            if kind == "spans":
                stack = span_names or ("(no span)",)
            elif kind == "frames":
                stack = s.frames
            else:
                stack = span_names + s.frames
            if s.rank is not None:
                stack = (f"rank_{s.rank}",) + stack
            if stack:
                counts[stack] = counts.get(stack, 0) + 1
        lines = [f"{';'.join(stack)} {n}"
                 for stack, n in sorted(counts.items())]
        return "\n".join(lines)

    def export_folded(self, path: str, kind: str = "mixed") -> str:
        """Write :meth:`folded` output to ``path``; returns the path."""
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            text = self.folded(kind)
            fh.write(text + ("\n" if text else ""))
        return path

    def component_table(self) -> dict[str, dict[str, float]]:
        """Per-component sampled self/cumulative seconds.

        Each sample charges ``interval`` seconds of *self* time to its
        innermost span's component and ``interval`` of *cumulative* time
        to every distinct component on the stack — the classic
        sampled-profile estimate (unbiased as the sample count grows).
        Samples with no open span are aggregated under ``(no span)``.
        """
        dt = self.interval
        out: dict[str, dict[str, float]] = {}

        def entry(comp: str) -> dict[str, float]:
            return out.setdefault(
                comp, {"self_seconds": 0.0, "cum_seconds": 0.0,
                       "samples": 0.0})

        for s in self.samples():
            if not s.spans:
                e = entry("(no span)")
                e["self_seconds"] += dt
                e["cum_seconds"] += dt
                e["samples"] += 1
                continue
            comps = [_component_of(name, cat) for name, cat in s.spans]
            leaf = entry(comps[-1])
            leaf["self_seconds"] += dt
            leaf["samples"] += 1
            for comp in dict.fromkeys(comps):   # distinct, order kept
                entry(comp)["cum_seconds"] += dt
        return out

    def report(self) -> str:
        """Text table of :meth:`component_table`, most self-time first."""
        table = self.component_table()
        total_self = sum(e["self_seconds"] for e in table.values())
        lines = [
            f"{'component / span':<40} {'samples':>8} "
            f"{'self [s]':>10} {'cum [s]':>10} {'self %':>7}",
            "-" * 80,
        ]
        for comp, e in sorted(table.items(),
                              key=lambda kv: kv[1]["self_seconds"],
                              reverse=True):
            pct = 100.0 * e["self_seconds"] / total_self if total_self \
                else 0.0
            lines.append(
                f"{comp:<40} {int(e['samples']):>8} "
                f"{e['self_seconds']:>10.4f} {e['cum_seconds']:>10.4f} "
                f"{pct:>6.1f}%")
        lines.append("-" * 80)
        lines.append(
            f"{self.ticks} sampling rounds, {self.samples_taken} samples, "
            f"interval {self.interval * 1e3:.1f} ms, "
            f"ring {len(self._ring)}/{self.capacity}")
        return "\n".join(lines)


# -- module-level flight recorder ---------------------------------------------
_profiler: SamplingProfiler | None = None
_lock = threading.Lock()


def get() -> SamplingProfiler | None:
    """The module-level sampler, if one was ever started."""
    return _profiler


def start(interval: float | None = None,
          capacity: int | None = None) -> SamplingProfiler:
    """Start (or restart) the module-level sampler."""
    global _profiler, on
    with _lock:
        if _profiler is not None:
            _profiler.stop()
        _profiler = SamplingProfiler(
            interval=DEFAULT_INTERVAL if interval is None else interval,
            capacity=DEFAULT_CAPACITY if capacity is None else capacity)
        _profiler.start()
        on = True
        return _profiler


def stop() -> SamplingProfiler | None:
    """Stop the module-level sampler; its samples stay readable."""
    global on
    with _lock:
        if _profiler is not None:
            _profiler.stop()
        on = False
        return _profiler


@contextmanager
def profiling(interval: float | None = None,
              capacity: int | None = None,
              path: str | None = None, kind: str = "mixed"):
    """Sample for the duration of the block; optionally export the
    folded stacks to ``path`` on exit.  Yields the profiler."""
    prof = start(interval=interval, capacity=capacity)
    try:
        yield prof
    finally:
        stop()
        if path is not None:
            prof.export_folded(path, kind=kind)


def _activate_from_env() -> None:
    """``REPRO_PROFILE=1`` arms the flight recorder for the whole process
    and registers an at-exit folded-stack export — the same zero-code
    discipline as ``REPRO_TRACE``."""
    if not env_flag("REPRO_PROFILE", False):
        return
    interval = float(os.environ.get("REPRO_PROFILE_INTERVAL",
                                    str(DEFAULT_INTERVAL)))
    path = os.environ.get("REPRO_PROFILE_PATH", "profile.folded")

    def _export(prof: SamplingProfiler = start(interval=interval)) -> None:
        stop()
        prof.export_folded(path)

    atexit.register(_export)


_activate_from_env()
