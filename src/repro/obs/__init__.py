"""``repro.obs`` — unified tracing, metrics, and timeline export.

The paper's future-work item (§6) is TAU-based characterization of "the
performance characteristics of individual components and their
assemblies"; this subsystem is that capability grown into cross-layer
infrastructure.  Three pieces:

* :mod:`repro.obs.trace` — a structured tracer (spans + instant events,
  per-thread buffers, SCMD-rank attribution, wall *and* virtual time);
* :mod:`repro.obs.metrics` — a labelled metrics registry (counters,
  gauges, histograms with p50/p95) that also backs
  :mod:`repro.cca.profiling`;
* :mod:`repro.obs.export` — Chrome/Perfetto ``trace_event`` JSON with
  one track per rank, plus a flat metrics JSON (the shared schema-1
  envelope every metrics producer in the repo emits);
* :mod:`repro.obs.profiler` — a flight-recorder sampling profiler
  (``REPRO_PROFILE=1``): span-stack + Python-frame snapshots into a
  bounded ring, folded-stack flamegraph export;
* :mod:`repro.obs.aggregate` — cross-rank reducers (min/mean/max/
  p50/p95 and the Table 5 max/avg load-imbalance ratio), recorded
  automatically at ``mpirun`` teardown for traced runs;
* :mod:`repro.obs.regress` — the bench-trajectory regression gate
  (``python -m repro.obs.regress``) over the repo-root
  ``BENCH_<name>.json`` trajectories that every bench run appends to.

Instrumentation hooks live in the layers themselves (CCA port calls, MPI
sends/recvs/collectives, SAMR regrid/ghost-exchange/load-balance,
integrator steps) and are guarded by a single flag check, so the
disabled cost is negligible (verified by the Table 4 overhead bench).

Usage — no application changes needed::

    import repro.obs as obs

    with obs.tracing(path="trace.json", metrics_path="metrics.json"):
        run_reaction_diffusion(...)

or, wrapping an unmodified entry point::

    REPRO_TRACE=1 REPRO_TRACE_PATH=trace.json \\
        python examples/reaction_diffusion_flame.py

Open the JSON at https://ui.perfetto.dev (or ``chrome://tracing``).
"""

from __future__ import annotations

import atexit
import os
from contextlib import contextmanager

from repro.obs import aggregate, profiler, trace
from repro.obs.export import (
    chrome_trace_events,
    export_chrome_trace,
    export_metrics,
    load_chrome_trace,
    metric_record,
    metrics_payload,
    wrap_metrics,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)
from repro.obs.profiler import SamplingProfiler
from repro.obs.trace import (
    Event,
    NULL_SPAN,
    Span,
    absorb,
    complete,
    context,
    current_context,
    drain_events,
    enabled,
    events,
    instant,
    span,
)
from repro.util.options import env_flag
from repro.util.timing import Stopwatch

__all__ = [
    "trace", "tracing", "enabled", "span", "complete", "instant", "events",
    "context", "current_context", "drain_events", "absorb",
    "Event", "Span", "NULL_SPAN",
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "get_registry",
    "chrome_trace_events", "export_chrome_trace", "export_metrics",
    "load_chrome_trace",
    "metrics_payload", "metric_record", "wrap_metrics",
    "aggregate", "profiler", "SamplingProfiler",
]


@contextmanager
def tracing(path: str | None = None, metrics_path: str | None = None,
            reset_metrics: bool = True):
    """Enable tracing for the duration of the block.

    On exit tracing is disabled and, when ``path`` / ``metrics_path`` are
    given, the Chrome trace and the metrics snapshot are written there.
    Yields the :mod:`repro.obs.trace` module so callers can emit their
    own spans.  ``reset_metrics`` starts the block from an empty default
    registry so the metrics JSON describes exactly this run.
    """
    if reset_metrics:
        get_registry().reset()
    sw = Stopwatch()
    trace.start(clear=True)
    try:
        with sw:
            yield trace
    finally:
        trace.stop()
        get_registry().gauge("obs.session_wall_seconds").set(sw.elapsed)
        if path is not None:
            export_chrome_trace(path)
        if metrics_path is not None:
            export_metrics(metrics_path)


def _activate_from_env() -> None:
    """``REPRO_TRACE=1`` turns tracing on for the whole process and
    registers an at-exit export — zero application-code changes."""
    if not env_flag("REPRO_TRACE", False):
        return
    trace.start()
    trace_path = os.environ.get("REPRO_TRACE_PATH", "trace.json")
    metrics_path = os.environ.get("REPRO_METRICS_PATH")

    def _export() -> None:
        trace.stop()
        export_chrome_trace(trace_path)
        if metrics_path:
            export_metrics(metrics_path)

    atexit.register(_export)


_activate_from_env()
