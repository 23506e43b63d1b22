"""Cross-rank aggregation reducers for SCMD runs.

The paper's Table 5 characterizes a parallel run by statistics over the
per-processor run times (mean / median / stdev — the "homogeneous
machine" check).  This module is that reduction grown into reusable
infrastructure: given any per-rank series (virtual clocks, busy times,
byte counts) it produces ``min / mean / max / p50 / p95`` plus the
**load-imbalance ratio** ``max / avg`` — the canonical SPMD imbalance
statistic (1.0 = perfectly balanced; FLASH and Cactus both report the
same number from their built-in monitors).

Wired in two places:

* :func:`repro.mpi.launcher.mpirun` teardown records every rank's final
  virtual clock (and the reduced summary) into the default metrics
  registry whenever tracing is enabled — so every traced SCMD run ships
  a per-rank breakdown for free;
* the Table 5 / Fig 8-9 scaling benches call :func:`rank_clock_summary`
  per case and publish the imbalance ratio next to the paper's numbers.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Mapping, Sequence

from repro.obs import trace as _trace
from repro.obs.metrics import MetricsRegistry, get_registry

#: Gauge names the mpirun teardown hook records under.
RANK_CLOCK_METRIC = "mpi.rank_clock_seconds"
IMBALANCE_METRIC = "mpi.clock_imbalance"
CLOCK_MAX_METRIC = "mpi.clock_max_seconds"
CLOCK_MEAN_METRIC = "mpi.clock_mean_seconds"
CLOCK_P95_METRIC = "mpi.clock_p95_seconds"


def percentile(values: Sequence[float], q: float) -> float:
    """Exact q-th percentile (``0 <= q <= 100``) with linear
    interpolation between order statistics (numpy's default method) —
    the reducer used for p50/p95 in every cross-rank summary."""
    if not values:
        raise ValueError("percentile of an empty sequence")
    data = sorted(float(v) for v in values)
    if len(data) == 1:
        return data[0]
    q = min(max(float(q), 0.0), 100.0)
    pos = q / 100.0 * (len(data) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return data[lo]
    frac = pos - lo
    return data[lo] * (1.0 - frac) + data[hi] * frac


def imbalance(values: Sequence[float]) -> float:
    """Load-imbalance ratio ``max / avg`` (Table 5's statistic).

    1.0 means perfectly balanced; a run where one rank takes twice the
    average reports 2.0.  Degenerate inputs (empty, or an all-zero
    series) report 1.0 — "nothing measured" is not an imbalance.
    """
    if not values:
        return 1.0
    mean = sum(values) / len(values)
    if mean == 0.0:
        return 1.0
    # a maximum is never below the mean: only the rounding of the sum can
    # say so (48 equal clocks read 0.9999999999999988), and must not
    return max(1.0, max(values) / mean)


def summarize(values: Sequence[float]) -> dict[str, float]:
    """Reduce a per-rank series to ``n / min / mean / max / p50 / p95 /
    imbalance`` (empty input raises — a summary of nothing is a bug)."""
    if not values:
        raise ValueError("summarize of an empty sequence")
    data = [float(v) for v in values]
    return {
        "n": float(len(data)),
        "min": min(data),
        "mean": sum(data) / len(data),
        "max": max(data),
        "p50": percentile(data, 50.0),
        "p95": percentile(data, 95.0),
        "imbalance": imbalance(data),
    }


def rank_clock_summary(clocks: Sequence[float]) -> dict[str, Any]:
    """Per-rank virtual clocks + the reduced statistics, JSON-ready:
    ``{"per_rank": [...], "stats": {...}}``."""
    return {"per_rank": [float(c) for c in clocks],
            "stats": summarize(clocks)}


def record_rank_clocks(clocks: Sequence[float],
                       registry: MetricsRegistry | None = None
                       ) -> dict[str, Any]:
    """Record every rank's final clock and the reduced summary as gauges
    (``mpi.rank_clock_seconds{rank=r}``, ``mpi.clock_imbalance``, ...).

    Called from :func:`repro.mpi.launcher.mpirun` teardown while tracing
    is enabled; returns the :func:`rank_clock_summary` it recorded.
    """
    registry = registry if registry is not None else get_registry()
    summary = rank_clock_summary(clocks)
    for rank, clock in enumerate(summary["per_rank"]):
        registry.gauge(RANK_CLOCK_METRIC, rank=rank).set(clock)
    stats = summary["stats"]
    registry.gauge(IMBALANCE_METRIC).set(stats["imbalance"])
    registry.gauge(CLOCK_MAX_METRIC).set(stats["max"])
    registry.gauge(CLOCK_MEAN_METRIC).set(stats["mean"])
    registry.gauge(CLOCK_P95_METRIC).set(stats["p95"])
    return summary


def rank_trace_summary(events: Iterable[_trace.Event] | None = None
                       ) -> dict[int, dict[str, Any]]:
    """Per-rank roll-up of a trace: event count and busy seconds per
    category (complete spans only; rank-untagged events are skipped)."""
    if events is None:
        events = _trace.events()
    out: dict[int, dict[str, Any]] = {}
    for e in events:
        if e.rank is None:
            continue
        entry = out.setdefault(e.rank, {"events": 0, "busy_seconds": {}})
        entry["events"] += 1
        if e.ph == "X":
            busy = entry["busy_seconds"]
            busy[e.cat] = busy.get(e.cat, 0.0) + e.dur / 1e6
    return out


def reduce_rank_traces(per_rank: Mapping[int, Mapping[str, Any]]
                       ) -> dict[str, dict[str, float]]:
    """Reduce :func:`rank_trace_summary` output across ranks: one
    :func:`summarize` block per span category (busy seconds) plus one
    for the per-rank event counts."""
    if not per_rank:
        return {}
    ranks = sorted(per_rank)
    cats = sorted({cat for entry in per_rank.values()
                   for cat in entry["busy_seconds"]})
    out: dict[str, dict[str, float]] = {
        "events": summarize([per_rank[r]["events"] for r in ranks]),
    }
    for cat in cats:
        out[f"busy.{cat}"] = summarize(
            [per_rank[r]["busy_seconds"].get(cat, 0.0) for r in ranks])
    return out


# -- critical path & wait attribution -----------------------------------------
#: mpi.<label> span names that are rendezvous collectives (every member
#: blocks until the last arrives) — the joints the critical path pivots
#: on and the places wait-time blame accrues.
COLLECTIVE_LABELS = frozenset(
    {"barrier", "bcast", "reduce", "allreduce", "gather", "allgather",
     "scatter", "alltoall"})


def component_of(name: str, cat: str) -> str:
    """Attribution bucket for a span: port spans are
    ``Provider:port.method`` -> the providing component instance;
    anything else keeps its span name."""
    if cat == "port" and ":" in name:
        return name.split(":", 1)[0]
    return name


def _rank_spans(events: Iterable[_trace.Event]
                ) -> dict[int, list[_trace.Event]]:
    """Complete spans per rank, time-ordered (rank-untagged dropped)."""
    per_rank: dict[int, list[_trace.Event]] = {}
    for e in events:
        if e.ph == "X" and e.rank is not None:
            per_rank.setdefault(e.rank, []).append(e)
    for evs in per_rank.values():
        evs.sort(key=lambda e: (e.ts, -e.dur))
    return per_rank


def collective_groups(events: Iterable[_trace.Event]
                      ) -> list[dict[str, Any]]:
    """Align each rank's world-size collective spans into rendezvous
    groups.

    SPMD discipline means every rank executes the same world collectives
    in the same order, so the *i*-th world-size collective span on rank
    0 and the *i*-th on rank 3 are the same rendezvous — alignment by
    per-rank sequence index, no ids on the wire needed.  Spans from
    split sub-communicators (``args.size < world``) are excluded; only
    groups every rank completed are returned.

    Each group: ``{"index", "name", "entries": {rank: ts}, "spans":
    {rank: Event}}``.
    """
    per_rank = _rank_spans(events)
    nranks = len(per_rank)
    if nranks < 2:
        return []
    seqs: dict[int, list[_trace.Event]] = {}
    for rank, evs in per_rank.items():
        seqs[rank] = [
            e for e in evs
            if e.cat == "mpi" and e.name.startswith("mpi.")
            and e.name[4:] in COLLECTIVE_LABELS
            and (e.args or {}).get("size") == nranks
        ]
    depth = min(len(s) for s in seqs.values())
    groups: list[dict[str, Any]] = []
    for i in range(depth):
        spans = {rank: seqs[rank][i] for rank in sorted(seqs)}
        names = {e.name for e in spans.values()}
        if len(names) != 1:
            # alignment lost (a rank diverged) — stop rather than blame
            # the wrong collective
            break
        groups.append({
            "index": i,
            "name": names.pop(),
            "entries": {rank: e.ts for rank, e in spans.items()},
            "spans": spans,
        })
    return groups


def _blame_span(per_rank: Mapping[int, Sequence[_trace.Event]],
                rank: int, ts: float) -> str:
    """The innermost non-mpi span open on ``rank`` at ``ts`` (what the
    straggler was *doing* when everyone else was already waiting)."""
    best: _trace.Event | None = None
    for e in per_rank.get(rank, ()):
        if e.ts > ts:
            break
        if e.cat != "mpi" and e.ts <= ts <= e.ts + e.dur:
            if best is None or e.ts >= best.ts:
                best = e
    return component_of(best.name, best.cat) if best is not None \
        else "(untraced)"


def wait_attribution(events: Iterable[_trace.Event]) -> dict[str, Any]:
    """Per-collective wait-time blame for a merged multi-rank trace.

    For every world-size rendezvous: who arrived last, how long every
    other rank idled for them, and which component the straggler was
    executing — the "which component makes everyone wait" table Table 5
    flame runs are diagnosed with.  Durations in **seconds**.
    """
    events = list(events)
    per_rank = _rank_spans(events)
    groups = collective_groups(events)
    out_groups: list[dict[str, Any]] = []
    by_component: dict[str, dict[str, float]] = {}
    total_wait = 0.0
    for g in groups:
        entries = g["entries"]
        last_rank = max(entries, key=lambda r: entries[r])
        last_ts = entries[last_rank]
        waits = {rank: (last_ts - ts) / 1e6
                 for rank, ts in entries.items()}
        group_wait = sum(waits.values())
        blame = _blame_span(per_rank, last_rank, last_ts)
        total_wait += group_wait
        slot = by_component.setdefault(
            blame, {"wait_seconds": 0.0, "groups": 0.0})
        slot["wait_seconds"] += group_wait
        slot["groups"] += 1
        out_groups.append({
            "index": g["index"],
            "name": g["name"],
            "last_rank": last_rank,
            "entry_ts_us": dict(sorted(entries.items())),
            "waits_seconds": dict(sorted(waits.items())),
            "wait_seconds": group_wait,
            "blame": blame,
        })
    return {
        "nranks": len(per_rank),
        "collectives": len(out_groups),
        "total_wait_seconds": total_wait,
        "groups": out_groups,
        "by_component": dict(sorted(
            by_component.items(),
            key=lambda kv: kv[1]["wait_seconds"], reverse=True)),
    }


def _segment_busy(spans: Sequence[_trace.Event], t0: float,
                  t1: float) -> dict[str, float]:
    """Per-component *self* seconds inside ``[t0, t1]`` (µs bounds) for
    one rank's time-ordered span list; uncovered time is charged to
    ``(untraced)``."""
    out: dict[str, float] = {}
    # stack entries: [component, end_ts, remaining clipped self-time]
    stack: list[list] = []

    def pop_into(out: dict[str, float]) -> None:
        comp, _end, self_us = stack.pop()
        if self_us > 0.0:
            out[comp] = out.get(comp, 0.0) + self_us / 1e6

    covered = 0.0
    for e in spans:
        if e.ts + e.dur <= t0 or e.ts >= t1:
            continue
        clip = min(e.ts + e.dur, t1) - max(e.ts, t0)
        while stack and e.ts >= stack[-1][1]:
            pop_into(out)
        if stack:
            stack[-1][2] -= clip      # child time is not parent self-time
        else:
            covered += clip
        stack.append([component_of(e.name, e.cat), e.ts + e.dur, clip])
    while stack:
        pop_into(out)
    gap = (t1 - t0) - covered
    if gap > 0.0:
        out["(untraced)"] = out.get("(untraced)", 0.0) + gap / 1e6
    return dict(sorted(out.items(), key=lambda kv: kv[1], reverse=True))


def critical_path(events: Iterable[_trace.Event]) -> dict[str, Any]:
    """The cross-rank critical path of a merged multi-rank trace.

    Walks backward from the rank that finished last; every world-size
    rendezvous releases when its *last* member arrives, so at each
    collective the path pivots to that group's straggler — the chain of
    rank segments that actually bounded the run's length.  Each segment
    carries a per-component busy breakdown (:func:`_segment_busy`), so
    the answer reads "the run took this long because rank 2 spent 0.8 s
    in ChemistryKernel before the step-12 allreduce".  Durations in
    seconds; timestamps in µs on the shared session timeline.
    """
    events = list(events)
    per_rank = _rank_spans(events)
    if not per_rank:
        return {"nranks": 0, "segments": [], "by_component": {},
                "total_seconds": 0.0}
    groups = collective_groups(events)
    ends = {rank: max(e.ts + e.dur for e in evs)
            for rank, evs in per_rank.items()}
    starts = {rank: min(e.ts for e in evs)
              for rank, evs in per_rank.items()}
    cur_rank = max(ends, key=lambda r: ends[r])
    cur_ts = ends[cur_rank]
    segments: list[dict[str, Any]] = []
    for g in reversed(groups):
        entries = g["entries"]
        last_rank = max(entries, key=lambda r: entries[r])
        pivot_ts = entries[last_rank]
        if pivot_ts >= cur_ts:
            continue            # rendezvous released after our cursor
        seg_start = max(pivot_ts, starts.get(cur_rank, pivot_ts))
        segments.append({
            "rank": cur_rank,
            "t0_us": seg_start,
            "t1_us": cur_ts,
            "seconds": (cur_ts - seg_start) / 1e6,
            "via": f"{g['name']}[{g['index']}]",
            "busy": _segment_busy(per_rank[cur_rank], seg_start, cur_ts),
        })
        cur_rank, cur_ts = last_rank, pivot_ts
    seg_start = starts.get(cur_rank, cur_ts)
    if cur_ts > seg_start:
        segments.append({
            "rank": cur_rank,
            "t0_us": seg_start,
            "t1_us": cur_ts,
            "seconds": (cur_ts - seg_start) / 1e6,
            "via": "(start)",
            "busy": _segment_busy(per_rank[cur_rank], seg_start, cur_ts),
        })
    segments.reverse()
    by_component: dict[str, float] = {}
    for seg in segments:
        for comp, sec in seg["busy"].items():
            by_component[comp] = by_component.get(comp, 0.0) + sec
    t_first = min(starts.values())
    return {
        "nranks": len(per_rank),
        "end_rank": max(ends, key=lambda r: ends[r]),
        "total_seconds": (max(ends.values()) - t_first) / 1e6,
        "path_seconds": sum(s["seconds"] for s in segments),
        "segments": segments,
        "by_component": dict(sorted(
            by_component.items(), key=lambda kv: kv[1], reverse=True)),
    }


def format_wait_attribution(report: Mapping[str, Any]) -> str:
    """Text table for a :func:`wait_attribution` report."""
    lines = [
        f"{report['collectives']} world collectives across "
        f"{report['nranks']} ranks; total rank-wait "
        f"{report['total_wait_seconds']:.6f} s",
        "",
        f"{'blamed component':<40} {'groups':>7} {'wait [s]':>12}",
        "-" * 61,
    ]
    for comp, slot in report["by_component"].items():
        lines.append(f"{comp:<40} {int(slot['groups']):>7} "
                     f"{slot['wait_seconds']:>12.6f}")
    worst = sorted(report["groups"], key=lambda g: g["wait_seconds"],
                   reverse=True)[:5]
    if worst:
        lines += ["", "worst rendezvous:"]
        for g in worst:
            lines.append(
                f"  {g['name']}[{g['index']}]: rank {g['last_rank']} "
                f"last ({g['blame']}), peers idled "
                f"{g['wait_seconds']:.6f} s")
    return "\n".join(lines)


def format_critical_path(report: Mapping[str, Any]) -> str:
    """Text rendering of a :func:`critical_path` report."""
    lines = [
        f"critical path across {report['nranks']} ranks: "
        f"{report['path_seconds']:.6f} s of "
        f"{report['total_seconds']:.6f} s span "
        f"(ends on rank {report.get('end_rank')})",
        "",
    ]
    for seg in report["segments"]:
        lines.append(
            f"rank {seg['rank']}  {seg['seconds']:>10.6f} s  "
            f"via {seg['via']}")
        for comp, sec in list(seg["busy"].items())[:4]:
            lines.append(f"    {comp:<40} {sec:>10.6f} s")
    lines += ["", f"{'component (path self-time)':<40} {'[s]':>10}",
              "-" * 52]
    for comp, sec in report["by_component"].items():
        lines.append(f"{comp:<40} {sec:>10.6f}")
    return "\n".join(lines)


def format_rank_summary(summary: Mapping[str, Any],
                        label: str = "virtual clock [s]") -> str:
    """Text block for a :func:`rank_clock_summary` — the per-rank
    breakdown the scaling benches append to their reports."""
    per_rank = summary["per_rank"]
    stats = summary["stats"]
    lines = [f"per-rank {label}:"]
    for rank, value in enumerate(per_rank):
        lines.append(f"  rank {rank}: {value:.6g}")
    lines.append(
        f"  min {stats['min']:.6g}  mean {stats['mean']:.6g}  "
        f"max {stats['max']:.6g}  p50 {stats['p50']:.6g}  "
        f"p95 {stats['p95']:.6g}")
    lines.append(f"  load imbalance (max/avg): {stats['imbalance']:.4f}")
    return "\n".join(lines)
