"""``python -m repro.obs`` — trace inspection without writing code.

Every artifact this CLI reads is a Chrome/Perfetto trace written by
:func:`repro.obs.export.export_chrome_trace` (a ``REPRO_TRACE=1`` run's
at-exit export, a serve job's ``<id>.trace.json``, or a merge of
several).  Subcommands::

    python -m repro.obs merge out.json a.json b.json   # combine traces
    python -m repro.obs top trace.json                 # busiest components
    python -m repro.obs critical-path trace.json       # cross-rank path +
                                                       #   collective blame
    python -m repro.obs job j-000001 --root .repro_serve
                                                       # a serve job's
                                                       #   end-to-end trace

``critical-path`` is the Table 5 diagnosis tool: on a merged multi-rank
trace it walks the chain of rank segments that bounded the run
(pivoting at every world collective to the rank that arrived last) and
prints per-collective wait blame — which component made everyone idle,
and for how long.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from repro.errors import ReproError
from repro.obs import trace as _trace
from repro.obs.aggregate import (
    _segment_busy,
    critical_path,
    format_critical_path,
    format_wait_attribution,
    wait_attribution,
)
from repro.obs.export import export_chrome_trace, load_chrome_trace


def _load_all(paths: Sequence[str]) -> list[_trace.Event]:
    events: list[_trace.Event] = []
    for path in paths:
        events.extend(load_chrome_trace(path))
    events.sort(key=lambda e: e.ts)
    return events


def _print_json(doc) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _cmd_merge(args: argparse.Namespace) -> int:
    events = _load_all(args.inputs)
    export_chrome_trace(args.out, events)
    ranks = sorted({e.rank for e in events if e.rank is not None})
    print(f"{args.out}: {len(events)} events from {len(args.inputs)} "
          f"trace(s), ranks {ranks or '(none)'}")
    return 0


def top_components(events: Sequence[_trace.Event]
                   ) -> dict[str, dict[str, float]]:
    """Per-component self-seconds and span counts across every thread
    of a trace (the profiler's component table derived from spans)."""
    per_thread: dict[tuple, list[_trace.Event]] = {}
    for e in events:
        if e.ph == "X":
            per_thread.setdefault((e.rank, e.thread), []).append(e)
    out: dict[str, dict[str, float]] = {}
    for evs in per_thread.values():
        evs.sort(key=lambda e: (e.ts, -e.dur))
        t0 = min(e.ts for e in evs)
        t1 = max(e.ts + e.dur for e in evs)
        for comp, sec in _segment_busy(evs, t0, t1).items():
            slot = out.setdefault(comp, {"self_seconds": 0.0,
                                         "spans": 0.0})
            slot["self_seconds"] += sec
    from repro.obs.aggregate import component_of
    for e in events:
        if e.ph == "X":
            comp = component_of(e.name, e.cat)
            if comp in out:
                out[comp]["spans"] += 1
    return dict(sorted(out.items(),
                       key=lambda kv: kv[1]["self_seconds"],
                       reverse=True))


def _format_top(table: dict[str, dict[str, float]], limit: int) -> str:
    lines = [f"{'component / span':<44} {'spans':>8} {'self [s]':>12}",
             "-" * 66]
    for comp, slot in list(table.items())[:limit]:
        lines.append(f"{comp:<44} {int(slot['spans']):>8} "
                     f"{slot['self_seconds']:>12.6f}")
    return "\n".join(lines)


def _cmd_top(args: argparse.Namespace) -> int:
    events = _load_all([args.trace])
    table = top_components(events)
    if args.json:
        _print_json(table)
    else:
        print(_format_top(table, args.limit))
    return 0


def _cmd_critical_path(args: argparse.Namespace) -> int:
    events = _load_all([args.trace])
    path = critical_path(events)
    waits = wait_attribution(events)
    if args.json:
        _print_json({"critical_path": path, "wait_attribution": waits})
        return 0
    print(format_critical_path(path))
    print()
    print(format_wait_attribution(waits))
    return 0


def _cmd_job(args: argparse.Namespace) -> int:
    from repro.serve.jobs import JobStore

    root = args.root or os.environ.get("REPRO_SERVE_ROOT", ".repro_serve")
    store = JobStore(os.path.join(root, "jobs"))
    record = store.get_record(args.job_id)
    artifact = record.trace_path
    if artifact and not os.path.exists(artifact):
        # the root moved since the job ran: look beside its document
        artifact = store.trace_path(args.job_id)
    events = load_chrome_trace(artifact) \
        if artifact and os.path.exists(artifact) else []
    if args.json:
        _print_json({
            "job_id": record.job_id, "state": record.state,
            "trace_id": record.trace_id, "trace_path": record.trace_path,
            "events": len(events),
            "critical_path": critical_path(events) if events else None,
            "wait_attribution": wait_attribution(events) if events
            else None,
        })
        return 0
    print(f"job {record.job_id}: state={record.state} "
          f"tenant={record.tenant}")
    tid = record.trace_id or "(none — submitted while tracing was off)"
    print(f"trace id:       {tid}")
    print(f"trace artifact: {record.trace_path or '(none)'}")
    if not events:
        return 0 if record.trace_id else 1
    ranks = sorted({e.rank for e in events if e.rank is not None})
    print(f"{len(events)} events, ranks {ranks or '(unranked)'}")
    print()
    print(_format_top(top_components(events), args.limit))
    if len(ranks) > 1:
        print()
        print(format_critical_path(critical_path(events)))
        print()
        print(format_wait_attribution(wait_attribution(events)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect Chrome/Perfetto traces exported by "
                    "repro.obs (merge, rank, critical-path, serve jobs).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("merge", help="combine several trace files")
    p.add_argument("out", help="output trace path")
    p.add_argument("inputs", nargs="+", help="input trace paths")
    p.set_defaults(func=_cmd_merge)

    p = sub.add_parser("top", help="busiest components (span self-time)")
    p.add_argument("trace", help="trace path")
    p.add_argument("--limit", type=int, default=20)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_top)

    p = sub.add_parser("critical-path",
                       help="cross-rank critical path + per-collective "
                            "wait attribution")
    p.add_argument("trace", help="merged multi-rank trace path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_critical_path)

    p = sub.add_parser("job", help="a serve job's end-to-end trace")
    p.add_argument("job_id")
    p.add_argument("--root", default=None,
                   help="serve root (default: $REPRO_SERVE_ROOT or "
                        ".repro_serve)")
    p.add_argument("--limit", type=int, default=20)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_job)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
