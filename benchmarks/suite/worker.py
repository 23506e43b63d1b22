"""One repetition of one workload, in a process of its own.

``run.py`` starts this file as a fresh subprocess for every repetition:
a user's simulation is one process that pays import and assembly once,
and a process of its own makes the peak resident set a per-workload
number.  The last line of standard output is one JSON object.

Modes: ``setup`` (imports and set-up only — the discarded warm-up that
compiles bytecode and fills the page cache), ``timed`` (tracing off),
``traced`` (spans from ``spans.py`` around every call into a layer, and
the program's metrics registry armed through ``repro.obs.tracing`` for
the exact counts), ``layers`` (the micro-timings of ``layers.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def _cpu_seconds() -> float:
    """User + system time of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any child (Linux: KiB)."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0


def _registry_counts(path: str) -> dict[str, float]:
    """The exact counts the program's own registry kept while armed."""
    with open(path, encoding="utf-8") as fh:
        records = json.load(fh)["metrics"]

    def total(name: str, **labels: str) -> float:
        return sum(float(r.get("value") or 0.0) for r in records
                   if r["name"] == name
                   and all(r["labels"].get(k) == v
                           for k, v in labels.items()))

    return {
        "integrators.cvode.steps": total("integrator.steps", kind="cvode"),
        "integrators.cvode.rhs_evals": total("integrator.rhs_evals",
                                             kind="cvode"),
        "integrators.rkc.steps": total("integrator.steps", kind="rkc"),
        "integrators.rkc.rhs_evals": total("integrator.rhs_evals",
                                           kind="rkc"),
        "integrators.rkc.stages": total("integrator.rkc_stages"),
        "samr.ghost_exchanges": total("samr.ghost_exchanges"),
        "samr.ghost_bytes": total("samr.ghost_bytes"),
        "samr.regrids": total("samr.regrids"),
        "mpi.sends": total("mpi.sends"),
        "mpi.bytes_sent": total("mpi.bytes_sent"),
        "mpi.collectives": total("mpi.collectives"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "timed", "traced", "layers"))
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="epoch seconds at which run.py started us")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--spans-out", default="")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    if args.mode == "layers":
        import layers
        print(json.dumps(layers.measure_all(args.seed, args.work_dir)))
        return 0

    import spans
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.work_dir, args.tiny)
    workload.setup()
    out = {"setup_s": time.time() - args.spawned_at}
    try:
        if args.mode == "timed":
            cpu0, t0 = _cpu_seconds(), time.perf_counter()
            result = workload.run()
            out["wall_s"] = time.perf_counter() - t0
            out["cpu_s"] = _cpu_seconds() - cpu0
        elif args.mode == "traced":
            import repro.obs

            recorder = spans.SpanRecorder(args.workload)
            metrics_path = os.path.join(args.work_dir, "metrics.json")
            with repro.obs.tracing(metrics_path=metrics_path):
                cpu0, t0 = _cpu_seconds(), time.perf_counter()
                result = workload.run_traced(recorder)
                out["wall_s"] = time.perf_counter() - t0
                out["cpu_s"] = _cpu_seconds() - cpu0
            summary, recorders = workload.span_summary(recorder, result)
            spans.dump(args.spans_out, recorders)
            out["spans"] = summary
            out["registry"] = _registry_counts(metrics_path)
            os.unlink(metrics_path)
            # the program's own spans reach where the benchmark's cannot:
            # Comm calls and ghost exchanges inside explicit.advance
            events = [e for e in repro.obs.events() if e.ph == "X"]
            out["program_spans"] = {
                "mpi_s": 1e-6 * sum(e.dur for e in events
                                    if e.cat == "mpi"),
                "ghost_s": 1e-6 * sum(e.dur for e in events
                                      if e.name == "samr.ghost_exchange"),
            }
        if args.mode != "setup":
            out.update(workload.outcome(result))
    finally:
        workload.teardown()
    out["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
