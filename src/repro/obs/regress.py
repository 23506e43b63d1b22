"""Bench-trajectory regression gate: ``python -m repro.obs.regress``.

Reads every ``BENCH_<name>.json`` trajectory
(:mod:`repro.bench.trajectory`) in the target directory, compares each
bench's **latest** run against the **median of its history**, and exits
non-zero when any KPI regressed — the decision layer that turns the
benches' raw telemetry into a CI gate.

Noise discipline:

* history is filtered to runs whose ``fast`` fingerprint flag matches
  the latest run (fast-mode and full-scale numbers are different
  universes);
* history starts at the last run annotated ``"new_series": true`` (by
  hand, beside a ``note`` saying what re-defined the bench's KPIs);
* when enough same-``host`` history exists it is preferred — cross-host
  deltas are machine differences, not regressions (cross-host fallback
  comparisons are labelled as such in the table);
* the baseline is the **median** of the history pool, so a single noisy
  historical run cannot move the threshold;
* a KPI regresses only when ``latest > median + tolerance * |median|``
  (default tolerance 50% — far above timer noise for the fast-mode
  KPIs, far below a real 2x slowdown; the ``|median|`` band keeps
  negative KPIs, e.g. signed physics quantities, gated symmetrically);
  improvements never fail;
* medians below ``--min-baseline`` (default 1e-4) are skipped: a number
  too small to time reliably cannot gate.

Exit codes: 0 clean (including "not enough history yet"), 1 regression
detected (``--strict`` additionally fails when no trajectories exist at
all), 2 usage errors.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
from dataclasses import dataclass
from typing import Sequence

DEFAULT_TOLERANCE = 0.50
DEFAULT_MIN_BASELINE = 1e-4
DEFAULT_MIN_HISTORY = 1

#: row statuses, in decreasing severity
REGRESSION = "REGRESSION"
OK = "ok"
SKIPPED = "skipped"     # baseline below --min-baseline
NEW = "new"             # KPI absent from history
NO_HISTORY = "no-history"


@dataclass
class Delta:
    """One KPI comparison."""

    bench: str
    metric: str
    baseline: float | None     # median of the history pool
    latest: float
    n_history: int
    status: str
    cross_host: bool = False

    @property
    def ratio(self) -> float | None:
        if self.baseline in (None, 0.0):
            return None
        return self.latest / self.baseline


def _match(run: dict, latest: dict, key: str) -> bool:
    return run.get("fingerprint", {}).get(key) == \
        latest.get("fingerprint", {}).get(key)


def compare_trajectory(doc: dict, tolerance: float = DEFAULT_TOLERANCE,
                       min_history: int = DEFAULT_MIN_HISTORY,
                       min_baseline: float = DEFAULT_MIN_BASELINE
                       ) -> list[Delta]:
    """Compare ``doc``'s latest run against its history; one
    :class:`Delta` per KPI of the latest run."""
    bench = doc.get("bench", "?")
    runs: Sequence[dict] = doc.get("runs", [])
    if not runs:
        return []
    latest = runs[-1]
    start = max((i for i, r in enumerate(runs) if r.get("new_series")),
                default=0)
    history = [r for r in runs[start:-1] if _match(r, latest, "fast")]
    same_host = [r for r in history if _match(r, latest, "host")]
    cross_host = len(same_host) < min_history
    pool = history if cross_host else same_host
    deltas: list[Delta] = []
    for metric, value in sorted(latest.get("metrics", {}).items()):
        values = [r["metrics"][metric] for r in pool
                  if metric in r.get("metrics", {})]
        if len(pool) < min_history:
            deltas.append(Delta(bench, metric, None, value, len(pool),
                                NO_HISTORY, cross_host))
            continue
        if not values:
            deltas.append(Delta(bench, metric, None, value, 0, NEW,
                                cross_host))
            continue
        baseline = statistics.median(values)
        if abs(baseline) < min_baseline:
            status = SKIPPED
        elif value > baseline + tolerance * abs(baseline):
            status = REGRESSION
        else:
            status = OK
        deltas.append(Delta(bench, metric, baseline, value, len(values),
                            status, cross_host))
    return deltas


def format_deltas(deltas: Sequence[Delta]) -> str:
    """The delta table — what the CI log shows when the gate trips."""
    headers = ["bench", "metric", "baseline", "latest", "ratio", "hist",
               "status"]
    rows: list[list[str]] = []
    for d in deltas:
        rows.append([
            d.bench,
            d.metric,
            "-" if d.baseline is None else f"{d.baseline:.6g}",
            f"{d.latest:.6g}",
            "-" if d.ratio is None else f"{d.ratio:.2f}x",
            f"{d.n_history}{'*' if d.cross_host else ''}",
            d.status,
        ])
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)),
             "  ".join("-" * w for w in widths)]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    if any(d.cross_host for d in deltas):
        lines.append("(* cross-host history: no same-host baseline "
                     "available)")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.regress",
        description="Compare the latest bench runs against their "
                    "BENCH_<name>.json trajectories and fail on "
                    "performance regressions.")
    parser.add_argument("benches", nargs="*",
                        help="bench names to gate (default: every "
                             "BENCH_*.json in the directory)")
    parser.add_argument("--dir", default="",
                        help="trajectory directory (default: "
                             "REPRO_TRAJECTORY_DIR or the cwd)")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE,
                        help="allowed fractional increase over the "
                             "history median (default: %(default)s)")
    parser.add_argument("--min-history", type=int,
                        default=DEFAULT_MIN_HISTORY,
                        help="history runs required before gating "
                             "(default: %(default)s)")
    parser.add_argument("--min-baseline", type=float,
                        default=DEFAULT_MIN_BASELINE,
                        help="ignore KPIs whose baseline median is "
                             "below this (default: %(default)s)")
    parser.add_argument("--strict", action="store_true",
                        help="also fail when no trajectory files are "
                             "found at all")
    parser.add_argument("--quiet", action="store_true",
                        help="print only regressed rows and the verdict")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    from repro.bench import trajectory

    args = build_parser().parse_args(argv)
    directory = args.dir or trajectory.trajectory_dir()
    if args.benches:
        paths = [trajectory.trajectory_path(b, directory)
                 for b in args.benches]
        missing = [p for p in paths if not os.path.exists(p)]
        if missing:
            for p in missing:
                print(f"error: no trajectory at {p}", file=sys.stderr)
            return 2
    else:
        paths = trajectory.discover(directory)
    if not paths:
        print(f"no BENCH_*.json trajectories under {directory}")
        return 1 if args.strict else 0

    all_deltas: list[Delta] = []
    unreadable: list[str] = []
    for path in paths:
        doc = trajectory.load_trajectory(path)
        if doc is None:
            unreadable.append(path)
            continue
        all_deltas.extend(compare_trajectory(
            doc, tolerance=args.tolerance, min_history=args.min_history,
            min_baseline=args.min_baseline))

    regressed = [d for d in all_deltas if d.status == REGRESSION]
    shown = regressed if args.quiet else all_deltas
    if shown:
        print(format_deltas(shown))
    for path in unreadable:
        print(f"warning: unreadable trajectory {path}", file=sys.stderr)
    gated = [d for d in all_deltas if d.baseline is not None]
    print(f"\n{len(paths)} trajectory file(s), {len(all_deltas)} KPI(s), "
          f"{len(gated)} gated, {len(regressed)} regression(s) "
          f"(tolerance {args.tolerance * 100:.0f}%)")
    if regressed:
        print("PERFORMANCE REGRESSION DETECTED", file=sys.stderr)
        return 1
    if args.strict and unreadable:
        return 1
    print("performance gate: clean")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    sys.exit(main())
