"""Compare two sets of runs: ``python3 benchmarks/suite/compare.py A.json B.json``.

``A`` is the base (the parent commit, or the first of two A/A sets),
``B`` the candidate; both are documents written by ``run.py --runs K
--out``.  One row per (end-to-end metric, workload): both medians with
their quartiles, the ratio B/A, and a verdict against the metric's bound
in ``BENCHMARK.json``:

``regressed``
    B's median is worse than A's by more than the bound;
``unresolved``
    the run-to-run spread of either side is wider than the bound, so the
    medians cannot tell — unless every run of B reads better than every
    run of A, which is ``ok``;
``ok``
    otherwise.

Exits non-zero on any ``regressed`` row or when B failed a larger share
of its operations than A.
"""

from __future__ import annotations

import json
import sys
from typing import Any

from run import load_spec
from summary import quartiles, spread


def _values(doc: dict[str, Any], workload: str, metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in doc["runs"][workload]]


def _failed_frac(doc: dict[str, Any], workload: str) -> float:
    runs = doc["runs"][workload]
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def verdict(a: list[float], b: list[float], better: str, bound: float
            ) -> tuple[str, float]:
    """(verdict, B's median as a ratio of A's)."""
    med_a, med_b = quartiles(a)[1], quartiles(b)[1]
    ratio = med_b / med_a
    worse_by = ratio - 1.0 if better == "lower" else 1.0 - ratio
    if max(spread(a), spread(b)) > bound:
        b_wins = max(b) < min(a) if better == "lower" else min(b) > max(a)
        return ("ok" if b_wins else "unresolved"), ratio
    return ("regressed" if worse_by > bound else "ok"), ratio


def compare(spec: dict[str, Any], a: dict[str, Any], b: dict[str, Any]
            ) -> tuple[list[dict[str, Any]], bool]:
    rows = []
    bad = False
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in a["runs"] or workload not in b["runs"]:
            continue
        for m in spec["end_to_end"]:
            va = _values(a, workload, m["name"])
            vb = _values(b, workload, m["name"])
            word, ratio = verdict(va, vb, m["better"], m["bound"])
            bad |= word == "regressed"
            rows.append({
                "workload": workload, "metric": m["name"], "unit": m["unit"],
                "a": quartiles(va), "b": quartiles(vb), "n": (len(va), len(vb)),
                "ratio": ratio, "bound": m["bound"], "verdict": word,
            })
        fa, fb = _failed_frac(a, workload), _failed_frac(b, workload)
        word = "regressed" if fb > fa else "ok"
        bad |= fb > fa
        rows.append({"workload": workload, "metric": "failed_frac",
                     "unit": "ratio", "a": (fa, fa, fa), "b": (fb, fb, fb),
                     "n": (len(a["runs"][workload]), len(b["runs"][workload])),
                     "ratio": None, "bound": 0.0, "verdict": word})
    return rows, bad


def render(rows: list[dict[str, Any]]) -> str:
    lines = [f"{'workload':20s} {'metric':12s} {'A median [q1, q3]':>36s} "
             f"{'B median [q1, q3]':>36s} {'B/A':>7s} {'bound':>6s} verdict"]
    for r in rows:
        def cell(q: tuple[float, float, float]) -> str:
            return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"
        ratio = "-" if r["ratio"] is None else f"{r['ratio']:.3f}"
        lines.append(
            f"{r['workload']:20s} {r['metric']:12s} {cell(r['a']):>36s} "
            f"{cell(r['b']):>36s} {ratio:>7s} {r['bound']:6.2f} "
            f"{r['verdict']}  (n={r['n'][0]}/{r['n'][1]}, {r['unit']})")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    rows, bad = compare(load_spec(), *docs)
    print(render(rows))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
