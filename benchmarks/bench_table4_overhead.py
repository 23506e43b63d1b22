"""Table 4 — single-processor component overhead.

Paper claim: componentized and library builds of the same 0D chemistry
workload differ by at most ~1.5% with no systematic trend — port
indirection does not hurt serial performance.  Each row's % difference
is the median over cells of the per-cell component/library CPU ratio
(the two paths alternate cell by cell), so every assertion below is on
those medians; the CPU totals are recorded beside them.
"""

from repro.bench import run_table4, save_json, save_report


def test_table4_component_overhead(benchmark):
    result = benchmark.pedantic(run_table4, rounds=1, iterations=1)
    path = save_report("table4_overhead", result["report"])
    json_path = save_json("table4_overhead", {
        "table": "table4",
        "max_abs_pct": result["max_abs_pct"],
        "rows": [
            {"dt_label": r.dt_label, "n_cells": r.n_cells, "nfe": r.nfe,
             "t_component": r.t_component, "t_library": r.t_library,
             "median_ratio": r.median_ratio, "pct_diff": r.pct_diff}
            for r in result["rows"]
        ],
    }, metrics={
        # trajectory KPIs (lower = better): total CPU seconds through
        # each path, and the paper's headline |%| overhead bound (the
        # largest |median-pair %| over the rows)
        "t_component_total": sum(r.t_component for r in result["rows"]),
        "t_library_total": sum(r.t_library for r in result["rows"]),
        "max_abs_pct": result["max_abs_pct"],
    })
    benchmark.extra_info["report"] = path
    benchmark.extra_info["json"] = json_path
    benchmark.extra_info["max_abs_pct"] = result["max_abs_pct"]
    rows = result["rows"]
    assert len(rows) >= 4
    # the architectural claim: the median overhead is small in both
    # directions...
    assert result["max_abs_pct"] < 10.0
    # ...and shows no trend (not all rows favour the same variant, or the
    # mean offset is well inside the noise band)
    diffs = [r.pct_diff for r in rows]
    mean = sum(diffs) / len(diffs)
    assert abs(mean) < 5.0
