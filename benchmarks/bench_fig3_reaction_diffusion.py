"""Fig 3 / Fig 4 — flame evolution of the three-hot-spot configuration
and the AMR patch distribution tracking it.

Paper claims: the three hot spots evolve into spreading fronts (Fig 3)
and the ratio-2 refinement hierarchy follows the thin structures (Fig 4).
"""

import time

from repro.bench import run_fig3_fig4, save_json, save_report
from repro.util.options import fast_mode


def test_fig3_fig4_flame_evolution(benchmark):
    t0 = time.perf_counter()
    result = benchmark.pedantic(run_fig3_fig4, rounds=1, iterations=1)
    wall_s = time.perf_counter() - t0
    path = save_report("fig3_fig4_flame", result["report"])
    snaps = result["snapshots"]
    json_path = save_json("fig3_fig4_flame", {
        "figure": "fig3_fig4",
        "refined": result["refined"],
        "snapshots": snaps,
    }, metrics={
        "wall_s": wall_s,
        "T_max": snaps[-1]["T_max"],
        "cells": snaps[-1]["cells"],
        "cvode.rhs_evals": result["cvode"]["rhs_evals"],
        "cvode.jac_evals": result["cvode"]["jac_evals"],
        "cvode.steps": result["cvode"]["steps"],
    })
    benchmark.extra_info["report"] = path
    benchmark.extra_info["json"] = json_path
    assert len(snaps) >= 3
    # initial state: cold background + hot spots
    assert snaps[0]["T_min"] < 350.0
    assert snaps[0]["T_max"] > 1200.0
    # the field stays physical while evolving
    for s in snaps:
        assert 250.0 < s["T_min"] <= s["T_max"] < 3500.0
    # the hierarchy refines the fronts throughout
    assert result["refined"]
    assert snaps[-1]["cells"] > snaps[-1]["census"][0][2]
    if not fast_mode():
        # 60 us: the hot spots have ignited (0-D delay at 1 400 K: ~20 us)
        assert snaps[-1]["T_max"] > 2000.0
