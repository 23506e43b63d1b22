"""Fig 3 / Fig 4 — reaction-diffusion flame evolution and AMR census.

Fig 3: temperature field at t = 0 / 0.265 / 0.395 ms for the three-hot-
spot H2-air configuration on the 10 mm square, 100x100 coarse mesh.
Fig 4: the AMR patch distribution tracking the flame structures
(refinement ratio 2).

The paper's production run took 58 hours on 28 CPUs; this harness runs
the paper's scheme (RKC diffusion, one CVODE integration per hot cell)
on a scaled version (smaller mesh, fewer steps) that exhibits the same
qualitative sequence: hot spots ignite, fronts spread, the fine level
tracks the fronts.  At full scale (64^2 base, 3 levels, 300 steps of
0.2 us) it marches to 60 us, past ignition.

The harness runs the assembly's own ``go()`` once, as the rc script,
``repro.resilience`` and ``repro.serve`` do, and reads its snapshots
from the frames the driver records through the ``stats`` port.
"""

from __future__ import annotations

from repro.apps.reaction_diffusion import build_reaction_diffusion
from repro.bench.reporting import format_table
from repro.cca.framework import Framework
from repro.util.options import fast_mode


def run_fig3_fig4(fast: bool | None = None) -> dict:
    """One ``go()`` of the Fig 3 assembly; T statistics at the set-up
    frame and after each of three chunks, plus the last frame's census."""
    fast = fast_mode() if fast is None else fast
    if fast:
        nx, n_chunks, steps_per_chunk, dt = 24, 3, 3, 2e-7
        max_levels, regrid_interval = 2, 3
    else:
        # the paper's production run is 58 CPU-days; this keeps the same
        # configuration at a laptop-budget resolution, marched to 60 us
        nx, n_chunks, steps_per_chunk, dt = 64, 3, 100, 2e-7
        max_levels, regrid_interval = 3, 4

    framework = Framework()
    build_reaction_diffusion(
        framework,
        nx=nx, ny=nx,
        extent=0.01,                 # the paper's 10 mm square
        max_levels=max_levels,
        n_steps=n_chunks * steps_per_chunk,
        dt=dt,
        regrid_interval=regrid_interval,
        initial_regrids=1,
        threshold=0.15,
    )
    framework.go("Driver")

    # frame n is the state after step n (frame 0: after set-up)
    series = framework.get_component("Statistics").stats.series
    snapshots = []
    for n in range(0, n_chunks * steps_per_chunk + 1, steps_per_chunk):
        t, T_max = series("T_max")[n]
        nlevels = int(series("nlevels")[n][1])
        snapshots.append({
            "t": t,
            "T_min": series("T_min")[n][1],
            "T_max": T_max,
            "nlevels": nlevels,
            "cells": int(series("ncells")[n][1]),
            "census": [(k, int(series(f"patches_L{k}")[n][1]),
                        int(series(f"cells_L{k}")[n][1]))
                       for k in range(nlevels)],
        })

    rows = [
        [f"{s['t'] * 1e3:.4f} ms", s["T_min"], s["T_max"], s["nlevels"],
         s["cells"]]
        for s in snapshots
    ]
    table = format_table(
        ["time", "T_min [K]", "T_max [K]", "levels", "total cells"],
        rows,
        title="Fig 3 analog: temperature evolution of the 3-hot-spot flame")
    census_rows = [
        [lev_no, npatch, ncell] for lev_no, npatch, ncell
        in snapshots[-1]["census"]
    ]
    census = format_table(
        ["level", "patches", "cells"], census_rows,
        title="Fig 4 analog: final AMR patch distribution (ratio 2)")
    refined_tracks_front = snapshots[-1]["nlevels"] >= 2
    report = (table + "\n\n" + census
              + f"\n\nfine level tracks the fronts: {refined_tracks_front}")
    solver = framework.get_component("CvodeSolver").solver
    return {"snapshots": snapshots, "report": report,
            "refined": refined_tracks_front,
            "cvode": {"rhs_evals": solver.total_nfe,
                      "jac_evals": solver.total_nje,
                      "steps": solver.total_steps}}
