"""The Fig 3 / Fig 4 harness is the flame assembly's own ``go()``.

``_hand_march`` is the loop the harness used to copy from
``ReactionDiffusionDriver.run`` (port by port, snapshot at every chunk
boundary); it lives on only here, as the ``==`` oracle for the frames
the driver records through its ``stats`` port.
"""

import numpy as np

import repro.obs as obs
from repro.apps.reaction_diffusion import build_reaction_diffusion
from repro.bench import run_fig3_fig4
from repro.cca.framework import Framework

#: the harness's fast configuration
NX, N_CHUNKS, STEPS_PER_CHUNK, DT = 24, 3, 3, 2e-7
MAX_LEVELS, REGRID_INTERVAL = 2, 3
FAST_KW = dict(nx=NX, ny=NX, extent=0.01, max_levels=MAX_LEVELS, dt=DT,
               regrid_interval=REGRID_INTERVAL, initial_regrids=1,
               threshold=0.15)


def _hand_march() -> dict:
    framework = Framework()
    build_reaction_diffusion(framework, n_steps=STEPS_PER_CHUNK, **FAST_KW)
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
    t, dt = 0.0, DT
    snapshot(t)
    step = 0
    for _chunk in range(N_CHUNKS):
        for _ in range(STEPS_PER_CHUNK):
            implicit.advance([dobj], t, 0.5 * dt)
            explicit.advance([dobj], t, dt)
            implicit.advance([dobj], t + 0.5 * dt, 0.5 * dt)
            t += dt
            step += 1
            if step % REGRID_INTERVAL == 0:
                regrid.regrid()
        snapshot(t)
    solver = framework.get_component("CvodeSolver").solver
    return {"snapshots": snapshots,
            "cvode": {"rhs_evals": solver.total_nfe,
                      "jac_evals": solver.total_nje,
                      "steps": solver.total_steps}}


def test_harness_frames_equal_the_hand_march():
    reference = _hand_march()
    got = run_fig3_fig4(fast=True)
    assert len(got["snapshots"]) == len(reference["snapshots"]) == 4
    for mine, ref in zip(got["snapshots"], reference["snapshots"]):
        for key in ("t", "T_min", "T_max", "nlevels", "cells", "census"):
            assert mine[key] == ref[key], key
    assert got["cvode"] == reference["cvode"]


def _fast_flame(n_steps: int, **driver) -> Framework:
    framework = Framework()
    build_reaction_diffusion(framework, n_steps=n_steps, **FAST_KW)
    for key, value in driver.items():
        framework.set_parameter("Driver", key, value)
    return framework


def _frames(framework: Framework) -> dict:
    stats = framework.get_component("Statistics").stats
    return {key: stats.series(key) for key in stats.summary()}


def test_fig3_resumes_from_a_checkpoint(tmp_path):
    whole = _fast_flame(9)
    whole_result = whole.go("Driver")

    ck = str(tmp_path / "fig3")
    _fast_flame(6, checkpoint_path=ck, checkpoint_interval=3).go("Driver")
    resumed = _fast_flame(9, checkpoint_path=ck, checkpoint_interval=3,
                          resume=1)
    with obs.tracing() as trace:
        resumed_result = resumed.go("Driver")
        steps = [e.args["step"] for e in trace.events()
                 if e.name == "driver.step"]

    assert steps == [7, 8, 9]           # the run did resume at step 6
    assert resumed_result == whole_result
    frames = _frames(resumed)
    assert set(frames) == {"T_min", "T_max", "ncells", "nlevels", "cells_L0",
                           "cells_L1", "patches_L0", "patches_L1"}
    assert frames == _frames(whole)
    # one set-up frame, then one frame per step
    assert [t for t, _ in frames["T_max"]].count(0.0) == 1
    assert len(frames["T_max"]) == 9 + 1
