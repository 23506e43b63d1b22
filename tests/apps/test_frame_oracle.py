"""The flame driver's frames, reduced once per run, against a driver
that reduces each frame when it takes it.

``_per_step_run`` / ``_record_frame`` are the driver's loop and frame as
they were when each frame was one ``Op.MAX`` allreduce of its own; they
live on only here, bound onto the Driver instance, as the ``==`` oracle.
The configuration changes its census during the run: the regrid at
step 2 takes level 1 from two patches to one and the hierarchy from
2 216 to 6 620 cells, so a frame taken at the wrong point of a step (say
before the step's regrid) differs from the oracle's.
"""

import types

import numpy as np

from repro.apps.reaction_diffusion import build_reaction_diffusion
from repro.cca.framework import Framework
from repro.mpi import ZERO_COST, Op, mpirun

FLAME = dict(nx=24, ny=24, max_levels=3, n_steps=9, dt=1e-6,
             regrid_interval=2, initial_regrids=1, threshold=0.15,
             chemistry_on=True)


def _per_step_run(self):
    services = self.services
    n_steps = services.get_parameter("n_steps")
    dt = services.get_parameter("dt")
    regrid_interval = services.get_parameter("regrid_interval")

    services.ports.mesh.build_base_level()
    mech = services.ports.chem.mechanism()
    dobj = services.ports.data.declare(
        "flow", mech.n_species + 1,
        ["T"] + [f"Y_{nm}" for nm in mech.names])
    services.ports.ic.initialize(dobj)
    h = services.ports.mesh.hierarchy()
    for lev in range(h.nlevels):
        services.ports.data.exchange_ghosts("flow", lev)
    for _ in range(services.get_parameter("initial_regrids")):
        services.ports.regrid.regrid()
        services.ports.ic.initialize(dobj)
        for lev in range(h.nlevels):
            services.ports.data.exchange_ghosts("flow", lev)
    t = 0.0
    self._record_frame(t, dobj, h)
    for step in range(1, n_steps + 1):
        services.ports.implicit.advance([dobj], t, 0.5 * dt)
        services.ports.explicit.advance([dobj], t, dt)
        services.ports.implicit.advance([dobj], t + 0.5 * dt, 0.5 * dt)
        t += dt
        if regrid_interval and step % regrid_interval == 0:
            services.ports.regrid.regrid()
        self._record_frame(t, dobj, h)
    history = services.ports.stats.series("T_max")
    return {"t_final": t, "n_steps": n_steps, "T_max": history[-1][1],
            "nlevels": h.nlevels, "total_cells": h.total_cells(),
            "history_T_max": history[1:]}


def _record_frame(self, t: float, dobj, h) -> None:
    lo, hi = np.inf, -np.inf
    for patch in dobj.owned_patches():
        T = dobj.interior(patch)[0]
        lo, hi = min(lo, float(T.min())), max(hi, float(T.max()))
    comm = self.services.get_comm()
    if comm is not None:
        hi, lo = comm.allreduce(np.array([hi, -lo]), op=Op.MAX)
        lo = -lo
    record = self.services.ports.stats.record
    record("T_min", t, lo)
    record("T_max", t, hi)
    record("ncells", t, h.total_cells())
    record("nlevels", t, h.nlevels)
    for k in range(h.max_levels):
        patches = h.levels[k].patches if k < h.nlevels else ()
        record(f"cells_L{k}", t, sum(p.box.size for p in patches))
        record(f"patches_L{k}", t, len(patches))


def _flame(comm=None, per_step=False, **driver) -> Framework:
    fw = Framework(comm=comm)
    build_reaction_diffusion(fw, **FLAME)
    for key, value in driver.items():
        fw.set_parameter("Driver", key, value)
    if per_step:
        instance = fw.get_component("Driver")
        instance.run = types.MethodType(_per_step_run, instance)
        instance._record_frame = types.MethodType(_record_frame, instance)
    return fw


def _go(fw: Framework) -> tuple[dict, dict]:
    """The ``go()`` result and every frame series."""
    result = fw.go("Driver")
    stats = fw.get_component("Statistics").stats
    return result, {key: stats.series(key) for key in stats.summary()}


def _both(comm=None):
    return _go(_flame(comm)), _go(_flame(comm, per_step=True))


def _assert_census_changes(frames: dict) -> None:
    cells = [value for _, value in frames["ncells"]]
    assert cells[:2] == [2216.0, 2216.0] and cells[2] == 6620.0
    assert [value for _, value in frames["patches_L1"]][1:3] == [2.0, 1.0]


def test_frames_equal_the_per_step_reduction_serially():
    (result, frames), (want_result, want) = _both()
    _assert_census_changes(want)
    assert len(frames["T_max"]) == FLAME["n_steps"] + 1
    assert frames == want
    assert result == want_result


def test_frames_equal_the_per_step_reduction_on_two_ranks():
    ranks = mpirun(2, _both, machine=ZERO_COST, backend="threads")
    (_, serial), _ = _both()
    for (result, frames), (want_result, want) in ranks:
        assert frames == want
        assert result == want_result
        # the T range and the census do not follow the decomposition
        for key in ("T_min", "T_max", "ncells", "nlevels", "cells_L1"):
            assert frames[key] == serial[key], key


def test_a_resumed_run_equals_the_uninterrupted_one(tmp_path):
    whole = _go(_flame())
    ck = str(tmp_path / "flame")
    _go(_flame(n_steps=6, checkpoint_path=ck, checkpoint_interval=3))
    resumed = _go(_flame(checkpoint_path=ck, checkpoint_interval=3,
                         resume=1))
    assert resumed == whole
    _assert_census_changes(resumed[1])
