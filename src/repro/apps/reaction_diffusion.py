"""The 2D reaction-diffusion flame application (paper §4.2, Table 2,
Figs. 2-4).

Operator splitting (Strang): a half step of implicit chemistry per cell,
one full explicit RKC diffusion step, another half step of chemistry.
SAMR adaptivity through ``ErrorEstAndRegrid``; all ranks run the same
assembly (SCMD) with the mesh distributed by ``GrACEComponent``.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.cca.component import Component, Param
from repro.cca.framework import Framework
from repro.cca.ports.go import GoPort
from repro.mpi.comm import Op
from repro.obs import trace as _trace
from repro.components import (
    CvodeComponent,
    DRFMComponent,
    ErrorEstAndRegrid,
    ExplicitIntegrator,
    DiffusionPhysics,
    GrACEComponent,
    ImplicitIntegrator,
    InitialCondition,
    MaxDiffCoeffEvaluator,
    StatisticsComponent,
    ThermoChemistry,
)
from repro.resilience.hooks import CHECKPOINT_PARAMS, CheckpointHook


class _Go(GoPort):
    def __init__(self, owner: "ReactionDiffusionDriver") -> None:
        self.owner = owner

    def go(self) -> dict[str, Any]:
        return self.owner.run()


class ReactionDiffusionDriver(Component):
    """Drives the flame assembly.

    Uses ``mesh``, ``data``, ``ic``, ``explicit`` + ``implicit``
    (IntegratorPorts), ``regrid`` (RegridPort), ``chem``, ``stats``.

    Parameters: ``n_steps``, ``dt`` (0 = dynamic from the RKC stage
    budget), ``regrid_interval`` (0 = adaptivity off), ``chemistry_on``
    (default 1), ``initial_regrids``; plus the checkpoint/restart set
    read by :class:`repro.resilience.hooks.CheckpointHook`.

    ``run`` takes one *frame* after set-up (t = 0, after the initial
    regrids; not again on a resumed run, whose frames come back with the
    Statistics checkpoint) and after every step.  A frame is the series
    ``T_min``, ``T_max``, ``ncells``, ``nlevels`` and ``cells_L<k>`` /
    ``patches_L<k>`` for every ``k < max_levels`` (0 for a level that
    does not exist); frame ``n`` is step ``n``.  Frames are recorded
    through ``stats`` before a checkpoint and at the end of the run, their
    T ranges reduced in one ``Op.MAX`` allreduce of an ``(n, 2)`` array.
    """

    PARAMS = (
        Param("n_steps", "int", 5, min=1, max=1000000),
        Param("dt", "float", 0.0, min=0.0),
        Param("regrid_interval", "int", 0, min=0),
        Param("chemistry_on", "bool", True),
        Param("initial_regrids", "int", 0, min=0),
    ) + CHECKPOINT_PARAMS

    def set_services(self, services) -> None:
        self.services = services
        services.register_uses_port("mesh", "MeshPort")
        services.register_uses_port("data", "DataObjectPort")
        services.register_uses_port("ic", "InitialConditionPort")
        services.register_uses_port("explicit", "IntegratorPort")
        services.register_uses_port("implicit", "IntegratorPort")
        services.register_uses_port("regrid", "RegridPort")
        services.register_uses_port("chem", "ChemistryPort")
        services.register_uses_port("stats", "StatisticsPort")
        services.add_provides_port(_Go(self), "go")

    def run(self) -> dict[str, Any]:
        services = self.services

        n_steps = services.get_parameter("n_steps")
        dt_fixed = services.get_parameter("dt")
        regrid_interval = services.get_parameter("regrid_interval")
        chemistry_on = services.get_parameter("chemistry_on")
        initial_regrids = services.get_parameter("initial_regrids")

        services.ports.mesh.build_base_level()
        mech = services.ports.chem.mechanism()
        dobj = services.ports.data.declare(
            "flow", mech.n_species + 1,
            ["T"] + [f"Y_{nm}" for nm in mech.names])
        services.ports.ic.initialize(dobj)
        h = services.ports.mesh.hierarchy()
        for lev in range(h.nlevels):
            services.ports.data.exchange_ghosts("flow", lev)
        for _ in range(initial_regrids):
            services.ports.regrid.regrid()
            # re-impose the exact IC on the new levels
            services.ports.ic.initialize(dobj)
            for lev in range(h.nlevels):
                services.ports.data.exchange_ghosts("flow", lev)

        t, start_step, frames = 0.0, 0, []
        hook = CheckpointHook(services)
        resumed = hook.resume()
        if resumed is not None:
            start_step, t = resumed.step, resumed.t
            # adopt() swapped the DataObjects
            dobj = services.ports.data.data("flow")
            h = services.ports.mesh.hierarchy()
        else:
            frames.append(_frame(t, dobj, h))
        for step in range(start_step + 1, n_steps + 1):
            # driver.step spans are the flamegraph roots the sampling
            # profiler attributes component time under
            with _trace.span("driver.step", "driver", step=step):
                dt = dt_fixed if dt_fixed > 0.0 else \
                    services.ports.explicit.stable_dt([dobj], t)
                if chemistry_on:
                    services.ports.implicit.advance([dobj], t, 0.5 * dt)
                services.ports.explicit.advance([dobj], t, dt)
                if chemistry_on:
                    services.ports.implicit.advance(
                        [dobj], t + 0.5 * dt, 0.5 * dt)
                t += dt
                if regrid_interval and step % regrid_interval == 0:
                    services.ports.regrid.regrid()
                frames.append(_frame(t, dobj, h))
                if hook.saves(step):
                    self._record_frames(frames)
                hook.after_step(step, t)
        self._record_frames(frames)

        history = services.ports.stats.series("T_max")
        return {
            "t_final": t,
            "n_steps": n_steps,
            "T_max": history[-1][1],
            "nlevels": h.nlevels,
            "total_cells": h.total_cells(),
            "history_T_max": history[1:],
        }

    def _record_frames(self, frames: list) -> None:
        """Reduce, record and drop the pending frames."""
        if not frames:
            return
        ranges = np.array([frame[1] for frame in frames])
        comm = self.services.get_comm()
        if comm is not None:
            ranges = comm.allreduce(ranges, op=Op.MAX)
        record = self.services.ports.stats.record
        for (t, _, census), (hi, neg_lo) in zip(frames, ranges):
            record("T_min", t, -neg_lo)
            record("T_max", t, hi)
            for key, value in census:
                record(key, t, value)
        frames.clear()


def _frame(t: float, dobj, h) -> tuple:
    """``(t, this rank's [T_max, -T_min], [(series, value)] census)``."""
    lo, hi = np.inf, -np.inf
    for patch in dobj.owned_patches():
        T = dobj.interior(patch)[0]
        lo, hi = min(lo, float(T.min())), max(hi, float(T.max()))
    census = [("ncells", h.total_cells()), ("nlevels", h.nlevels)]
    for k in range(h.max_levels):
        patches = h.levels[k].patches if k < h.nlevels else ()
        census += [(f"cells_L{k}", sum(p.box.size for p in patches)),
                   (f"patches_L{k}", len(patches))]
    return t, [hi, -lo], census


RD_COMPONENTS = [
    GrACEComponent,
    InitialCondition,
    ThermoChemistry,
    CvodeComponent,
    ImplicitIntegrator,
    ExplicitIntegrator,
    DiffusionPhysics,
    DRFMComponent,
    MaxDiffCoeffEvaluator,
    ErrorEstAndRegrid,
    StatisticsComponent,
    ReactionDiffusionDriver,
]


def build_reaction_diffusion(
    framework: Framework,
    nx: int = 32,
    ny: int = 32,
    extent: float = 0.01,      # the paper's 10 mm square domain
    max_levels: int = 2,
    n_steps: int = 5,
    dt: float = 0.0,
    regrid_interval: int = 0,
    chemistry_on: bool = True,
    threshold: float = 0.1,
    initial_regrids: int = 0,
) -> None:
    """Instantiate and wire the reaction-diffusion assembly (Fig. 2)."""
    framework.registry.register_many(RD_COMPONENTS)
    instances = [
        (GrACEComponent, "AMR_Mesh"),
        (InitialCondition, "InitialCondition"),
        (ThermoChemistry, "ReactionTerms"),
        (CvodeComponent, "CvodeSolver"),
        (ImplicitIntegrator, "ImplicitIntegrator"),
        (ExplicitIntegrator, "ExplicitIntegrator"),
        (DiffusionPhysics, "DiffusionPhysics"),
        (DRFMComponent, "DRFM"),
        (MaxDiffCoeffEvaluator, "MaxDiffCoeff"),
        (ErrorEstAndRegrid, "ErrEstAndRegrid"),
        (StatisticsComponent, "Statistics"),
        (ReactionDiffusionDriver, "Driver"),
    ]
    for cls, name in instances:
        framework.instantiate(cls.__name__, name)

    fp = framework.set_parameter
    fp("AMR_Mesh", "nx", nx)
    fp("AMR_Mesh", "ny", ny)
    fp("AMR_Mesh", "x_extent", extent)
    fp("AMR_Mesh", "y_extent", extent)
    fp("AMR_Mesh", "max_levels", max_levels)
    fp("InitialCondition", "x_extent", extent)
    fp("InitialCondition", "y_extent", extent)
    fp("InitialCondition", "spot_radius", 0.08 * extent)
    fp("ImplicitIntegrator", "skip_below_T", 600.0)
    fp("ErrEstAndRegrid", "dataobject", "flow")
    fp("ErrEstAndRegrid", "variables", "0")  # flag on temperature
    fp("ErrEstAndRegrid", "threshold", threshold)
    fp("Driver", "n_steps", n_steps)
    fp("Driver", "dt", dt)
    fp("Driver", "regrid_interval", regrid_interval)
    fp("Driver", "chemistry_on", 1 if chemistry_on else 0)
    fp("Driver", "initial_regrids", initial_regrids)

    fc = framework.connect
    fc("InitialCondition", "chem", "ReactionTerms", "chemistry")
    fc("CvodeSolver", "rhs", "ReactionTerms", "source")
    fc("CvodeSolver", "jacobian", "ReactionTerms", "jacobian")
    fc("ImplicitIntegrator", "solver", "CvodeSolver", "solver")
    fc("ImplicitIntegrator", "data", "AMR_Mesh", "data")
    fc("DRFM", "chem", "ReactionTerms", "chemistry")
    fc("DiffusionPhysics", "transport", "DRFM", "transport")
    fc("DiffusionPhysics", "chem", "ReactionTerms", "chemistry")
    fc("DiffusionPhysics", "mesh", "AMR_Mesh", "mesh")
    fc("MaxDiffCoeff", "mesh", "AMR_Mesh", "mesh")
    fc("MaxDiffCoeff", "data", "AMR_Mesh", "data")
    fc("MaxDiffCoeff", "diffusivity", "DiffusionPhysics", "diffusivity")
    fc("ExplicitIntegrator", "rhs", "DiffusionPhysics", "rhs")
    fc("ExplicitIntegrator", "bound", "MaxDiffCoeff", "bound")
    fc("ExplicitIntegrator", "mesh", "AMR_Mesh", "mesh")
    fc("ExplicitIntegrator", "data", "AMR_Mesh", "data")
    fc("ErrEstAndRegrid", "mesh", "AMR_Mesh", "mesh")
    fc("ErrEstAndRegrid", "data", "AMR_Mesh", "data")
    fc("Driver", "mesh", "AMR_Mesh", "mesh")
    fc("Driver", "data", "AMR_Mesh", "data")
    fc("Driver", "ic", "InitialCondition", "ic")
    fc("Driver", "explicit", "ExplicitIntegrator", "integrator")
    fc("Driver", "implicit", "ImplicitIntegrator", "integrator")
    fc("Driver", "regrid", "ErrEstAndRegrid", "regrid")
    fc("Driver", "chem", "ReactionTerms", "chemistry")
    fc("Driver", "stats", "Statistics", "stats")


def run_reaction_diffusion(comm=None, **kwargs) -> dict[str, Any]:
    """One-call run (serial by default; pass a Comm for SCMD)."""
    framework = Framework(comm=comm)
    build_reaction_diffusion(framework, **kwargs)
    return framework.go("Driver")
