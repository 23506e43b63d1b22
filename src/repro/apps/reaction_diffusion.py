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

from repro.cca.component import Component
from repro.cca.framework import Framework
from repro.cca.ports.go import GoPort
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
from repro.resilience.hooks import CheckpointHook


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
    """

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
        mesh = services.get_port("mesh")
        data = services.get_port("data")
        ic = services.get_port("ic")
        explicit = services.get_port("explicit")
        implicit = services.get_port("implicit")
        regrid = services.get_port("regrid")
        chem = services.get_port("chem")
        stats = services.get_port("stats")
        p = services.parameters

        n_steps = p.get_int("n_steps", 5)
        dt_fixed = p.get_float("dt", 0.0)
        regrid_interval = p.get_int("regrid_interval", 0)
        chemistry_on = p.get_bool("chemistry_on", True)
        initial_regrids = p.get_int("initial_regrids", 0)

        mesh.build_base_level()
        mech = chem.mechanism()
        dobj = data.declare("flow", mech.n_species + 1,
                            ["T"] + [f"Y_{nm}" for nm in mech.names])
        ic.initialize(dobj)
        h = mesh.hierarchy()
        for lev in range(h.nlevels):
            data.exchange_ghosts("flow", lev)
        for _ in range(initial_regrids):
            regrid.regrid()
            ic.initialize(dobj)  # re-impose the exact IC on the new levels
            for lev in range(h.nlevels):
                data.exchange_ghosts("flow", lev)

        t, start_step = 0.0, 0
        hook = CheckpointHook(services)
        resumed = hook.resume()
        if resumed is not None:
            start_step, t = resumed.step, resumed.t
            dobj = data.data("flow")  # adopt() swapped the DataObjects
            h = mesh.hierarchy()
        for step in range(start_step + 1, n_steps + 1):
            # driver.step spans are the flamegraph roots the sampling
            # profiler attributes component time under
            with _trace.span("driver.step", "driver", step=step):
                dt = dt_fixed if dt_fixed > 0.0 else \
                    explicit.stable_dt([dobj], t)
                if chemistry_on:
                    implicit.advance([dobj], t, 0.5 * dt)
                explicit.advance([dobj], t, dt)
                if chemistry_on:
                    implicit.advance([dobj], t + 0.5 * dt, 0.5 * dt)
                t += dt
                if regrid_interval and step % regrid_interval == 0:
                    regrid.regrid()
                stats.record("T_max", t, dobj.max_norm(
                    comm=services.get_comm(), k=0))
                stats.record("ncells", t, float(h.total_cells()))
                hook.after_step(step, t)

        return {
            "t_final": t,
            "n_steps": n_steps,
            "T_max": dobj.max_norm(comm=services.get_comm(), k=0),
            "nlevels": h.nlevels,
            "total_cells": h.total_cells(),
            "history_T_max": stats.series("T_max"),
        }


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
    fc("MaxDiffCoeff", "transport", "DRFM", "transport")
    fc("MaxDiffCoeff", "chem", "ReactionTerms", "chemistry")
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
