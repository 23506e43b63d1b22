"""The 2D shock / density-interface application (paper §4.3, Table 3,
Figs. 5-7).

A Mach-1.5 shock in "air" ruptures an oblique (30 deg) interface to a
3x-denser gas ("Freon") inside a shock tube: reflecting walls above and
below, outflow on the right.  Godunov fluxes on a multi-level AMR mesh;
swapping ``GodunovFlux`` for ``EFMFlux`` is one connect line
(``flux_scheme`` parameter here).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.cca.component import Component, Param
from repro.cca.framework import Framework
from repro.cca.ports.go import GoPort
from repro.components import (
    BoundaryConditions,
    CharacteristicQuantities,
    ConicalInterfaceIC,
    EFMFlux,
    ErrorEstAndRegrid,
    ExplicitIntegratorRK2,
    GasProperties,
    GodunovFlux,
    GrACEComponent,
    InviscidFlux,
    ProlongRestrict,
    StatisticsComponent,
    States,
)
from repro.hydro.diagnostics import hierarchy_interface_circulation
from repro.obs import trace as _trace
from repro.resilience.hooks import CHECKPOINT_PARAMS, CheckpointHook


class _Go(GoPort):
    def __init__(self, owner: "ShockInterfaceDriver") -> None:
        self.owner = owner

    def go(self) -> dict[str, Any]:
        return self.owner.run()


class ShockInterfaceDriver(Component):
    """Drives the shock-interface assembly.

    Uses ``mesh``, ``data``, ``ic``, ``integrator``, ``regrid``, ``gas``,
    ``stats``.  Parameters: ``t_end_over_tau`` (default 2.096 — the
    paper's Fig. 6 time), ``regrid_interval``, ``max_steps``, the shock
    geometry the IC also reads, and the checkpoint/restart set.
    """

    PARAMS = (
        Param("t_end_over_tau", "float", 2.096, min=0.01),
        Param("regrid_interval", "int", 4, min=0),
        Param("max_steps", "int", 100000, min=1),
        Param("initial_regrids", "int", 0, min=0),
        Param("mach", "float", 1.5, min=1.0, max=20.0),
        Param("angle_deg", "float", 30.0, min=0.0, max=89.0),
        Param("y_extent", "float", 0.5, min=1e-09),
        Param("shock_x", "float", 0.2, min=0.0, max=1.0),
        Param("interface_x", "float", 0.4, min=0.0, max=1.0),
    ) + CHECKPOINT_PARAMS

    def set_services(self, services) -> None:
        self.services = services
        services.register_uses_port("mesh", "MeshPort")
        services.register_uses_port("data", "DataObjectPort")
        services.register_uses_port("ic", "InitialConditionPort")
        services.register_uses_port("integrator", "IntegratorPort")
        services.register_uses_port("regrid", "RegridPort")
        services.register_uses_port("gas", "ParameterPort")
        services.register_uses_port("stats", "StatisticsPort")
        services.add_provides_port(_Go(self), "go")

    def run(self) -> dict[str, Any]:
        services = self.services
        comm = services.get_comm()

        gamma = float(services.ports.gas.get("gamma", 1.4))
        t_end_over_tau = services.get_parameter("t_end_over_tau")
        regrid_interval = services.get_parameter("regrid_interval")
        max_steps = services.get_parameter("max_steps")
        initial_regrids = services.get_parameter("initial_regrids")

        services.ports.mesh.build_base_level()
        dobj = services.ports.data.declare(
            "U", 5, ["rho", "mx", "my", "E", "rho_zeta"])
        services.ports.ic.initialize(dobj)
        h = services.ports.mesh.hierarchy()
        for lev in range(h.nlevels):
            services.ports.data.exchange_ghosts("U", lev)
        for _ in range(initial_regrids):
            services.ports.regrid.regrid()
            services.ports.ic.initialize(dobj)
            for lev in range(h.nlevels):
                services.ports.data.exchange_ghosts("U", lev)

        # tau: time for the shock to traverse the oblique interface
        # footprint: Delta x = H * tan(angle); shock speed W = M * a1.
        # The t/tau clock starts when the shock first touches the
        # interface foot (the paper's "elapsed time" of the interaction).
        mach = services.get_parameter("mach")
        angle = np.deg2rad(services.get_parameter("angle_deg"))
        height = services.get_parameter("y_extent")
        shock_x = services.get_parameter("shock_x")
        interface_x = services.get_parameter("interface_x")
        a1 = np.sqrt(gamma * 1.0 / 1.0)
        w_shock = mach * a1
        tau = height * np.tan(angle) / w_shock
        t_contact = max(interface_x - shock_x, 0.0) / w_shock
        t_end = t_contact + t_end_over_tau * tau

        t, step = 0.0, 0
        gamma_series = []
        hook = CheckpointHook(services)
        resumed = hook.resume()
        if resumed is not None:
            step, t = resumed.step, resumed.t
            # adopt() swapped the DataObjects
            dobj = services.ports.data.data("U")
            h = services.ports.mesh.hierarchy()
            gamma_series = services.ports.stats.series("circulation")
        while t < t_end - 1e-12 and step < max_steps:
            # driver.step spans are the flamegraph roots the sampling
            # profiler attributes component time under
            with _trace.span("driver.step", "driver", step=step + 1):
                dt = min(services.ports.integrator.stable_dt([dobj], t),
                         t_end - t)
                services.ports.integrator.advance([dobj], t, dt)
                t += dt
                step += 1
                if regrid_interval and h.max_levels > 1 \
                        and step % regrid_interval == 0:
                    services.ports.regrid.regrid()
                circ = hierarchy_interface_circulation(dobj, gamma,
                                                       comm=comm)
                services.ports.stats.record(
                    "circulation", (t - t_contact) / tau, circ)
                gamma_series.append(((t - t_contact) / tau, circ))
                hook.after_step(step, t)

        return {
            "t_final": t,
            "tau": tau,
            "steps": step,
            "nlevels": h.nlevels,
            "total_cells": h.total_cells(),
            "circulation": gamma_series,
            "circulation_final": gamma_series[-1][1] if gamma_series else 0.0,
            "circulation_min": (min(c for _, c in gamma_series)
                                if gamma_series else 0.0),
        }


SHOCK_COMPONENTS = [
    GrACEComponent,
    ConicalInterfaceIC,
    GasProperties,
    States,
    GodunovFlux,
    EFMFlux,
    InviscidFlux,
    CharacteristicQuantities,
    ExplicitIntegratorRK2,
    BoundaryConditions,
    ErrorEstAndRegrid,
    ProlongRestrict,
    StatisticsComponent,
    ShockInterfaceDriver,
]


def build_shock_interface(
    framework: Framework,
    nx: int = 64,
    ny: int = 32,
    x_extent: float = 1.0,
    y_extent: float = 0.5,
    max_levels: int = 2,
    mach: float = 1.5,
    density_ratio: float = 3.0,
    angle_deg: float = 30.0,
    flux_scheme: str = "godunov",
    t_end_over_tau: float = 2.096,
    regrid_interval: int = 4,
    threshold: float = 0.12,
    initial_regrids: int = 0,
    cfl: float = 0.4,
) -> None:
    """Instantiate and wire the shock-interface assembly (Fig. 5).

    ``flux_scheme``: ``godunov`` or ``efm`` — the component swap of the
    paper's conclusion item 3.
    """
    framework.registry.register_many(SHOCK_COMPONENTS)
    for cls, name in [
        (GrACEComponent, "AMRMesh"),
        (ConicalInterfaceIC, "ConicalInterfaceIC"),
        (GasProperties, "GasProperties"),
        (States, "States"),
        (GodunovFlux, "GodunovFlux"),
        (EFMFlux, "EFMFlux"),
        (InviscidFlux, "InviscidFlux"),
        (CharacteristicQuantities, "Characteristics"),
        (ExplicitIntegratorRK2, "ExplicitIntegratorRK2"),
        (BoundaryConditions, "BoundaryConditions"),
        (ErrorEstAndRegrid, "ErrEstimator"),
        (ProlongRestrict, "ProlongRestrict"),
        (StatisticsComponent, "StatisticsComponent"),
        (ShockInterfaceDriver, "Driver"),
    ]:
        framework.instantiate(cls.__name__, name)

    fp = framework.set_parameter
    fp("AMRMesh", "nx", nx)
    fp("AMRMesh", "ny", ny)
    fp("AMRMesh", "x_extent", x_extent)
    fp("AMRMesh", "y_extent", y_extent)
    fp("AMRMesh", "max_levels", max_levels)
    fp("ConicalInterfaceIC", "mach", mach)
    fp("ConicalInterfaceIC", "density_ratio", density_ratio)
    fp("ConicalInterfaceIC", "angle_deg", angle_deg)
    fp("ConicalInterfaceIC", "shock_x", 0.2 * x_extent)
    fp("ConicalInterfaceIC", "interface_x", 0.4 * x_extent)
    # shock tube walls: reflecting above/below, outflow right (paper §4.3)
    fp("BoundaryConditions", "y_low", "reflecting")
    fp("BoundaryConditions", "y_high", "reflecting")
    fp("BoundaryConditions", "x_high", "outflow")
    fp("BoundaryConditions", "x_low", "outflow")
    fp("ErrEstimator", "dataobject", "U")
    fp("ErrEstimator", "variables", "0,3")  # density + energy gradients
    fp("ErrEstimator", "threshold", threshold)
    fp("ExplicitIntegratorRK2", "cfl", cfl)
    fp("Driver", "t_end_over_tau", t_end_over_tau)
    fp("Driver", "regrid_interval", regrid_interval)
    fp("Driver", "mach", mach)
    fp("Driver", "angle_deg", angle_deg)
    fp("Driver", "y_extent", y_extent)
    fp("Driver", "shock_x", 0.2 * x_extent)
    fp("Driver", "interface_x", 0.4 * x_extent)
    fp("Driver", "initial_regrids", initial_regrids)

    fc = framework.connect
    fc("ConicalInterfaceIC", "gas", "GasProperties", "properties")
    flux_provider = "GodunovFlux" if flux_scheme == "godunov" else "EFMFlux"
    fc("InviscidFlux", "states", "States", "states")
    fc("InviscidFlux", "flux", flux_provider, "flux")
    fc("InviscidFlux", "gas", "GasProperties", "properties")
    fc("InviscidFlux", "mesh", "AMRMesh", "mesh")
    fc("Characteristics", "data", "AMRMesh", "data")
    fc("Characteristics", "gas", "GasProperties", "properties")
    fc("ExplicitIntegratorRK2", "rhs", "InviscidFlux", "rhs")
    fc("ExplicitIntegratorRK2", "speeds", "Characteristics", "speeds")
    fc("ExplicitIntegratorRK2", "data", "AMRMesh", "data")
    fc("AMRMesh", "bc", "BoundaryConditions", "bc")
    fc("ErrEstimator", "mesh", "AMRMesh", "mesh")
    fc("ErrEstimator", "data", "AMRMesh", "data")
    fc("Driver", "mesh", "AMRMesh", "mesh")
    fc("Driver", "data", "AMRMesh", "data")
    fc("Driver", "ic", "ConicalInterfaceIC", "ic")
    fc("Driver", "integrator", "ExplicitIntegratorRK2", "integrator")
    fc("Driver", "regrid", "ErrEstimator", "regrid")
    fc("Driver", "gas", "GasProperties", "properties")
    fc("Driver", "stats", "StatisticsComponent", "stats")


def run_shock_interface(comm=None, **kwargs) -> dict[str, Any]:
    """One-call run (serial by default; pass a Comm for SCMD)."""
    framework = Framework(comm=comm)
    build_shock_interface(framework, **kwargs)
    return framework.go("Driver")
