"""ImplicitIntegrator: the per-cell chemistry adaptor.

"The ImplicitIntegrator component is an Adaptor that calls on the Implicit
Integration subsystem for all cells and all patches."  (paper §4.2)

It extracts the pointwise state ``[T, Y...]`` of the flame DataObject and
hands it to the connected ODESolverPort (the ``CvodeComponent`` /
``ThermoChemistry`` pair): one stiff integration per cell, the paper's
scheme.  The cells at or above ``skip_below_T`` of *all* owned patches
become the columns of ``solver.integrate(t, Y_hot, t + dt)`` calls,
``BLOCK_COLUMNS`` at a time.  Each column keeps its own adaptive
trajectory and its result does not depend on which cells share a call, so
the field is the same however the mesh is split across patches, ranks and
blocks.

Provides ``integrator`` (IntegratorPort); uses ``solver`` (ODESolverPort),
``data`` (DataObjectPort).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cca.component import Component, Param
from repro.cca.ports.integrator import IntegratorPort
from repro.errors import CCAError
from repro.samr.dataobject import DataObject

#: Columns per ``solver.integrate`` call.  A solve holds ~23 KB of Newton
#: and history work arrays per column, so the width bounds a rank's
#: memory (1 024 columns: ~24 MB) whatever its cell count; a column's
#: result does not depend on its block.
BLOCK_COLUMNS = 1024


class _ChemIntegrator(IntegratorPort):
    def __init__(self, owner: "ImplicitIntegrator") -> None:
        self.owner = owner
        self.cells_integrated = 0
        self.nsteps = 0

    def advance(self, dataobjs: Sequence[DataObject], t: float,
                dt: float) -> float:
        if len(dataobjs) != 1:
            raise CCAError(
                "chemistry adaptor advances exactly one DataObject")
        self.nsteps += 1
        return self.owner.advance(dataobjs[0], t, dt, self)

    def stable_dt(self, dataobjs: Sequence[DataObject], t: float) -> float:
        # implicit chemistry has no stability limit; accuracy is handled
        # inside the stiff solver
        return float("inf")


class ImplicitIntegrator(Component):
    """Per-cell chemistry advance (see module docstring)."""

    PARAMS = (Param("skip_below_T", "float", 0.0, min=0.0),)

    def set_services(self, services) -> None:
        self.services = services
        self.port = _ChemIntegrator(self)
        services.register_uses_port("solver", "ODESolverPort")
        services.register_uses_port("data", "DataObjectPort", optional=True)
        services.add_provides_port(self.port, "integrator")

    # -- Checkpointable (repro.resilience.protocol) -------------------------
    def checkpoint_state(self) -> dict:
        return {"cells_integrated": self.port.cells_integrated,
                "nsteps": self.port.nsteps}

    def restore_state(self, state: dict) -> None:
        self.port.cells_integrated = int(state["cells_integrated"])
        self.port.nsteps = int(state["nsteps"])

    def advance(self, dobj: DataObject, t: float, dt: float,
                port: _ChemIntegrator) -> float:
        services = self.services
        t_threshold = services.get_parameter("skip_below_T")
        # gather the hot cells of every owned patch into the columns of
        # a batched solve; cold cells (chemistry frozen) stay untouched
        patches = []
        for patch in dobj.owned_patches():
            interior = dobj.interior(patch)
            hot = interior[0] >= t_threshold
            if hot.any():
                patches.append((interior, hot))
        if not patches:
            return t + dt
        y = np.concatenate([interior[:, hot] for interior, hot in patches],
                           axis=1)
        rhs_evals = 0
        for lo in range(0, y.shape[1], BLOCK_COLUMNS):
            block = slice(lo, lo + BLOCK_COLUMNS)
            y[:, block] = services.ports.solver.integrate(
                t, y[:, block], t + dt)
            rhs_evals += services.ports.solver.last_nfe()
        port.cells_integrated += y.shape[1]
        start = 0
        for interior, hot in patches:
            stop = start + int(hot.sum())
            interior[:, hot] = y[:, start:stop]
            start = stop
        comm = services.get_comm()
        if comm is not None:  # the half-step's compute, counted
            comm.charge("chem_rhs", rhs_evals)
        return t + dt
