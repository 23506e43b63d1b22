"""ImplicitIntegrator: the per-cell chemistry adaptor.

"The ImplicitIntegrator component is an Adaptor that calls on the Implicit
Integration subsystem for all cells and all patches."  (paper §4.2)

It extracts the pointwise state ``[T, Y...]`` of the flame DataObject and
hands it to the connected ODESolverPort (the ``CvodeComponent`` /
``ThermoChemistry`` pair).  Two fidelity modes:

* ``mode = "cvode"`` (default) — one stiff integration per cell, the
  paper's scheme: the cells at or above ``skip_below_T`` of *all* owned
  patches become the columns of one ``solver.integrate(t, Y_hot, t + dt)``
  call.  Each column keeps its own adaptive trajectory and its result
  does not depend on which cells share the call, so the field is the same
  however the mesh is split across patches and ranks.
* ``mode = "batch"`` — vectorized explicit sub-stepping of the chemical
  source over whole patches; used by the scaling benches where the paper
  itself notes "the compute time per mesh point ... can be predicted"
  (adaptivity and stiffness hot spots are off).

Provides ``integrator`` (IntegratorPort); uses ``solver`` (ODESolverPort),
``chem`` (ChemistryPort), ``data`` (DataObjectPort).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cca.component import Component
from repro.cca.ports.integrator import IntegratorPort
from repro.errors import CCAError
from repro.samr.dataobject import DataObject


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

    def set_services(self, services) -> None:
        self.services = services
        self.port = _ChemIntegrator(self)
        services.register_uses_port("solver", "ODESolverPort")
        services.register_uses_port("chem", "ChemistryPort")
        services.register_uses_port("data", "DataObjectPort")
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
        mode = self.services.get_parameter("mode", "cvode")
        if mode == "cvode":
            rhs_evals = self._advance_per_cell(dobj, t, dt, port)
        elif mode == "batch":
            rhs_evals = self._advance_batch(dobj, t, dt, port)
        else:
            raise CCAError(f"unknown chemistry mode {mode!r}")
        comm = self.services.get_comm()
        if comm is not None:  # the half-step's compute, counted
            comm.charge("chem_rhs", rhs_evals)
        return t + dt

    # -- the paper's scheme: one stiff integration per cell ----------------
    def _advance_per_cell(self, dobj: DataObject, t: float, dt: float,
                          port: _ChemIntegrator) -> int:
        """Returns the RHS column-evaluations spent."""
        solver = self.services.get_port("solver")
        t_threshold = float(
            self.services.get_parameter("skip_below_T", 0.0))
        # gather the hot cells of every owned patch into the columns of
        # one batched solve; cold cells (chemistry frozen) stay untouched
        blocks = []
        for patch in dobj.owned_patches():
            interior = dobj.interior(patch)
            hot = interior[0] >= t_threshold
            if hot.any():
                blocks.append((interior, hot))
        if not blocks:
            return 0
        y0 = np.concatenate([interior[:, hot] for interior, hot in blocks],
                            axis=1)
        y1 = solver.integrate(t, y0, t + dt)
        port.cells_integrated += y0.shape[1]
        start = 0
        for interior, hot in blocks:
            stop = start + int(hot.sum())
            interior[:, hot] = y1[:, start:stop]
            start = stop
        return solver.last_nfe()

    # -- vectorized bench mode: explicit sub-stepped source -----------------
    def _advance_batch(self, dobj: DataObject, t: float, dt: float,
                       port: _ChemIntegrator) -> int:
        """Returns the RHS column-evaluations spent."""
        chem = self.services.get_port("chem")
        nsub = int(self.services.get_parameter("substeps", 4))
        h = dt / nsub
        cells0 = port.cells_integrated
        for patch in dobj.owned_patches():
            interior = dobj.interior(patch)
            T = interior[0]
            Y = interior[1:]
            for _ in range(nsub):
                dT1, dY1 = chem.source_terms(T, Y)
                T1 = T + h * dT1
                Y1 = np.clip(Y + h * dY1, 0.0, None)
                dT2, dY2 = chem.source_terms(T1, Y1)
                T = T + 0.5 * h * (dT1 + dT2)
                Y = np.clip(Y + 0.5 * h * (dY1 + dY2), 0.0, None)
            interior[0] = T
            interior[1:] = Y
            port.cells_integrated += T.size
        return 2 * nsub * (port.cells_integrated - cells0)
