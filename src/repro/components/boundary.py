"""BoundaryConditions: per-face physical ghost fills for the hydro runs.

"The shock tube has reflecting boundary conditions above and below and
outflow on the right, which are set with the BoundaryConditions
component."  (paper §4.3)

Parameters: ``x_low``, ``x_high``, ``y_low``, ``y_high`` — each one of
``outflow`` (default), ``reflecting``, ``inflow``.  An inflow face pins
ghosts to the conserved state set via :meth:`BoundaryConditions.
set_inflow_state` (the driver takes it from the IC component's
post-shock state).
"""

from __future__ import annotations

import numpy as np

from repro.cca.component import Component, Param
from repro.cca.ports.bc import BoundaryConditionPort
from repro.errors import CCAError
from repro.hydro.bc import fill_inflow, fill_outflow, fill_reflecting

_KINDS = ("outflow", "reflecting", "inflow")


class _BC(BoundaryConditionPort):
    def __init__(self, owner: "BoundaryConditions") -> None:
        self.owner = owner
        self.napplied = 0

    def apply(self, patch, ghosted: np.ndarray, axis: int,
              side: int) -> None:
        self.napplied += 1
        kind = self.owner.face_kind(axis, side)
        g = patch.nghost
        if kind == "outflow":
            fill_outflow(ghosted, axis, side, g)
        elif kind == "reflecting":
            fill_reflecting(ghosted, axis, side, g)
        elif kind == "inflow":
            state = self.owner.inflow_state
            if state is None:
                raise CCAError(
                    "inflow face used before set_inflow_state was called")
            fill_inflow(ghosted, axis, side, g, state)
        else:
            raise CCAError(f"unknown boundary kind {kind!r}")


class BoundaryConditions(Component):
    """Per-face boundary fills (see module docstring)."""

    PARAMS = tuple(Param(face, "str", "outflow", choices=_KINDS)
                   for face in ("x_low", "x_high", "y_low", "y_high"))

    def set_services(self, services) -> None:
        self.services = services
        self.inflow_state: np.ndarray | None = None
        services.add_provides_port(_BC(self), "bc")

    def face_kind(self, axis: int, side: int) -> str:
        services = self.services
        if axis == 0:
            return (services.get_parameter("x_high") if side
                    else services.get_parameter("x_low"))
        return (services.get_parameter("y_high") if side
                else services.get_parameter("y_low"))

    def set_inflow_state(self, conserved: np.ndarray) -> None:
        self.inflow_state = np.asarray(conserved, dtype=float)
