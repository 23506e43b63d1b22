"""ErrorEstAndRegrid: gradient flagging and hierarchy recreation.

"(ErrorEstAndRegrid) component estimates the gradients at a cell and flags
regions for refinement/coarsening."  (paper §4.2; reused by the
shock-interface assembly, §4.3 / conclusion item 2)

Provides ``regrid`` (RegridPort); uses ``mesh`` and ``data``.

Parameters: see ``ErrorEstAndRegrid.PARAMS``.
"""

from __future__ import annotations

import numpy as np

from repro.cca.component import Component, Param
from repro.cca.ports.mesh import RegridPort
from repro.samr.flagging import flag_gradient
from repro.samr.regrid import regrid as samr_regrid


class _Regrid(RegridPort):
    def __init__(self, owner: "ErrorEstAndRegrid") -> None:
        self.owner = owner
        self.nregrids = 0

    def regrid(self) -> None:
        self.owner.run_regrid()
        self.nregrids += 1


class ErrorEstAndRegrid(Component):
    """Flag -> cluster -> rebuild driver (see module docstring)."""

    PARAMS = (
        Param("dataobject", "str", "flow", doc="field driving the flags"),
        Param("variables", "str",
              doc="comma-separated variable indices (default all)"),
        Param("threshold", "float", 0.1, min=0.0,
              doc="relative gradient threshold"),
        Param("buffer", "int", 2, min=0, max=8, doc="flag dilation"),
        Param("max_size", "int", 32, min=4),
        Param("min_size", "int", 4, min=1),
        Param("min_efficiency", "float", 0.7, min=0.1, max=1.0),
    )

    def set_services(self, services) -> None:
        self.services = services
        self.port = _Regrid(self)
        services.register_uses_port("mesh", "MeshPort")
        services.register_uses_port("data", "DataObjectPort")
        services.add_provides_port(self.port, "regrid")

    # -- Checkpointable (repro.resilience.protocol) -------------------------
    def checkpoint_state(self) -> dict:
        return {"nregrids": self.port.nregrids}

    def restore_state(self, state: dict) -> None:
        self.port.nregrids = int(state["nregrids"])

    def run_regrid(self) -> None:
        services = self.services
        name = services.get_parameter("dataobject")
        dobj = services.ports.data.data(name)
        comm = services.get_comm()
        variables = services.get_parameter("variables")
        if variables is not None:
            variables = [int(v) for v in variables.split(",")]
        threshold = services.get_parameter("threshold")

        def flag_fn(level: int) -> dict[int, np.ndarray]:
            services.ports.data.exchange_ghosts(name, level)
            return flag_gradient(dobj, level, threshold,
                                 variables=variables, relative=True,
                                 comm=comm)

        all_dobjs = [services.ports.data.data(nm)
                     for nm in services.ports.data.names()]
        samr_regrid(
            services.ports.mesh.hierarchy(),
            all_dobjs,
            flag_fn,
            comm=comm,
            buffer=services.get_parameter("buffer"),
            min_efficiency=services.get_parameter("min_efficiency"),
            max_size=services.get_parameter("max_size"),
            min_size=services.get_parameter("min_size"),
        )
        # fresh levels need consistent halos before the next RHS call
        h = services.ports.mesh.hierarchy()
        for nm in services.ports.data.names():
            for lev in range(h.nlevels):
                services.ports.data.exchange_ghosts(nm, lev)
