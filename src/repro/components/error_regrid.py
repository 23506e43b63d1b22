"""ErrorEstAndRegrid: gradient flagging and hierarchy recreation.

"(ErrorEstAndRegrid) component estimates the gradients at a cell and flags
regions for refinement/coarsening."  (paper §4.2; reused by the
shock-interface assembly, §4.3 / conclusion item 2)

Provides ``regrid`` (RegridPort); uses ``mesh`` and ``data``.

Parameters: ``dataobject`` (field driving the flags), ``variables``
(comma-separated indices, default all), ``threshold`` (relative, default
0.1), ``buffer`` (flag dilation, default 2), ``max_size``/``min_size``
(clustering), ``min_efficiency``.
"""

from __future__ import annotations

import numpy as np

from repro.cca.component import Component
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
        p = services.parameters
        name = p.get_str("dataobject", "flow")
        dobj = services.ports.data.data(name)
        comm = services.get_comm()
        variables = None
        if "variables" in p:
            variables = [int(v) for v in
                         str(p.get("variables")).split(",")]
        threshold = p.get_float("threshold", 0.1)

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
            buffer=p.get_int("buffer", 2),
            min_efficiency=p.get_float("min_efficiency", 0.7),
            max_size=p.get_int("max_size", 32),
            min_size=p.get_int("min_size", 4),
        )
        # fresh levels need consistent halos before the next RHS call
        h = services.ports.mesh.hierarchy()
        for nm in services.ports.data.names():
            for lev in range(h.nlevels):
                services.ports.data.exchange_ghosts(nm, lev)
