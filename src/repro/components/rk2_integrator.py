"""ExplicitIntegratorRK2 and CharacteristicQuantities.

The shock-interface time integrator: SSP-RK2 over all owned patches with
ghost exchange (and physical BCs) before every stage, restriction of fine
levels afterwards.  ``CharacteristicQuantities`` "determines the
characteristic speeds" (paper §4.3) for CFL-based step control.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cca.component import Component
from repro.cca.ports.integrator import IntegratorPort
from repro.cca.ports.physics import CharacteristicsPort
from repro.components.explicit_integrator import (
    pack_interiors,
    unpack_interiors,
)
from repro.errors import CCAError
from repro.hydro.state import max_wavespeed
from repro.integrators.rk2 import rk2_step
from repro.samr.dataobject import DataObject
from repro.samr.ghost import restrict_level


class _Characteristics(CharacteristicsPort):
    def __init__(self, owner: "CharacteristicQuantities") -> None:
        self.owner = owner

    def max_wavespeed(self, dobj_name: str) -> float:
        services = self.owner.services
        data = services.get_port("data")
        gas = services.get_port("gas")
        try:
            gamma = float(gas.get("gamma", 1.4))
            dobj = data.data(dobj_name)
        finally:
            services.release_port("gas")
            services.release_port("data")
        smax = 0.0
        for patch in dobj.owned_patches():
            smax = max(smax, max_wavespeed(dobj.interior(patch), gamma))
        comm = services.get_comm()
        if comm is not None and comm.size > 1:
            from repro.mpi.comm import Op

            smax = comm.allreduce(smax, op=Op.MAX)
        return smax


class CharacteristicQuantities(Component):
    """Global characteristic wave speeds; uses ``data`` + ``gas``."""

    def set_services(self, services) -> None:
        self.services = services
        services.register_uses_port("data", "DataObjectPort")
        services.register_uses_port("gas", "ParameterPort")
        services.add_provides_port(_Characteristics(self), "speeds")


class _RK2Port(IntegratorPort):
    def __init__(self, owner: "ExplicitIntegratorRK2") -> None:
        self.owner = owner
        self.nfe = 0
        self.nsteps = 0

    def advance(self, dataobjs: Sequence[DataObject], t: float,
                dt: float) -> float:
        if len(dataobjs) != 1:
            raise CCAError("RK2 integrator advances exactly one DataObject")
        return self.owner.advance(dataobjs[0], t, dt, self)

    def stable_dt(self, dataobjs: Sequence[DataObject], t: float) -> float:
        owner = self.owner
        dobj = dataobjs[0]
        cfl = float(owner.services.get_parameter("cfl", 0.4))
        speeds = owner.services.get_port("speeds")
        try:
            smax = speeds.max_wavespeed(dobj.name)
        finally:
            owner.services.release_port("speeds")
        if smax <= 0.0:
            raise CCAError("zero wavespeed field")
        h = dobj.hierarchy
        dx, dy = h.dx(h.nlevels - 1)  # finest level limits the global step
        return cfl / (smax / dx + smax / dy)


class ExplicitIntegratorRK2(Component):
    """SSP-RK2 hydro integrator over the hierarchy.

    Uses ``rhs`` (PatchRHSPort), ``speeds`` (CharacteristicsPort),
    ``data`` (DataObjectPort); provides ``integrator``.
    """

    def set_services(self, services) -> None:
        self.services = services
        self.port = _RK2Port(self)
        services.register_uses_port("rhs", "PatchRHSPort")
        services.register_uses_port("speeds", "CharacteristicsPort")
        services.register_uses_port("data", "DataObjectPort")
        services.add_provides_port(self.port, "integrator")

    # -- Checkpointable (repro.resilience.protocol) -------------------------
    def checkpoint_state(self) -> dict:
        return {"nfe": self.port.nfe, "nsteps": self.port.nsteps}

    def restore_state(self, state: dict) -> None:
        self.port.nfe = int(state["nfe"])
        self.port.nsteps = int(state["nsteps"])

    def advance(self, dobj: DataObject, t: float, dt: float,
                port: _RK2Port) -> float:
        rhs_port = self.services.get_port("rhs")
        data_port = self.services.get_port("data")
        try:
            return self._advance(dobj, t, dt, port, rhs_port, data_port)
        finally:
            self.services.release_port("data")
            self.services.release_port("rhs")

    def _advance(self, dobj: DataObject, t: float, dt: float,
                 port: _RK2Port, rhs_port, data_port) -> float:
        h = dobj.hierarchy
        port.nsteps += 1

        def rhs_vec(tt: float, y: np.ndarray) -> np.ndarray:
            port.nfe += 1
            unpack_interiors(dobj, y)
            for lev in range(h.nlevels):
                data_port.exchange_ghosts(dobj.name, lev)
            patches = list(dobj.owned_patches())
            parts = rhs_port.evaluate_patches(
                tt, patches, [dobj.array(patch) for patch in patches])
            if not parts:
                return np.zeros(0)
            return np.concatenate([part.ravel() for part in parts])

        y0 = pack_interiors(dobj)
        nfe0 = port.nfe
        y1 = rk2_step(rhs_vec, t, y0, dt)
        unpack_interiors(dobj, y1)
        comm = self.services.get_comm()
        if comm is not None:  # the step's compute, counted
            faces = sum((nx + 1) * ny + nx * (ny + 1) for nx, ny in (
                patch.box.shape for patch in dobj.owned_patches()))
            comm.charge("flux_face", (port.nfe - nfe0) * faces)
        for lev in range(h.nlevels - 1, 0, -1):
            restrict_level(dobj, lev, comm=comm)
            data_port.exchange_ghosts(dobj.name, lev)
        data_port.exchange_ghosts(dobj.name, 0)
        return t + dt
