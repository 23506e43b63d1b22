"""MaxDiffCoeffEvaluator: the dynamic-timestep eigenvalue bound.

"(MaxDiffCoeffEvaluator) component is used by the explicit integrator to
evaluate the maximum diffusion coefficient over the domain to determine
the maximum stable timestep."  (paper §4.2)

Provides SpectralBoundPort; uses the mesh, the flame DataObject, the
transport and chemistry ports.  The bound is
``4 * D_max * (1/dx^2 + 1/dy^2)`` on the finest level present, reduced
globally over the cohort.
"""

from __future__ import annotations

import numpy as np

from repro.cca.component import Component, Param
from repro.cca.ports.rhs import SpectralBoundPort
from repro.integrators.spectral import gershgorin_diffusion
from repro.util.arena import Arena


class _Bound(SpectralBoundPort):
    def __init__(self, owner: "MaxDiffCoeffEvaluator") -> None:
        self.owner = owner

    def spectral_bound(self, t: float) -> float:
        return self.owner.evaluate()


class MaxDiffCoeffEvaluator(Component):
    """Domain-wide diffusion stability bound (see module docstring).

    Parameter ``dataobject``: name of the flame field, variable 0 = T,
    1.. = Y.
    """

    PARAMS = (Param("dataobject", "str", "flow"),)

    def set_services(self, services) -> None:
        self.services = services
        self._arena = Arena()  # the property pass's scratch, all patches
        services.register_uses_port("mesh", "MeshPort")
        services.register_uses_port("data", "DataObjectPort")
        services.register_uses_port("transport", "TransportPort")
        services.register_uses_port("chem", "ChemistryPort")
        services.add_provides_port(_Bound(self), "bound")

    def evaluate(self) -> float:
        services = self.services
        name = services.get_parameter("dataobject")
        dobj = services.ports.data.data(name)
        h = services.ports.mesh.hierarchy()
        P = services.ports.chem.pressure()
        d_local = 0.0
        for patch in dobj.owned_patches():
            arr = dobj.interior(patch)
            nsp, cells = arr.shape[0] - 1, arr.shape[1:]
            Y, work = self._arena.carve((nsp,) + cells,
                                        (2 * nsp + 2,) + cells)
            np.clip(arr[1:], 0.0, None, out=Y)
            d_local = max(d_local,
                          services.ports.transport.max_diffusion_coefficient(
                              arr[0], P, Y, work=work))
        comm = services.get_comm()
        if comm is not None and comm.size > 1:
            from repro.mpi.comm import Op

            d_local = comm.allreduce(d_local, op=Op.MAX)
        # stability is governed by the finest spacing present
        dx = h.dx(h.nlevels - 1)
        return gershgorin_diffusion(d_local, dx)
