"""MaxDiffCoeffEvaluator: the dynamic-timestep eigenvalue bound.

"(MaxDiffCoeffEvaluator) component is used by the explicit integrator to
evaluate the maximum diffusion coefficient over the domain to determine
the maximum stable timestep."  (paper §4.2)

Provides SpectralBoundPort; uses the mesh, the flame DataObject and the
``diffusivity`` port of the operator (``DiffusionPhysics``), which
answers for each owned patch from the properties of its last evaluation
when the patch still holds that state.  The bound is
``4 * D_max * (1/dx^2 + 1/dy^2)`` on the finest level present, reduced
globally over the cohort.
"""

from __future__ import annotations

from repro.cca.component import Component, Param
from repro.cca.ports.rhs import SpectralBoundPort
from repro.integrators.spectral import gershgorin_diffusion


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
        services.register_uses_port("mesh", "MeshPort")
        services.register_uses_port("data", "DataObjectPort")
        services.register_uses_port("diffusivity", "DiffusivityPort")
        services.add_provides_port(_Bound(self), "bound")

    def evaluate(self) -> float:
        services = self.services
        dobj = services.ports.data.data(services.get_parameter("dataobject"))
        h = services.ports.mesh.hierarchy()
        diffusivity = services.ports.diffusivity
        d_local = 0.0
        for patch in dobj.owned_patches():
            d_local = max(d_local, diffusivity.max_diffusivity(
                patch, dobj.interior(patch)))
        comm = services.get_comm()
        if comm is not None and comm.size > 1:
            from repro.mpi.comm import Op

            d_local = comm.allreduce(d_local, op=Op.MAX)
        # stability is governed by the finest spacing present
        dx = h.dx(h.nlevels - 1)
        return gershgorin_diffusion(d_local, dx)
