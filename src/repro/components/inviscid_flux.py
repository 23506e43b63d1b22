"""InviscidFlux and States: the Euler RHS assembly.

"A Runge-Kutta time integrator (ExplicitIntegratorRK2) with an
InviscidFlux component supplies the right-hand-side of the equation,
patch-by-patch.  InviscidFlux component uses a States component to set up
the Riemann problem at each cell interface which is then passed to the
GodunovFlux component for the Riemann solution."  (paper §4.3)

The interface states are still set up patch by patch; the Riemann problems
of all patches handed over in one ``evaluate_patches`` call go to the flux
component as one batch.
"""

from __future__ import annotations

import numpy as np

from repro.cca.component import Component
from repro.cca.ports.flux import StatesPort
from repro.cca.ports.rhs import PatchRHSPort
from repro.hydro.fluxes import euler_rhs_patches
from repro.hydro.reconstruction import muscl_interface_states


class _States(StatesPort):
    def __init__(self, owner: "States") -> None:
        self.owner = owner
        self.ncalls = 0

    def interface_states(self, prim: np.ndarray, axis: int):
        self.ncalls += 1
        limiter = self.owner.services.get_parameter("limiter", "van_leer")
        return muscl_interface_states(prim, axis=axis, limiter=limiter)


class States(Component):
    """MUSCL interface-state construction (parameter ``limiter``)."""

    def set_services(self, services) -> None:
        self.services = services
        services.add_provides_port(_States(self), "states")


class _InviscidRHS(PatchRHSPort):
    def __init__(self, owner: "InviscidFlux") -> None:
        self.owner = owner
        self.nfe = 0

    def evaluate(self, t: float, patch, ghosted: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
        rhs = self.evaluate_patches(t, [patch], [ghosted])[0]
        if out is None:
            return rhs
        out[...] = rhs
        return out

    def evaluate_patches(self, t: float, patches, arrays) -> list[np.ndarray]:
        self.nfe += len(patches)
        services = self.owner.services
        gamma = float(services.get_port("gas").get("gamma", 1.4))
        flux_port = services.get_port("flux")
        states_port = services.get_port("states")
        hierarchy = services.get_port("mesh").hierarchy()
        return euler_rhs_patches(
            arrays, [hierarchy.dx(patch.level) for patch in patches], gamma,
            flux_fn=flux_port.flux,
            nghost=hierarchy.nghost,
            reconstruct_fn=states_port.interface_states,
        )


class InviscidFlux(Component):
    """Adaptor: ghosted patch -> conservative flux divergence.

    Uses ``states`` (StatesPort), ``flux`` (FluxPort), ``gas``
    (ParameterPort), ``mesh`` (MeshPort); provides ``rhs`` (PatchRHSPort).
    """

    def set_services(self, services) -> None:
        self.services = services
        services.register_uses_port("states", "StatesPort")
        services.register_uses_port("flux", "FluxPort")
        services.register_uses_port("gas", "ParameterPort")
        services.register_uses_port("mesh", "MeshPort")
        services.add_provides_port(_InviscidRHS(self), "rhs")
