"""InviscidFlux and States: the Euler RHS assembly.

"A Runge-Kutta time integrator (ExplicitIntegratorRK2) with an
InviscidFlux component supplies the right-hand-side of the equation,
patch-by-patch.  InviscidFlux component uses a States component to set up
the Riemann problem at each cell interface which is then passed to the
GodunovFlux component for the Riemann solution."  (paper §4.3)

One ``evaluate_patches`` call is one call on ``States`` — the sweep rows
of every patch laid end to end — and one on the flux component, the
Riemann problems of all patches as one batch.
"""

from __future__ import annotations

import numpy as np

from repro.cca.component import Component, Param
from repro.cca.ports.flux import StatesPort
from repro.cca.ports.rhs import PatchRHSPort
from repro.hydro.fluxes import RHSScratch, euler_rhs_patches
from repro.hydro.reconstruction import muscl_interface_states
from repro.util.arena import Arena


class _States(StatesPort):
    def __init__(self, owner: "States") -> None:
        self.owner = owner
        self.ncalls = 0

    def interface_states(self, prim: np.ndarray, axis: int):
        self.ncalls += 1
        limiter = self.owner.services.get_parameter("limiter")
        return muscl_interface_states(prim, axis=axis, limiter=limiter,
                                      arena=self.owner.arena)


class States(Component):
    """MUSCL interface-state construction (parameter ``limiter``); the
    differences, slopes and limiter work planes of a call live in one
    arena this instance owns."""

    PARAMS = (Param("limiter", "str", "van_leer",
                    choices=("minmod", "van_leer", "mc", "superbee")),)

    def set_services(self, services) -> None:
        self.services = services
        self.arena = Arena()
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
        hierarchy = services.ports.mesh.hierarchy()
        return euler_rhs_patches(
            arrays, [hierarchy.dx(patch.level) for patch in patches],
            float(services.ports.gas.get("gamma", 1.4)),
            flux_fn=services.ports.flux.flux,
            nghost=hierarchy.nghost,
            reconstruct_fn=services.ports.states.interface_states,
            scratch=self.owner.scratch,
        )


class InviscidFlux(Component):
    """Adaptor: ghosted patch -> conservative flux divergence.

    Uses ``states`` (StatesPort), ``flux`` (FluxPort), ``gas``
    (ParameterPort), ``mesh`` (MeshPort); provides ``rhs`` (PatchRHSPort).
    The flat arrays of an evaluation are carved from the arena of one
    :class:`~repro.hydro.fluxes.RHSScratch` this instance owns.
    """

    PARAMS = ()

    def set_services(self, services) -> None:
        self.services = services
        self.scratch = RHSScratch()
        services.register_uses_port("states", "StatesPort")
        services.register_uses_port("flux", "FluxPort")
        services.register_uses_port("gas", "ParameterPort")
        services.register_uses_port("mesh", "MeshPort")
        services.add_provides_port(_InviscidRHS(self), "rhs")
