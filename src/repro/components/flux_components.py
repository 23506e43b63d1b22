"""GodunovFlux and EFMFlux: interchangeable interface-flux providers.

"The flexibility of CCA allows one to successfully reuse the code assembly
... by simply replacing the GodunovFlux component with EFMFlux ...
Recompilation/relinking of the code was not required."  (paper §4.3 and
conclusions)  Both provide the same ``FluxPort``, so the swap is one
``connect`` line in the assembly script.
"""

from __future__ import annotations

import numpy as np

from repro.cca.component import Component
from repro.cca.ports.flux import FluxPort
from repro.hydro.efm import efm_flux
from repro.hydro.godunov import godunov_flux


class _GodunovFluxPort(FluxPort):
    def __init__(self) -> None:
        self.ncalls = 0

    def flux(self, prim_l, prim_r, gamma: float) -> np.ndarray:
        self.ncalls += 1
        return godunov_flux(prim_l, prim_r, gamma)


class GodunovFlux(Component):
    """Exact-Riemann interface flux."""

    PARAMS = ()

    def set_services(self, services) -> None:
        self.services = services
        services.add_provides_port(_GodunovFluxPort(), "flux")


class _EFMFluxPort(FluxPort):
    def __init__(self) -> None:
        self.ncalls = 0

    def flux(self, prim_l, prim_r, gamma: float) -> np.ndarray:
        self.ncalls += 1
        return efm_flux(prim_l, prim_r, gamma)


class EFMFlux(Component):
    """Equilibrium-Flux-Method (kinetic) interface flux for strong
    shocks."""

    PARAMS = ()

    def set_services(self, services) -> None:
        self.services = services
        services.add_provides_port(_EFMFluxPort(), "flux")
