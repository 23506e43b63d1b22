"""DRFMComponent: mixture-averaged transport properties.

"DRFMComponent is a thin C++ wrapper around the Fortran77 DRFM package."
(paper §4.2)  The wrapped library here is
:class:`repro.transport.MixtureTransport`.
"""

from __future__ import annotations

import numpy as np

from repro.cca.component import Component
from repro.cca.ports.physics import TransportPort
from repro.transport.diffusion import MixtureTransport


class _Transport(TransportPort):
    def __init__(self, owner: "DRFMComponent") -> None:
        self.owner = owner

    def diffusion_coefficients(self, T, P, out=None):
        return self.owner.transport.diffusion_coefficients(T, P, out=out)

    def conductivity(self, T, out=None):
        return self.owner.transport.conductivity(T, out=out)


class DRFMComponent(Component):
    """Transport-property provider; uses ThermoChemistry for the species
    set (the mechanism defines which D_i exist)."""

    PARAMS = ()

    def set_services(self, services) -> None:
        self.services = services
        self._transport: MixtureTransport | None = None
        services.register_uses_port("chem", "ChemistryPort")
        services.add_provides_port(_Transport(self), "transport")

    @property
    def transport(self) -> MixtureTransport:
        if self._transport is None:
            mech = self.services.ports.chem.mechanism()
            self._transport = MixtureTransport(mech)
        return self._transport
