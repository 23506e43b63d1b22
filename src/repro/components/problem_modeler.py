"""ProblemModeler and DPDt: the 0D rigid-vessel closure.

"Between CvodeComponent and ThermoChemistry is the problemModeler
component which acts as an Adaptor, i.e. for this closed system it adds
the pressure term to the heat equation.  The pressure term depends on the
boundary conditions of the problem (rigid walls, i.e. constant mass and
volume) and is computed by the dPdt component."  (paper §4.1)

State layout: ``Φ = [T, Y_0..Y_{ns-1}, P]`` — the paper's Φ.
``ProblemModeler`` provides the VectorRHSPort that ``CvodeComponent``
integrates; it uses ``ThermoChemistry`` for the chemistry and ``DPDt`` for
the pressure equation, converting the constant-pressure source terms to
the constant-volume form (cv instead of cp, internal energy instead of
enthalpy).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import numpy as np

from repro.cca.component import Component
from repro.cca.ports.physics import DPDtPort
from repro.cca.ports.rhs import VectorRHSPort
from repro.chemistry.mechanism import Mechanism
from repro.chemistry.zerod import constant_volume_source, rigid_vessel_dpdt
from repro.errors import CCAError


class _DPDtImpl(DPDtPort):
    def __init__(self, owner: "DPDt") -> None:
        self.owner = owner

    def dpdt(self, rho, T, Y: np.ndarray, dT, dY: np.ndarray):
        """dP/dt = ρ R (Ṫ/W̄ + T d(1/W̄)/dt) for fixed ρ (rigid walls)."""
        return rigid_vessel_dpdt(self.owner.mechanism(), rho, T, Y, dT, dY)


class DPDt(Component):
    """Pressure-evolution closure for constant mass and volume."""

    def set_services(self, services) -> None:
        self.services = services
        services.register_uses_port("chem", "ChemistryPort")
        services.add_provides_port(_DPDtImpl(self), "dpdt")

    def mechanism(self) -> Mechanism:
        """The connected ``chem`` port's mechanism (fetch, use, release)."""
        try:
            return self.services.get_port("chem").mechanism()
        finally:
            self.services.release_port("chem")


class _ModelRHS(VectorRHSPort):
    """Constant-volume RHS assembled from the chemistry + dPdt ports,
    over one state or one column per cell (all sharing the vessel density).

    Carries one extra, narrower-interface method (``configure``) that
    fixes the vessel density from the initial fill — drivers call it once
    before handing the port to the stiff solver.  :meth:`rhs` is called
    inside a :meth:`session` (one solver ``integrate``), which fetches the
    mechanism and the ``dpdt`` port once and releases them at the end.
    """

    def __init__(self, owner: "ProblemModeler") -> None:
        self.owner = owner
        self.nfe = 0
        self._held: tuple | None = None   # (mechanism, dpdt port)

    def configure(self, T0: float, P0: float, Y0: np.ndarray) -> float:
        return self.owner.set_initial_density(T0, P0, Y0)

    def n_state(self) -> int:
        return self.owner.mechanism().n_species + 2

    @contextmanager
    def session(self) -> Iterator[None]:
        services = self.owner.services
        mech = self.owner.mechanism()
        dpdt = services.get_port("dpdt")
        try:
            self._held = (mech, dpdt)
            yield
        finally:
            self._held = None
            services.release_port("dpdt")

    def rhs(self, t, y: np.ndarray) -> np.ndarray:
        rho = self.owner.rho
        if rho is None:
            raise CCAError("ProblemModeler: call set_initial_density first")
        if self._held is None:
            raise CCAError("ProblemModeler: rhs is evaluated inside a "
                           "session() of the model port")
        self.nfe += 1
        mech, dpdt = self._held
        T, Y, dT, dY = constant_volume_source(mech, rho, y)
        dP = dpdt.dpdt(rho, T, Y, dT, dY)
        return np.concatenate((dT[None], dY, dP[None]))


class ProblemModeler(Component):
    """Adaptor assembling the rigid-vessel Φ-equation (see module doc)."""

    def set_services(self, services) -> None:
        self.services = services
        self.rho: float | None = None
        self.model_rhs = _ModelRHS(self)
        services.register_uses_port("chem", "ChemistryPort")
        services.register_uses_port("dpdt", "DPDtPort")
        services.add_provides_port(self.model_rhs, "model")

    def set_initial_density(self, T0: float, P0: float,
                            Y0: np.ndarray) -> float:
        """Fix ρ from the initial fill and share it with DPDt (via the
        connected component's own set_density — kept explicit here since
        density is physics state, not wiring)."""
        self.rho = float(self.mechanism().density(T0, P0, Y0))
        return self.rho

    def mechanism(self) -> Mechanism:
        """The connected ``chem`` port's mechanism (fetch, use, release)."""
        try:
            return self.services.get_port("chem").mechanism()
        finally:
            self.services.release_port("chem")
