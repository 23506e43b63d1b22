"""Physics-facing ports: chemistry, transport, pressure closure,
characteristic speeds.

These are the "domain-specific ports whose design is left to the user
community" (paper §2) — the interfaces our component set agreed on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.cca.port import Port

if TYPE_CHECKING:  # pragma: no cover
    from repro.chemistry.mechanism import Mechanism


class ChemistryPort(Port):
    """Access to the mechanism object and vectorized source terms."""

    def mechanism(self) -> "Mechanism":
        raise NotImplementedError

    def pressure(self) -> float:
        """The background thermodynamic pressure [Pa]."""
        raise NotImplementedError

    def source_terms(self, T: np.ndarray, Y: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
        """(dT/dt, dY/dt) chemical sources at constant pressure,
        vectorized over trailing cell axes."""
        raise NotImplementedError


class TransportPort(Port):
    """Mixture-averaged transport properties (the DRFM interface).

    The provider keeps no scratch of its own (one provider may serve
    several callers): a caller that wants a call to allocate nothing
    passes the memory in.  ``out`` is NumPy's ``out`` — the array the
    result is computed into and returned; without it the result is a
    fresh array (a scalar for scalar input).  It may not overlap the
    inputs.  The stability bound is not asked of the provider: the
    operator that evaluates these properties also forms the largest
    diffusivity from them (:class:`~repro.cca.ports.rhs.DiffusivityPort`).
    """

    def diffusion_coefficients(self, T: np.ndarray, P: np.ndarray | float,
                               out: np.ndarray | None = None) -> np.ndarray:
        """D_i [m^2/s], shape ``(nsp, *T.shape)``."""
        raise NotImplementedError

    def conductivity(self, T: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
        """lambda [W/(m K)], shape ``T.shape``."""
        raise NotImplementedError


class DPDtPort(Port):
    """The pressure-evolution closure of the 0D rigid-vessel problem (the
    ``dPdt`` component's interface).  Stateless: the vessel density comes
    in with each call."""

    def dpdt(self, rho: float, T: float, Y: np.ndarray, dT: float,
             dY: np.ndarray) -> float:
        raise NotImplementedError


class CharacteristicsPort(Port):
    """Characteristic wave speeds for CFL control (the
    ``CharacteristicQuantities`` component's interface)."""

    def max_wavespeed(self, dobj_name: str) -> float:
        """Global max(|u|+a, |v|+a) over the hierarchy."""
        raise NotImplementedError
