"""Mixture-averaged diffusion coefficients and thermal conductivity.

Model (substitution for the proprietary DRFM fits): hard-sphere /
Chapman-Enskog scaling

    D_i(T, P) = D_i^ref * (T / T_ref)^1.7 * (P_ref / P)
    lambda(T) = lambda_ref * (T / T_ref)^0.8

with reference binary-into-air diffusivities at 300 K, 1 atm taken from
standard tables.  The ~T^1.7 exponent is the usual empirical value between
the hard-sphere 1.5 and measured 1.75-1.8 for these gases.  What matters
for the paper's experiments is (a) the magnitude ordering (H and H2
diffuse fastest) and (b) the temperature scaling that drives the RKC
stability bound — both are preserved.
"""

from __future__ import annotations

import numpy as np

from repro.chemistry.mechanism import Mechanism
from repro.errors import ChemistryError

#: Binary diffusion into air at 300 K, 1 atm [m^2/s] (standard tables).
_D_REF_300K = {
    "H2": 7.8e-5,
    "O2": 2.1e-5,
    "O": 4.0e-5,
    "OH": 2.8e-5,
    "H2O": 2.5e-5,
    "H": 1.5e-4,
    "HO2": 2.1e-5,
    "H2O2": 1.9e-5,
    "N2": 2.0e-5,
}

_T_REF = 300.0
_P_REF = 101325.0
_D_EXPONENT = 1.7

#: Air-like thermal conductivity at 300 K [W/(m K)] and its exponent.
_LAMBDA_REF = 0.026
_LAMBDA_EXPONENT = 0.8


class MixtureTransport:
    """Mixture-averaged transport for a mechanism's species set."""

    def __init__(self, mech: Mechanism) -> None:
        self.mech = mech
        missing = [nm for nm in mech.names if nm not in _D_REF_300K]
        if missing:
            raise ChemistryError(
                f"no transport data for species {missing}")
        self._d_ref = np.array([_D_REF_300K[nm] for nm in mech.names])

    # ``out`` / ``work`` as in :class:`~repro.chemistry.mechanism.Mechanism`:
    # given both, a call allocates nothing of cell size.  The powers are
    # ``np.power`` calls, never a scalar's ``**`` (libm's pow, which may
    # round the last bit the other way): a temperature alone gets the
    # bits it gets in any batch.
    def diffusion_coefficients(self, T: np.ndarray, P: np.ndarray | float,
                               out: np.ndarray | None = None) -> np.ndarray:
        """Mixture-averaged D_i [m^2/s], shape ``(nsp, *T.shape)``.

        "The species are assumed to diffuse independently into the mixture
        at a mesh point, i.e. the diffusion coefficient D_i of the i-th
        species is mixture averaged."  (paper §4.2)
        """
        T = np.asarray(T, dtype=float)
        if out is None:
            out = np.empty((len(self._d_ref),) + T.shape)
        # the (T, P) scale shared by all species is built in row 0 and
        # becomes D_0 last
        scale = self._scale(T, P, out[0, ...])
        np.multiply(self.mech.per_species(self._d_ref[1:], out), scale,
                    out=out[1:])
        scale *= self._d_ref[0]
        return out

    @staticmethod
    def _scale(T: np.ndarray, P: np.ndarray | float,
               out: np.ndarray | None) -> np.ndarray:
        """``(T / T_ref)^1.7 (P_ref / P)``, what every D_i scales with."""
        scale = np.divide(T, _T_REF, out=out)
        scale = np.power(scale, _D_EXPONENT, out=out)
        return np.multiply(scale, _P_REF / np.asarray(P), out=out)

    def conductivity(self, T: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
        """Thermal conductivity lambda(T) [W/(m K)]."""
        lam = np.divide(T, _T_REF, out=out)
        lam = np.power(lam, _LAMBDA_EXPONENT, out=out)
        return np.multiply(_LAMBDA_REF, lam, out=out)
