"""Equilibrium Flux Method (Pullin 1980): kinetic flux-vector splitting.

"Solving an exact Riemann problem could be substituted by a gas-kinetics
scheme (e.g. Equilibrium Flux Method)" and "the flexibility of CCA allows
one to successfully reuse the code assembly ... to simulate strong shocks
(Mach ≈ 3.5) by simply replacing the GodunovFlux component with EFMFlux, a
component implementing a more diffusive gas-kinetic scheme."  (paper §4.3)

The interface flux is the sum of the rightward half-Maxwellian flux of the
left state and the leftward half-Maxwellian flux of the right state:
``F = F⁺(W_L) + F⁻(W_R)``.
"""

from __future__ import annotations

import numpy as np

_SQRT_PI = np.sqrt(np.pi)


def _half_flux(rho, u, v, p, zeta, gamma, sign: int) -> np.ndarray:
    """One-sided kinetic flux: sign=+1 for F⁺, -1 for F⁻."""
    # SciPy costs every process ~0.3 s at import; only EFM runs pay it
    from scipy.special import erf

    beta = rho / (2.0 * p)            # 1 / (2 R T)
    s = u * np.sqrt(beta)
    A = 0.5 * (1.0 + sign * erf(s))   # half-range mass fraction
    B = sign * np.exp(-s * s) / (2.0 * _SQRT_PI * np.sqrt(beta))
    ke = 0.5 * rho * (u * u + v * v)
    E_plus_p_flux = (gamma / (gamma - 1.0)) * p * u + ke * u
    mass = rho * (u * A + B)
    return np.stack([
        mass,
        (rho * u * u + p) * A + rho * u * B,
        v * mass,
        E_plus_p_flux * A + ((gamma + 1.0) / (2.0 * (gamma - 1.0)) * p + ke) * B,
        zeta * mass,
    ])


def efm_flux(prim_l: tuple[np.ndarray, ...],
             prim_r: tuple[np.ndarray, ...],
             gamma: float) -> np.ndarray:
    """x-direction EFM flux from left/right primitive tuples
    ``(rho, u, v, p, zeta)``; returns shape ``(5, ...)``."""
    return (_half_flux(*prim_l, gamma, +1)
            + _half_flux(*prim_r, gamma, -1))
