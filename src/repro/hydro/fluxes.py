"""Dimension-by-dimension Euler RHS on ghosted patches.

``euler_rhs_patches`` is the right-hand side the paper's ``InviscidFlux``
adaptor supplies to the RK2 integrator: MUSCL reconstruction of primitives
(``States``) patch by patch, **one** interface-flux call (``GodunovFlux``
or ``EFMFlux``) over the gathered faces of every patch and both sweeps,
and the conservative divergence per patch.  ``euler_rhs`` is its
one-patch case.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.errors import HydroError
from repro.hydro.godunov import godunov_flux
from repro.hydro.reconstruction import muscl_interface_states
from repro.hydro.state import NVARS, cons_to_prim, max_wavespeed

FluxFn = Callable[[tuple, tuple, float], np.ndarray]

#: Positivity floors applied to reconstructed interface states.
_RHO_FLOOR = 1e-12
_P_FLOOR = 1e-12
#: y-sweep row order: normal and tangential momentum exchanged.
_SWAP = [0, 2, 1, 3, 4]


def euler_rhs_patches(Us: Sequence[np.ndarray],
                      spacings: Sequence[tuple[float, float]],
                      gamma: float,
                      flux_fn: FluxFn = godunov_flux,
                      limiter: str = "van_leer",
                      nghost: int = 2,
                      reconstruct_fn: Callable | None = None
                      ) -> list[np.ndarray]:
    """dU/dt over the interiors of several ghosted patches, from **one**
    ``flux_fn`` call.

    ``Us[k]`` has shape ``(5, nx_k + 2*nghost, ny_k + 2*nghost)`` with
    ghosts already filled and ``spacings[k]`` is its ``(dx, dy)``; the
    k-th return value has interior shape ``(5, nx_k, ny_k)``.  ``nghost``
    must be >= 2 (MUSCL stencil).

    Reconstruction needs the 2-D stencil and runs patch by patch; the
    x-sweep faces and the (momentum-swapped) y-sweep faces of all patches
    are then concatenated into one flat ``(5, N)`` left/right pair and
    handed to ``flux_fn`` together, so ``flux_fn`` must be
    face-independent (see ``FluxPort.flux``).

    ``reconstruct_fn(prim, axis) -> (qL, qR)`` overrides the built-in
    MUSCL reconstruction — the hook the ``States`` component plugs into.
    """
    if nghost < 2:
        raise HydroError("euler_rhs needs at least 2 ghost cells")
    if not Us:
        return []
    g = nghost
    if reconstruct_fn is None:
        reconstruct_fn = lambda q, axis: muscl_interface_states(  # noqa: E731
            q, axis=axis, limiter=limiter)
    extra = g - 2  # reconstruction only needs a 2-cell halo

    def clip(arr, axis):
        if extra == 0:
            return arr
        sl = [slice(None)] * arr.ndim
        sl[axis] = slice(extra, -extra)
        return arr[tuple(sl)]

    lefts, rights = [], []
    for U in Us:
        rho, u, v, p, zeta = cons_to_prim(U, gamma, check=False)
        rho = np.maximum(rho, _RHO_FLOOR)
        p = np.maximum(p, _P_FLOOR)
        prim = np.stack([rho, u, v, p, zeta])
        # x-sweep: faces i+-1/2; y-sweep: normal velocity is v, so the
        # momentum rows are swapped
        for q, axis in ((clip(prim[:, :, g:-g], 1), 1),
                        (clip(prim[:, g:-g, :], 2)[_SWAP], 2)):
            qL, qR = reconstruct_fn(q, axis)
            lefts.append(qL.reshape(NVARS, -1))
            rights.append(qR.reshape(NVARS, -1))
    left = np.concatenate(lefts, axis=1)
    right = np.concatenate(rights, axis=1)
    # positivity floors on the reconstructed (rho, un, ut, p, zeta)
    for q in (left, right):
        np.maximum(q[0], _RHO_FLOOR, out=q[0])
        np.maximum(q[3], _P_FLOOR, out=q[3])
    flux = flux_fn(tuple(left), tuple(right), gamma)

    pieces = np.split(flux, np.cumsum([q.shape[1] for q in lefts])[:-1],
                      axis=1)
    out = []
    for U, (dx, dy), F, G in zip(Us, spacings, pieces[0::2], pieces[1::2]):
        nx = U.shape[1] - 2 * g
        F = F.reshape(NVARS, nx + 1, -1)
        G = G.reshape(NVARS, nx, -1)[_SWAP]
        dU = np.zeros_like(U[:, g:-g, g:-g])
        dU -= (F[:, 1:, :] - F[:, :-1, :]) / dx
        dU -= (G[:, :, 1:] - G[:, :, :-1]) / dy
        out.append(dU)
    return out


def euler_rhs(U: np.ndarray, dx: float, dy: float, gamma: float,
              flux_fn: FluxFn = godunov_flux,
              limiter: str = "van_leer",
              nghost: int = 2,
              reconstruct_fn: Callable | None = None) -> np.ndarray:
    """dU/dt over the interior of one ghosted patch: the one-patch case of
    :func:`euler_rhs_patches`."""
    return euler_rhs_patches([U], [(dx, dy)], gamma, flux_fn=flux_fn,
                             limiter=limiter, nghost=nghost,
                             reconstruct_fn=reconstruct_fn)[0]


def cfl_dt(U: np.ndarray, dx: float, dy: float, gamma: float,
           cfl: float = 0.4) -> float:
    """Stable step from the characteristic speeds
    (``CharacteristicQuantities``): ``dt = cfl / (smax/dx + smax/dy)``."""
    if not (0.0 < cfl <= 1.0):
        raise HydroError(f"cfl must be in (0, 1], got {cfl}")
    smax = max_wavespeed(U, gamma)
    if smax <= 0.0:
        raise HydroError("zero wavespeed field")
    return cfl / (smax / dx + smax / dy)
