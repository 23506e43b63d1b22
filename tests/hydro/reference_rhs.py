"""The Euler right-hand side as it was before the flat reconstruction
(commit 2459999): primitives, MUSCL states and the limiter evaluated patch
by patch and sweep by sweep, the faces concatenated for one flux call.

Kept verbatim — limiters and reconstruction included — as the oracle the
flat ``repro.hydro.euler_rhs_patches`` is compared against with ``==``.
Not part of the package; do not "fix" it to match.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.errors import HydroError
from repro.hydro.godunov import godunov_flux
from repro.hydro.state import NVARS, cons_to_prim


# ---------------------------------------------------------------- limiters
def minmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The most diffusive TVD limiter: smallest-magnitude same-sign slope."""
    same = (a * b) > 0.0
    return np.where(same, np.sign(a) * np.minimum(np.abs(a), np.abs(b)), 0.0)


def van_leer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Harmonic-mean limiter: smooth, second-order away from extrema."""
    ab = a * b
    denom = a + b
    safe = np.abs(denom) > 1e-300
    return np.where((ab > 0.0) & safe,
                    2.0 * ab / np.where(safe, denom, 1.0), 0.0)


def mc_limiter(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Monotonized central: min(2|a|, 2|b|, |a+b|/2), sharper than minmod."""
    same = (a * b) > 0.0
    s = np.sign(a)
    m = np.minimum(np.minimum(2.0 * np.abs(a), 2.0 * np.abs(b)),
                   0.5 * np.abs(a + b))
    return np.where(same, s * m, 0.0)


def superbee(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The most compressive TVD limiter."""
    same = (a * b) > 0.0
    s = np.sign(a)
    abs_a, abs_b = np.abs(a), np.abs(b)
    m1 = np.minimum(2.0 * abs_a, abs_b)
    m2 = np.minimum(abs_a, 2.0 * abs_b)
    return np.where(same, s * np.maximum(m1, m2), 0.0)


LIMITERS = {
    "minmod": minmod,
    "van_leer": van_leer,
    "mc": mc_limiter,
    "superbee": superbee,
}


# ---------------------------------------------------------- reconstruction
def muscl_interface_states(
    q: np.ndarray,
    axis: int = -1,
    limiter: str | Callable = "van_leer",
) -> tuple[np.ndarray, np.ndarray]:
    """Limited linear reconstruction along ``axis``.

    ``q`` holds cell averages (any leading shape); with ``n`` cells along
    the axis the function returns ``(qL, qR)`` at the ``n - 3`` interior
    interfaces (the first and last cell on each side act as the stencil's
    ghost cells):

    ``qL[k] = q[k+1] + slope[k+1]/2`` and ``qR[k] = q[k+2] - slope[k+2]/2``
    describe interface ``k + 3/2`` in cell units.
    """
    if callable(limiter):
        phi = limiter
    else:
        try:
            phi = LIMITERS[limiter]
        except KeyError:
            raise HydroError(
                f"unknown limiter {limiter!r}; have {sorted(LIMITERS)}"
            ) from None
    q = np.asarray(q, dtype=float)
    q = np.moveaxis(q, axis, -1)
    if q.shape[-1] < 4:
        raise HydroError(
            f"need at least 4 cells along the axis, got {q.shape[-1]}")
    fwd = q[..., 1:] - q[..., :-1]          # difference at i+1/2
    slope = phi(fwd[..., :-1], fwd[..., 1:])  # limited slope in cell i+1
    qL = q[..., 1:-2] + 0.5 * slope[..., :-1]
    qR = q[..., 2:-1] - 0.5 * slope[..., 1:]
    return np.moveaxis(qL, -1, axis), np.moveaxis(qR, -1, axis)


# --------------------------------------------------------------------- RHS
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
