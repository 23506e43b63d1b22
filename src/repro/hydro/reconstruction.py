"""MUSCL reconstruction: limited linear interface states.

"The Godunov method involves constructing the states on the left and right
of a cell interface using slope-limiters, upwinding and solving a Riemann
problem.  The construction of left and right states holds true for most
finite volume methods."  (paper §4.3) — this module is that construction,
shared by the Godunov and EFM flux components (the ``States`` component).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import HydroError
from repro.hydro.limiters import LIMITERS
from repro.util.arena import Arena


def muscl_interface_states(
    q: np.ndarray,
    axis: int = -1,
    limiter: str | Callable = "van_leer",
    arena: Arena | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Limited linear reconstruction along ``axis``.

    ``q`` holds cell averages (any leading shape); with ``n`` cells along
    the axis the function returns ``(qL, qR)`` at the ``n - 3`` interior
    interfaces (the first and last cell on each side act as the stencil's
    ghost cells):

    ``qL[k] = q[k+1] + slope[k+1]/2`` and ``qR[k] = q[k+2] - slope[k+2]/2``
    describe interface ``k + 3/2`` in cell units.

    An interface reads the four cells around it along ``axis`` and nothing
    else, so rows laid end to end along the axis reconstruct as one array:
    only the three interfaces astride each seam mean nothing.

    ``limiter`` names one of :data:`~repro.hydro.limiters.LIMITERS` or is a
    callable with their ``(a, b, out=, work=)`` signature.  The differences,
    slopes and the limiter's work planes are carved from ``arena`` (the
    caller's scratch, see :mod:`repro.util.arena`); ``qL`` and ``qR`` are
    fresh arrays.
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
    *lead, n = q.shape
    if n < 4:
        raise HydroError(
            f"need at least 4 cells along the axis, got {n}")
    fwd, slope, work = (arena or Arena()).carve(
        (*lead, n - 1), (*lead, n - 2), (2, *lead, n - 2))
    np.subtract(q[..., 1:], q[..., :-1], out=fwd)   # difference at i+1/2
    phi(fwd[..., :-1], fwd[..., 1:], out=slope, work=work)  # slope, cell i+1
    qL = np.multiply(slope[..., :-1], 0.5)
    qL += q[..., 1:-2]
    qR = np.multiply(slope[..., 1:], 0.5)
    np.subtract(q[..., 2:-1], qR, out=qR)
    return np.moveaxis(qL, -1, axis), np.moveaxis(qR, -1, axis)
