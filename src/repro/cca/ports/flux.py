"""Flux and interface-state ports for the hydrodynamics assembly.

"InviscidFlux component uses a States component to set up the Riemann
problem at each cell interface which is then passed to the GodunovFlux
component for the Riemann solution."  (paper §4.3)  ``FluxPort`` is the
interface both ``GodunovFlux`` and ``EFMFlux`` provide — swapping them
requires no recompilation, the paper's headline reuse demonstration.
"""

from __future__ import annotations

import numpy as np

from repro.cca.port import Port

#: Primitive tuple layout: (rho, u_normal, u_tangential, p, zeta).
PrimTuple = tuple


class StatesPort(Port):
    """MUSCL interface-state construction (the ``States`` component)."""

    def interface_states(self, prim: np.ndarray, axis: int
                         ) -> tuple[np.ndarray, np.ndarray]:
        """Left and right states at the ``n - 3`` interior interfaces of
        the ``n`` cells ``prim`` holds along ``axis``: interface ``k``
        lies between cells ``k + 1`` and ``k + 2``.

        ``InviscidFlux`` calls this once per RHS evaluation with the
        sweep rows of every patch laid end to end along ``axis`` (``prim``
        of shape ``(5, N)``, ``axis = 1``) and discards the interfaces
        that straddle two rows.  A provider must therefore use a 1-D
        stencil along ``axis`` that reads at most two cells to either
        side of an interface (cells ``k .. k + 3``), independently for
        every index of the other axes — then an interface's states do
        not depend, bit for bit, on which rows share the call.
        """
        raise NotImplementedError


class FluxPort(Port):
    """Numerical flux from left/right interface states."""

    def flux(self, prim_l: PrimTuple, prim_r: PrimTuple,
             gamma: float) -> np.ndarray:
        """Normal-direction flux for a batch of faces.

        ``prim_l`` and ``prim_r`` are ``(rho, u_normal, u_tangential, p,
        zeta)`` tuples of equal-shape arrays, one entry per face; returns
        shape ``(5,) + face shape``.  The faces arrive as one flat batch
        gathered from every patch and both sweeps of an RHS evaluation,
        so a face's flux must not depend, bit for bit, on which other
        faces share the call.
        """
        raise NotImplementedError
