"""Right-hand-side ports.

Family (d): "Ports that accept an array from a patch" — RHS evaluation is
patch-at-a-time, or over a list of patches whose kernel work is batched.
Family (e): vector RHS for implicit integration.  Plus the
eigenvalue-estimation port the explicit subsystem uses for dynamic
time-step sizing, and the diffusivity port it is computed from.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.cca.port import Port

if TYPE_CHECKING:  # pragma: no cover
    from repro.samr.patch import Patch


class PatchRHSPort(Port):
    """Evaluate and assemble the RHS "one patch at a time" (family (d))."""

    def evaluate(self, t: float, patch: "Patch", ghosted: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
        """dU/dt over the patch interior, given the ghosted field array.

        ``out`` is NumPy's ``out``: an array of the interior's shape
        (``(nvar, nx, ny)``, not overlapping ``ghosted``) that the result
        is computed into and that is returned — an integrator passes its
        slice of the packed RHS vector and nothing is copied.  Without it
        the result is a fresh array.  Either way the caller owns what it
        gets back: a provider may keep scratch between calls, but no
        result is a view of it, so evaluating another patch leaves
        earlier results alone.
        """
        raise NotImplementedError

    def evaluate_patches(self, t: float, patches: Sequence["Patch"],
                         arrays: Sequence[np.ndarray]) -> list[np.ndarray]:
        """dU/dt over the interiors of several patches in one call.

        ``arrays[k]`` is the ghosted field array of ``patches[k]``; the
        k-th return value is what ``evaluate(t, patches[k], arrays[k])``
        returns — bit for bit, whichever other patches share the call (an
        SCMD rank passes the patches it owns, so this is what makes a run
        independent of the decomposition).  A provider whose kernel is
        cheaper on one long batch overrides this; the default evaluates
        patch by patch.
        """
        return [self.evaluate(t, patch, ghosted)
                for patch, ghosted in zip(patches, arrays)]


class VectorRHSPort(Port):
    """Pointwise source terms for the implicit subsystem (family (e)) —
    what ``ThermoChemistry`` provides to ``CvodeComponent``.

    The interface hands the kernel a block, not a point: the state
    carries a trailing cell axis and every cell is an independent system.
    """

    def rhs(self, t: float | np.ndarray, y: np.ndarray) -> np.ndarray:
        """dy/dt for a block of cells.

        ``y`` has shape ``(n_state, B)`` — one column per cell — and
        ``t`` is a scalar or the ``(B,)`` time of each column; returns
        ``(n_state, B)``.  A single 1-D state ``(n_state,)`` is accepted
        and returns ``(n_state,)``.  A column's result must not depend,
        bit for bit, on which other columns share the call (the solver
        evaluates whatever subset of cells is still iterating, and
        repeats a cell's column for its finite-difference Jacobian).
        """
        raise NotImplementedError

    def n_state(self) -> int:
        raise NotImplementedError


class JacobianPort(Port):
    """The analytic Jacobian of a :class:`VectorRHSPort`'s right-hand side
    (family (e)) — optional: a stiff solver that finds it connected uses
    it for its Newton matrices instead of differencing the RHS.
    """

    def jacobian(self, t: float | np.ndarray, y: np.ndarray) -> np.ndarray:
        """∂f/∂y for a block of cells: ``y`` shape ``(n_state, B)`` gives
        ``(n_state, n_state, B)`` with ``[i, j, b]`` = ∂f_i/∂y_j of
        column b; a single 1-D state gives ``(n_state, n_state)``.  Column
        independent, like :meth:`VectorRHSPort.rhs`."""
        raise NotImplementedError


class SpectralBoundPort(Port):
    """Largest-eigenvalue estimate for the explicit integrator
    (``MaxDiffCoeffEvaluator`` provides this)."""

    def spectral_bound(self, t: float) -> float:
        raise NotImplementedError


class DiffusivityPort(Port):
    """The largest diffusivity of a patch's state (``DiffusionPhysics``
    provides this; ``MaxDiffCoeffEvaluator`` reduces it to the bound)."""

    def max_diffusivity(self, patch: "Patch", interior: np.ndarray) -> float:
        """``max(max_i D_i, λ/(ρ cp))`` over the patch's ``(nvar, nx,
        ny)`` ``interior`` (T floored at 50 K, Y clipped at zero), from
        the last evaluation's properties if it was at this state."""
        raise NotImplementedError
