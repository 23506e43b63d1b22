"""Integrator ports.

Family (c): "Ports that accept an array of Data Objects and act on them in
a synchronized manner.  Integrators usually support these ports."  Family
(e): vector ports for the implicit integration subsystem.
"""

from __future__ import annotations

from typing import Sequence, TYPE_CHECKING

import numpy as np

from repro.cca.port import Port

if TYPE_CHECKING:  # pragma: no cover
    from repro.samr.dataobject import DataObject


class IntegratorPort(Port):
    """Advance a set of Data Objects over a time step (family (c))."""

    def advance(self, dataobjs: Sequence["DataObject"], t: float,
                dt: float) -> float:
        """Advance from ``t`` by ``dt``; returns the new time."""
        raise NotImplementedError

    def stable_dt(self, dataobjs: Sequence["DataObject"],
                  t: float) -> float:
        """Largest stable/accurate macro step at the current state."""
        raise NotImplementedError


class ODESolverPort(Port):
    """Pointwise stiff/non-stiff vector integration (family (e)) — the
    interface ``CvodeComponent`` provides."""

    def integrate(self, t0: float, y0: np.ndarray, t1: float) -> np.ndarray:
        """Integrate dy/dt = f(t, y) from t0 to t1 and return y(t1).

        ``y0`` is ``(n_state, B)`` — one independent system per column,
        each integrated on its own adaptive trajectory — and the result
        has the same shape; a single 1-D state ``(n_state,)`` returns
        ``(n_state,)``.  A column's result does not depend on which
        other columns share the call.
        """
        raise NotImplementedError

    def last_nfe(self) -> int:
        """RHS evaluations consumed by the most recent ``integrate``,
        summed over its columns (each column counts its own)."""
        raise NotImplementedError
