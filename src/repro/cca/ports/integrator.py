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
    interface ``CvodeComponent`` provides.

    Two ways to use it.  **One-shot** — :meth:`integrate` — is CVODE's
    ``CVodeInit`` followed by one solve to a stop time: a new solver
    starts at ``t0`` and lands exactly on ``t1``, and nothing survives
    the call (the flame's per-cell chemistry half-steps).  **A kept
    trajectory** — :meth:`start` once, then :meth:`continue_to` per
    output time — is ``CVodeInit`` once and then ``CV_NORMAL`` solves:
    the solver keeps its history, step size, order and Jacobian from one
    output to the next, steps until it reaches or passes each output
    time and interpolates there, so its steps, and the answer at any one
    output, do not depend on the output grid (the 0-D ignition run).  A
    one-shot call leaves a kept trajectory alone.
    """

    def integrate(self, t0: float, y0: np.ndarray, t1: float) -> np.ndarray:
        """Integrate dy/dt = f(t, y) from t0 to t1 and return y(t1).

        ``y0`` is ``(n_state, B)`` — one independent system per column,
        each integrated on its own adaptive trajectory — and the result
        has the same shape; a single 1-D state ``(n_state,)`` returns
        ``(n_state,)``.  A column's result does not depend on which
        other columns share the call.
        """
        raise NotImplementedError

    def start(self, t0: float, y0: np.ndarray) -> None:
        """Begin a kept trajectory at ``(t0, y0)`` (shapes as in
        :meth:`integrate`), replacing any kept before."""
        raise NotImplementedError

    def continue_to(self, t1: float) -> np.ndarray:
        """Continue the kept trajectory and return its state at ``t1``
        (no earlier than the last output); raises ``CCAError`` before
        :meth:`start`."""
        raise NotImplementedError

    def last_nfe(self) -> int:
        """RHS evaluations consumed by the most recent ``integrate``,
        ``start`` or ``continue_to``, summed over its columns (each
        column counts its own)."""
        raise NotImplementedError
