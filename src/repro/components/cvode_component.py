"""CvodeComponent: the implicit stiff/non-stiff integrator.

"CvodeComponent is an implicit stiff/non-stiff integrator that
time-advances the system as it ignites.  This is a thin wrapper around the
Cvode integrator library."  (paper §4.1)  Our wrapped "library" is
:class:`repro.integrators.cvode.CVode`.

Provides ``solver`` (ODESolverPort); uses ``rhs`` (VectorRHSPort) and,
if it is connected, ``jacobian`` (JacobianPort) — the analytic Jacobian
of ``rhs``, used for the Newton matrices instead of finite differences.
One ``integrate`` call is one batched solve over the columns of ``y0`` — a
single state, or every hot cell of a chemistry half-step — each column on
its own adaptive trajectory.
Parameters: ``rtol``, ``atol``, ``method`` (``bdf``/``adams``).
"""

from __future__ import annotations

import numpy as np

from repro.cca.component import Component
from repro.cca.ports.integrator import ODESolverPort
from repro.integrators.cvode import CVode


class _Solver(ODESolverPort):
    def __init__(self, owner: "CvodeComponent") -> None:
        self.owner = owner
        self._last_nfe = 0
        self.total_nfe = 0
        self.total_nje = 0
        self.total_steps = 0

    def integrate(self, t0: float, y0: np.ndarray, t1: float) -> np.ndarray:
        services = self.owner.services
        p = services.parameters
        y0 = np.asarray(y0, dtype=float)
        rhs_port = services.get_port("rhs")
        jac_port = None
        if services.is_connected("jacobian"):
            jac_port = services.get_port("jacobian")
        try:
            with rhs_port.session():
                # a single state is a batch of one: the ports are batched
                cv = CVode(
                    rhs_port.rhs,
                    t0,
                    y0.reshape(len(y0), -1),
                    rtol=p.get_float("rtol", 1e-8),
                    atol=p.get_float("atol", 1e-12),
                    method=p.get_str("method", "bdf"),
                    jac=None if jac_port is None else jac_port.jacobian,
                )
                y = cv.integrate_to(t1).reshape(y0.shape)
        finally:
            services.release_port("rhs")
            if jac_port is not None:
                services.release_port("jacobian")
        stats = cv.stats
        self._last_nfe = int(stats.nfe.sum())
        self.total_nfe += self._last_nfe
        self.total_nje += int(stats.nje.sum())
        self.total_steps += int(stats.nsteps.sum())
        return y

    def last_nfe(self) -> int:
        return self._last_nfe


class CvodeComponent(Component):
    """Thin wrapper around the CVode integrator (see module docstring)."""

    def set_services(self, services) -> None:
        self.services = services
        self.solver = _Solver(self)
        services.register_uses_port("rhs", "VectorRHSPort")
        services.register_uses_port("jacobian", "JacobianPort")
        services.add_provides_port(self.solver, "solver")

    # -- Checkpointable (repro.resilience.protocol) -------------------------
    # The CVode instance itself is created afresh inside every
    # ``integrate()`` call, so the only state to carry across a restart is
    # the cumulative call accounting.
    def checkpoint_state(self) -> dict:
        return {"last_nfe": self.solver._last_nfe,
                "total_nfe": self.solver.total_nfe,
                "total_nje": self.solver.total_nje,
                "total_steps": self.solver.total_steps}

    def restore_state(self, state: dict) -> None:
        self.solver._last_nfe = int(state["last_nfe"])
        self.solver.total_nfe = int(state["total_nfe"])
        # absent from checkpoints written before the counter existed
        self.solver.total_nje = int(state.get("total_nje", 0))
        self.solver.total_steps = int(state["total_steps"])
