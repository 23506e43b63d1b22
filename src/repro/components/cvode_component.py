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
its own adaptive trajectory, started afresh and stopped at ``t1``.
``start`` + ``continue_to`` keep one solver across output times instead
(CVODE's ``CV_NORMAL``; see :class:`ODESolverPort`).
Parameters: ``rtol``, ``atol``, ``method`` (see ``PARAMS``).
"""

from __future__ import annotations

import numpy as np

from repro.cca.component import Component, Param
from repro.cca.ports.integrator import ODESolverPort
from repro.errors import CCAError
from repro.integrators.cvode import CVode


def _totals(cv: CVode) -> tuple[int, int, int]:
    """``(nfe, nje, nsteps)`` of ``cv`` summed over its columns, read off
    its counters (``cv.stats`` would copy all six per call)."""
    stats = cv._stats
    return (int(stats.nfe.sum()), int(stats.nje.sum()),
            int(stats.nsteps.sum()))


class _Solver(ODESolverPort):
    def __init__(self, owner: "CvodeComponent") -> None:
        self.owner = owner
        #: the kept trajectory (``start`` / ``continue_to``) and the shape
        #: its states are returned in
        self.kept: CVode | None = None
        self._shape: tuple[int, ...] = ()
        self._last_nfe = 0
        self.total_nfe = 0
        self.total_nje = 0
        self.total_steps = 0

    def _callables(self) -> dict:
        services = self.owner.services
        jac = None
        if services.is_connected("jacobian"):
            jac = services.ports.jacobian.jacobian
        return {"rhs": services.ports.rhs.rhs, "jac": jac}

    def _new_cvode(self, t0: float, y0: np.ndarray) -> CVode:
        services = self.owner.services
        # a single state is a batch of one: the ports are batched
        return CVode(t0=t0, y0=y0.reshape(len(y0), -1),
                     rtol=services.get_parameter("rtol"),
                     atol=services.get_parameter("atol"),
                     method=services.get_parameter("method"),
                     **self._callables())

    def _account(self, cv: CVode, before=(0, 0, 0)) -> None:
        """Count what ``cv`` did since its totals were ``before``."""
        nfe, nje, steps = (a - b for a, b in zip(_totals(cv), before))
        self._last_nfe = nfe
        self.total_nfe += nfe
        self.total_nje += nje
        self.total_steps += steps

    def integrate(self, t0: float, y0: np.ndarray, t1: float) -> np.ndarray:
        y0 = np.asarray(y0, dtype=float)
        cv = self._new_cvode(t0, y0)
        y = cv.integrate_to(t1).reshape(y0.shape)
        self._account(cv)
        return y

    def start(self, t0: float, y0: np.ndarray) -> None:
        y0 = np.asarray(y0, dtype=float)
        self._shape = y0.shape
        self.kept = self._new_cvode(t0, y0)
        # f0 and the first Jacobians are this call's
        self._account(self.kept)

    def continue_to(self, t1: float) -> np.ndarray:
        if self.kept is None:
            raise CCAError(
                f"{self.owner.services.instance_name}: continue_to() "
                f"without a kept trajectory; call start() first")
        before = _totals(self.kept)
        y = self.kept.integrate_to(t1, stop=False).reshape(self._shape)
        self._account(self.kept, before)
        return y

    def last_nfe(self) -> int:
        return self._last_nfe


class CvodeComponent(Component):
    """Thin wrapper around the CVode integrator (see module docstring)."""

    PARAMS = (
        Param("rtol", "float", 1e-8, min=1e-15, max=0.1),
        Param("atol", "float", 1e-12, min=1e-30, max=0.001),
        Param("method", "str", "bdf", choices=("bdf", "adams")),
    )

    def set_services(self, services) -> None:
        self.services = services
        self.solver = _Solver(self)
        services.register_uses_port("rhs", "VectorRHSPort")
        services.register_uses_port("jacobian", "JacobianPort",
                                    optional=True)
        services.add_provides_port(self.solver, "solver")

    # -- Checkpointable (repro.resilience.protocol) -------------------------
    # A one-shot ``integrate()`` keeps no solver, so apart from the
    # cumulative call accounting the only state to carry across a restart
    # is the kept trajectory of ``start`` / ``continue_to``, if any.
    def checkpoint_state(self) -> dict:
        solver = self.solver
        state = {"last_nfe": solver._last_nfe,
                 "total_nfe": solver.total_nfe,
                 "total_nje": solver.total_nje,
                 "total_steps": solver.total_steps}
        if solver.kept is not None:
            state["trajectory"] = solver.kept.state()
            state["shape"] = list(solver._shape)
        return state

    def restore_state(self, state: dict) -> None:
        solver = self.solver
        solver._last_nfe = int(state["last_nfe"])
        solver.total_nfe = int(state["total_nfe"])
        # absent from checkpoints written before the counter existed
        solver.total_nje = int(state.get("total_nje", 0))
        solver.total_steps = int(state["total_steps"])
        solver.kept = None
        if "trajectory" in state:
            solver.kept = CVode.restore(state=state["trajectory"],
                                        **solver._callables())
            solver._shape = tuple(state["shape"])
