"""ExplicitIntegrator: RKC time advance over the patch hierarchy.

"The Explicit Integration subsystem consists of ... a Runge-Kutta-
Chebyshev integrator (ExplicitIntegrator), a component to calculate the
diffusion fluxes (DiffusionPhysics) ..."  (paper §4.2)

The integrator packs all owned-patch interiors into one state vector,
runs one RKC macro step (stage count from the connected
SpectralBoundPort, reduced globally so every rank takes the same number of
stages), exchanging ghosts before every stage RHS evaluation, and finally
restricts fine levels onto coarse ones.

Provides ``integrator`` (IntegratorPort); uses ``rhs`` (PatchRHSPort),
``bound`` (SpectralBoundPort), ``mesh``, ``data``.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.cca.component import Component
from repro.cca.ports.integrator import IntegratorPort
from repro.errors import CCAError
from repro.integrators.rkc import rkc_step, stages_for
from repro.obs import trace as _obs
from repro.obs.metrics import get_registry as _obs_registry
from repro.samr.dataobject import DataObject
from repro.samr.ghost import restrict_level
from repro.util.arena import Arena


def pack_interiors(dobj: DataObject,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Flatten owned-patch interiors into one vector (stable patch
    order), ``out`` if given."""
    views = [dobj.interior(p) for p in dobj.owned_patches()]
    if out is None:
        out = np.empty(sum(view.size for view in views))
    for view, segment in zip(views, _segments(views, out)):
        segment[...] = view
    return out


def unpack_interiors(dobj: DataObject, y: np.ndarray) -> None:
    """Scatter a packed vector back into owned-patch interiors."""
    views = [dobj.interior(p) for p in dobj.owned_patches()]
    for view, segment in zip(views, _segments(views, y)):
        view[...] = segment


def _segments(views: Sequence[np.ndarray], y: np.ndarray
              ) -> list[np.ndarray]:
    """The packed vector ``y`` as one view per patch interior, each in
    its interior's shape; the length is checked before anything is
    handed out (and so before anything is written)."""
    total = sum(view.size for view in views)
    if y.shape != (total,):
        raise CCAError(
            f"state vector length {y.size} != owned interior size {total}")
    segments, start = [], 0
    for view in views:
        segments.append(y[start:start + view.size].reshape(view.shape))
        start += view.size
    return segments


class _RKCIntegrator(IntegratorPort):
    def __init__(self, owner: "ExplicitIntegrator") -> None:
        self.owner = owner
        self.nfe = 0
        self.nsteps = 0
        self.last_stages = 0

    def advance(self, dataobjs: Sequence[DataObject], t: float,
                dt: float) -> float:
        if len(dataobjs) != 1:
            raise CCAError("RKC integrator advances exactly one DataObject")
        return self.owner.advance(dataobjs[0], t, dt, self)

    def stable_dt(self, dataobjs: Sequence[DataObject], t: float) -> float:
        """Step keeping the stage count at the configured budget."""
        bound = self.owner.global_bound(t)
        s_max = int(self.owner.services.get_parameter("max_stages", 20))
        if bound <= 0.0:
            raise CCAError("non-positive spectral bound")
        return 0.653 * s_max**2 / bound


class ExplicitIntegrator(Component):
    """RKC driver over the hierarchy (see module docstring)."""

    def set_services(self, services) -> None:
        self.services = services
        self.port = _RKCIntegrator(self)
        self._arena = Arena()  # packed state, RHS and RKC stage vectors
        services.register_uses_port("rhs", "PatchRHSPort")
        services.register_uses_port("bound", "SpectralBoundPort")
        services.register_uses_port("mesh", "MeshPort")
        services.register_uses_port("data", "DataObjectPort")
        services.add_provides_port(self.port, "integrator")

    # -- Checkpointable (repro.resilience.protocol) -------------------------
    def checkpoint_state(self) -> dict:
        return {"nfe": self.port.nfe, "nsteps": self.port.nsteps,
                "last_stages": self.port.last_stages}

    def restore_state(self, state: dict) -> None:
        self.port.nfe = int(state["nfe"])
        self.port.nsteps = int(state["nsteps"])
        self.port.last_stages = int(state["last_stages"])

    def global_bound(self, t: float) -> float:
        """Spectral bound (the provider already reduces over the cohort)."""
        return float(self.services.get_port("bound").spectral_bound(t))

    def advance(self, dobj: DataObject, t: float, dt: float,
                port: _RKCIntegrator) -> float:
        t0 = time.perf_counter() if _obs.on else 0.0
        nfe0 = port.nfe
        rho = self.global_bound(t)
        s = stages_for(dt, rho)
        port.last_stages = s
        port.nsteps += 1
        rhs_port = self.services.get_port("rhs")
        data_port = self.services.get_port("data")
        h = dobj.hierarchy

        patches = list(dobj.owned_patches())
        interiors = [dobj.interior(patch) for patch in patches]
        n = sum(view.size for view in interiors)
        y0, f0, f_stage, stage_work = self._arena.carve(
            (n,), (n,), (n,), (4, n))
        pack_interiors(dobj, out=y0)

        def rhs_vec(tt: float, y: np.ndarray) -> np.ndarray:
            """The RHS at ``y0`` gets a buffer of its own (every stage
            reads it) and the patches still hold what ``y0`` was packed
            from; a stage's RHS is consumed before the next is asked
            for, so those share one."""
            port.nfe += 1
            if y is y0:
                f = f0
            else:
                f = f_stage
                unpack_interiors(dobj, y)
            for lev in range(h.nlevels):
                data_port.exchange_ghosts(dobj.name, lev)
            for patch, f_part in zip(patches, _segments(interiors, f)):
                rhs_port.evaluate(tt, patch, dobj.array(patch), out=f_part)
            return f

        y1 = rkc_step(rhs_vec, t, y0, dt, rho, stages=s, work=stage_work)
        unpack_interiors(dobj, y1)
        comm = self.services.get_comm()
        if comm is not None:  # the step's compute, counted
            comm.charge("cell_stage", (port.nfe - nfe0) * (n // dobj.nvar))
        for lev in range(h.nlevels - 1, 0, -1):
            restrict_level(dobj, lev, comm=comm)
            data_port.exchange_ghosts(dobj.name, lev)
        data_port.exchange_ghosts(dobj.name, 0)
        if _obs.on:
            _obs.complete("rkc.advance", "integrator", t0,
                          dt=dt, stages=s, rho=rho, nfe=port.nfe - nfe0)
            reg = _obs_registry()
            reg.counter("integrator.steps", kind="rkc").inc()
            reg.counter("integrator.rhs_evals", kind="rkc").inc(
                port.nfe - nfe0)
            reg.gauge("integrator.rkc_stages").set(s)
        return t + dt
