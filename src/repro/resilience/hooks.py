"""Driver-side checkpoint/restart hook.

:class:`CheckpointHook` is the small object an application driver embeds
in its step loop: it reads the driver's rc parameters, periodically saves
an application checkpoint (:mod:`repro.resilience.checkpoint`), restores
the latest valid one when ``resume`` is set, and fires the step-granular
fault hook (:func:`repro.resilience.faults.step_hook`) so an armed
rank-kill plan takes effect at a deterministic point — *after* the step's
checkpoint, never between a half-written shard pair.

Driver parameters (the rc ``parameter`` directive) are
:data:`CHECKPOINT_PARAMS`, which each driver splices into its ``PARAMS``.

The hook is deliberately framework-frugal: it talks to the driver's
:class:`~repro.cca.services.Services` handle and, through it, to the
mesh provider wired to the driver's ``mesh`` uses port — so any assembly
whose driver follows the step-loop convention gets checkpoint/restart
without new ports or wiring.
"""

from __future__ import annotations

import os
import time
from typing import TYPE_CHECKING

from repro.cca.component import Param
from repro.obs import trace as _obs
from repro.obs.metrics import get_registry as _obs_registry
from repro.resilience import faults as _faults

if TYPE_CHECKING:
    from repro.resilience.checkpoint import AppCheckpoint


#: the checkpoint/restart knobs every step-loop driver declares
CHECKPOINT_PARAMS = (
    Param("checkpoint_path", "str", "",
          doc="artifact prefix; empty = checkpointing off"),
    Param("checkpoint_interval", "int", 1, min=1,
          doc="steps between checkpoints"),
    Param("checkpoint_keep", "int", 0, min=0,
          doc="newest checkpoints to retain (0 = keep all)"),
    Param("resume", "bool", False,
          doc="restart from the latest valid checkpoint"),
)


class CheckpointHook:
    """Periodic checkpointing + restart for one driver's step loop.

    Construct inside the driver's ``run()`` once ports are wired; call
    :meth:`resume` before entering the loop and :meth:`after_step` at the
    end of every iteration.  ``mesh_uses`` names the driver's uses port
    wired to the SAMR provider; pass ``None`` for mesh-less assemblies
    (the 0D ignition code) — driver state then rides in ``extras``.
    """

    def __init__(self, services, mesh_uses: str | None = "mesh") -> None:
        self.services = services
        self.framework = services._framework
        self.path = services.get_parameter("checkpoint_path")
        self.interval = services.get_parameter("checkpoint_interval")
        self.keep = services.get_parameter("checkpoint_keep")
        self.want_resume = services.get_parameter("resume")
        self.comm = services.get_comm()
        #: shard id: None = serial (unsharded artifact), else comm rank
        self.rank = None if self.comm is None else self.comm.rank
        self.nranks = 1 if self.comm is None else self.comm.size
        self.mesh_uses = mesh_uses
        #: the checkpoint files' module, imported only by a hook that
        #: saves or resumes (a run without checkpoints never loads it)
        self._ckpt = None
        if self.path:
            from repro.resilience import checkpoint
            self._ckpt = checkpoint

    @property
    def enabled(self) -> bool:
        return bool(self.path) and self.interval > 0

    def _mesh_component(self):
        """The component providing the driver's mesh port (owns the
        hierarchy and the DataObjects), or None."""
        if self.mesh_uses is None:
            return None
        wired = self.framework.provider_of(
            self.services.instance_name, self.mesh_uses)
        if wired is None:
            return None
        return self.framework.get_component(wired[0])

    # -- saving ---------------------------------------------------------------
    def save(self, step: int, t: float, extras: dict | None = None) -> str:
        """Write this rank's shard of an app checkpoint at ``step``."""
        app_ckpt = self._ckpt
        t0 = time.perf_counter()
        mesh_comp = self._mesh_component()
        hierarchy = dataobjs = None
        if mesh_comp is not None:
            hierarchy = mesh_comp.require_hierarchy()
            dataobjs = mesh_comp.dataobjects()
        path = app_ckpt.save_app_checkpoint(
            self.path, step, t,
            hierarchy=hierarchy, dataobjs=dataobjs,
            component_states=self.framework.capture_state(),
            rank=self.rank, nranks=self.nranks,
            clock=0.0 if self.comm is None else self.comm.clock,
            extras=extras)
        if self.keep:
            app_ckpt.prune_old_steps(self.path, self.keep, rank=self.rank)
        if _obs.on:
            rank = 0 if self.rank is None else self.rank
            reg = _obs_registry()
            reg.counter("resilience.checkpoints", rank=rank).inc()
            reg.counter("resilience.checkpoint_bytes", rank=rank).inc(
                os.path.getsize(path))
            reg.histogram("resilience.checkpoint_seconds",
                          rank=rank).observe(time.perf_counter() - t0)
            reg.gauge("resilience.last_checkpoint_step", rank=rank).set(step)
            _obs.complete("resilience.checkpoint", "resilience", t0,
                          step=step, path=path)
        return path

    # -- restoring ------------------------------------------------------------
    def resume(self) -> AppCheckpoint | None:
        """Restore the latest valid checkpoint; None when there is none.

        On success the mesh provider adopts the restored hierarchy and
        DataObjects, every Checkpointable component gets its state back,
        and the rank's virtual clock is advanced to the saved value; the
        driver re-enters its loop at the returned ``step`` / ``t``.
        """
        if not (self.want_resume and self.path):
            return None
        app_ckpt = self._ckpt
        shards = None if self.rank is None else self.nranks
        step = app_ckpt.latest_valid_step(self.path, shards)
        if step is None:
            return None
        ck = app_ckpt.load_app_checkpoint(self.path, step, rank=self.rank)
        mesh_comp = self._mesh_component()
        if mesh_comp is not None and ck.hierarchy is not None:
            mesh_comp.adopt(ck.hierarchy, ck.dataobjs)
        self.framework.restore_state(ck.component_states)
        if self.comm is not None and ck.clock > self.comm.clock:
            self.comm.advance(ck.clock - self.comm.clock)
        if _obs.on:
            _obs_registry().counter(
                "resilience.restores",
                rank=0 if self.rank is None else self.rank).inc()
        return ck

    # -- the per-step call -----------------------------------------------------
    def saves(self, step: int) -> bool:
        """Whether :meth:`after_step` checkpoints at ``step``."""
        return self.enabled and step % self.interval == 0

    def after_step(self, step: int, t: float,
                   extras: dict | None = None) -> bool:
        """End-of-iteration hook: periodic save, then fault injection.

        Returns True when this step was checkpointed.  The order matters:
        an armed rank-kill fires *after* the checkpoint write, so a kill
        at step k restarts from k (or the newest earlier multiple of the
        interval), never from a torn artifact.
        """
        saved = self.saves(step)
        if saved:
            self.save(step, t, extras)
        if _faults.on:
            _faults.step_hook(
                0 if self.comm is None else self.comm.global_rank, step)
        return saved
