"""The six workloads: set-up, the timed call, the traced call, the check.

Every workload drives the program through public entry points only
(``repro.apps.build_*``/``run_*``, ``repro.mpi.mpirun``,
``repro.serve.SimulationService``).  A workload object lives for one
repetition in one fresh process (see ``worker.py``):

``setup()``
    everything before the first call into the app or service — input
    generation, ``Framework`` build, service start and priming;
``run()``
    the timed call, tracing off;
``run_traced(recorder)``
    the same computation marched from the benchmark's side with a span
    around each call into a layer (must reproduce ``run()`` exactly);
``outcome(result)``
    operations attempted/failed, the physics checksum and the exact
    counts that ``reference.json`` pins;
``span_summary(recorder, result)``
    the traced run's spans reduced to self time per layer.

Sizes are the issue's meshes with step and job counts cut to fit the
driver's time cap (about 1-2 s per repetition on a 2-core host).  All
flame workloads use the default per-cell CVODE chemistry or
``chemistry_on=False`` — never ``chemistry_mode="batch"``.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import time
from typing import Any

import numpy as np

from repro.apps import (
    IGNITION0D_SCRIPT,
    build_reaction_diffusion,
    build_shock_interface,
    run_ignition0d,
)
from repro.cca.framework import Framework
from repro.hydro.diagnostics import hierarchy_interface_circulation
from repro.mpi import ZERO_COST, mpirun
from repro.serve import SimulationService

from spans import NullRecorder, SpanRecorder, summarize

ROOT_SPAN = "run"
STEP_SPAN = "step"


# ------------------------------------------------------------ assemblies
class FlameAssembly:
    """The reaction-diffusion assembly plus its driver loop marched by
    hand (``ReactionDiffusionDriver.run`` with a span per port call)."""

    checksum_keys = ("T_max",)
    count_keys = ("n_steps", "total_cells")

    def __init__(self, config: dict[str, Any], comm=None) -> None:
        self.config = config
        self.framework = Framework(comm=comm)
        build_reaction_diffusion(self.framework, **config)

    def go(self) -> dict[str, Any]:
        return self.framework.go("Driver")

    def march(self, rec: SpanRecorder) -> dict[str, Any]:
        services = self.framework.services_of("Driver")
        mesh = services.get_port("mesh")
        data = services.get_port("data")
        ic = services.get_port("ic")
        explicit = services.get_port("explicit")
        implicit = services.get_port("implicit")
        regrid = services.get_port("regrid")
        chem = services.get_port("chem")
        stats = services.get_port("stats")
        comm = services.get_comm()
        cfg = self.config
        n_steps = cfg["n_steps"]
        dt_fixed = cfg["dt"]
        regrid_interval = cfg.get("regrid_interval", 0)
        chemistry_on = cfg.get("chemistry_on", True)

        def fill_ghosts() -> None:
            for lev in range(h.nlevels):
                with rec.span("components.ghost"):
                    data.exchange_ghosts("flow", lev)

        with rec.span("components.other"):
            mesh.build_base_level()
            mech = chem.mechanism()
            dobj = data.declare("flow", mech.n_species + 1,
                                ["T"] + [f"Y_{nm}" for nm in mech.names])
            ic.initialize(dobj)
            h = mesh.hierarchy()
        fill_ghosts()
        for _ in range(cfg.get("initial_regrids", 0)):
            with rec.span("components.regrid"):
                regrid.regrid()
            with rec.span("components.other"):
                ic.initialize(dobj)
            fill_ghosts()

        t = 0.0
        cell_updates = 0
        for step in range(1, n_steps + 1):
            with rec.span(STEP_SPAN, unit=step):
                cell_updates += h.total_cells()
                if dt_fixed > 0.0:
                    dt = dt_fixed
                else:
                    with rec.span("components.explicit"):
                        dt = explicit.stable_dt([dobj], t)
                if chemistry_on:
                    with rec.span("components.implicit"):
                        implicit.advance([dobj], t, 0.5 * dt)
                with rec.span("components.explicit"):
                    explicit.advance([dobj], t, dt)
                if chemistry_on:
                    with rec.span("components.implicit"):
                        implicit.advance([dobj], t + 0.5 * dt, 0.5 * dt)
                t += dt
                if regrid_interval and step % regrid_interval == 0:
                    with rec.span("components.regrid"):
                        regrid.regrid()
                with rec.span("components.other"):
                    stats.record("T_max", t, dobj.max_norm(comm=comm, k=0))
                    stats.record("ncells", t, float(h.total_cells()))
        with rec.span("components.other"):
            t_max = dobj.max_norm(comm=comm, k=0)
        return {
            "t_final": t,
            "n_steps": n_steps,
            "T_max": t_max,
            "nlevels": h.nlevels,
            "total_cells": h.total_cells(),
            "history_T_max": stats.series("T_max"),
            "cell_updates": cell_updates,
            "patches_final": sum(len(lev.patches) for lev in h.levels),
            "cells_integrated": implicit.cells_integrated,
            "cells_offered": implicit.nsteps * h.total_cells(),
        }


class ShockAssembly:
    """The shock-interface assembly plus ``ShockInterfaceDriver.run``
    marched by hand."""

    checksum_keys = ("circulation_final",)
    count_keys = ("steps", "total_cells")
    #: the paper starts the shock at 0.2 of the tube and the interface at
    #: 0.4, so two thirds of a short run would be the shock crossing
    #: uniform gas.  Starting it just short of the interface keeps the
    #: physics (the shock hits the oblique interface and deposits
    #: vorticity) and spends the steps on the interaction.
    shock_x = 0.39

    def __init__(self, config: dict[str, Any], comm=None) -> None:
        self.config = config
        self.framework = Framework(comm=comm)
        build_shock_interface(self.framework, **config)
        for instance in ("ConicalInterfaceIC", "Driver"):
            self.framework.set_parameter(instance, "shock_x", self.shock_x)

    def go(self) -> dict[str, Any]:
        return self.framework.go("Driver")

    def march(self, rec: SpanRecorder) -> dict[str, Any]:
        services = self.framework.services_of("Driver")
        mesh = services.get_port("mesh")
        data = services.get_port("data")
        ic = services.get_port("ic")
        integrator = services.get_port("integrator")
        regrid = services.get_port("regrid")
        gas = services.get_port("gas")
        stats = services.get_port("stats")
        p = services.parameters
        comm = services.get_comm()

        gamma = float(gas.get("gamma", 1.4))
        t_end_over_tau = p.get_float("t_end_over_tau", 2.096)
        regrid_interval = p.get_int("regrid_interval", 4)

        with rec.span("components.other"):
            mesh.build_base_level()
            dobj = data.declare(
                "U", 5, ["rho", "mx", "my", "E", "rho_zeta"])
            ic.initialize(dobj)
            h = mesh.hierarchy()
        for lev in range(h.nlevels):
            with rec.span("components.ghost"):
                data.exchange_ghosts("U", lev)

        mach = p.get_float("mach", 1.5)
        angle = np.deg2rad(p.get_float("angle_deg", 30.0))
        height = p.get_float("y_extent", 0.5)
        shock_x = p.get_float("shock_x", 0.2)
        interface_x = p.get_float("interface_x", 0.4)
        a1 = np.sqrt(gamma * 1.0 / 1.0)
        w_shock = mach * a1
        tau = height * np.tan(angle) / w_shock
        t_contact = max(interface_x - shock_x, 0.0) / w_shock
        t_end = t_contact + t_end_over_tau * tau

        t, step = 0.0, 0
        cell_updates = 0
        gamma_series = []
        while t < t_end - 1e-12:
            with rec.span(STEP_SPAN, unit=step + 1):
                cell_updates += h.total_cells()
                with rec.span("components.rk2"):
                    dt = min(integrator.stable_dt([dobj], t), t_end - t)
                    integrator.advance([dobj], t, dt)
                t += dt
                step += 1
                if regrid_interval and h.max_levels > 1 \
                        and step % regrid_interval == 0:
                    with rec.span("components.regrid"):
                        regrid.regrid()
                with rec.span("components.other"):
                    circ = hierarchy_interface_circulation(dobj, gamma,
                                                           comm=comm)
                    stats.record("circulation", (t - t_contact) / tau, circ)
                    gamma_series.append(((t - t_contact) / tau, circ))
        return {
            "t_final": t,
            "tau": tau,
            "steps": step,
            "nlevels": h.nlevels,
            "total_cells": h.total_cells(),
            "circulation": gamma_series,
            "circulation_final": gamma_series[-1][1] if gamma_series else 0.0,
            "circulation_min": (min(c for _, c in gamma_series)
                                if gamma_series else 0.0),
            "cell_updates": cell_updates,
            "patches_final": sum(len(lev.patches) for lev in h.levels),
        }


def _simulation_outcome(assembly_cls, result: dict[str, Any]
                        ) -> dict[str, Any]:
    counts = {k: int(result[k]) for k in assembly_cls.count_keys}
    return {
        "attempted": 1,
        "failed": 0,
        "checksum": {k: float(result[k]) for k in assembly_cls.checksum_keys},
        "counts": counts,
        # steps x final cells is exact only for a single level; the
        # reference carries the exact sum over steps for the adaptive
        # hierarchies (recorded by the traced march)
        "work": int(result.get(
            "cell_updates",
            counts[assembly_cls.count_keys[0]] * counts["total_cells"])),
        # present only after the traced march
        "extra": {k: int(result[k]) for k in (
            "cell_updates", "patches_final", "cells_integrated",
            "cells_offered") if k in result},
    }


def _step_summary(rec: SpanRecorder) -> dict[str, Any]:
    summary = summarize(rec, ROOT_SPAN, (STEP_SPAN,))
    summary["unit_ms"] = [1e3 * d for d in rec.durations(STEP_SPAN)]
    return summary


class _Workload:
    """Nothing to prepare and nothing to release, unless a family says
    otherwise."""

    def setup(self) -> None:
        pass

    def teardown(self) -> None:
        pass


# ---------------------------------------------------------------- serial
class _Serial(_Workload):
    """One serial simulation: assembled in ``setup``, run through the
    driver's ``go`` port.  The three configurations are the paper's and
    do not depend on the seed."""

    assembly_cls: type
    full_config: dict[str, Any]
    tiny_config: dict[str, Any]

    def __init__(self, seed: int, work_dir: str, tiny: bool) -> None:
        self.config = dict(self.tiny_config if tiny else self.full_config)
        self.assembly = None

    def setup(self) -> None:
        self.assembly = self.assembly_cls(self.config)

    def run(self) -> dict[str, Any]:
        return self.assembly.go()

    def run_traced(self, rec: SpanRecorder) -> dict[str, Any]:
        with rec.span(ROOT_SPAN):
            return self.assembly.march(rec)

    def outcome(self, result: dict[str, Any]) -> dict[str, Any]:
        return _simulation_outcome(self.assembly_cls, result)

    def span_summary(self, rec: SpanRecorder, result: dict[str, Any]
                     ) -> tuple[dict[str, Any], list[SpanRecorder]]:
        return _step_summary(rec), [rec]


class FlameCvode(_Serial):
    assembly_cls = FlameAssembly
    full_config = dict(nx=16, ny=16, max_levels=1, n_steps=1, dt=1e-7)
    tiny_config = dict(nx=8, ny=8, max_levels=1, n_steps=1, dt=1e-7)


class FlameDiffusionAmr(_Serial):
    assembly_cls = FlameAssembly
    full_config = dict(nx=64, ny=64, max_levels=3, n_steps=6, dt=2e-7,
                       regrid_interval=4, initial_regrids=1, threshold=0.15,
                       chemistry_on=False)
    tiny_config = dict(nx=16, ny=16, max_levels=2, n_steps=2, dt=2e-7,
                       regrid_interval=2, initial_regrids=1, threshold=0.15,
                       chemistry_on=False)


class ShockAmr(_Serial):
    assembly_cls = ShockAssembly
    full_config = dict(nx=64, ny=32, max_levels=2, t_end_over_tau=0.1)
    tiny_config = dict(nx=16, ny=8, max_levels=2, t_end_over_tau=0.1)


# ------------------------------------------------------------------ SCMD
class _Scmd(_Workload):
    """Two ranks run the diffusion-only flame.  Each rank assembles its
    own framework inside ``mpirun`` (that is what SCMD means), so there
    is nothing to prepare in ``setup``."""

    backend: str
    nprocs = 2
    full_config = dict(nx=128, ny=128, max_levels=1, n_steps=24, dt=1e-7,
                       chemistry_on=False)
    tiny_config = dict(nx=32, ny=32, max_levels=1, n_steps=3, dt=1e-7,
                       chemistry_on=False)

    def __init__(self, seed: int, work_dir: str, tiny: bool) -> None:
        self.config = dict(self.tiny_config if tiny else self.full_config)

    def run(self) -> list[dict[str, Any]]:
        def main(comm):
            return FlameAssembly(self.config, comm).go()
        return mpirun(self.nprocs, main, machine=ZERO_COST,
                      backend=self.backend)

    def run_traced(self, rec: SpanRecorder) -> list[dict[str, Any]]:
        """Each rank marches its own loop with its own recorder and
        hands the spans home with its result."""
        def main(comm):
            rank_rec = SpanRecorder(f"{rec.workload}.rank{comm.rank}")
            with rank_rec.span(ROOT_SPAN):
                with rank_rec.span("components.other"):
                    assembly = FlameAssembly(self.config, comm)
                result = assembly.march(rank_rec)
            result["spans"] = rank_rec.spans
            return result
        with rec.span(ROOT_SPAN):
            return mpirun(self.nprocs, main, machine=ZERO_COST,
                          backend=self.backend)

    def outcome(self, results: list[dict[str, Any]]) -> dict[str, Any]:
        out = _simulation_outcome(FlameAssembly, results[0])
        # the reduced T_max must be the same number on every rank
        if any(r["T_max"] != results[0]["T_max"] for r in results):
            out["failed"] = 1
        return out

    def span_summary(self, rec: SpanRecorder, results: list[dict[str, Any]]
                     ) -> tuple[dict[str, Any], list[SpanRecorder]]:
        """The decomposition is rank 0's loop (both ranks run the same
        program); what ``mpirun`` costs around the ranks' loops is the
        launcher's share."""
        recorders = [rec]
        for rank, result in enumerate(results):
            rank_rec = SpanRecorder(f"{rec.workload}.rank{rank}")
            rank_rec.spans = result.pop("spans")
            recorders.append(rank_rec)
        wall = summarize(rec, ROOT_SPAN)["wall_s"]
        summary = _step_summary(recorders[1])
        rank_wall = summary["wall_s"]
        summary["self_s"]["exec.mpirun"] = max(wall - rank_wall, 0.0)
        summary["accounted_frac"] = (
            summary["accounted_frac"] * rank_wall + wall - rank_wall) / wall
        summary["wall_s"] = wall
        return summary, recorders


class ScmdThreads(_Scmd):
    backend = "threads"


class ScmdMp(_Scmd):
    backend = "mp"


# ----------------------------------------------------------------- serve
SERVE_PARAMS = {"ThermoChemistry.mechanism": "h2-lite", "Driver.t_end": 1e-5}


def _serve_params(t0: float) -> dict[str, Any]:
    return {**SERVE_PARAMS, "Initializer.T0": t0}


def _draw_t0(rng: random.Random, n: int) -> list[float]:
    """``n`` distinct initial temperatures in [1000, 1200) K, one per
    equal slice of the range so that every seed covers it evenly."""
    width = 200.0 / n
    values = [round(1000.0 + width * (i + rng.random()), 3)
              for i in range(n)]
    rng.shuffle(values)
    return values


class ServeCold(_Workload):
    """The write side of serve on a fresh root: a batched sweep plus
    singles that name a backend, which keeps them out of the batch and
    sends them through the supervised runner and the full framework.
    One closed-loop client and one worker: under the interpreter lock a
    second worker buys no wall time here (CPU time equals wall time
    either way) and its lock hand-off on a shared host doubles the
    run-to-run spread.

    The read side (a cache hit per submit) is checked in ``outcome`` and
    timed per layer only: a hit is mostly directory and file creation in
    the job store, whose cost on the host's file system varies several
    times over from one minute to the next."""

    def __init__(self, seed: int, work_dir: str, tiny: bool) -> None:
        self.rng = random.Random(seed)
        self.tiny = tiny
        self.root = os.path.join(work_dir, "serve-root")
        self.service: SimulationService | None = None

    def setup(self) -> None:
        n_sweep, n_single = (4, 2) if self.tiny else (8, 4)
        values = _draw_t0(self.rng, n_sweep + n_single)
        self.sweep_t0 = values[:n_sweep]
        self.single_t0 = values[n_sweep:]
        shutil.rmtree(self.root, ignore_errors=True)
        self.service = SimulationService(self.root, workers=1, batch_size=8)

    def teardown(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None
        shutil.rmtree(self.root, ignore_errors=True)

    def run(self, rec: SpanRecorder | NullRecorder = NullRecorder()
            ) -> dict[str, Any]:
        svc = self.service
        # id -> (submitted at, T0, backend named)
        submitted: dict[str, tuple[float, float, str]] = {}

        def sweep() -> None:
            at = time.time()
            with rec.span("serve.submit"):
                ids = svc.sweep(IGNITION0D_SCRIPT,
                                {"Initializer.T0": self.sweep_t0},
                                params=SERVE_PARAMS)
            # sweep() walks the grid in the order given
            for job_id, t0 in zip(ids, self.sweep_t0):
                submitted[job_id] = (at, t0, "")

        def singles() -> None:
            for t0 in self.single_t0:
                at = time.time()
                with rec.span("serve.submit"):
                    job_id = svc.submit(IGNITION0D_SCRIPT,
                                        params=_serve_params(t0),
                                        backend="threads")
                submitted[job_id] = (at, t0, "threads")

        out: dict[str, Any] = {"ok": [], "latency_ms": [], "jobs": []}
        with rec.span(ROOT_SPAN):
            # always in this order: which goes first changes the cost
            # (sweep first read 15 % slower with two workers), and the
            # driver reads a difference between seeds as noise
            singles()
            sweep()
            with rec.span("serve.drain"):
                svc.drain()
            for job_id, (at, t0, backend) in submitted.items():
                with rec.span("serve.result", unit=job_id):
                    record = svc.status(job_id)
                    done = record["state"] == "done"
                    result = svc.result(job_id)["result"] if done else None
                out["ok"].append(done and result["T0"] == t0)
                out["jobs"].append((t0, backend, result))
                if done:
                    out["latency_ms"].append(
                        1e3 * (record["finished"] - at))
        return out

    run_traced = run

    def span_summary(self, rec: SpanRecorder, result: dict[str, Any]
                     ) -> tuple[dict[str, Any], list[SpanRecorder]]:
        summary = summarize(rec, ROOT_SPAN)
        summary["unit_ms"] = result["latency_ms"]
        return summary, [rec]

    def outcome(self, out: dict[str, Any]) -> dict[str, Any]:
        svc = self.service
        failed = out["ok"].count(False)
        # serve's contract is bitwise equality with a sequential run:
        # recompute one job (picked by the seed) outside the service
        t0, _backend, result = self.rng.choice(out["jobs"])
        err = 0.0
        if result is not None:
            want = float(run_ignition0d(mechanism="h2-lite", T0=t0,
                                        t_end=1e-5)["T_final"])
            err = abs(result["T_final"] - want) / abs(want)
        # the read side: every job submitted again comes back from the
        # cache, and the cached payload is the cold payload exactly
        cached_ms = []
        for t0, backend, result in out["jobs"]:
            begin = time.perf_counter()
            job_id = svc.submit(IGNITION0D_SCRIPT, params=_serve_params(t0),
                                backend=backend)
            svc.drain()
            payload = svc.result(job_id)
            cached_ms.append(1e3 * (time.perf_counter() - begin))
            if not (payload["cache_hit"] and payload["result"] == result):
                failed += 1
        stats = svc.stats()
        tenant = stats["tenants"].get("default", {})
        return {
            "attempted": 2 * len(out["jobs"]),
            "failed": failed,
            "result_err": err,
            "checksum": {},
            "counts": {"jobs": len(out["jobs"])},
            "work": len(out["jobs"]),
            "unit_ms": out["latency_ms"],
            "serve": {
                "jobs_failed": stats["jobs"]["failed"],
                "cache_hit_ratio": tenant.get("cache_hit_ratio", 0.0),
                "batch_occupancy_mean": stats["batching"]["mean_occupancy"],
                "cached_roundtrip_ms": statistics.median(cached_ms),
            },
        }


WORKLOADS = {
    "flame_cvode": FlameCvode,
    "flame_diffusion_amr": FlameDiffusionAmr,
    "shock_amr": ShockAmr,
    "scmd_threads": ScmdThreads,
    "scmd_mp": ScmdMp,
    "serve_cold": ServeCold,
}
