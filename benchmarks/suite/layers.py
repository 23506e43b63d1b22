"""Per-layer micro-timings, measured from outside each layer.

One layer is one ``src/repro/<module>``.  Each function below times the
layer's public kernel on generated inputs (arrays drawn from the seed)
and returns ``{metric name: value}``; ``measure_all`` runs them all in
one process.  A value is the median over a few batches of calls, each
batch long enough for the clock (``_per_call``).  These numbers do not
depend on the workload: they say what one port hop, one RHS evaluation,
one ghost cell or one store transition costs today, so that a change in
a workload's wall time can be laid against the layer that moved.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
from typing import Any, Callable

import numpy as np

from repro.analysis.contracts import check_job
from repro.apps import (
    IGNITION0D_SCRIPT,
    build_ignition0d,
    build_reaction_diffusion,
    run_ignition0d,
)
from repro.cca.component import Component
from repro.cca.framework import Framework
from repro.cca.port import Port
from repro.chemistry.h2_air import h2_air_mechanism, stoichiometric_h2_air
from repro.chemistry.h2_lite import h2_lite_mechanism
from repro.chemistry.zerod import ConstantVolumeReactor
from repro.exec.shm import decode_message, encode_message, min_shm_bytes
from repro.hydro import efm_flux, euler_rhs, godunov_flux, prim_to_cons
from repro.integrators.cvode import CVode
from repro.integrators.rkc import rkc_step
from repro.mpi import ZERO_COST, mpirun
from repro.resilience.runner import run_supervised
from repro.serve import JobSpec, SimulationService, apply_overrides
from repro.serve import jobs as J
from repro.transport.diffusion import MixtureTransport

from spans import NullRecorder
from workloads import SERVE_PARAMS, ShockAssembly

GAMMA = 1.4
N_STATES = 4096


def _per_call(fn: Callable[[], Any], min_time: float = 0.03,
              batches: int = 5) -> float:
    """Median seconds per call of ``fn`` over ``batches`` batches, each
    sized to last at least ``min_time``."""
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        elapsed = time.perf_counter() - t0
        if elapsed >= min_time:
            break
        n = max(2 * n, int(1.2 * n * min_time / max(elapsed, 1e-9)) + 1)
    samples = [elapsed / n]
    for _ in range(batches - 1):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - t0) / n)
    return statistics.median(samples)


# ------------------------------------------------------------------- cca
class _EchoPort(Port):
    def ping(self) -> int:
        return 1


class _EchoProvider(Component):
    def set_services(self, services) -> None:
        services.add_provides_port(_EchoPort(), "echo")


class _EchoUser(Component):
    def set_services(self, services) -> None:
        self.services = services
        services.register_uses_port("echo", "_EchoPort")


def cca(rng: np.random.Generator) -> dict[str, float]:
    framework = Framework()
    framework.registry.register_many([_EchoProvider, _EchoUser])
    framework.instantiate("_EchoProvider", "provider")
    framework.instantiate("_EchoUser", "user")
    framework.connect("user", "echo", "provider", "echo")
    services = framework.services_of("user")
    port = services.get_port("echo")
    direct = _EchoPort().ping
    via_port = port.ping

    def checkout() -> None:
        services.get_port("echo").ping()
        services.release_port("echo")

    out = {
        "cca.port_call_direct_ns": 1e9 * _per_call(direct),
        "cca.port_call_getport_ns": 1e9 * _per_call(via_port),
        "cca.get_port_release_ns": 1e9 * _per_call(checkout),
        "cca.assembly_build_ms": 1e3 * _per_call(
            lambda: build_reaction_diffusion(Framework())),
    }
    out.update(_port_overhead())
    return out


def _seeded_lite_mixture(mech) -> np.ndarray:
    """Stoichiometric H2-air plus a trace of H: the lite mechanism has
    no initiation step, so without the seed a cell does no work."""
    Y = np.zeros(mech.n_species)
    for name, value in stoichiometric_h2_air().items():
        if name in mech.names:
            Y[mech.species_index(name)] = value
    Y[mech.species_index("H")] = 1e-4
    return Y / Y.sum()


def _port_overhead(n_pairs: int = 8, t_end: float = 2e-8
                   ) -> dict[str, float]:
    """Table 4 analog: the same cell integrated through the assembly's
    ports and through plain library calls.  The two paths alternate cell
    by cell and the ratio is taken pair by pair, so that a slow spell of
    the host falls on both."""
    T0, rtol, atol = 1200.0, 1e-6, 1e-10
    framework = Framework()
    build_ignition0d(framework, mechanism="h2-lite", T0=T0, t_end=t_end,
                     rtol=rtol, atol=atol)
    services = framework.services_of("Driver")
    solver = services.get_port("solver")
    model = services.get_port("model")
    y_init = services.get_port("ic").initial_state()
    mech = services.get_port("chem").mechanism()
    y_init[1:-1] = _seeded_lite_mixture(mech)
    model.configure(float(y_init[0]), float(y_init[-1]), y_init[1:-1])

    lite = h2_lite_mechanism()
    reactor = ConstantVolumeReactor(lite, T0, 101325.0,
                                    _seeded_lite_mixture(lite))
    y_lib = reactor.initial_state()

    def through_ports() -> None:
        solver.integrate(0.0, y_init.copy(), t_end)

    def library() -> None:
        CVode(reactor.rhs, 0.0, y_lib.copy(), rtol=rtol, atol=atol,
              method="bdf").integrate_to(t_end)

    def cpu(fn: Callable[[], None]) -> float:
        t0 = time.process_time()
        fn()
        return time.process_time() - t0

    ratios = []
    for pair in range(n_pairs):
        if pair % 2:
            t_library, t_ports = cpu(library), cpu(through_ports)
        else:
            t_ports, t_library = cpu(through_ports), cpu(library)
        ratios.append(t_ports / t_library)
    return {"cca.port_overhead_pct":
            100.0 * (statistics.median(ratios) - 1.0)}


# ------------------------------------------------- chemistry / transport
def _h2_air_states(rng: np.random.Generator, mech
                   ) -> tuple[np.ndarray, np.ndarray]:
    T = rng.uniform(800.0, 2000.0, N_STATES)
    Y = rng.uniform(0.0, 1.0, (mech.n_species, N_STATES))
    Y /= Y.sum(axis=0)
    rho = mech.density(T, 101325.0, Y)
    return T, mech.concentrations(rho, Y)


def _hot_reactor(mech) -> ConstantVolumeReactor:
    return ConstantVolumeReactor(mech, 1400.0, 101325.0,
                                 stoichiometric_h2_air())


def chemistry(rng: np.random.Generator) -> dict[str, float]:
    mech = h2_air_mechanism()
    T, C = _h2_air_states(rng, mech)
    reactor = _hot_reactor(mech)
    y0 = reactor.initial_state()
    transport = MixtureTransport(mech)
    return {
        "chemistry.wdot_us_per_cell":
            1e6 * _per_call(lambda: mech.wdot(T, C)) / N_STATES,
        "chemistry.rhs_scalar_us":
            1e6 * _per_call(lambda: reactor.rhs(0.0, y0)),
        "transport.diffcoef_us_per_cell": 1e6 * _per_call(
            lambda: transport.diffusion_coefficients(T, 101325.0))
            / N_STATES,
    }


# ----------------------------------------------------------- integrators
def integrators(rng: np.random.Generator) -> dict[str, float]:
    reactor = _hot_reactor(h2_air_mechanism())
    y0 = reactor.initial_state()
    half_dt = 5e-8  # flame_cvode advances the chemistry by dt/2 = 5e-8 s

    def solve() -> None:
        CVode(reactor.rhs, 0.0, y0.copy(), rtol=1e-8,
              atol=1e-12).integrate_to(half_dt)

    solver = CVode(reactor.rhs, 0.0, y0.copy(), rtol=1e-8, atol=1e-12)

    patch = rng.uniform(0.0, 1.0, (64, 64))
    stages = 8

    def decay(t: float, y: np.ndarray) -> np.ndarray:
        return -y

    return {
        "integrators.cvode.cell_solve_ms": 1e3 * _per_call(solve),
        "integrators.cvode.step_us": 1e6 * _per_call(solver.step),
        # a trivial RHS, so the time is RKC's own stage arithmetic
        "integrators.rkc.stage_us_per_cell": 1e6 * _per_call(
            lambda: rkc_step(decay, 0.0, patch, 1e-3, 1.0, stages=stages))
            / (stages * patch.size),
    }


# ----------------------------------------------------------------- hydro
def hydro(rng: np.random.Generator) -> dict[str, float]:
    def prim(shape) -> tuple[np.ndarray, ...]:
        return (rng.uniform(0.5, 3.0, shape), rng.uniform(-1.0, 1.0, shape),
                rng.uniform(-1.0, 1.0, shape), rng.uniform(0.5, 3.0, shape),
                rng.uniform(0.0, 1.0, shape))

    left, right = prim(N_STATES), prim(N_STATES)
    nx, ny, g = 64, 32, 2
    U = prim_to_cons(*prim((nx + 2 * g, ny + 2 * g)), GAMMA)
    return {
        "hydro.godunov_flux_us_per_face": 1e6 * _per_call(
            lambda: godunov_flux(left, right, GAMMA)) / N_STATES,
        "hydro.efm_flux_us_per_face": 1e6 * _per_call(
            lambda: efm_flux(left, right, GAMMA)) / N_STATES,
        "hydro.euler_rhs_us_per_cell": 1e6 * _per_call(
            lambda: euler_rhs(U, 1.0 / nx, 0.5 / ny, GAMMA, nghost=g))
            / (nx * ny),
    }


# ------------------------------------------------------------------ samr
def samr(rng: np.random.Generator) -> dict[str, float]:
    """Ghost fill, regrid and the RK2 port on the shock workload's
    two-level hierarchy, a few steps into the run."""
    assembly = ShockAssembly(
        dict(nx=64, ny=32, max_levels=2, t_end_over_tau=0.01))
    assembly.march(NullRecorder())
    services = assembly.framework.services_of("Driver")
    data = services.get_port("data")
    regrid = services.get_port("regrid")
    integrator = services.get_port("integrator")
    dobj = data.data("U")
    h = services.get_port("mesh").hierarchy()
    ghost_cells = sum(
        int(np.prod(dobj.array(p).shape[1:]))
        - int(np.prod(dobj.interior(p).shape[1:]))
        for p in dobj.owned_patches())

    def fill() -> None:
        for lev in range(h.nlevels):
            data.exchange_ghosts("U", lev)

    def step() -> None:
        integrator.advance([dobj], 0.0, 1e-5)

    return {
        "samr.ghost_us_per_ghost_cell": 1e6 * _per_call(fill) / ghost_cells,
        "integrators.rk2.step_us_per_cell":
            1e6 * _per_call(step, batches=3) / h.total_cells(),
        "samr.regrid_ms": 1e3 * _per_call(regrid.regrid, batches=3),
    }


# ------------------------------------------------------------ mpi / exec
def _comm_probe(comm) -> dict[str, float]:
    """Runs on both ranks; rank 0's timings are reported."""
    peer = 1 - comm.rank
    small = b"x" * 64
    big = np.zeros(1 << 17)  # 1 MiB of float64

    def pingpong(payload, n: int) -> float:
        comm.barrier()
        t0 = time.perf_counter()
        for _ in range(n):
            if comm.rank == 0:
                comm.send(payload, peer, tag=1)
                comm.recv(peer, tag=2)
            else:
                comm.recv(peer, tag=1)
                comm.send(payload, peer, tag=2)
        return (time.perf_counter() - t0) / n

    def allreduce(n: int) -> float:
        comm.barrier()
        t0 = time.perf_counter()
        for _ in range(n):
            comm.allreduce(1.0)
        return (time.perf_counter() - t0) / n

    round_trip = statistics.median(pingpong(small, 100) for _ in range(3))
    big_trip = statistics.median(pingpong(big, 10) for _ in range(3))
    reduce_s = statistics.median(allreduce(100) for _ in range(3))
    return {
        "pingpong_us": 1e6 * round_trip,
        # two 1 MiB messages cross per round trip
        "bandwidth_MBps": 2.0 * big.nbytes / big_trip / 1e6,
        "allreduce_us": 1e6 * reduce_s,
    }


def mpi_exec(rng: np.random.Generator) -> dict[str, float]:
    out: dict[str, float] = {}
    for backend in ("threads", "mp"):
        probe = mpirun(2, _comm_probe, machine=ZERO_COST,
                       backend=backend)[0]
        for key, value in probe.items():
            out[f"mpi.{backend}.{key}"] = value
        out[f"exec.{backend}.launch_teardown_ms"] = 1e3 * _per_call(
            lambda: mpirun(2, lambda comm: None, machine=ZERO_COST,
                           backend=backend), batches=3)

    def round_trip(message: np.ndarray) -> Callable[[], Any]:
        return lambda: decode_message(encode_message(message)[0])

    # just below the shared-segment threshold the message rides the pipe
    inband = rng.uniform(size=(min_shm_bytes() - 8) // 8)
    segment = rng.uniform(size=1 << 17)
    out["exec.shm.roundtrip_us_inband"] = 1e6 * _per_call(round_trip(inband))
    out["exec.shm.roundtrip_us_segment"] = 1e6 * _per_call(
        round_trip(segment))
    return out


# ----------------------------------------------------------------- serve
def serve(rng: np.random.Generator, work_dir: str) -> dict[str, float]:
    """Each store and cache operation at a small and a large store: the
    cost of a round trip grows with the number of jobs on disk."""
    out: dict[str, float] = {}
    params = {**SERVE_PARAMS, "Initializer.T0": 1100.0}
    result = run_ignition0d(mechanism="h2-lite", T0=1100.0, t_end=1e-5)
    for size in (8, 1008):
        root = os.path.join(work_dir, f"serve-layers-{size}")
        shutil.rmtree(root, ignore_errors=True)
        try:
            with SimulationService(root, workers=1,
                                   autostart=False) as svc:
                spec = JobSpec(script=IGNITION0D_SCRIPT, params=params)
                for _ in range(size):
                    svc.store.new_job(spec)
                key = svc.cache.key(IGNITION0D_SCRIPT, params)
                svc.cache.put(key, result)
                job_id = svc.store.new_job(spec).job_id
                timings = {
                    "serve.submit_ms": lambda: svc.submit(
                        IGNITION0D_SCRIPT, params=params),
                    "serve.admission_ms": lambda: check_job(
                        IGNITION0D_SCRIPT, params),
                    "serve.store_new_job_ms": lambda: svc.store.new_job(spec),
                    "serve.store_transition_ms": lambda: svc.store.transition(
                        job_id, (J.QUEUED,), cache_key=key),
                    "serve.cache_get_ms": lambda: svc.cache.get(key),
                    "serve.cache_put_ms": lambda: svc.cache.put(key, result),
                }
                for name, fn in timings.items():
                    out[f"{name}.n{size}"] = 1e3 * _per_call(
                        fn, min_time=0.02, batches=3)
        finally:
            shutil.rmtree(root, ignore_errors=True)

    # the same job through the supervised runner (script parse, assembly,
    # report) and as a bare library call, alternating so that a slow
    # spell of the host falls on both
    script = apply_overrides(IGNITION0D_SCRIPT, params)
    extra = []
    for _ in range(3):
        t0 = time.perf_counter()
        run_supervised(script, retries=0, backend="threads")
        t1 = time.perf_counter()
        run_ignition0d(mechanism="h2-lite", T0=1100.0, t_end=1e-5)
        extra.append((t1 - t0) - (time.perf_counter() - t1))
    out["serve.single_run_overhead_ms"] = 1e3 * statistics.median(extra)
    return out


def measure_all(seed: int, work_dir: str) -> dict[str, float]:
    rng = np.random.default_rng(seed)
    out: dict[str, float] = {}
    for layer in (cca, chemistry, integrators, hydro, samr, mpi_exec):
        out.update(layer(rng))
    out.update(serve(rng, work_dir))
    return out
