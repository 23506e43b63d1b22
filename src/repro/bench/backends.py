"""Execution-backend A/B bench: threads vs multiprocessing wall-clock.

The thread backend's virtual clocks model a parallel machine, but its
*real* wall-clock is GIL-bound: P rank-threads of pure-Python compute
share one core no matter how many the host has.  The mp backend exists
to change exactly that number, so this harness measures it honestly:
the Table 5 reaction-diffusion workload
(:func:`repro.bench.scaling.scaling_case`), same rank count, once per
backend, wall-clock timed.

KPI (lower = better): ``mp_over_threads``, the ratio of the best mp
wall time to the best threads wall time.  On a multi-core host the
ratio drops toward ``1/min(nprocs, cores)`` (real speedup); on a
single-core host mp pays fork/IPC overhead for no parallelism and the
ratio sits **above** 1 — that is the honest number, which is why every
run records ``cores`` alongside it and the regression gate's history is
host-filtered.  What must hold on *any* host is bit-identical physics,
asserted here on every run.
"""

from __future__ import annotations

import os
import time

from repro.bench.reporting import format_table
from repro.bench.scaling import scaling_case
from repro.mpi import ZERO_COST, mpirun
from repro.util.options import fast_mode

#: backends the A/B compares (registry names).
BACKENDS = ("threads", "mp")


def run_backend_ab(fast: bool | None = None, nprocs: int = 4,
                   rounds: int = 2) -> dict:
    """Time the same ``nprocs``-rank reaction-diffusion run on each
    backend; return rows, the ``mp_over_threads`` ratio, and a rendered
    report.  ``rounds`` runs per backend, best time kept (process
    start-up noise lands in the slower rounds)."""
    fast = fast_mode() if fast is None else fast
    nx, n_steps = (16, 2) if fast else (32, 4)

    def main(comm):
        return scaling_case(comm, nx, nx, n_steps)["T_max"]

    cores = os.cpu_count() or 1

    results: dict[str, dict] = {}
    for backend in BACKENDS:
        times = []
        t_max = None
        for _ in range(rounds):
            t0 = time.perf_counter()
            out = mpirun(nprocs, main, machine=ZERO_COST, backend=backend)
            times.append(time.perf_counter() - t0)
            t_max = out[0]
        results[backend] = {"times": times, "best": min(times),
                            "mean": sum(times) / len(times),
                            "T_max": t_max}

    # the property that holds on every host: identical physics
    t_maxes = {b: r["T_max"] for b, r in results.items()}
    if len(set(t_maxes.values())) != 1:
        raise AssertionError(
            f"backends disagree on T_max: {t_maxes}")

    ratio = results["mp"]["best"] / results["threads"]["best"]
    rows = [[b, nprocs, r["best"], r["mean"]]
            for b, r in results.items()]
    report = format_table(
        ["backend", "ranks", "best_s", "mean_s"], rows,
        title=(f"backend A/B — reaction-diffusion {nx}x{nx}, "
               f"{n_steps} steps, {nprocs} ranks, {cores} core(s); "
               f"mp/threads wall ratio = {ratio:.3f} "
               f"(speedup x{1.0 / ratio:.2f})"))
    return {
        "workload": {"app": "reaction_diffusion", "nx": nx, "ny": nx,
                     "n_steps": n_steps, "nprocs": nprocs,
                     "rounds": rounds},
        "cores": cores,
        "results": results,
        "mp_over_threads": ratio,
        "speedup": 1.0 / ratio,
        "T_max": t_maxes["threads"],
        "report": report,
    }
