"""The ``threads`` backend: in-process rank-threads + virtual clocks.

This is the toolkit's original execution substrate, moved out of
:mod:`repro.mpi.launcher` unchanged in semantics: P rank-threads inside
one Python process, each owning a :class:`~repro.mpi.comm.Comm` onto a
shared :class:`~repro.mpi.comm.World`; compute time is charged from the
work the integrators count (or, under a model without prices, each
thread's CPU clock), communication from the machine model.  Deterministic
clocks, instant start-up, full support for the vector-clock race
sanitizer (the only backend with a shared address space to sanitize) —
and GIL-bound wall-clock, which is exactly what the ``mp`` backend
exists to escape.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Sequence

from repro.errors import CommAbortedError
from repro.exec.base import ExecBackend
from repro.mpi import sanitizer as _tsan
from repro.mpi.comm import WORLD_ID, Comm, World
from repro.mpi.perfmodel import MachineModel, LOCALHOST
from repro.obs import trace as _trace
from repro.util import logging as rlog


class ThreadsBackend(ExecBackend):
    """P rank-threads in this process (see module docstring)."""

    name = "threads"

    def run(self, nprocs: int, main: Callable[..., Any],
            args: Sequence[Any] = (), machine: MachineModel = LOCALHOST,
            ) -> tuple[list[Any], list[float]]:
        from repro.mpi.launcher import RankFailure

        world = World(nprocs, machine)
        results: list[Any] = [None] * nprocs
        clocks: list[float] = [0.0] * nprocs
        failures: dict[int, BaseException] = {}
        failures_lock = threading.Lock()

        # Thread-locals don't cross a Thread boundary: re-establish the
        # launching thread's trace context (job/trace ids from
        # repro.serve) inside every rank thread so rank spans stay
        # attributable to the job that spawned them.
        parent_ctx = _trace.current_context() if _trace.on else {}

        def runner(rank: int) -> None:
            comm = Comm(world, WORLD_ID, rank, list(range(nprocs)))
            # Rank-tag the thread for logging AND repro.obs trace
            # attribution; restored (not cleared) so the inline
            # nprocs == 1 path is safe.
            with rlog.rank_context(rank), _trace.context(**parent_ctx):
                try:
                    comm.reset_clock()  # don't charge thread start-up
                    results[rank] = main(comm, *args)
                    clocks[rank] = comm.clock
                except CommAbortedError as exc:
                    # Secondary failure: this rank was unblocked by a
                    # peer's abort.
                    with failures_lock:
                        failures.setdefault(rank, exc)
                except BaseException as exc:  # noqa: BLE001 - report all
                    with failures_lock:
                        failures[rank] = exc
                    world.abort(
                        f"rank {rank} raised {type(exc).__name__}: {exc}")

        # While the sanitizer is armed, give this world fresh vector
        # clocks and a fresh shadow table — the disabled cost is one
        # flag check.
        if _tsan.on:
            _tsan.world_begin(nprocs)
        try:
            if nprocs == 1:
                # Fast path: run inline (no thread) — keeps unit tests
                # cheap and tracebacks direct.
                runner(0)
            else:
                threads = [
                    threading.Thread(target=runner, args=(rank,),
                                     name=f"rank-{rank}")
                    for rank in range(nprocs)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
        finally:
            if _tsan.on:
                _tsan.world_end()

        if failures:
            raise RankFailure(failures)
        return results, clocks
