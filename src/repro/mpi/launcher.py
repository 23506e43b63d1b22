"""``mpirun`` — the SCMD job launcher, dispatching to execution backends.

"A CCAFFEINE job is generally started using mpirun (or equivalent): P
instances of the framework, run with the same script, cause P identically
configured frameworks to load and exist on as many processors."  *Which*
processors is a transport choice made at launch time through the
:mod:`repro.exec` backend registry:

* ``threads`` (default) — rank-threads inside this process with virtual
  clocks (:mod:`repro.exec.threads`);
* ``mp`` — real worker processes, pipes plus shared memory for bulk arrays
  (:mod:`repro.exec.mp`);
* anything a site adds with :func:`repro.exec.register`.

Shared-state hazard (``threads`` backend only): real MPI ranks get
private address spaces; rank-threads do **not**.  Module-level mutable
objects and mutated class attributes alias across ranks — run ``python
-m repro.analysis`` (the RA2xx findings in
:mod:`repro.analysis.scmd_safety`) to flag such state before launching,
and mark deliberate singletons ``# scmd: shared``.  The ``mp`` backend
gives every rank a private address space, which is why the runtime race
sanitizer only arms under ``threads``.
"""

from __future__ import annotations

import traceback
from typing import Any, Callable, Sequence

from repro.errors import CommAbortedError, MPIError
from repro.mpi.perfmodel import MachineModel, LOCALHOST


class RankFailure(MPIError):
    """One or more ranks raised; carries per-rank tracebacks.

    Built from every rank that did not finish, it keeps the primary
    failures only when there are any: a world-abort cascade otherwise
    shows every waiting rank (a :class:`~repro.errors.CommAbortedError`
    each) as failed.

    Under the ``mp`` backend the original exception objects
    died with their worker processes; what crosses back is the pickled
    traceback *text* (a :class:`RemoteRankError` carrying
    ``remote_traceback``), rendered here exactly like a local one.
    """

    def __init__(self, failures: dict[int, BaseException]) -> None:
        failures = {r: e for r, e in failures.items()
                    if not isinstance(e, CommAbortedError)} or failures
        self.failures = failures
        lines = []
        for rank, exc in sorted(failures.items()):
            remote = getattr(exc, "remote_traceback", None)
            if remote:
                tb = remote
            else:
                tb = "".join(
                    traceback.format_exception(type(exc), exc,
                                               exc.__traceback__)
                )
            lines.append(f"--- rank {rank} ---\n{tb}")
        super().__init__(
            f"{len(failures)} rank(s) failed:\n" + "\n".join(lines)
        )


class RemoteRankError(MPIError):
    """An exception re-raised on behalf of a worker-process rank.

    ``remote_traceback`` holds the worker's formatted traceback;
    ``remote_type`` the original exception class name.
    """

    def __init__(self, remote_type: str, message: str,
                 remote_traceback: str) -> None:
        super().__init__(f"{remote_type}: {message}")
        self.remote_type = remote_type
        self.remote_traceback = remote_traceback


def mpirun(
    nprocs: int,
    main: Callable[..., Any],
    args: Sequence[Any] = (),
    machine: MachineModel = LOCALHOST,
    return_clocks: bool = False,
    backend: str | None = None,
) -> list[Any]:
    """Run ``main(comm, *args)`` on ``nprocs`` ranks.

    Returns the per-rank return values (rank order).  If any rank raises,
    the world is aborted (unblocking its peers) and :class:`RankFailure`
    is raised with every original traceback.

    With ``return_clocks=True`` each entry becomes ``(value, virtual_time)``
    where ``virtual_time`` is the rank's final clock — the number the
    scaling benches report.

    ``backend`` selects the execution transport (``"threads"``, ``"mp"``);
    ``None`` defers to the ``REPRO_BACKEND`` environment
    variable, then the ``threads`` default.  Same components, same SCMD
    code paths — only the transport changes.
    """
    from repro.exec import get_backend
    from repro.obs import trace as _trace

    if nprocs < 1:
        raise MPIError(f"nprocs must be >= 1, got {nprocs}")
    impl = get_backend(backend)
    impl.require_available()
    # One enclosing span per world launch: the joint that links a serve
    # job's scheduler/supervisor spans (via the thread's trace context)
    # to the rank spans the backend produces or ships home.
    with _trace.span("mpi.world", "launcher", nprocs=nprocs,
                     backend=impl.name):
        results, clocks = impl.run(nprocs, main, args=args, machine=machine)
        if _trace.on and nprocs > 1:
            # Teardown aggregation: every traced SCMD run records each
            # rank's final virtual clock plus the reduced summary
            # (max/avg imbalance, p95, ...) into the default registry —
            # the per-rank breakdown the scaling benches and the metrics
            # JSON report.
            from repro.obs.aggregate import record_rank_clocks
            summary = record_rank_clocks(clocks)
            _trace.instant(
                "mpi.world_teardown", "launcher", nprocs=nprocs,
                imbalance=summary["stats"]["imbalance"],
                clock_max=summary["stats"]["max"],
                clock_mean=summary["stats"]["mean"])
    return list(zip(results, clocks)) if return_clocks else results
