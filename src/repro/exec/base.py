"""The execution-backend contract every transport implements."""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.errors import MPIError
from repro.mpi.perfmodel import MachineModel, LOCALHOST


class BackendUnavailableError(MPIError):
    """The selected backend cannot run in this environment (missing
    optional dependency, unsupported platform...).  The message says
    exactly what is missing and which backends *are* available."""


class ExecBackend:
    """One way of realizing "P processors running the same program".

    Subclasses provide :meth:`run`: execute ``main(comm, *args)`` on
    ``nprocs`` ranks and return ``(results, clocks)`` — per-rank return
    values and final virtual clocks, both in rank order — or raise
    :class:`~repro.mpi.launcher.RankFailure` over *every* rank that did
    not finish, the ones a peer's abort unblocked
    (:class:`~repro.errors.CommAbortedError`) included.  What the caller
    of :func:`repro.mpi.launcher.mpirun` sees of either — primary
    failures only, the teardown record, ``return_clocks`` — is
    ``mpirun``'s business, once for all backends.
    """

    #: registry name; also what cache keys and job records carry.
    name: str = "?"

    def available(self) -> tuple[bool, str]:
        """(usable-here?, reason-when-not)."""
        return True, ""

    def require_available(self) -> None:
        ok, reason = self.available()
        if not ok:
            from repro.exec import backend_names
            usable = [n for n in backend_names() if n != self.name]
            raise BackendUnavailableError(
                f"execution backend {self.name!r} is unavailable: {reason} "
                f"(usable backends: {', '.join(usable)})")

    def run(self, nprocs: int, main: Callable[..., Any],
            args: Sequence[Any] = (), machine: MachineModel = LOCALHOST,
            ) -> tuple[list[Any], list[float]]:
        raise NotImplementedError
