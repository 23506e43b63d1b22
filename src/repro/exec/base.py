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

    Subclasses provide :meth:`run` with the exact semantics of the
    historical :func:`repro.mpi.launcher.mpirun`: execute
    ``main(comm, *args)`` on ``nprocs`` ranks, return per-rank results
    in rank order, raise :class:`~repro.mpi.launcher.RankFailure`
    carrying every primary traceback when any rank fails.
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
            return_clocks: bool = False) -> list[Any]:
        raise NotImplementedError
