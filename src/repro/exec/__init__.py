"""``repro.exec`` — pluggable execution backends behind one runner API.

The paper's SCMD model is "P instances of the framework started by
mpirun".  *How* those P processors are realized is a transport choice,
not an application choice — FLASH swaps its parallel transport without
touching component code, and hydroFlow's ``produtil.mpi_impl`` selects
among interchangeable launchers (``mpiexec``, ``mpirun_lsf``,
``no_mpi``) at runtime.  This package adopts that shape for the
toolkit: :func:`repro.mpi.launcher.mpirun` is a thin dispatcher over a
backend registry, and the same rc-scripts / components / SCMD code
paths run unchanged over any of:

``threads`` (default)
    The original in-process rank-threads + virtual-clock transport
    (:mod:`repro.exec.threads`) — deterministic, cheap to start, the
    right substrate for tests and scaling-*shape* benches.  Wall-clock
    numbers are GIL-bound.
``mp``
    Forked worker processes (:mod:`repro.exec.mp`): messages over one
    OS pipe per pair of ranks, bulk array payloads through POSIX shared
    segments (zero-copy receive, swept when the world ends or, after a
    killed launcher, when the next one starts), per-rank tracebacks
    pickled back into :class:`~repro.mpi.launcher.RankFailure`; no
    helper thread or process.  Escapes the GIL: real cores, real
    wall-clock speedups.

A site with a real MPI adds its own transport through :func:`register`
— the hook a mpi4py bridge would use; none ships, because no host or CI
leg we have could run it.

Selection order: the ``backend=`` keyword of ``mpirun`` /
``run_scmd`` / ``run_supervised``, else the ``REPRO_BACKEND``
environment variable, else ``threads``.
"""

from __future__ import annotations

import os
from typing import Callable

from repro.exec.base import BackendUnavailableError, ExecBackend
from repro.errors import MPIError

DEFAULT_BACKEND = "threads"

#: name -> lazily-instantiated backend factory.  Factories (not
#: instances) are registered so importing this package stays cheap and
#: a backend's dependencies are only probed on first use.
_FACTORIES: dict[str, Callable[[], ExecBackend]] = {}
_INSTANCES: dict[str, ExecBackend] = {}


def register(name: str, factory: Callable[[], ExecBackend]) -> None:
    """Register (or replace) a backend factory under ``name``."""
    _FACTORIES[str(name)] = factory
    _INSTANCES.pop(str(name), None)


def backend_names() -> list[str]:
    """Registered backend names, default first, then alphabetical."""
    names = sorted(_FACTORIES)
    if DEFAULT_BACKEND in names:
        names.remove(DEFAULT_BACKEND)
        names.insert(0, DEFAULT_BACKEND)
    return names


def resolve_name(name: str | None = None) -> str:
    """Canonical backend name for ``name`` (or the session default).

    ``None``/"" resolves through ``REPRO_BACKEND``, then the built-in
    default.  Unknown names raise :class:`~repro.errors.MPIError` with a
    did-you-mean suggestion over the registry — the same message the
    serve admission pass (RA419) embeds in its finding.
    """
    if not name:
        name = os.environ.get("REPRO_BACKEND", "").strip() or DEFAULT_BACKEND
    name = str(name).strip()
    if name in _FACTORIES:
        return name
    import difflib

    near = difflib.get_close_matches(name, list(_FACTORIES), n=1, cutoff=0.6)
    hint = f" — did you mean {near[0]!r}?" if near else ""
    raise MPIError(
        f"unknown execution backend {name!r}{hint} "
        f"(have: {', '.join(backend_names())})")


def get_backend(name: str | None = None) -> ExecBackend:
    """The backend instance for ``name`` (see :func:`resolve_name`)."""
    name = resolve_name(name)
    backend = _INSTANCES.get(name)
    if backend is None:
        backend = _FACTORIES[name]()
        _INSTANCES[name] = backend
    return backend


def _register_builtins() -> None:
    def _threads() -> ExecBackend:
        from repro.exec.threads import ThreadsBackend
        return ThreadsBackend()

    def _mp() -> ExecBackend:
        from repro.exec.mp import MPBackend
        return MPBackend()

    register("threads", _threads)
    register("mp", _mp)


_register_builtins()

__all__ = [
    "BackendUnavailableError",
    "DEFAULT_BACKEND",
    "ExecBackend",
    "backend_names",
    "get_backend",
    "register",
    "resolve_name",
]
