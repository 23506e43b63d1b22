"""Arm/disarm notification shared by the run-time instruments.

A connected uses port is bound on :attr:`repro.cca.services.Services.ports`
to what a port call must go through right now: the provider's own port,
or one :class:`~repro.cca.portproxy.PortProxy`.  Every instrument that
changes that — :mod:`repro.obs.trace`, :mod:`repro.mpi.sanitizer`,
:mod:`repro.resilience.faults`, a profiler registered with
:meth:`repro.cca.framework.Framework.record_port_calls` — calls
:func:`bump` from its own arm and disarm functions, after setting its
flag.  :mod:`repro.cca` subscribes a listener that unbinds every live
``Services``, so the next read rebinds under the new state.  The hook
lives down here because the instruments sit below the CCA layer and
cannot import it.
"""

from __future__ import annotations

import itertools
from typing import Callable

#: Changes on every arm/disarm.  A binder reads it before resolving a
#: port and again after storing it: a change means a :func:`bump` may
#: have run in between, so the stored binding may predate the new state.
generation: int = 0

# next() on a count is atomic, so racing bumps each publish a value no
# binder has seen; lock-free because exec.mp's workers disarm the
# sanitizer right after fork, where an inherited held lock would hang.
_ticks = itertools.count(1)
_listeners: list[Callable[[], None]] = []


def subscribe(listener: Callable[[], None]) -> None:
    """Call ``listener()`` on every :func:`bump` (it must not lock)."""
    _listeners.append(listener)


def bump() -> None:
    """Invalidate everything resolved before this call."""
    global generation
    generation = next(_ticks)
    for listener in _listeners:
        listener()
