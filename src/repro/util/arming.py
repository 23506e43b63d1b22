"""Arm/disarm generation shared by the run-time instruments.

:meth:`repro.cca.services.Services.get_port` caches what it hands out
(the provider's own port, or one :class:`~repro.cca.portproxy.PortProxy`)
and must rebuild that when what a port call has to do changes.  Every
instrument that can change it — :mod:`repro.obs.trace`,
:mod:`repro.mpi.sanitizer`, :mod:`repro.resilience.faults`, a profiler
registered with :meth:`repro.cca.framework.Framework.record_port_calls`
— calls :func:`bump` from its own arm and disarm functions; a cache
stamped with another :data:`generation` is stale.  The counter lives
down here because the instruments sit below the CCA layer and cannot
import it.
"""

from __future__ import annotations

import itertools

#: Changes on every arm/disarm.  Hot paths read this module attribute
#: directly and compare it with the value they cached under.
generation: int = 0

# next() on a count is atomic, so racing bumps each publish a value no
# cache has seen; lock-free because exec.mp's workers disarm the
# sanitizer right after fork, where an inherited held lock would hang.
_ticks = itertools.count(1)


def bump() -> None:
    """Invalidate everything resolved under the current generation."""
    global generation
    generation = next(_ticks)
