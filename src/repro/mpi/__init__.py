"""SCMD/MPI substrate with a virtual-time machine model.

The paper runs CCAFFEINE under ``mpirun``: P identical framework instances,
one per processor, communicating through MPI-1.  This package reproduces
that execution model:

* :func:`repro.mpi.launcher.mpirun` starts P ranks, each running the
  same program (the SCMD multiplexer pattern) — rank-threads in this
  process by default, forked worker processes under the ``mp`` backend
  (:mod:`repro.exec`).
* :class:`repro.mpi.comm.Comm` implements the MPI-1 subset the applications
  need — blocking/non-blocking point-to-point, the standard collectives,
  and communicator splitting (used to scope *cohort* communicators) —
  once, over whichever backend's transport carries the bytes
  (:class:`repro.mpi.comm.World` is the rank-threads one).
* Virtual time: every rank owns a clock advanced by (a) the work its
  integrators count, at the prices of the
  :class:`repro.mpi.perfmodel.MachineModel` (a model without prices
  measures the rank's CPU time instead) and (b) that model's
  latency/bandwidth costs for communication.  This lets a single core
  emulate the 48-node CPlant runs of the paper's §5.2, the same on every
  host and every run, while the actual message traffic (ghost exchanges,
  reductions) is genuinely exercised.
* :mod:`repro.mpi.sanitizer` — a vector-clock race detector for the
  rank-threads' shared address space, armed via ``REPRO_TSAN=1``
  (flag-check-only cost when off).
"""

from repro.mpi import sanitizer
from repro.mpi.perfmodel import MachineModel, CPLANT, BEOWULF, LOCALHOST, ZERO_COST
from repro.mpi.comm import Comm, World, Op, Status, Request, ANY_SOURCE, ANY_TAG
from repro.mpi.launcher import mpirun

__all__ = [
    "MachineModel",
    "CPLANT",
    "BEOWULF",
    "LOCALHOST",
    "ZERO_COST",
    "Comm",
    "World",
    "Op",
    "Status",
    "Request",
    "ANY_SOURCE",
    "ANY_TAG",
    "mpirun",
    "sanitizer",
]
