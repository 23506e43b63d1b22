"""repro.resilience — checkpoint/restart, fault injection, supervised runs.

Three layers, composable but separable:

* :mod:`repro.resilience.checkpoint` — application-level checkpoints: the
  SAMR state (via :mod:`repro.samr.checkpoint`) plus driver counters,
  Checkpointable component states and the rank's virtual clock, in one
  versioned per-rank-sharded artifact.
* :mod:`repro.resilience.faults` — deterministic seeded fault injection
  (rank-kill at step k, message drop/delay, exception injection in a
  named port method), off by default behind a single module flag.
* :mod:`repro.resilience.runner` — a supervised runner
  (``python -m repro.resilience run script.rc``) that checkpoints
  periodically, detects failures and restarts from the latest valid
  checkpoint with bounded retries.

This package root stays import-light (errors/util only): the CCA
services layer and the MPI communicator import :mod:`.faults` for their
hot-path hooks, and :mod:`.checkpoint` imports :mod:`repro.samr`, which
imports the communicator — so the checkpoint names below resolve on first
use instead of at package load (an eager import closes that cycle
whenever ``repro.samr`` or ``repro.mpi`` is the first import).  The hooks
and runner modules (which use cca) are imported by the drivers and the
CLI.
"""

from repro.resilience import faults
from repro.resilience.faults import DROP, FaultPlan
from repro.resilience.protocol import Checkpointable, is_checkpointable

__all__ = [
    "APP_FORMAT_VERSION",
    "AppCheckpoint",
    "Checkpointable",
    "DROP",
    "FaultPlan",
    "checkpoint_steps",
    "faults",
    "is_checkpointable",
    "is_valid_step",
    "latest_valid_step",
    "load_app_checkpoint",
    "prune_old_steps",
    "save_app_checkpoint",
    "step_prefix",
]


def __getattr__(name: str):
    # the checkpoint names of __all__, resolved on first use (see above)
    if name in __all__:
        from repro.resilience import checkpoint
        return getattr(checkpoint, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
