"""Structured adaptive mesh refinement substrate (the GrACE analog).

The paper wraps the GrACE library into ``GrACEComponent`` to provide its
**Mesh** and **Data Object** subsystems.  This package is a from-scratch
implementation of that substrate:

* :mod:`repro.samr.box` / :mod:`repro.samr.boxlist` — integer index-space
  rectangles and set algebra over them.
* :mod:`repro.samr.patch`, :mod:`repro.samr.level`,
  :mod:`repro.samr.hierarchy` — the Berger-Collela patch hierarchy with
  geometry, parent/child relations and rank ownership.
* :mod:`repro.samr.dataobject` — collections of per-patch arrays ("1 array
  per patch; typically a number of related variables are stored together").
* :mod:`repro.samr.flagging` + :mod:`repro.samr.clustering` — gradient
  error estimation and Berger-Rigoutsos point clustering.
* :mod:`repro.samr.prolong` / :mod:`repro.samr.restrict` — inter-level
  transfer operators.
* :mod:`repro.samr.schedule` — the geometry of ghost fill and
  restriction on one level, built once per regrid.
* :mod:`repro.samr.ghost` — intra-level and coarse-fine ghost-cell
  exchange and restriction (local copies or SCMD message passing),
  replaying the level's schedule.
* :mod:`repro.samr.loadbalance` — domain decomposition / load balancing.
* :mod:`repro.samr.regrid` — the prolongation/regeneration cycle described
  in the paper's §3.

Metadata (boxes, owners) is replicated across ranks; bulk data lives only
on the owning rank — the same split GrACE uses.
"""

from repro.samr.box import Box
from repro.samr.boxlist import coalesce, intersect_all, subtract
from repro.samr.patch import Patch
from repro.samr.level import Level
from repro.samr.hierarchy import Hierarchy
from repro.samr.dataobject import DataObject
from repro.samr.flagging import flag_gradient, buffer_flags
from repro.samr.clustering import cluster_flags
from repro.samr.prolong import prolong_constant, prolong_bilinear
from repro.samr.restrict import restrict_average
from repro.samr.ghost import exchange_ghosts
from repro.samr.loadbalance import balance_greedy, balance_sfc
from repro.samr.regrid import regrid
from repro.util.lazy import lazy_exports

__all__ = [
    "TimeInterpolant",
    "time_interpolate",
    "load_checkpoint",
    "save_checkpoint",
    "Box",
    "coalesce",
    "intersect_all",
    "subtract",
    "Patch",
    "Level",
    "Hierarchy",
    "DataObject",
    "flag_gradient",
    "buffer_flags",
    "cluster_flags",
    "prolong_constant",
    "prolong_bilinear",
    "restrict_average",
    "exchange_ghosts",
    "balance_greedy",
    "balance_sfc",
    "regrid",
]

# the time interpolant and the checkpoint files load on first use
__getattr__, __dir__ = lazy_exports(__name__, {
    "TimeInterpolant": "time_interp",
    "time_interpolate": "time_interp",
    "load_checkpoint": "checkpoint",
    "save_checkpoint": "checkpoint",
})
