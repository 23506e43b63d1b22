"""repro.serve — a multi-tenant simulation service.

The paper's components answer *one* question per run; this package turns
the component assemblies into a **service**: many tenants submit
rc-script jobs, a bounded scheduler executes them under the resilience
supervisor, a content-addressed cache answers repeated questions from
disk, and a batching planner coalesces structurally-identical
0D-ignition requests into one vectorized solve — with a bitwise
equivalence contract back to the sequential framework path, so batching
and caching are pure optimizations, never semantic forks.

Layers (each its own module):

* :mod:`repro.serve.jobs` — job model + filesystem job store
* :mod:`repro.serve.cache` — content-addressed result cache
* :mod:`repro.serve.batching` — which jobs may share one solve
* :mod:`repro.serve.scheduler` — the bounded worker pool
* :mod:`repro.serve.service` — the facade tying it together
* :mod:`repro.serve.__main__` — ``python -m repro.serve`` CLI

The names below are re-exported lazily: naming
:class:`SimulationService` loads the service module and the job model,
and the service's constructor imports the machinery it builds.
"""

from repro.util.lazy import lazy_exports

__all__ = [
    "BatchPlan",
    "plan_for",
    "ResultCache",
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "CANCELLED",
    "STATES",
    "JobRecord",
    "JobSpec",
    "JobStore",
    "apply_overrides",
    "Scheduler",
    "SimulationService",
    "load_script",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "BatchPlan": "batching",
    "plan_for": "batching",
    "ResultCache": "cache",
    **dict.fromkeys(
        ("QUEUED", "RUNNING", "DONE", "FAILED", "CANCELLED", "STATES",
         "JobRecord", "JobSpec", "JobStore", "apply_overrides"), "jobs"),
    "Scheduler": "scheduler",
    "SimulationService": "service",
    "load_script": "service",
})
