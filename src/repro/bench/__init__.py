"""Benchmark harnesses regenerating every table and figure of the paper.

========  ==========================================  =====================
Paper     Content                                     Harness
========  ==========================================  =====================
Table 4   serial component-overhead timings           :mod:`repro.bench.overhead`
Table 5   weak-scaling run-time statistics            :mod:`repro.bench.scaling`
Fig 3/4   flame evolution + AMR patch census          :mod:`repro.bench.flame`
Fig 6     shock-interface density field               :mod:`repro.bench.shock`
Fig 7     interfacial-circulation convergence         :mod:`repro.bench.shock`
Fig 8     constant-per-processor workload timings     :mod:`repro.bench.scaling`
Fig 9     strong scaling vs ideal                     :mod:`repro.bench.scaling`
========  ==========================================  =====================

Each harness returns plain dictionaries/lists and renders the same rows or
series the paper reports via :mod:`repro.bench.reporting`.  ``REPRO_FAST``
(or the ``fast=`` argument) shrinks problem sizes for smoke runs; the
shapes under comparison are preserved.
"""

from repro.util.lazy import lazy_exports

__all__ = [
    "format_table",
    "save_json",
    "save_report",
    "trajectory",
    "run_backend_ab",
    "run_table4",
    "run_serial_workload",
    "run_table5",
    "run_fig8",
    "run_fig9",
    "run_fig6",
    "run_fig7",
    "run_fig3_fig4",
]

# one harness loads only what it runs
__getattr__, __dir__ = lazy_exports(__name__, {
    **dict.fromkeys(("format_table", "save_json", "save_report"),
                    "reporting"),
    "trajectory": "trajectory",
    "run_backend_ab": "backends",
    "run_table4": "overhead",
    "run_serial_workload": "overhead",
    "run_table5": "scaling",
    "run_fig8": "scaling",
    "run_fig9": "scaling",
    "run_fig6": "shock",
    "run_fig7": "shock",
    "run_fig3_fig4": "flame",
})
