"""Table 4 — single-processor component-overhead study.

"We created a code identical to the one in Sec. 4.1, except that the
utilized mechanism had 8 species and 5 reactions ... The problem was
solved on multiple identical cells ... The numbers are compared with those
of a C-code in which the integrator (Cvode) was implemented as a library."
(paper §5.1)

Two timed variants of exactly the same numerical work:

* **component path** — the 0D assembly: CvodeComponent integrates the
  problemModeler's model port; every RHS evaluation travels through the
  CCA uses-port indirection (our analog of the virtual-function call).
* **library path** — the same CVode class driving the same constant-volume
  reactor as plain function calls, no framework anywhere.

Each of ``n_cells`` identical cells is integrated independently (that is
how the paper racks up per-cell NFE counts); ``t_short``/``t_long`` play
the role of the paper's Δt = 1 / 10, producing two different NFE levels.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

from repro.apps.ignition0d import build_ignition0d
from repro.cca.framework import Framework
from repro.chemistry.h2_lite import h2_lite_mechanism
from repro.chemistry.h2_air import stoichiometric_h2_air
from repro.chemistry.zerod import ConstantVolumeReactor
from repro.integrators.cvode import CVode
from repro.util.timing import Stopwatch
from repro.bench.reporting import format_table
from repro.util.options import fast_mode


@dataclass
class OverheadRow:
    """One Table 4 row."""

    dt_label: str
    n_cells: int
    nfe: int
    t_component: float
    t_library: float
    #: median over cells of (component CPU / library CPU) for one cell
    median_ratio: float

    @property
    def pct_diff(self) -> float:
        return 100.0 * (self.median_ratio - 1.0)


def _seeded_mixture(mech) -> np.ndarray:
    """Stoichiometric H2-air with a trace H seed so the lite mechanism
    (which has no initiation channel) actually does work per call."""
    Y = np.zeros(mech.n_species)
    for nm, v in stoichiometric_h2_air().items():
        if nm in mech.names:
            Y[mech.species_index(nm)] = v
    Y[mech.species_index("H")] = 1e-4
    return Y / Y.sum()


class _ComponentCase:
    """One-time assembly; integrates single cells on demand."""

    def __init__(self, T0: float, t_end: float, rtol: float,
                 atol: float) -> None:
        framework = Framework()
        build_ignition0d(framework, mechanism="h2-lite", T0=T0,
                         t_end=t_end, rtol=rtol, atol=atol)
        services = framework.services_of("Driver")
        self.solver = services.get_port("solver")
        model = services.get_port("model")
        y_init = services.get_port("ic").initial_state()
        mech = services.get_port("chem").mechanism()
        y_init[1:-1] = _seeded_mixture(mech)
        model.configure(float(y_init[0]), float(y_init[-1]), y_init[1:-1])
        self.y_init = y_init
        self.t_end = t_end
        self.nfe = 0

    def integrate_cell(self) -> None:
        self.solver.integrate(0.0, self.y_init.copy(), self.t_end)
        self.nfe += self.solver.last_nfe()


class _LibraryCase:
    """Plain library calls: same reactor, same solver class, no ports."""

    def __init__(self, T0: float, t_end: float, rtol: float,
                 atol: float) -> None:
        mech = h2_lite_mechanism()
        self.reactor = ConstantVolumeReactor(
            mech, T0, 101325.0, _seeded_mixture(mech))
        self.y_init = self.reactor.initial_state()
        self.t_end = t_end
        self.rtol, self.atol = rtol, atol
        self.nfe = 0

    def integrate_cell(self) -> None:
        # a batch of one cell, as CvodeComponent hands it to the solver
        cv = CVode(self.reactor.rhs, 0.0, self.y_init[:, None],
                   rtol=self.rtol, atol=self.atol, method="bdf")
        cv.integrate_to(self.t_end)
        self.nfe += int(cv.stats.nfe[0])


def _timed_interleaved(comp: _ComponentCase, lib: _LibraryCase,
                       n_cells: int) -> tuple[float, float, float]:
    """Time both variants cell by cell on CPU time.

    Each cell is a pair: one component solve and one library solve, and
    which goes first swaps from pair to pair, so drift and cache warmth
    fall on both paths alike.  Returns the two CPU totals and the median
    over pairs of the per-pair time ratio (component / library) — a
    slow pair from a background hiccup moves a median, not a sum.
    """
    clock = time.process_time
    t_comp = t_lib = 0.0
    ratios = []
    for i in range(n_cells):
        pair = {}
        for case in ((comp, lib) if i % 2 == 0 else (lib, comp)):
            t0 = clock()
            case.integrate_cell()
            pair[case] = clock() - t0
        t_comp += pair[comp]
        t_lib += pair[lib]
        ratios.append(pair[comp] / pair[lib])
    return t_comp, t_lib, statistics.median(ratios)


def run_table4(fast: bool | None = None) -> dict:
    """Regenerate Table 4.

    Returns ``{"rows": [OverheadRow...], "report": str, "max_abs_pct": float}``.

    Note on scale: the paper integrates 1000-10000 cells per row on a
    600 MHz Athlon; a pure-Python per-cell stiff solve costs ~10^3 more,
    so the default row sizes are reduced (the per-cell NFE workload — what
    the overhead is measured against — is preserved).
    """
    fast = fast_mode() if fast is None else fast
    if fast:
        cells_list = [8, 16]
    else:
        cells_list = [20, 50, 100]
    t_short, t_long = 1e-6, 6e-6   # the paper's dt = 1 / 10 analog
    T0 = 1200.0
    rtol, atol = 1e-6, 1e-10
    rows: list[OverheadRow] = []
    for label, t_end in (("1", t_short), ("10", t_long)):
        comp = _ComponentCase(T0, t_end, rtol, atol)
        lib = _LibraryCase(T0, t_end, rtol, atol)
        for n_cells in cells_list:
            comp.nfe = lib.nfe = 0
            t_comp, t_lib, ratio = _timed_interleaved(comp, lib, n_cells)
            rows.append(OverheadRow(label, n_cells,
                                    (comp.nfe + lib.nfe) // (2 * n_cells),
                                    t_comp, t_lib, ratio))
    table = format_table(
        ["dt", "Ncells", "NFE", "Comp. [s]", "Library [s]",
         "% diff (median pair)"],
        [[r.dt_label, r.n_cells, r.nfe, r.t_component, r.t_library,
          f"{r.pct_diff:+.2f}"] for r in rows],
        title=("Table 4 analog: componentized vs library 0D integration "
               "(h2-lite, per-cell CVode)"),
    )
    max_abs = max(abs(r.pct_diff) for r in rows)
    summary = (f"\nmax |% diff| = {max_abs:.2f}%  "
               f"(paper: |diff| <= 1.54%, no trend)")
    return {"rows": rows, "report": table + summary, "max_abs_pct": max_abs}


def run_serial_workload(n_cells: int | None = None,
                        t_end: float = 6e-6) -> float:
    """Time one pass of the Table 4 *component-path* serial workload
    (``n_cells`` independent stiff 0D integrations through the CCA port
    indirection); returns wall seconds.

    The unit of work the profiler-overhead bench
    (``benchmarks/bench_profiler_overhead.py``) times with and without
    the sampling profiler armed.
    """
    if n_cells is None:
        n_cells = 10 if fast_mode() else 30
    comp = _ComponentCase(1200.0, t_end, 1e-6, 1e-10)
    sw = Stopwatch()
    with sw:
        for _ in range(n_cells):
            comp.integrate_cell()
    return sw.elapsed
