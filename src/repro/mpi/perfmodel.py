"""Latency/bandwidth machine models for virtual-time accounting.

The substitution documented in DESIGN.md: we do not have the paper's CPlant
cluster (433 MHz Alpha EV56, 1 Gb/s Myrinet on 32-bit PCI) or the Beowulf
(1 GHz Pentium III, 100 bT fast Ethernet), so communication cost is charged
from an explicit alpha-beta model and compute cost from *counted* work —
cells x RKC stages, chemistry RHS column-evaluations, flux faces — at the
model's :class:`WorkPrices`.  A model without prices falls back to the
rank-thread's measured CPU time: that mode tells how fast this host is,
the counted one how the algorithm scales, on any host and the same twice.

The model is deliberately simple — postal latency ``alpha`` plus inverse
bandwidth ``beta = 1/bw`` per byte, with log2(P)-tree collectives — because
that is the regime the paper probes: fixed per-rank work with
surface-to-volume ghost traffic, and a strong-scaling knee where per-rank
work shrinks to the comm cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class WorkPrices:
    """Seconds of compute per counted unit of work, by kind: one cell
    through one RKC stage (``cell_stage``), one chemistry RHS
    column-evaluation (``chem_rhs``), one face through the flux call of a
    hydro RHS evaluation (``flux_face``)."""

    cell_stage: float
    chem_rhs: float
    flux_face: float


@dataclass(frozen=True)
class MachineModel:
    """An alpha-beta-gamma communication/compute cost model.

    Parameters
    ----------
    name:
        Human-readable preset label used in bench reports.
    latency:
        Per-message postal latency ``alpha`` in seconds.
    bandwidth:
        Point-to-point bandwidth in bytes/second (``beta = 1/bandwidth``).
    flop_scale:
        Multiplier applied to compute seconds (priced or measured) to
        express them in target-machine seconds.  1.0 means "this machine".
    reduce_flop_cost:
        Seconds per reduced byte (the ``gamma`` term of reductions).
    prices:
        What counted work costs.  ``None`` selects the measured mode: the
        integrators' charges are free and the clock accrues the
        rank-thread's own ``time.thread_time`` instead.
    """

    name: str
    latency: float
    bandwidth: float
    flop_scale: float = 1.0
    reduce_flop_cost: float = 0.0
    prices: WorkPrices | None = None

    # -- point-to-point ----------------------------------------------------
    def p2p_time(self, nbytes: int) -> float:
        """Cost of moving ``nbytes`` point-to-point."""
        return self.latency + nbytes / self.bandwidth

    def send_overhead(self, nbytes: int) -> float:
        """Sender-side blocking cost (buffered-send model: the sender pays
        the injection cost, not the full flight time)."""
        return 0.5 * self.latency + nbytes / self.bandwidth

    # -- collectives (binomial-tree estimates) ------------------------------
    @staticmethod
    def _tree_depth(nranks: int) -> int:
        return max(1, math.ceil(math.log2(max(nranks, 2))))

    def barrier_time(self, nranks: int) -> float:
        if nranks <= 1:
            return 0.0
        return 2.0 * self.latency * self._tree_depth(nranks)

    def bcast_time(self, nranks: int, nbytes: int) -> float:
        if nranks <= 1:
            return 0.0
        return self._tree_depth(nranks) * self.p2p_time(nbytes)

    def reduce_time(self, nranks: int, nbytes: int) -> float:
        if nranks <= 1:
            return 0.0
        depth = self._tree_depth(nranks)
        return depth * (self.p2p_time(nbytes) + nbytes * self.reduce_flop_cost)

    def allreduce_time(self, nranks: int, nbytes: int) -> float:
        if nranks <= 1:
            return 0.0
        # reduce + broadcast
        return self.reduce_time(nranks, nbytes) + self.bcast_time(nranks, nbytes)

    def gather_time(self, nranks: int, nbytes_each: int) -> float:
        if nranks <= 1:
            return 0.0
        # root receives (P-1) contributions; linear in total payload with a
        # tree's worth of latencies.
        depth = self._tree_depth(nranks)
        return depth * self.latency + (nranks - 1) * nbytes_each / self.bandwidth

    def allgather_time(self, nranks: int, nbytes_each: int) -> float:
        if nranks <= 1:
            return 0.0
        # recursive-doubling estimate
        return self._tree_depth(nranks) * self.latency + (
            (nranks - 1) * nbytes_each / self.bandwidth
        )

    def alltoall_time(self, nranks: int, nbytes_each: int) -> float:
        if nranks <= 1:
            return 0.0
        return (nranks - 1) * self.p2p_time(nbytes_each)

    # -- compute ------------------------------------------------------------
    def compute_time(self, cpu_seconds: float) -> float:
        """Map this host's CPU seconds onto the modeled machine."""
        return cpu_seconds * self.flop_scale

    def work_time(self, kind: str, units: float) -> float:
        """Cost of ``units`` of counted work of ``kind`` (a
        :class:`WorkPrices` field); 0.0 in the measured mode."""
        if self.prices is None:
            return 0.0
        return self.compute_time(units * getattr(self.prices, kind))


#: What a unit of work costs on the host these numbers were frozen on
#: (2 cores).  ``cell_stage`` and ``flux_face``: the benchmark suite at
#: commit 4b0ae62 (a rank's 8.2 ms explicit step over 128 x 64 cells x 2
#: stages; ``hydro.godunov_flux_us_per_face`` 0.57).  ``chem_rhs``: a
#: CVODE column-evaluation — the RHS plus its share of Jacobian, Newton
#: solve and error test — re-frozen in PR 22 as thread CPU seconds inside
#: ``ImplicitIntegrator.advance`` over the solver's ``total_nfe`` for the
#: serial scaling case, least-disturbed of four runs: 2.84 / 2.43 / 2.38
#: us at 50^2 / 100^2 / 175^2 (3.17 s for 1 304 368 evaluations at 100^2).
#: Constants, not measurements: a priced model's clock reads the same on
#: every host.
HOST_PRICES = WorkPrices(cell_stage=0.5e-6, chem_rhs=2.4e-6,
                         flux_face=0.57e-6)

#: Sandia CPlant: 433 MHz Alpha EV56 nodes, Myrinet through 32-bit PCI.
#: Myrinet user-level latency was ~15-20 us; 32-bit 33 MHz PCI caps
#: practical bandwidth near 100 MB/s.
CPLANT = MachineModel(
    name="cplant",
    latency=20e-6,
    bandwidth=100e6,
    flop_scale=1.0,
    reduce_flop_cost=2e-9,
    prices=HOST_PRICES,
)

#: The Beowulf used for the flame run: 1 GHz PIII, 100 bT switched Ethernet
#: (TCP latency ~70 us, ~11 MB/s effective).
BEOWULF = MachineModel(
    name="beowulf",
    latency=70e-6,
    bandwidth=11e6,
    flop_scale=1.0,
    reduce_flop_cost=2e-9,
    prices=HOST_PRICES,
)

#: This machine: generous shared-memory-like transport.  Used by tests.
LOCALHOST = MachineModel(
    name="localhost",
    latency=1e-6,
    bandwidth=5e9,
    flop_scale=1.0,
    prices=HOST_PRICES,
)

#: Free communication, measured compute — isolates pure algorithmic
#: behaviour in unit tests, and is the model the wall-clock benchmarks name.
ZERO_COST = MachineModel(name="zero-cost", latency=0.0, bandwidth=float("inf"))
