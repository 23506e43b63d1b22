"""Pluggable load-balancer components.

The paper's future-work item (1): "This will also include an effort to
define interfaces to load-balancers prior to testing a number of them."
Here is that interface — :class:`LoadBalancerPort` — and two
implementations behind it.  ``GrACEComponent`` uses the port when
connected and falls back to its ``balancer`` parameter otherwise, so
balancers swap with one ``connect`` line exactly like flux schemes do.
"""

from __future__ import annotations

from typing import Sequence

from repro.cca.component import Component
from repro.cca.port import Port
from repro.samr.box import Box
from repro.samr.loadbalance import balance_greedy, balance_sfc, load_imbalance


class LoadBalancerPort(Port):
    """Assign an owner rank to every box."""

    def assign(self, boxes: Sequence[Box], nranks: int,
               weights: Sequence[float] | None = None) -> list[int]:
        raise NotImplementedError

    def name(self) -> str:
        raise NotImplementedError


class _Greedy(LoadBalancerPort):
    def __init__(self) -> None:
        self.ncalls = 0

    def assign(self, boxes, nranks, weights=None) -> list[int]:
        self.ncalls += 1
        return balance_greedy(boxes, nranks, weights)

    def name(self) -> str:
        return "greedy-lpt"


class GreedyBalancer(Component):
    """Longest-processing-time-first bin packing (best balance)."""

    PARAMS = ()

    def set_services(self, services) -> None:
        self.services = services
        services.add_provides_port(_Greedy(), "balancer")


class _SFC(LoadBalancerPort):
    def __init__(self) -> None:
        self.ncalls = 0

    def assign(self, boxes, nranks, weights=None) -> list[int]:
        self.ncalls += 1
        return balance_sfc(boxes, nranks, weights)

    def name(self) -> str:
        return "morton-sfc"


class SFCBalancer(Component):
    """Morton space-filling-curve chunking (best locality — "keeping
    parents and children on the same processors")."""

    PARAMS = ()

    def set_services(self, services) -> None:
        self.services = services
        services.add_provides_port(_SFC(), "balancer")


def imbalance_of(boxes: Sequence[Box], owners: Sequence[int],
                 nranks: int) -> float:
    """Convenience re-export for ablation benches."""
    return load_imbalance(boxes, owners, nranks)
