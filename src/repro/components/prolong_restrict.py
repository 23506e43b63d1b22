"""ProlongRestrict: cell-centered inter-level interpolation component.

"ProlongRestrict performs the cell-centered interpolations."  (paper §4.3)
"""

from __future__ import annotations

import numpy as np

from repro.cca.component import Component
from repro.cca.ports.interpolation import ProlongRestrictPort
from repro.samr.prolong import prolong_bilinear
from repro.samr.restrict import restrict_average


class _ProlongRestrict(ProlongRestrictPort):
    def __init__(self) -> None:
        self.ncalls = 0

    def prolong(self, coarse: np.ndarray, ratio: int) -> np.ndarray:
        self.ncalls += 1
        return prolong_bilinear(coarse, ratio)

    def restrict(self, fine: np.ndarray, ratio: int) -> np.ndarray:
        self.ncalls += 1
        return restrict_average(fine, ratio)


class ProlongRestrict(Component):
    """Provides ``interp`` (ProlongRestrictPort)."""

    PARAMS = ()

    def set_services(self, services) -> None:
        self.services = services
        services.add_provides_port(_ProlongRestrict(), "interp")
