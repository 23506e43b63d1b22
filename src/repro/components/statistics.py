"""StatisticsComponent: named time series of scalar observables.

Reused across the reaction-diffusion and shock-interface assemblies (the
paper's Figs. 7-9 data come through it).
"""

from __future__ import annotations

import statistics as pystats
from typing import Any

from repro.cca.component import Component
from repro.cca.ports.diagnostics import StatisticsPort
from repro.errors import CCAError


class _Stats(StatisticsPort):
    def __init__(self) -> None:
        self._series: dict[str, list[tuple[float, float]]] = {}

    def record(self, key: str, t: float, value: float) -> None:
        self._series.setdefault(key, []).append((float(t), float(value)))

    def series(self, key: str) -> list[tuple[float, float]]:
        try:
            return list(self._series[key])
        except KeyError:
            raise CCAError(
                f"no series {key!r} (have: {sorted(self._series)})"
            ) from None

    def summary(self) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for key, pts in self._series.items():
            values = [v for _, v in pts]
            out[key] = {
                "n": len(values),
                "min": min(values),
                "max": max(values),
                "mean": pystats.fmean(values),
                "median": pystats.median(values),
                "stdev": pystats.stdev(values) if len(values) > 1 else 0.0,
                "last": values[-1],
            }
        return out


class StatisticsComponent(Component):
    """Provides ``stats`` (StatisticsPort)."""

    PARAMS = ()

    def set_services(self, services) -> None:
        self.services = services
        self.stats = _Stats()
        services.add_provides_port(self.stats, "stats")

    # -- Checkpointable (repro.resilience.protocol) -------------------------
    def checkpoint_state(self) -> dict:
        return {"series": {k: [[t, v] for t, v in pts]
                           for k, pts in self.stats._series.items()}}

    def restore_state(self, state: dict) -> None:
        self.stats._series = {
            k: [(float(t), float(v)) for t, v in pts]
            for k, pts in state["series"].items()}
