"""GasProperties: the hydrodynamics gas database (gamma etc.)."""

from __future__ import annotations

from typing import Any

from repro.cca.component import Component
from repro.cca.ports.parameter import ParameterPort

_DEFAULTS = {"gamma": 1.4}


class _Props(ParameterPort):
    def __init__(self, owner: "GasProperties") -> None:
        self.owner = owner

    def get(self, key: str, default: Any = None) -> Any:
        services = self.owner.services
        if key in services.parameters:
            return services.get_parameter(key)
        if key in self.owner.overrides:
            return self.owner.overrides[key]
        return _DEFAULTS.get(key, default)

    def set(self, key: str, value: Any) -> None:
        self.owner.overrides[key] = value

    def keys(self) -> list[str]:
        return sorted(set(_DEFAULTS)
                      | set(self.owner.overrides)
                      | set(self.owner.services.parameters.keys()))


class GasProperties(Component):
    """Key-value gas-property database (Database subsystem, Table 3)."""

    PARAMS = ()
    OPEN_PARAMETERS = True

    def set_services(self, services) -> None:
        self.services = services
        self.overrides: dict[str, Any] = {}
        services.add_provides_port(_Props(self), "properties")
