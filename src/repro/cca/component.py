"""The Component base class and its parameter declaration.

"All CCAFFEINE components are derived from a data-less abstract class with
one deferred method called setServices(Services *q)."  (paper §2)

A component class also declares, in :attr:`Component.PARAMS`, the
rc-script parameters it reads — the one place their types, defaults and
ranges are written down, as a Cactus thorn's CCL file is for its
parameters.  :meth:`repro.cca.services.Services.get_parameter` reads
defaults from it, and the contract pass (:mod:`repro.analysis.contracts`)
checks assemblies and ``repro.serve`` jobs against it.
"""

from __future__ import annotations

import functools
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cca.services import Services

#: the parameter type vocabulary ("any" = not coerced).
PARAM_TYPES = ("any", "int", "float", "bool", "str")


@dataclass(frozen=True)
class Param:
    """One declared rc-script parameter of a component class."""

    name: str
    type: str = "any"
    default: Any = None
    min: float | None = None
    max: float | None = None
    choices: tuple | None = None
    #: an assembly must set it (the contract pass reports RA415)
    required: bool = False
    doc: str = ""

    def __post_init__(self) -> None:
        if self.type not in PARAM_TYPES:
            raise ValueError(f"parameter {self.name!r}: type {self.type!r} "
                             f"is not one of {PARAM_TYPES}")


class Component(ABC):
    """Abstract base every component derives from.

    Subclasses implement :meth:`set_services`, registering their provides
    ports and declaring their uses ports against the passed
    :class:`~repro.cca.services.Services` handle.  Construction arguments
    are discouraged — configuration flows through parameter ports, keeping
    components instantiable from assembly scripts.
    """

    #: the parameters this class reads; ``None`` = undeclared (reads are
    #: raw lookups and no contract is checked)
    PARAMS: tuple[Param, ...] | None = None
    #: also reads parameters under computed keys (a key-value database):
    #: any key is accepted, undeclared ones as raw lookups
    OPEN_PARAMETERS: bool = False

    @abstractmethod
    def set_services(self, services: "Services") -> None:
        """Register ports; called by the framework at instantiation."""

    def release_services(self, services: "Services") -> None:
        """Hook invoked when the component is destroyed (optional)."""


@functools.cache
def declared_params(cls: type) -> dict[str, Param] | None:
    """``cls.PARAMS`` by name, or None for an undeclared class."""
    params = cls.PARAMS
    return None if params is None else {p.name: p for p in params}
