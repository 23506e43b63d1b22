"""GrACEComponent: the componentized SAMR data manager.

"Currently we have wrapped GrACE into a C++ component to perform the Data
Object and the Mesh tasks" (paper §4); here the wrapped library is
:mod:`repro.samr`.  One component instance provides the MeshPort, the
DataObjectPort and a default (zero-gradient) BoundaryConditionPort, and
optionally *uses* a physics-specific BoundaryConditionPort that overrides
the default during ghost exchange.

Parameters (rc ``parameter`` directive): see ``GrACEComponent.PARAMS``.
"""

from __future__ import annotations

import numpy as np

from repro.cca.component import Component, Param
from repro.cca.ports.bc import BoundaryConditionPort
from repro.cca.ports.dataobject import DataObjectPort
from repro.cca.ports.mesh import MeshPort
from repro.errors import CCAError
from repro.samr.dataobject import DataObject
from repro.samr.ghost import exchange_ghosts, restrict_level, zero_gradient_bc
from repro.samr.hierarchy import Hierarchy
from repro.samr.loadbalance import balance_greedy, balance_sfc


class _Mesh(MeshPort):
    def __init__(self, owner: "GrACEComponent") -> None:
        self.owner = owner

    def hierarchy(self) -> Hierarchy:
        return self.owner.require_hierarchy()

    def build_base_level(self) -> None:
        self.owner.build()

    def regrid(self) -> None:
        raise CCAError(
            "regridding is driven by the ErrorEstAndRegrid component; "
            "connect and call its RegridPort")

    def owned_patches(self, level: int | None = None):
        h = self.owner.require_hierarchy()
        rank = self.rank()
        levels = h.levels if level is None else [h.level(level)]
        return [p for lvl in levels for p in lvl.patches if p.owner == rank]

    def rank(self) -> int:
        comm = self.owner.comm
        return 0 if comm is None else comm.rank

    def nranks(self) -> int:
        comm = self.owner.comm
        return 1 if comm is None else comm.size


class _Data(DataObjectPort):
    def __init__(self, owner: "GrACEComponent") -> None:
        self.owner = owner

    def declare(self, name, nvar, var_names=None) -> DataObject:
        return self.owner.declare(name, nvar, var_names)

    def data(self, name) -> DataObject:
        return self.owner.data(name)

    def names(self) -> list[str]:
        return sorted(self.owner._data)

    def array(self, name, patch) -> np.ndarray:
        return self.owner.data(name).array(patch)

    def exchange_ghosts(self, name, level) -> None:
        self.owner.exchange(name, level)

    def restrict(self, name, fine_level) -> None:
        restrict_level(self.owner.data(name), fine_level,
                       comm=self.owner.comm)


class _DefaultBC(BoundaryConditionPort):
    def apply(self, patch, ghosted, axis, side) -> None:
        zero_gradient_bc(patch, ghosted, axis, side)


class GrACEComponent(Component):
    """Mesh + Data Object provider (see module docstring)."""

    PARAMS = (
        Param("nx", "int", 32, min=4, max=4096, doc="coarse mesh cells"),
        Param("ny", "int", 32, min=4, max=4096, doc="coarse mesh cells"),
        Param("x_origin", "float", 0.0),
        Param("y_origin", "float", 0.0),
        Param("x_extent", "float", 1.0, min=1e-09, doc="physical size"),
        Param("y_extent", "float", 1.0, min=1e-09, doc="physical size"),
        Param("ratio", "int", 2, min=2, max=4, doc="refinement factor"),
        Param("max_levels", "int", 1, min=1, max=8, doc="hierarchy depth"),
        Param("nghost", "int", 2, min=1, max=4, doc="ghost width"),
        Param("balancer", "str", "greedy", choices=("greedy", "sfc"),
              doc="built-in balancer when no balancer port is connected"),
    )

    def set_services(self, services) -> None:
        self.services = services
        self.comm = services.get_comm()
        self._hierarchy: Hierarchy | None = None
        self._data: dict[str, DataObject] = {}
        services.add_provides_port(_Mesh(self), "mesh")
        services.add_provides_port(_Data(self), "data")
        services.add_provides_port(_DefaultBC(), "default_bc")
        services.register_uses_port("bc", "BoundaryConditionPort",
                                    optional=True)
        # optional pluggable load balancer (paper future-work item 1)
        services.register_uses_port("balancer", "LoadBalancerPort",
                                    optional=True)

    # -- construction ---------------------------------------------------------
    def build(self) -> Hierarchy:
        if self._hierarchy is not None:
            raise CCAError("mesh already built")
        services = self.services
        self._hierarchy = Hierarchy(
            base_shape=(services.get_parameter("nx"),
                        services.get_parameter("ny")),
            origin=(services.get_parameter("x_origin"),
                    services.get_parameter("y_origin")),
            extent=(services.get_parameter("x_extent"),
                    services.get_parameter("y_extent")),
            ratio=services.get_parameter("ratio"),
            max_levels=services.get_parameter("max_levels"),
            nghost=services.get_parameter("nghost"),
            nranks=1 if self.comm is None else self.comm.size,
            balancer=self._assign,
        )
        self._hierarchy.build_base_level()
        return self._hierarchy

    def adopt(self, hierarchy: Hierarchy,
              dataobjs: dict[str, DataObject]) -> None:
        """Install a restored hierarchy + DataObjects (checkpoint restart).

        The rebuilt hierarchy carries the default balancer (callables are
        not serialized), so it gets :meth:`_assign` as in :meth:`build` —
        a post-restore regrid must assign the same owners an
        uninterrupted run would.
        """
        hierarchy.balancer = self._assign
        self._hierarchy = hierarchy
        self._data = dict(dataobjs)

    def _assign(self, boxes, nranks: int) -> list[int]:
        """The hierarchy's balancer, resolved at every (re)grid: the
        connected ``balancer`` port, else the built-in the ``balancer``
        parameter names."""
        services = self.services
        if services.is_connected("balancer"):
            return services.ports.balancer.assign(boxes, nranks)
        builtin = {"greedy": balance_greedy, "sfc": balance_sfc}[
            services.get_parameter("balancer")]
        return builtin(boxes, nranks)

    def require_hierarchy(self) -> Hierarchy:
        if self._hierarchy is None:
            raise CCAError("mesh not built yet (call MeshPort."
                           "build_base_level first)")
        return self._hierarchy

    # -- data objects ------------------------------------------------------------
    def declare(self, name: str, nvar: int,
                var_names: list[str] | None = None) -> DataObject:
        if name in self._data:
            raise CCAError(f"DataObject {name!r} already declared")
        rank = 0 if self.comm is None else self.comm.rank
        dobj = DataObject(name, self.require_hierarchy(), nvar, rank,
                          var_names)
        self._data[name] = dobj
        return dobj

    def data(self, name: str) -> DataObject:
        try:
            return self._data[name]
        except KeyError:
            raise CCAError(
                f"no DataObject {name!r} (declared: {sorted(self._data)})"
            ) from None

    def dataobjects(self) -> list[DataObject]:
        return list(self._data.values())

    def exchange(self, name: str, level: int) -> None:
        """Ghost fill using the connected physics BC, else zero-gradient."""
        services = self.services
        if services.is_connected("bc"):
            bc = services.ports.bc.apply
        else:
            bc = zero_gradient_bc
        exchange_ghosts(self.data(name), level, comm=self.comm, bc=bc)
