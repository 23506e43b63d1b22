"""The Services handle: a component's window into the framework.

Through it a component registers ProvidesPorts, declares UsesPorts,
calls its connected peers through :attr:`Services.ports`, reads its
script-set parameters, and borrows the framework's scoped MPI
communicator.
"""

from __future__ import annotations

import weakref
from types import MappingProxyType
from typing import TYPE_CHECKING, Any

from repro.cca.component import declared_params
from repro.cca.port import Port
from repro.cca.portproxy import intercept
from repro.errors import CCAError, PortNotConnectedError, PortTypeError
from repro.util import arming as _arming
from repro.util.options import Options

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cca.framework import Framework


class Ports:
    """A component's connected uses ports, one attribute each.

    ``services.ports.chem`` is what a call through ``chem`` goes
    through: the provider's exported object, or the one
    :class:`~repro.cca.portproxy.PortProxy` that
    :func:`~repro.cca.portproxy.intercept` builds while an instrument is
    armed.  The first read after ``connect`` binds it into the instance
    dict, so every later read is one attribute lookup.  ``disconnect``,
    ``destroy`` and every :func:`repro.util.arming.bump` unbind it.
    """

    __slots__ = ("_services", "__dict__")

    def __init__(self, services: "Services") -> None:
        self._services = services

    def __getattr__(self, name: str) -> Port:
        # only reached for a name not bound yet
        if name.startswith("__"):
            raise AttributeError(name)
        return self._services._bind(name)


# Every Services alive, so an arming change can unbind them all.  Keyed
# by id with weak values; the listener copies the values in one C-level
# call, so rank threads adding entries meanwhile cannot break it, and it
# takes no lock (exec.mp's workers disarm right after fork).
_live: dict[int, weakref.ref] = {}  # scmd: shared


def _unbind_everywhere() -> None:
    for ref in list(_live.values()):
        services = ref()
        if services is not None:
            vars(services.ports).clear()


_arming.subscribe(_unbind_everywhere)


#: the Options accessor that coerces each declared parameter type
_ACCESSORS = MappingProxyType({
    "float": Options.get_float, "int": Options.get_int,
    "bool": Options.get_bool, "str": Options.get_str})


class Services:
    """Per-component-instance framework services.

    ``component_class`` is the class whose ``PARAMS`` declaration
    :meth:`get_parameter` reads; None reads like an undeclared class.
    """

    def __init__(self, framework: "Framework", instance_name: str,
                 component_class: type | None = None) -> None:
        self._framework = framework
        self.instance_name = instance_name
        self.provides: dict[str, tuple[Port, str]] = {}
        self.uses: dict[str, str] = {}
        #: uses ports the component runs without (``optional=True``)
        self.optional: set[str] = set()
        self._declared = (None if component_class is None
                          else declared_params(component_class))
        self._open = getattr(component_class, "OPEN_PARAMETERS", False)
        # uses port -> (provider's port object, "provider:provides_port")
        self._connections: dict[str, tuple[Port, str]] = {}
        self.ports = Ports(self)
        self.parameters = Options()
        key = id(self)
        _live[key] = weakref.ref(self, lambda _ref: _live.pop(key, None))

    # -- provides ------------------------------------------------------------
    def add_provides_port(self, port: Port, port_name: str,
                          port_type: str | None = None) -> None:
        """Export ``port`` under ``port_name``."""
        if not isinstance(port, Port):
            raise PortTypeError(
                f"{self.instance_name}: provides port {port_name!r} must "
                f"be a Port, got {type(port).__name__}")
        if port_name in self.provides:
            raise CCAError(
                f"{self.instance_name}: provides port {port_name!r} "
                f"already registered")
        self.provides[port_name] = (port, port_type or port.port_type())

    # -- uses ------------------------------------------------------------------
    def register_uses_port(self, port_name: str, port_type: str,
                           optional: bool = False) -> None:
        """Declare that this component calls through ``port_name``;
        ``optional`` when it checks :meth:`is_connected` first and runs
        without it (the contract pass requires the others connected)."""
        if port_name in self.uses:
            raise CCAError(
                f"{self.instance_name}: uses port {port_name!r} already "
                f"registered")
        self.uses[port_name] = port_type
        if optional:
            self.optional.add(port_name)

    def get_port(self, port_name: str) -> Port:
        """``ports.<port_name>`` for code that holds a port name as a
        string (bench harnesses, tests, tools outside any component)."""
        return getattr(self.ports, port_name)

    def _bind(self, port_name: str) -> Port:
        """Validate a uses port, run the interception seam and bind its
        answer on :attr:`ports`."""
        if port_name not in self.uses:
            raise CCAError(
                f"{self.instance_name}: {port_name!r} was never registered "
                f"as a uses port")
        try:
            target, label = self._connections[port_name]
        except KeyError:
            raise PortNotConnectedError(
                f"{self.instance_name}: uses port {port_name!r} is not "
                f"connected") from None
        bound = vars(self.ports)
        while True:
            generation = _arming.generation
            port = intercept(target, label, self._framework.port_recorder)
            bound[port_name] = port
            if generation == _arming.generation:
                return port
            # an instrument armed or disarmed meanwhile, and its unbinding
            # may have run before this store: bind again under the new state
            bound.pop(port_name, None)

    def release_port(self, port_name: str) -> None:
        """CCAFFEINE's ``releasePort``.  A bound port needs no release,
        so this only rejects a name that was never a uses port."""
        if port_name not in self.uses:
            raise CCAError(
                f"{self.instance_name}: cannot release unknown port "
                f"{port_name!r}")

    def is_connected(self, port_name: str) -> bool:
        return port_name in self._connections

    # -- read-only introspection (used by repro.analysis) -----------------------
    def uses_table(self) -> dict[str, str]:
        """Snapshot of the declared uses ports (``name -> port_type``)."""
        return dict(self.uses)

    def provides_table(self) -> dict[str, str]:
        """Snapshot of the exported provides ports
        (``name -> port_type``, port objects omitted)."""
        return {name: ptype for name, (_port, ptype)
                in self.provides.items()}

    # -- framework-provided amenities -----------------------------------------
    def get_parameter(self, key: str, default: Any = None) -> Any:
        """The value the rc ``parameter`` directive set for ``key``.

        On a class that declares ``PARAMS``, an unset key gives the
        declared default, and the value is coerced with the
        :class:`~repro.util.options.Options` accessor of the declared
        type; a key the class does not declare raises :class:`CCAError`
        unless the class is ``OPEN_PARAMETERS``.  Undeclared keys of an
        open class, and every key of an undeclared class, are raw
        lookups falling back to ``default``.
        """
        declared = self._declared
        spec = None if declared is None else declared.get(key)
        if spec is None:
            if declared is None or self._open:
                return self.parameters.get(key, default)
            raise CCAError(
                f"{self.instance_name}: parameter {key!r} is not declared "
                f"(declares: {', '.join(declared) or '<none>'})")
        accessor = _ACCESSORS.get(spec.type)
        if accessor is None or (spec.default is None
                                and key not in self.parameters):
            return self.parameters.get(key, spec.default)
        return accessor(self.parameters, key, spec.default)

    def get_comm(self):
        """Borrow the framework's scoped communicator (None in serial).

        "The framework lends out a properly scoped MPI communicator to any
        component to allow access to the parallel virtual machine created
        by mpirun."  (paper §2)
        """
        return self._framework.comm

    # -- internal wiring (called by the framework) -------------------------------
    def _attach(self, port_name: str, port: Port, label: str) -> None:
        self._connections[port_name] = (port, label)
        vars(self.ports).pop(port_name, None)

    def _detach(self, port_name: str) -> None:
        self._connections.pop(port_name, None)
        vars(self.ports).pop(port_name, None)
