"""The framework: component registry, lifecycle and port wiring.

One :class:`Framework` instance exists per SCMD rank ("identical
frameworks, containing the same components, are instantiated on all P
processors").  It is deliberately minimalist — instantiate, connect, go —
exactly the surface CCAFFEINE exposes.
"""

from __future__ import annotations

from typing import Any, Iterable, Type

from repro.cca.component import Component
from repro.cca.port import Port
from repro.cca.portproxy import PortProxy
from repro.cca.services import Services
from repro.errors import CCAError, PortTypeError
from repro.mpi import sanitizer as _tsan
from repro.obs import trace as _trace
from repro.util import arming as _arming
from repro.util.logging import get_logger

_log = get_logger("cca.framework")


def _warn_unknown_parameter(class_name: str, instance_name: str,
                            key: str) -> None:
    """Warn when a manifest-covered class gets a key it never reads.

    Lazy import: :mod:`repro.analysis.manifest` reads the committed
    manifests exactly once; classes without a manifest (ad-hoc test
    components) and open-parameter database components never warn.
    """
    try:
        from repro.analysis.manifest import known_parameter
    except Exception:  # pragma: no cover - analysis layer unavailable
        return
    if known_parameter(class_name, key) is False:
        import warnings

        warnings.warn(
            f"parameter {key!r} set on {instance_name!r} "
            f"({class_name}) is not declared in its manifest and will "
            f"never be read", UserWarning, stacklevel=3)


class ComponentRegistry:
    """Maps class names to component classes ("the repository")."""

    def __init__(self) -> None:
        self._classes: dict[str, Type[Component]] = {}

    def register(self, cls: Type[Component],
                 name: str | None = None) -> None:
        if not (isinstance(cls, type) and issubclass(cls, Component)):
            raise CCAError(f"{cls!r} is not a Component subclass")
        key = name or cls.__name__
        if key in self._classes and self._classes[key] is not cls:
            raise CCAError(f"class name {key!r} already registered")
        self._classes[key] = cls

    def register_many(self, classes: Iterable[Type[Component]]) -> None:
        for cls in classes:
            self.register(cls)

    def get(self, name: str) -> Type[Component]:
        try:
            return self._classes[name]
        except KeyError:
            known = ", ".join(sorted(self._classes)) or "<empty>"
            raise CCAError(
                f"unknown component class {name!r} (repository has: "
                f"{known})") from None

    def names(self) -> list[str]:
        return sorted(self._classes)

    def __contains__(self, name: str) -> bool:
        return name in self._classes


class Framework:
    """A CCA framework instance for one rank.

    Parameters
    ----------
    registry:
        Component class repository used by ``instantiate``.
    comm:
        The rank's world communicator, lent to components on request;
        ``None`` for serial runs.
    """

    def __init__(self, registry: ComponentRegistry | None = None,
                 comm=None) -> None:
        self.registry = registry or ComponentRegistry()
        self.comm = comm
        self._components: dict[str, Component] = {}
        self._services: dict[str, Services] = {}
        # (user, uses_port) -> (provider, provides_port)
        self._connections: dict[tuple[str, str], tuple[str, str]] = {}
        #: profiler every port call is reported to (see record_port_calls)
        self.port_recorder: Any | None = None

    # -- lifecycle ------------------------------------------------------------
    def instantiate(self, class_name: str, instance_name: str) -> Component:
        """Create a component and run its ``setServices``."""
        if instance_name in self._components:
            raise CCAError(f"instance name {instance_name!r} already used")
        cls = self.registry.get(class_name)
        # While the race sanitizer is armed, shadow the class's mutable
        # class attributes (the RA202 shared-object model) so rank-thread
        # writes are clock-checked — the disabled cost is this flag check.
        if _tsan.on:
            _tsan.instrument_class(cls)
        component = cls()
        services = Services(self, instance_name)
        component.set_services(services)
        self._components[instance_name] = component
        self._services[instance_name] = services
        _log.debug("instantiated %s as %s", class_name, instance_name)
        return component

    def destroy(self, instance_name: str) -> None:
        """Remove a component, dropping every connection touching it.

        Warns about uses ports the component checked out with
        ``get_port`` and never ``release_port``-ed — the runtime
        counterpart of the analyzer's RA103 lifecycle lint.
        """
        comp = self.get_component(instance_name)
        leaked = self._services[instance_name].port_balances()
        if leaked:
            detail = ", ".join(f"{p} (x{n})"
                               for p, n in sorted(leaked.items()))
            _log.warning("destroying %s with unreleased ports: %s",
                         instance_name, detail)
        for (user, uport), (prov, _pport) in list(self._connections.items()):
            if user == instance_name or prov == instance_name:
                self.disconnect(user, uport)
        comp.release_services(self._services[instance_name])
        del self._components[instance_name]
        del self._services[instance_name]

    def get_component(self, instance_name: str) -> Component:
        try:
            return self._components[instance_name]
        except KeyError:
            raise CCAError(
                f"no component instance {instance_name!r} (have: "
                f"{sorted(self._components)})") from None

    def services_of(self, instance_name: str) -> Services:
        self.get_component(instance_name)
        return self._services[instance_name]

    def instance_names(self) -> list[str]:
        return sorted(self._components)

    # -- wiring ------------------------------------------------------------------
    def connect(self, user: str, uses_port: str,
                provider: str, provides_port: str) -> None:
        """Wire ``user.uses_port`` to ``provider.provides_port``.

        Connecting is "just the movement of (pointers to) interfaces from
        the providing to the using component" — the provider's port object
        is handed to the user's services.
        """
        u_srv = self.services_of(user)
        p_srv = self.services_of(provider)
        if uses_port not in u_srv.uses:
            raise CCAError(
                f"{user!r} has no uses port {uses_port!r} "
                f"(declares: {sorted(u_srv.uses)})")
        if provides_port not in p_srv.provides:
            raise CCAError(
                f"{provider!r} has no provides port {provides_port!r} "
                f"(exports: {sorted(p_srv.provides)})")
        port, ptype = p_srv.provides[provides_port]
        expected = u_srv.uses[uses_port]
        if ptype != expected:
            raise PortTypeError(
                f"type mismatch connecting {user}.{uses_port} "
                f"[{expected}] to {provider}.{provides_port} [{ptype}]")
        if (user, uses_port) in self._connections:
            raise CCAError(
                f"{user}.{uses_port} is already connected")
        u_srv._attach(uses_port, port, f"{provider}:{provides_port}")
        self._connections[(user, uses_port)] = (provider, provides_port)

    def disconnect(self, user: str, uses_port: str) -> None:
        if (user, uses_port) not in self._connections:
            raise CCAError(f"{user}.{uses_port} is not connected")
        self.services_of(user)._detach(uses_port)
        del self._connections[(user, uses_port)]

    def connections(self) -> dict[tuple[str, str], tuple[str, str]]:
        """Snapshot of the wiring (used by assembly dumps / Figs 1, 2, 5)."""
        return dict(self._connections)

    def provider_of(self, user: str, uses_port: str
                    ) -> tuple[str, str] | None:
        """``(provider, provides_port)`` wired to ``user.uses_port``, or
        None when unconnected."""
        return self._connections.get((user, uses_port))

    def record_port_calls(self, recorder: Any | None) -> None:
        """Report every port call of this assembly to ``recorder``
        (``begin(key) -> token`` / ``end(key, token)``, see
        :mod:`repro.cca.portproxy`); ``None`` stops reporting."""
        self.port_recorder = recorder
        _arming.bump()

    # -- checkpoint/restart -------------------------------------------------------
    def capture_state(self) -> dict[str, dict]:
        """Snapshot every Checkpointable component's evolving state.

        Components not implementing the protocol (see
        :mod:`repro.resilience.protocol`) are stateless by definition
        here and simply omitted.
        """
        states: dict[str, dict] = {}
        for name, comp in self._components.items():
            fn = getattr(comp, "checkpoint_state", None)
            if callable(fn):
                states[name] = fn()
        return states

    def restore_state(self, states: dict[str, dict]) -> None:
        """Re-impose captured component states after re-instantiation.

        Unknown instance names are an error (the restored assembly must
        match the one that checkpointed); components that dropped the
        protocol raise too, so silent state loss is impossible.
        """
        for name, state in states.items():
            comp = self.get_component(name)
            fn = getattr(comp, "restore_state", None)
            if not callable(fn):
                raise CCAError(
                    f"component {name!r} has checkpointed state but "
                    f"implements no restore_state()")
            fn(state)

    # -- parameters & execution ---------------------------------------------------
    def set_parameter(self, instance_name: str, key: str,
                      value: Any) -> None:
        """The rc ``parameter`` directive.

        A typo'd key would be silently stored and never read; when the
        instance's class ships a manifest declaring its parameters, an
        unknown key raises a :class:`UserWarning` at set time (the
        runtime analog of the static RA411 contract check).
        """
        srv = self.services_of(instance_name)
        _warn_unknown_parameter(
            type(self._components[instance_name]).__name__,
            instance_name, key)
        srv.parameters.set(key, value)

    def go(self, instance_name: str, port_name: str = "go") -> Any:
        """Invoke a component's GoPort — the application entry point."""
        srv = self.services_of(instance_name)
        if port_name not in srv.provides:
            raise CCAError(
                f"{instance_name!r} provides no {port_name!r} port")
        port, ptype = srv.provides[port_name]
        # the entry call is profiled like any other port call
        if self.port_recorder is not None:
            port = PortProxy(port, f"{instance_name}:{port_name}",
                             self.port_recorder)
        go = getattr(port, "go", None)
        if go is None:
            raise PortTypeError(
                f"{instance_name}.{port_name} [{ptype}] has no go() method")
        if _trace.on:
            with _trace.span(f"cca.go:{instance_name}", cat="cca"):
                return go()
        return go()

    # -- introspection ------------------------------------------------------------
    def describe(self) -> str:
        """Human-readable assembly dump (the textual analog of the GUI
        arena in the paper's Fig. 1)."""
        lines = ["components:"]
        for name in self.instance_names():
            srv = self._services[name]
            prov = ", ".join(f"{p}[{t}]" for p, (_o, t)
                             in sorted(srv.provides.items()))
            uses = ", ".join(f"{p}[{t}]" for p, t in sorted(srv.uses.items()))
            lines.append(f"  {name}")
            lines.append(f"    provides: {prov or '-'}")
            lines.append(f"    uses:     {uses or '-'}")
        lines.append("connections:")
        for (user, uport), (prov, pport) in sorted(self._connections.items()):
            lines.append(f"  {user}.{uport} -> {prov}.{pport}")
        return "\n".join(lines)
