"""Tests for the CCA core: component lifecycle, provides/uses wiring,
type checking, parameters, GoPort execution."""

import pytest

from repro.cca import (
    BuilderService,
    Component,
    ComponentRegistry,
    Framework,
    Port,
)
from repro.cca.ports import GoPort, ParameterPort
from repro.errors import CCAError, PortNotConnectedError, PortTypeError


# --------------------------------------------------------- test fixtures
class GreetPort(Port):
    def greet(self) -> str:
        raise NotImplementedError


class _GreetImpl(GreetPort):
    def __init__(self, word):
        self.word = word

    def greet(self):
        return self.word


class Greeter(Component):
    """Provides a GreetPort."""

    def set_services(self, services):
        self.services = services
        services.add_provides_port(_GreetImpl("hello"), "greeting")


class _RunnerGo(GoPort):
    def __init__(self, services):
        self.services = services

    def go(self):
        return self.services.ports.words.greet()


class Runner(Component):
    """Uses a GreetPort, provides a GoPort."""

    def set_services(self, services):
        self.services = services
        services.register_uses_port("words", "GreetPort")
        services.add_provides_port(_RunnerGo(services), "go")


def assembled():
    fw = Framework()
    fw.registry.register_many([Greeter, Runner])
    fw.instantiate("Greeter", "g")
    fw.instantiate("Runner", "r")
    return fw


# --------------------------------------------------------------- registry
def test_registry_rejects_non_component():
    reg = ComponentRegistry()
    with pytest.raises(CCAError):
        reg.register(int)


def test_registry_name_collision():
    reg = ComponentRegistry()
    reg.register(Greeter)
    reg.register(Greeter)  # same class twice: fine

    class Greeter2(Component):
        def set_services(self, services):
            pass

    with pytest.raises(CCAError):
        reg.register(Greeter2, name="Greeter")


def test_registry_unknown_class():
    with pytest.raises(CCAError, match="unknown component class"):
        ComponentRegistry().get("Nope")


# --------------------------------------------------------------- lifecycle
def test_instantiate_calls_set_services():
    fw = assembled()
    g = fw.get_component("g")
    assert isinstance(g, Greeter)
    assert g.services.instance_name == "g"


def test_duplicate_instance_name():
    fw = assembled()
    with pytest.raises(CCAError):
        fw.instantiate("Greeter", "g")


def test_unknown_instance():
    fw = assembled()
    with pytest.raises(CCAError, match="no component instance"):
        fw.get_component("zzz")


def test_destroy_drops_connections():
    fw = assembled()
    fw.connect("r", "words", "g", "greeting")
    fw.destroy("g")
    assert "g" not in fw.instance_names()
    assert fw.connections() == {}
    with pytest.raises(PortNotConnectedError):
        fw.get_component("r").services.get_port("words")


# ------------------------------------------------------------------ wiring
def test_connect_and_call_through_port():
    fw = assembled()
    fw.connect("r", "words", "g", "greeting")
    assert fw.go("r") == "hello"


def test_port_type_comes_from_abstract_ancestor():
    assert _GreetImpl("x").port_type() == "GreetPort"
    assert GreetPort.port_type() == "GreetPort"


def test_connect_type_mismatch():
    class WrongPort(Port):
        pass

    class Wrong(Component):
        def set_services(self, services):
            services.add_provides_port(type("W", (WrongPort,), {})(), "p")

    fw = assembled()
    fw.registry.register(Wrong)
    fw.instantiate("Wrong", "w")
    with pytest.raises(PortTypeError, match="type mismatch"):
        fw.connect("r", "words", "w", "p")


def test_connect_unknown_ports():
    fw = assembled()
    with pytest.raises(CCAError, match="no uses port"):
        fw.connect("r", "nope", "g", "greeting")
    with pytest.raises(CCAError, match="no provides port"):
        fw.connect("r", "words", "g", "nope")


def test_double_connect_rejected():
    fw = assembled()
    fw.connect("r", "words", "g", "greeting")
    with pytest.raises(CCAError, match="already connected"):
        fw.connect("r", "words", "g", "greeting")


def test_disconnect_then_port_unavailable():
    fw = assembled()
    fw.connect("r", "words", "g", "greeting")
    fw.disconnect("r", "words")
    with pytest.raises(PortNotConnectedError):
        fw.services_of("r").get_port("words")
    with pytest.raises(CCAError):
        fw.disconnect("r", "words")


def test_get_port_unregistered_name():
    fw = assembled()
    with pytest.raises(CCAError, match="never registered"):
        fw.services_of("r").get_port("bogus")


def test_release_port():
    fw = assembled()
    fw.connect("r", "words", "g", "greeting")
    fw.services_of("r").release_port("words")
    with pytest.raises(CCAError):
        fw.services_of("r").release_port("bogus")


def test_destroy_after_release_does_not_warn(caplog):
    """Bound ports are not checked out, so destroying a component after
    ``go`` has nothing to report, released or not."""
    import logging

    fw = assembled()
    fw.connect("r", "words", "g", "greeting")
    fw.go("r")
    fw.services_of("r").release_port("words")
    with caplog.at_level(logging.WARNING, logger="repro.cca.framework"):
        fw.destroy("r")
    assert caplog.records == []


def test_services_introspection_tables():
    fw = assembled()
    srv = fw.services_of("r")
    assert srv.uses_table() == {"words": "GreetPort"}
    assert srv.provides_table() == {"go": "GoPort"}
    # snapshots, not live views
    srv.uses_table()["words"] = "Mutated"
    assert srv.uses["words"] == "GreetPort"


def test_provides_must_be_port():
    class Bad(Component):
        def set_services(self, services):
            services.add_provides_port(object(), "p")  # not a Port

    fw = Framework()
    fw.registry.register(Bad)
    with pytest.raises(PortTypeError):
        fw.instantiate("Bad", "b")


def test_duplicate_provides_and_uses_registration():
    class Dup(Component):
        def set_services(self, services):
            services.add_provides_port(_GreetImpl("x"), "p")
            services.add_provides_port(_GreetImpl("y"), "p")

    fw = Framework()
    fw.registry.register(Dup)
    with pytest.raises(CCAError, match="already registered"):
        fw.instantiate("Dup", "d")


# -------------------------------------------------------------- parameters
def test_parameters_flow_to_component():
    fw = assembled()
    fw.set_parameter("g", "volume", 11)
    assert fw.services_of("g").get_parameter("volume") == 11
    assert fw.services_of("g").get_parameter("missing", 5) == 5


# ------------------------------------------------------------------- go
def test_go_requires_goport():
    fw = assembled()
    with pytest.raises(CCAError, match="provides no"):
        fw.go("g")  # Greeter has no go port
    with pytest.raises(PortTypeError, match="no go"):
        fw.go("g", "greeting")  # wrong port type


def test_describe_lists_assembly():
    fw = assembled()
    fw.connect("r", "words", "g", "greeting")
    text = fw.describe()
    assert "r.words -> g.greeting" in text
    assert "greeting[GreetPort]" in text


# ------------------------------------------------------------------ builder
def test_builder_fluent_assembly():
    fw = Framework()
    result = (
        BuilderService(fw)
        .create(Greeter, "g")
        .create(Runner, "r")
        .connect("r", "words", "g", "greeting")
        .parameter("g", "volume", 3)
        .go("r")
    )
    assert result == "hello"


def test_comm_lending():
    fw = Framework(comm="fake-comm")
    fw.registry.register(Greeter)
    fw.instantiate("Greeter", "g")
    assert fw.services_of("g").get_comm() == "fake-comm"
