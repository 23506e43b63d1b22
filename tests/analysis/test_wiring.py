"""The assembly pass's wiring checks: every RA0xx code on a small test
component set."""

import pathlib

import pytest

from repro.analysis.findings import Severity
from repro.analysis.contracts import (
    analyze_assembly,
    analyze_script,
    assembly_names,
    check_model,
    class_manifest,
    model_from_framework,
)
from repro.cca import Component, Framework, Port

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


# -- a tiny component set ---------------------------------------------------
class HelloPort(Port):
    def hello(self):
        raise NotImplementedError


class _Hello(HelloPort):
    def hello(self):
        return "hi"


class WaveProvider(Component):
    def set_services(self, services):
        services.add_provides_port(_Hello(), "greeting")


class _GoEager(Port):
    def __init__(self, owner):
        self.owner = owner

    def go(self):
        return self.owner.services.get_port("words").hello()


class EagerUser(Component):
    """Requires its uses port: unconnected -> RA011."""

    def set_services(self, services):
        self.services = services
        services.register_uses_port("words", "HelloPort")
        services.add_provides_port(_GoEager(self), "go")


class _GoCasual(Port):
    def __init__(self, owner):
        self.owner = owner

    def go(self):
        if self.owner.services.is_connected("maybe"):
            return self.owner.services.get_port("maybe").hello()
        return "silence"


class CasualUser(Component):
    """Guards its fetch with is_connected: unconnected -> RA012 info."""

    def set_services(self, services):
        self.services = services
        services.register_uses_port("maybe", "HelloPort", optional=True)
        services.add_provides_port(_GoCasual(self), "go")


class PeerA(Component):
    def set_services(self, services):
        self.services = services
        services.register_uses_port("peer", "HelloPort")
        services.add_provides_port(_Hello(), "greeting")


class PeerB(Component):
    def set_services(self, services):
        self.services = services
        services.register_uses_port("peer", "HelloPort")
        services.add_provides_port(_Hello(), "greeting")


class Unbuildable(Component):
    def set_services(self, services):
        raise RuntimeError("sandbox says no")


CLASSES = [WaveProvider, EagerUser, CasualUser, PeerA, PeerB, Unbuildable]


def codes(findings):
    return {f.code for f in findings}


def by_code(findings, code):
    return [f for f in findings if f.code == code]


def test_clean_script_has_no_findings():
    script = """\
instantiate WaveProvider greeter
instantiate EagerUser user
connect user words greeter greeting
go user
"""
    assert analyze_script(script, CLASSES) == []


def test_class_manifest():
    m = class_manifest(EagerUser)
    assert m.uses == {"words": "HelloPort"}
    assert m.provides == {"go": "_GoEager"}
    assert m.go_ports == {"go"}
    assert m.optional == frozenset()
    assert m.parameters is None  # undeclared: wiring checks only
    assert class_manifest(CasualUser).optional == {"maybe"}
    assert class_manifest(WaveProvider).go_ports == frozenset()
    assert class_manifest(EagerUser) is m  # harvested once per class


def test_only_the_classes_a_script_names_are_harvested():
    harvested = []

    class Bystander(Component):
        def set_services(self, services):
            harvested.append(self)

    assert analyze_script("instantiate WaveProvider g\n",
                          CLASSES + [Bystander]) == []
    assert harvested == []
    assert "RA002" in codes(analyze_script("instantiate Nope n\n",
                                           CLASSES + [Bystander]))
    assert harvested == []


def test_syntax_errors_accumulate_as_ra001():
    script = "bogus one\ninstantiate WaveProvider g\nconnect a b\n"
    findings = analyze_script(script, CLASSES)
    ra001 = by_code(findings, "RA001")
    assert [f.line for f in ra001] == [1, 3]


def test_unknown_class_ra002():
    findings = analyze_script("instantiate NoSuch x\n", CLASSES)
    assert "RA002" in codes(findings)


def test_duplicate_instance_ra003():
    script = ("instantiate WaveProvider g\n"
              "instantiate WaveProvider g\n")
    (f,) = by_code(analyze_script(script, CLASSES), "RA003")
    assert f.line == 2
    assert "line 1" in f.message


def test_unknown_instance_ra004():
    findings = analyze_script("parameter ghost key 1\n", CLASSES)
    assert "RA004" in codes(findings)


def test_unknown_ports_ra005():
    script = """\
instantiate WaveProvider g
instantiate EagerUser u
connect u nope g greeting
connect u words g nothing
"""
    ra005 = by_code(analyze_script(script, CLASSES), "RA005")
    assert len(ra005) == 2
    assert {f.line for f in ra005} == {3, 4}


def test_type_mismatch_ra006():
    script = """\
instantiate EagerUser greeter
instantiate EagerUser u
connect u words greeter go
go u
"""
    findings = analyze_script(script, CLASSES)
    (f,) = by_code(findings, "RA006")
    assert "HelloPort" in f.message and "_GoEager" in f.message
    assert f.line == 3
    # reported once: there is no second type check on the same line
    assert [g.code for g in findings if g.line == 3] == ["RA006"]


def test_use_before_instantiate_ra007():
    script = ("parameter u key 1\n"
              "instantiate EagerUser u\n")
    (f,) = by_code(analyze_script(script, CLASSES), "RA007")
    assert f.line == 1
    assert "line 2" in f.message


def test_duplicate_connection_ra008():
    script = """\
instantiate WaveProvider g
instantiate EagerUser u
connect u words g greeting
connect u words g greeting
go u
"""
    (f,) = by_code(analyze_script(script, CLASSES), "RA008")
    assert f.line == 4


def test_go_before_connect_ra009():
    script = """\
instantiate WaveProvider g
instantiate EagerUser u
go u
connect u words g greeting
"""
    (f,) = by_code(analyze_script(script, CLASSES), "RA009")
    assert f.line == 3
    assert "line 4" in f.message
    # the late connect still counts as wiring: no RA011 on top
    assert "RA011" not in codes(analyze_script(script, CLASSES))


def test_go_without_go_port_ra010():
    findings = analyze_script(
        "instantiate WaveProvider g\ngo g\n", CLASSES)
    (f,) = by_code(findings, "RA010")
    assert f.line == 2


def test_unconnected_unguarded_fetch_ra011():
    findings = analyze_script("instantiate EagerUser u\ngo u\n", CLASSES)
    (f,) = by_code(findings, "RA011")
    assert f.severity is Severity.ERROR
    assert "PortNotConnectedError" in f.message
    assert "u.words [HelloPort]" in f.message and f.line == 1
    # every instance, whether a go reaches it or not (library scripts)
    script = "instantiate WaveProvider g\ninstantiate EagerUser u\ngo g\n"
    assert [f.context for f in by_code(analyze_script(script, CLASSES),
                                       "RA011")] == ["u"]
    assert codes(analyze_script("instantiate EagerUser u\n",
                                CLASSES)) == {"RA011"}


def test_unconnected_guarded_fetch_is_info_ra012():
    findings = analyze_script("instantiate CasualUser u\ngo u\n", CLASSES)
    assert codes(findings) == {"RA012"}
    (f,) = findings
    assert f.severity is Severity.INFO


def test_cycle_ra013():
    script = """\
instantiate PeerA a
instantiate PeerB b
connect a peer b greeting
connect b peer a greeting
"""
    findings = analyze_script(script, CLASSES)
    (f,) = by_code(findings, "RA013")
    assert f.severity is Severity.WARNING
    assert "a -> b -> a" in f.message or "b -> a -> b" in f.message


def test_uninstantiable_class_ra014():
    findings = analyze_script("instantiate Unbuildable u\n", CLASSES)
    (f,) = by_code(findings, "RA014")
    assert "sandbox says no" in f.message
    # the failed harvest is cached, the finding is not
    again = analyze_script("instantiate Unbuildable v\n", CLASSES)
    assert [f.context for f in by_code(again, "RA014")] == ["Unbuildable"]


def test_bad_wiring_fixture_covers_the_codes():
    text = (FIXTURES / "bad_wiring.rc").read_text()
    found = codes(analyze_script(text))  # default (shipped) repository
    expected = {"RA001", "RA002", "RA003", "RA004", "RA005", "RA006",
                "RA007", "RA008", "RA009", "RA010", "RA011"}
    assert expected <= found


def test_analyze_framework_flags_dangling_unguarded():
    fw = Framework()
    fw.registry.register_many([WaveProvider, EagerUser, CasualUser])
    fw.instantiate("EagerUser", "eager")
    fw.instantiate("CasualUser", "casual")
    findings = check_model(model_from_framework(fw))
    assert {f.code for f in findings} == {"RA011", "RA012"}
    fw.instantiate("WaveProvider", "greeter")
    fw.connect("eager", "words", "greeter", "greeting")
    fw.connect("casual", "maybe", "greeter", "greeting")
    assert check_model(model_from_framework(fw)) == []


def test_assembly_names_and_unknown():
    assert assembly_names() == ["ignition0d", "reaction_diffusion",
                                "shock_interface"]
    (f,) = analyze_assembly("nope")
    assert f.code == "RA002" and "unknown assembly 'nope'" in f.message
