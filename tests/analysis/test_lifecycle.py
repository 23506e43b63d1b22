"""Lifecycle linter: RA1xx codes, guard detection, fetch profiles."""

import pathlib
import textwrap

from repro.analysis.findings import Severity
from repro.analysis.lifecycle import (
    analyze_file,
    analyze_source,
    class_fetch_profile,
    scan_source,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def lint(code):
    return analyze_source(textwrap.dedent(code), "<test>")


def codes(findings):
    return {f.code for f in findings}


def test_clean_component_is_clean():
    findings = lint("""\
        class Good:
            def set_services(self, services):
                self.services = services
                services.register_uses_port("mesh", "MeshPort")

            def run(self):
                return self.services.ports.mesh.cells()
        """)
    assert findings == []


def test_unregistered_get_port_ra101():
    findings = lint("""\
        class Bad:
            def set_services(self, services):
                self.services = services
                services.register_uses_port("mesh", "MeshPort")

            def run(self):
                return self.services.get_port("statistics")
        """)
    (f,) = [x for x in findings if x.code == "RA101"]
    assert f.line == 7
    assert "'statistics'" in f.message


def test_registration_outside_set_services_ra102():
    findings = lint("""\
        class Bad:
            def set_services(self, services):
                self.services = services

            def run(self):
                self.services.register_uses_port("late", "LatePort")
                self.services.get_port("late")
        """)
    assert "RA102" in codes(findings)


def test_bound_port_read_is_a_fetch():
    """``<x>.ports.<name>`` counts as a fetch exactly as ``get_port`` does:
    checked against the registrations, and marking the name used."""
    findings = lint("""\
        class Reader:
            def set_services(self, services):
                self.services = services
                services.register_uses_port("mesh", "MeshPort")
                services.register_uses_port("solver", "ODESolverPort")
                services.register_uses_port("spare", "SparePort")

            def run(self):
                self.services.ports.mesh.cells()
                self.services.ports.solvers.integrate()
                return self.services.ports.stats
        """)
    assert sorted((f.code, f.line) for f in findings) == [
        ("RA101", 11), ("RA104", 10), ("RA105", 5), ("RA105", 6)]
    # a release is no longer owed: fetching without one is clean
    assert lint("""\
        class Holder:
            def set_services(self, services):
                self.services = services
                services.register_uses_port("mesh", "MeshPort")

            def run(self):
                return self.services.get_port("mesh")
        """) == []


def test_name_drift_near_miss_ra104():
    findings = lint("""\
        class Drifty:
            def set_services(self, services):
                self.services = services
                services.register_uses_port("solver", "ODESolverPort")

            def run(self):
                self.services.get_port("solvers")
                self.services.release_port("solver")
        """)
    (f,) = [x for x in findings if x.code == "RA104"]
    assert "did you mean 'solver'" in f.message


def test_registered_never_fetched_ra105():
    findings = lint("""\
        class Unused:
            def set_services(self, services):
                services.register_uses_port("spare", "SparePort")
        """)
    (f,) = [x for x in findings if x.code == "RA105"]
    assert "'spare'" in f.message


def test_nonliteral_port_name_ra106():
    findings = lint("""\
        class Dynamic:
            def set_services(self, services):
                self.services = services
                services.register_uses_port("a", "APort")

            def run(self, which):
                self.services.get_port(which)
                self.services.release_port("a")
        """)
    assert "RA106" in codes(findings)
    assert "RA101" not in codes(findings)


def test_try_except_guard_suppresses_nothing_but_marks_guarded():
    scan = scan_source(textwrap.dedent("""\
        class Guarded:
            def set_services(self, services):
                self.services = services
                services.register_uses_port("bc", "BCPort")
                services.register_uses_port("jac", "JacobianPort")

            def run(self):
                try:
                    bc = self.services.get_port("bc")
                except PortNotConnectedError:
                    bc = None
                try:
                    bc = self.services.ports.bc
                except PortNotConnectedError:
                    bc = None
                if self.services.is_connected("jac"):
                    return self.services.ports.jac, bc
                return self.services.ports.jac.jacobian, bc
        """))
    (cls,) = [c for c in scan.classes if c.name == "Guarded"]
    assert [(f.name, f.guarded) for f in cls.fetches] == [
        ("bc", True), ("bc", True), ("jac", True), ("jac", False)]


def test_helper_class_resolves_against_file_union():
    findings = lint("""\
        class _Port:
            def work(self):
                return self.owner.services.get_port("mesh")

        class Owner:
            def set_services(self, services):
                self.services = services
                services.register_uses_port("mesh", "MeshPort")
                services.release_port("mesh")
        """)
    assert "RA101" not in codes(findings)


def test_file_without_registrations_is_unresolvable():
    # e.g. a bench script poking at someone else's services: no RA101
    findings = lint("""\
        class Poker:
            def poke(self, services):
                return services.get_port("anything")
        """)
    assert "RA101" not in codes(findings)


def test_not_python_reports_ra001():
    findings = analyze_source("def broken(:\n", "<bad>")
    assert [f.code for f in findings] == ["RA001"]


def test_bad_component_fixture_covers_the_codes():
    findings = analyze_file(str(FIXTURES / "bad_component.py"))
    assert {"RA101", "RA102", "RA104", "RA105", "RA106"} \
        <= codes(findings)
    # the tidy class contributes nothing above info
    tidy = [f for f in findings if f.context == "TidyComponent"]
    assert all(f.severity is Severity.INFO for f in tidy)


def test_class_fetch_profile_guarded_vs_not():
    from repro.components import GrACEComponent, CvodeComponent

    grace = class_fetch_profile(GrACEComponent)
    assert grace.get("bc") is True and grace.get("balancer") is True
    assert class_fetch_profile(CvodeComponent).get("rhs") is False


def test_class_fetch_profile_dynamic_class_is_empty():
    cls = type("Synthetic", (), {})
    assert class_fetch_profile(cls) == {}
