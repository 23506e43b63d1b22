"""SCMD shared state: RA2xx codes, allowlist, pragma."""

import pathlib
import textwrap

from repro.analysis.findings import Severity
from repro.analysis.scmd import (
    DEFAULT_ALLOWLIST,
    analyze_file,
    analyze_source,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def lint(code, **kw):
    return analyze_source(textwrap.dedent(code), "<test>", **kw)


def codes(findings):
    return {f.code for f in findings}


def test_module_level_mutable_ra201():
    (f,) = lint("cache = {}\n")
    assert f.code == "RA201"
    assert f.severity is Severity.WARNING
    assert "scmd: shared" in f.message


def test_constant_style_name_downgrades_to_ra204():
    (f,) = lint("TABLE = {'a': 1}\n")
    assert f.code == "RA204"
    assert f.severity is Severity.INFO
    (f,) = lint("_PRIVATE_TABLE = [1, 2]\n")
    assert f.code == "RA204"


def test_immutable_module_state_is_fine():
    assert lint("x = 3\nname = 'hi'\npair = (1, 2)\n") == []


def test_mutable_constructor_calls_flagged():
    assert codes(lint("buf = np.zeros(10)\n")) == {"RA201"}
    assert codes(lint("items = list()\n")) == {"RA201"}
    assert codes(lint("q = deque()\n")) == {"RA201"}


def test_allowlist_and_pragma_suppress():
    assert lint("_log = {}\n") == []          # default allowlist
    assert lint("shared = {}  # scmd: shared\n") == []
    assert lint("mine = {}\n",
                allowlist=DEFAULT_ALLOWLIST | {"mine"}) == []


def test_mutable_class_attribute_ra202():
    (f,) = lint("""\
        class C:
            history = []
        """)
    assert f.code == "RA202"
    assert "C.history" in f.message


def test_mutation_outside_step_methods_not_flagged():
    assert lint("""\
        registry = {}

        class C:
            def configure(self):
                registry["k"] = 1
        """) == []


def test_instance_state_is_fine():
    assert lint("""\
        class C:
            def go(self):
                self.results = []
                self.results.append(1)
        """) == []


def test_self_attr_shadowed_by_instance_assignment_is_fine():
    # a plain ``self.attr = ...`` anywhere in the method means the
    # instance owns a private object — later mutations are rank-local
    assert lint("""\
        class C:
            history = []  # scmd: shared

            def go(self):
                self.history = []
                self.history.append(1)
        """) == []


def test_pragma_matches_multiline_statement():
    assert lint("""\
        table = {
            "a": 1,
        }  # scmd: shared
        """) == []
    assert lint("""\
        table = {  # scmd: shared — config replicated read-only
            "a": 1,
        }
        """) == []


def test_pragma_tolerates_spacing_and_trailing_comments():
    assert lint("shared = {}  #scmd:shared\n") == []
    assert lint("shared = {}  # scmd : shared (why: singleton)\n") == []
    # but unrelated comments do not opt out
    assert codes(lint("shared = {}  # some note\n")) == {"RA201"}


def test_bad_scmd_fixture_covers_the_codes():
    findings = analyze_file(str(FIXTURES / "bad_scmd.py"))
    assert {"RA201", "RA202", "RA204", "RA301", "RA302"} == codes(findings)
    # every write in RacyComponent.go is a race finding on its own line
    assert [(f.code, f.line) for f in findings if f.code.startswith("RA3")] == [
        ("RA301", 26), ("RA301", 27), ("RA301", 28), ("RA302", 29),
        ("RA301", 30)]
    # _log (allowlisted) and the pragma'd lines stay silent
    assert not [f for f in findings if f.context in ("_log", "shared_ok")]
