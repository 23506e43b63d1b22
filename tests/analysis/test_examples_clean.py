"""Meta-test: everything we ship analyzes clean.

The analyzer is only trustworthy if the shipped artifacts — every
example, every rc-script, the three paper assemblies, and the component
packages themselves — pass their own pre-flight check with no findings
at error severity (and nothing above info for the assemblies' wiring).
"""

import pathlib

import pytest

from repro.analysis import analyze_rc_file, analyze_target, contracts
from repro.analysis.findings import Report, Severity
from repro.apps.assemblies import IGNITION0D_SCRIPT

REPO = pathlib.Path(__file__).resolve().parents[2]

EXAMPLES = sorted((REPO / "examples").iterdir())


@pytest.mark.parametrize(
    "path", [p for p in EXAMPLES if p.suffix in (".py", ".rc")],
    ids=lambda p: p.name)
def test_every_example_analyzes_clean(path):
    report = Report(analyze_target(str(path)))
    assert report.at_least(Severity.ERROR) == [], report.format_text()
    assert report.at_least(Severity.WARNING) == [], report.format_text()


@pytest.mark.parametrize("name", ["ignition0d", "reaction_diffusion",
                                  "shock_interface"])
def test_every_paper_assembly_analyzes_clean(name):
    report = Report(contracts.analyze_assembly(name))
    # nothing above info: the only notes are the guarded optional ports
    assert report.at_least(Severity.WARNING) == [], report.format_text()
    for f in report.findings:
        assert f.code == "RA012"


def test_shipped_rc_script_text_analyzes_clean():
    # the one note: its constant-volume RHS has no analytic Jacobian, so
    # the solver's optional ``jacobian`` port stays unconnected
    findings = contracts.analyze_script(IGNITION0D_SCRIPT)
    assert [(f.code, f.context) for f in findings] == [
        ("RA012", "CvodeComponent")]
    assert "jacobian" in findings[0].message


@pytest.mark.parametrize("package", ["repro.components", "repro.apps",
                                     "repro.cca"])
def test_shipped_packages_have_no_errors_or_warnings(package):
    report = Report(analyze_target(package))
    assert report.at_least(Severity.WARNING) == [], report.format_text()


def test_examples_rc_matches_shipped_script_semantics():
    # the standalone .rc file must stay wiring-identical to the module
    # constant (same directives, comments aside)
    from repro.cca.script import parse_script

    file_directives = [
        (d.verb, d.args)
        for d in parse_script((REPO / "examples/ignition0d.rc").read_text())]
    const_directives = [
        (d.verb, d.args) for d in parse_script(IGNITION0D_SCRIPT)]
    assert file_directives == const_directives


# ----------------------------------------------------- RA41x contracts
def contract_findings(findings):
    return [f for f in findings if f.code.startswith("RA41")]


@pytest.mark.parametrize(
    "path", [p for p in EXAMPLES if p.suffix == ".rc"],
    ids=lambda p: p.name)
def test_every_example_rc_passes_contracts_clean(path):
    findings = contract_findings(analyze_rc_file(str(path)))
    assert findings == [], "\n".join(f.format() for f in findings)


@pytest.mark.parametrize("name", ["ignition0d", "reaction_diffusion",
                                  "shock_interface"])
def test_every_paper_assembly_passes_contracts_clean(name):
    findings = contract_findings(contracts.analyze_assembly(name))
    assert findings == [], "\n".join(f.format() for f in findings)


def test_shipped_script_text_passes_contracts_clean():
    assert contract_findings(
        contracts.analyze_script(IGNITION0D_SCRIPT)) == []


@pytest.mark.parametrize(
    "path", [p for p in EXAMPLES if p.suffix in (".py", ".rc")],
    ids=lambda p: p.name)
def test_every_example_analyzes_clean_with_contracts(path):
    report = Report(analyze_target(str(path)))
    assert report.at_least(Severity.WARNING) == [], report.format_text()
