"""The RA41x assembly contract pass over synthetic contracts."""

import pytest

from repro.analysis.contracts import (
    ComponentManifest,
    PortSpec,
    analyze_assembly_contracts,
    analyze_script_contracts,
    check_job,
    coerce_job_params,
    coerce_value,
    value_type_ok,
)
from repro.analysis.findings import Severity
from repro.cca.component import Param as ParamSpec


def widget_manifest():
    return ComponentManifest(
        class_name="Widget",
        provides=[PortSpec(name="out", type="OutPort")],
        uses=[PortSpec(name="src", type="OutPort", required=True),
              PortSpec(name="aux", type="AuxPort")],
        parameters=[
            ParamSpec(name="gain", type="float", default=1.0,
                      min=0.0, max=10.0),
            ParamSpec(name="mode", type="str", default="fast",
                      choices=["fast", "slow"]),
            ParamSpec(name="steps", type="int", default=4, min=1),
            ParamSpec(name="label", type="str", required=True),
        ])


def source_manifest():
    return ComponentManifest(
        class_name="Source",
        provides=[PortSpec(name="out", type="OutPort"),
                  PortSpec(name="raw", type="RawPort")],
        parameters=[ParamSpec(name="rate", type="float", default=2.0)])


@pytest.fixture
def manifests():
    return {"Widget": widget_manifest(), "Source": source_manifest()}


BASE = """\
instantiate Source feed
instantiate Widget w
parameter w label run-1
connect w src feed out
go w
"""


def codes(findings):
    return sorted(f.code for f in findings)


def check(script, manifests):
    return analyze_script_contracts(script, "<t>", manifests)


def test_clean_script_has_no_findings(manifests):
    assert check(BASE, manifests) == []


def test_ra411_unknown_parameter(manifests):
    out = check(BASE + "parameter w bogus 3\n", manifests)
    assert codes(out) == ["RA411"]
    assert "bogus" in out[0].message


def test_ra411_did_you_mean(manifests):
    out = check(BASE + "parameter w gian 3\n", manifests)
    assert codes(out) == ["RA411"]
    assert "did you mean 'gain'" in out[0].message


def test_ra412_out_of_range(manifests):
    out = check(BASE + "parameter w gain 99.0\n", manifests)
    assert codes(out) == ["RA412"]
    out = check(BASE + "parameter w steps 0\n", manifests)
    assert codes(out) == ["RA412"]


def test_ra413_bad_choice(manifests):
    out = check(BASE + "parameter w mode turbo\n", manifests)
    assert codes(out) == ["RA413"]


def test_ra414_wrong_type(manifests):
    out = check(BASE + "parameter w gain hot\n", manifests)
    assert codes(out) == ["RA414"]
    # ints are acceptable floats; floats are not acceptable ints
    assert check(BASE + "parameter w gain 3\n", manifests) == []
    out = check(BASE + "parameter w steps 2.5\n", manifests)
    assert codes(out) == ["RA414"]


def test_ra415_required_parameter_missing(manifests):
    script = BASE.replace("parameter w label run-1\n", "")
    out = check(script, manifests)
    assert codes(out) == ["RA415"]
    assert "label" in out[0].message


def test_ra416_parameter_on_wrong_instance(manifests):
    out = check(BASE + "parameter w rate 3.0\n", manifests)
    assert codes(out) == ["RA416"]
    assert out[0].severity == Severity.WARNING
    assert "feed" in out[0].message  # points at the declaring instance


def test_ra417_required_port_unconnected(manifests):
    script = BASE.replace("connect w src feed out\n", "")
    out = check(script, manifests)
    assert codes(out) == ["RA417"]
    assert "src" in out[0].message


def test_ra417_skips_unreachable_and_library_scripts(manifests):
    # no go directive: library assembly, schedule not checkable
    script = "instantiate Widget w\nparameter w label x\n"
    assert check(script, manifests) == []
    # w is not reachable from the go target
    script = ("instantiate Source feed\ninstantiate Widget w\n"
              "parameter w label x\ngo feed\n")
    assert check(script, manifests) == []


def test_ra417_optional_port_never_flagged(manifests):
    # aux (required=False) stays unconnected in BASE: no finding
    assert check(BASE, manifests) == []


def test_ra418_port_type_mismatch(manifests):
    script = BASE.replace("connect w src feed out",
                          "connect w src feed raw")
    out = check(script, manifests)
    assert codes(out) == ["RA418"]
    assert "OutPort" in out[0].message and "RawPort" in out[0].message


def test_unmanifested_classes_are_skipped(manifests):
    script = BASE + ("instantiate Mystery m\n"
                     "parameter m whatever 1\n")
    assert check(script, manifests) == []


# -- value typing ----------------------------------------------------------
def test_value_typing_rules():
    assert value_type_ok("float", 3) and value_type_ok("float", 3.5)
    assert not value_type_ok("float", "hot")
    assert not value_type_ok("float", True)
    assert value_type_ok("int", 3) and not value_type_ok("int", 3.5)
    assert value_type_ok("bool", 1) and value_type_ok("bool", "true")
    assert not value_type_ok("bool", 2)
    assert value_type_ok("str", 0)  # components str()-coerce
    assert coerce_value("float", "1100") == "1100"  # not ok -> unchanged
    assert coerce_value("float", 1100) == 1100.0
    assert coerce_value("bool", "yes") is True
    assert coerce_value("str", 0) == "0"


# -- serve admission entry points -----------------------------------------
def test_check_job_clean(manifests):
    assert check_job(BASE, {"w.gain": 2.0}, manifests=manifests) == []


def test_check_job_flags_override_values(manifests):
    out = check_job(BASE, {"w.gain": 99.0, "w.mode": "turbo"},
                    manifests=manifests)
    assert codes(out) == ["RA412", "RA413"]


def test_check_job_override_on_unknown_instance(manifests):
    out = check_job(BASE, {"fed.rate": 1.0}, manifests=manifests)
    assert codes(out) == ["RA411"]
    assert "did you mean 'feed'" in out[0].message


def test_check_job_override_satisfies_required(manifests):
    script = BASE.replace("parameter w label run-1\n", "")
    assert check_job(script, {"w.label": "run-2"},
                     manifests=manifests) == []
    assert codes(check_job(script, None, manifests=manifests)) == \
        ["RA415"]


def test_check_job_rejects_syntax_errors(manifests):
    out = check_job("instantiate Widget\n", manifests=manifests)
    assert codes(out) == ["RA001"]


def test_coerce_job_params(manifests):
    coerced = coerce_job_params(BASE, {"w.gain": 3, "w.steps": 2,
                                       "w.label": 7, "w.bogus": "x"},
                                manifests)
    assert coerced["w.gain"] == 3.0 and isinstance(coerced["w.gain"],
                                                   float)
    assert coerced["w.steps"] == 2
    assert coerced["w.label"] == "7"  # str params coerce with str()
    assert coerced["w.bogus"] == "x"  # undeclared: untouched


# -- shipped assemblies ----------------------------------------------------
@pytest.mark.parametrize("name", ["ignition0d", "reaction_diffusion",
                                  "shock_interface"])
def test_shipped_assemblies_pass_contracts(name):
    findings = analyze_assembly_contracts(name)
    assert findings == [], "\n".join(f.format() for f in findings)


def test_unknown_assembly_reports_ra002():
    assert codes(analyze_assembly_contracts("nope")) == ["RA002"]
