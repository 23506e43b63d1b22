"""The assembly pass's RA41x contract checks over synthetic contracts."""

import pytest

from repro.analysis.contracts import (
    ComponentManifest,
    analyze_assembly,
    check_job,
    check_model,
    coerce_job_params,
    coerce_value,
    model_from_script,
    value_type_ok,
)
from repro.analysis.findings import Severity
from repro.cca.component import Param as ParamSpec


def params(*specs):
    return {p.name: p for p in specs}


def widget_manifest():
    return ComponentManifest(
        class_name="Widget",
        provides={"go": "GoPort"},
        uses={"src": "OutPort"},
        go_ports=frozenset({"go"}),
        parameters=params(
            ParamSpec(name="gain", type="float", default=1.0,
                      min=0.0, max=10.0),
            ParamSpec(name="mode", type="str", default="fast",
                      choices=["fast", "slow"]),
            ParamSpec(name="steps", type="int", default=4, min=1),
            ParamSpec(name="label", type="str", required=True),
        ))


def source_manifest():
    return ComponentManifest(
        class_name="Source",
        provides={"out": "OutPort", "raw": "RawPort"},
        parameters=params(ParamSpec(name="rate", type="float",
                                    default=2.0)))


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
    return check_model(model_from_script(script, "<t>", manifests))


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


def test_unmanifested_classes_are_skipped(manifests):
    # a class without PARAMS gets the wiring checks only
    manifests["Mystery"] = ComponentManifest(class_name="Mystery")
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
    findings = [f for f in analyze_assembly(name)
                if f.code.startswith("RA41")]
    assert findings == [], "\n".join(f.format() for f in findings)


def test_unknown_assembly_reports_ra002():
    assert codes(analyze_assembly("nope")) == ["RA002"]
