"""The shipped classes' declarations agree with their source.

``PARAMS`` and ``register_uses_port(..., optional=True)`` are the only
copy of a class's contract; these checks hold them to what the code
reads and fetches.
"""

import inspect
import re
import warnings

import pytest

from repro.analysis import analyze_rc_file
from repro.analysis.contracts import (
    check_model,
    default_classes,
    model_from_framework,
    sandbox_services,
)
from repro.analysis.lifecycle import class_fetch_profile
from repro.cca.component import Component, Param
from repro.cca.framework import Framework
from repro.resilience import hooks
from repro.resilience.hooks import CHECKPOINT_PARAMS

CLASSES = default_classes()
CHECKPOINT_KEYS = {p.name for p in CHECKPOINT_PARAMS}
_LITERAL_READ = re.compile(r'get_parameter\(\s*"([^"]+)"\s*\)')


def literal_reads(module) -> set[str]:
    return set(_LITERAL_READ.findall(inspect.getsource(module)))


def by_name(cls):
    return cls.__name__


@pytest.mark.parametrize("cls", CLASSES, ids=by_name)
def test_every_shipped_class_declares_params(cls):
    params = vars(cls).get("PARAMS")
    assert isinstance(params, tuple), f"{cls.__name__} declares no PARAMS"
    assert all(isinstance(p, Param) for p in params)
    names = [p.name for p in params]
    assert len(names) == len(set(names)), names


@pytest.mark.parametrize("cls", CLASSES, ids=by_name)
def test_optional_ports_are_exactly_the_guarded_ones(cls):
    services = sandbox_services(cls)
    profile = class_fetch_profile(cls)
    guarded = {name for name in services.uses
               if profile.get(name) is not False}
    assert services.optional == guarded


@pytest.mark.parametrize(
    "cls", [c for c in CLASSES if not c.OPEN_PARAMETERS], ids=by_name)
def test_every_declared_key_is_read_by_literal(cls):
    read = literal_reads(inspect.getmodule(cls))
    unread = [p.name for p in cls.PARAMS
              if p.name not in read and p.name not in CHECKPOINT_KEYS]
    assert unread == [], f"{cls.__name__} declares but never reads {unread}"


def test_every_literal_read_is_declared_in_its_module():
    modules = {inspect.getmodule(cls) for cls in CLASSES}
    for module in modules:
        declared = set(CHECKPOINT_KEYS)
        for cls in CLASSES:
            if inspect.getmodule(cls) is module:
                declared |= {p.name for p in cls.PARAMS}
        assert literal_reads(module) <= declared, module.__name__


def test_checkpoint_params_are_read_by_the_hook():
    assert literal_reads(hooks) == CHECKPOINT_KEYS
    for cls in CLASSES:
        names = {p.name for p in cls.PARAMS}
        uses_hook = "CheckpointHook(" in inspect.getsource(
            inspect.getmodule(cls))
        assert (CHECKPOINT_KEYS <= names) == uses_hook, cls.__name__


def test_a_class_is_judged_by_itself_not_by_its_name():
    # an unrelated class that happens to share a shipped class's name
    # declares nothing, so nothing about it is checked
    class Initializer(Component):
        def set_services(self, services):
            self.services = services

    fw = Framework()
    fw.registry.register(Initializer)
    fw.instantiate("Initializer", "ic")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fw.set_parameter("ic", "gain", 2.0)
    assert check_model(model_from_framework(fw)) == []


def test_an_rc_script_is_judged_by_the_callers_classes(tmp_path):
    # one registry: the caller's Initializer, not the stock one, is the
    # contract the script's parameters are checked against
    class Initializer(Component):
        PARAMS = (Param("gain", "float", 1.0),)

        def set_services(self, services):
            self.services = services

    script = tmp_path / "custom.rc"
    script.write_text("instantiate Initializer ic\n"
                      "parameter ic gain 2.0\n")
    assert analyze_rc_file(str(script), classes=[Initializer]) == []


def test_a_built_instance_is_checked_against_its_own_declaration():
    class Probe(Component):
        PARAMS = (Param("gain", "float", 1.0, max=10.0),)

        def set_services(self, services):
            self.services = services

    fw = Framework()
    fw.registry.register(Probe)
    fw.instantiate("Probe", "p")
    fw.set_parameter("p", "gain", 99.0)
    assert [f.code for f in check_model(model_from_framework(fw))] == ["RA412"]
