"""``Component.PARAMS``: the one parameter declaration and its reads."""

import warnings

import pytest

from repro.cca.component import Component, Param
from repro.cca.framework import Framework
from repro.errors import CCAError


class Widget(Component):
    PARAMS = (
        Param("gain", "float", 1.0, min=0.0),
        Param("steps", "int", 4),
        Param("mode", "str", "fast", choices=("fast", "slow")),
        Param("verbose", "bool", False),
        Param("label", "str"),
        Param("blob", "any", [1, 2]),
    )

    def set_services(self, services):
        self.services = services


class Database(Component):
    PARAMS = (Param("gamma", "float", 1.4),)
    OPEN_PARAMETERS = True

    def set_services(self, services):
        self.services = services


class AdHoc(Component):
    def set_services(self, services):
        self.services = services


def services_of(cls, **params):
    fw = Framework()
    fw.registry.register(cls)
    fw.instantiate(cls.__name__, "x")
    for key, value in params.items():
        fw.set_parameter("x", key, value)
    return fw.services_of("x")


def test_unset_keys_read_the_declared_default_and_type():
    get = services_of(Widget).get_parameter
    assert get("gain") == 1.0 and isinstance(get("gain"), float)
    assert get("steps") == 4
    assert get("mode") == "fast"
    assert get("verbose") is False
    assert get("label") is None  # no default declared
    assert get("blob") == [1, 2]


def test_set_values_are_coerced_by_the_declared_type():
    get = services_of(Widget, gain="1100", steps=3.0, verbose="yes",
                      label=7, blob="raw").get_parameter
    assert get("gain") == 1100.0 and isinstance(get("gain"), float)
    assert get("steps") == 3 and isinstance(get("steps"), int)
    assert get("verbose") is True
    assert get("label") == "7"
    assert get("blob") == "raw"  # "any" is not coerced


def test_undeclared_key_raises():
    services = services_of(Widget)
    with pytest.raises(CCAError, match="'gian' is not declared"):
        services.get_parameter("gian")


def test_open_class_passes_undeclared_keys_through_raw():
    services = services_of(Database, gamma="1.3", spot1_x="0.5")
    assert services.get_parameter("gamma") == 1.3
    assert services.get_parameter("spot1_x") == "0.5"
    assert services.get_parameter("spot2_x") is None
    assert services.get_parameter("spot2_x", 0.25) == 0.25


def test_undeclared_class_is_a_raw_lookup():
    services = services_of(AdHoc, gain="1100")
    assert services.get_parameter("gain") == "1100"
    assert services.get_parameter("missing") is None
    assert services.get_parameter("missing", 5) == 5


def test_set_parameter_warns_only_on_an_undeclared_key_of_a_closed_class():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        services_of(Widget, gain=2.0)
        services_of(Database, anything=1)
        services_of(AdHoc, anything=1)
    assert caught == []
    with pytest.warns(UserWarning, match="'gian'.*not declared"):
        services_of(Widget, gian=2.0)


def test_param_rejects_an_unknown_type():
    with pytest.raises(ValueError, match="double"):
        Param("x", "double")
