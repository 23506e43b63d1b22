"""Tests for the Options key-value bag (backing Database components)."""

import pytest

from repro.util import Options


def test_set_get_roundtrip():
    o = Options()
    o.set("mesh.size", 100)
    assert o.get("mesh.size") == 100
    assert "mesh.size" in o
    assert len(o) == 1


def test_initial_mapping_and_update():
    o = Options({"a": 1})
    o.update({"b": 2, "a": 3})
    assert o.get("a") == 3 and o.get("b") == 2


def test_get_default():
    assert Options().get("missing", 42) == 42
    assert Options().get("missing") is None


def test_require_raises_with_known_keys():
    o = Options({"x": 1})
    with pytest.raises(KeyError, match="known: x"):
        o.require("y")


def test_typed_accessors_coerce_strings():
    o = Options({"n": "12", "dt": "0.5", "flag": "true", "name": 7})
    assert o.get_int("n") == 12
    assert o.get_float("dt") == 0.5
    assert o.get_bool("flag") is True
    assert o.get_str("name") == "7"


@pytest.mark.parametrize("raw,expected", [
    ("yes", True), ("on", True), ("1", True),
    ("no", False), ("off", False), ("0", False), ("FALSE", False),
])
def test_bool_spellings(raw, expected):
    assert Options({"f": raw}).get_bool("f") is expected


def test_bool_garbage_raises():
    with pytest.raises(ValueError):
        Options({"f": "maybe"}).get_bool("f")


def test_typed_accessor_missing_raises():
    with pytest.raises(KeyError):
        Options().get_int("n")
    with pytest.raises(KeyError):
        Options().get_float("x")


def test_empty_key_rejected():
    with pytest.raises(KeyError):
        Options().set("", 1)


def test_remove_and_iteration():
    o = Options({"a": 1, "b": 2})
    o.remove("a")
    assert sorted(o) == ["b"]
    with pytest.raises(KeyError):
        o.remove("a")


def test_copy_is_independent():
    o = Options({"a": 1})
    c = o.copy()
    c.set("a", 2)
    assert o.get("a") == 1


def test_as_dict_snapshot():
    o = Options({"a": 1})
    d = o.as_dict()
    d["a"] = 99
    assert o.get("a") == 1


def test_fast_mode_env(monkeypatch):
    from repro.util import fast_mode

    monkeypatch.setenv("REPRO_FAST", "1")
    assert fast_mode()
    monkeypatch.setenv("REPRO_FAST", "0")
    assert not fast_mode()
    monkeypatch.delenv("REPRO_FAST")
    assert not fast_mode()


@pytest.mark.parametrize("default", [False, True])
@pytest.mark.parametrize("raw,expected", [
    ("1", True), ("true", True), ("True", True), ("YES", True),
    (" on ", True),
    ("0", False), ("false", False), ("False", False), ("no", False),
    ("OFF", False),
    ("", None), (None, None),
])
def test_env_flag_spellings(monkeypatch, raw, expected, default):
    from repro.util.options import env_flag

    if raw is None:
        monkeypatch.delenv("REPRO_TSAN", raising=False)
    else:
        monkeypatch.setenv("REPRO_TSAN", raw)
    want = default if expected is None else expected
    assert env_flag("REPRO_TSAN", default) is want


def test_env_flag_garbage_raises(monkeypatch):
    from repro.util.options import env_flag

    monkeypatch.setenv("REPRO_TSAN", "ture")
    with pytest.raises(ValueError, match="REPRO_TSAN"):
        env_flag("REPRO_TSAN", False)


@pytest.mark.parametrize("raw", ["off", "no", "False", "0"])
def test_fast_mode_off_spellings(monkeypatch, raw):
    """REPRO_FAST=off used to read as *on* (only ""/"0"/"false" were
    excluded, case-sensitively)."""
    from repro.util import fast_mode

    monkeypatch.setenv("REPRO_FAST", raw)
    assert not fast_mode()


def test_flag_sites_share_the_parse(monkeypatch):
    """The six call sites answer through env_flag: one spelling flips
    them all the same way."""
    from repro.bench import trajectory
    from repro.exec import mp

    monkeypatch.setenv("REPRO_TRAJECTORY", "No")
    monkeypatch.setenv("REPRO_OBS_SHIP", "Off")
    assert not trajectory.enabled()
    assert not mp._obs_ship_enabled()
    monkeypatch.setenv("REPRO_TRAJECTORY", "yes")
    monkeypatch.setenv("REPRO_OBS_SHIP", "ON")
    assert trajectory.enabled()
    assert mp._obs_ship_enabled()
