"""The backend registry: resolution order, did-you-mean, availability."""

import pytest

from repro.errors import MPIError
from repro.exec import (
    DEFAULT_BACKEND,
    BackendUnavailableError,
    ExecBackend,
    backend_names,
    get_backend,
    register,
    resolve_name,
)


def test_builtins_registered():
    names = backend_names()
    assert names[0] == DEFAULT_BACKEND == "threads"
    assert names == ["threads", "mp"]


def test_resolve_default_is_threads(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    assert resolve_name(None) == "threads"
    assert resolve_name("") == "threads"


def test_resolve_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "mp")
    assert resolve_name(None) == "mp"
    # an explicit keyword beats the environment
    assert resolve_name("threads") == "threads"


def test_resolve_strips_whitespace():
    assert resolve_name("  mp ") == "mp"


def test_unknown_backend_did_you_mean():
    with pytest.raises(MPIError) as excinfo:
        resolve_name("mp2")
    msg = str(excinfo.value)
    assert "unknown execution backend 'mp2'" in msg
    assert "did you mean 'mp'?" in msg
    assert "threads" in msg  # the registry listing rides along


def test_unknown_backend_from_env_raises(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "thredas")
    with pytest.raises(MPIError, match="did you mean 'threads'"):
        resolve_name(None)


def test_get_backend_caches_instances():
    assert get_backend("threads") is get_backend("threads")


def test_register_replaces_and_invalidates_cache():
    class Fake(ExecBackend):
        name = "fake-backend"

    try:
        register("fake-backend", Fake)
        first = get_backend("fake-backend")
        assert isinstance(first, Fake)
        register("fake-backend", Fake)  # re-register drops the instance
        assert get_backend("fake-backend") is not first
    finally:
        from repro import exec as E
        E._FACTORIES.pop("fake-backend", None)
        E._INSTANCES.pop("fake-backend", None)


def test_require_available_names_usable_backends():
    class Broken(ExecBackend):
        name = "broken"

        def available(self):
            return False, "no such transport here"

    with pytest.raises(BackendUnavailableError) as excinfo:
        Broken().require_available()
    msg = str(excinfo.value)
    assert "no such transport here" in msg
    assert "threads" in msg  # points at what *does* work


def test_registered_backend_unavailable_on_this_host():
    """What a site's MPI bridge looks like where its MPI is missing:
    resolvable (and did-you-mean-able) by name, refused on use."""
    class NoMPIHere(ExecBackend):
        name = "sitempi"

        def available(self):
            return False, "mpi4py is not importable"

    try:
        register("sitempi", NoMPIHere)
        assert "sitempi" in backend_names()
        with pytest.raises(MPIError, match="did you mean 'sitempi'"):
            resolve_name("sitmpi")
        backend = get_backend("sitempi")
        with pytest.raises(BackendUnavailableError, match="mpi4py"):
            backend.require_available()
    finally:
        from repro import exec as E
        E._FACTORIES.pop("sitempi", None)
        E._INSTANCES.pop("sitempi", None)
