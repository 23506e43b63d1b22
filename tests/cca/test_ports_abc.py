"""Tests for the standard port definitions: abstractness, type naming,
and the port-type inheritance rule."""

import inspect

import numpy as np
import pytest

from repro.cca import Port
from repro.cca.ports import (
    BoundaryConditionPort,
    CharacteristicsPort,
    ChemistryPort,
    DataObjectPort,
    DiffusivityPort,
    DPDtPort,
    FluxPort,
    GoPort,
    InitialConditionPort,
    IntegratorPort,
    JacobianPort,
    MeshPort,
    ODESolverPort,
    ParameterPort,
    PatchRHSPort,
    ProlongRestrictPort,
    RegridPort,
    SpectralBoundPort,
    StatesPort,
    StatisticsPort,
    TransportPort,
    VectorICPort,
    VectorRHSPort,
)

ALL_PORTS = [
    BoundaryConditionPort, CharacteristicsPort, ChemistryPort,
    DataObjectPort, DiffusivityPort, DPDtPort, FluxPort, GoPort,
    InitialConditionPort,
    IntegratorPort, JacobianPort, MeshPort, ODESolverPort, ParameterPort,
    PatchRHSPort,
    ProlongRestrictPort, RegridPort, SpectralBoundPort, StatesPort,
    StatisticsPort, TransportPort, VectorICPort, VectorRHSPort,
]


#: the declared methods that are not abstract (tested on their own below)
DEFAULTS = {(PatchRHSPort, "evaluate_patches")}


@pytest.mark.parametrize("port_cls", ALL_PORTS,
                         ids=[c.__name__ for c in ALL_PORTS])
def test_port_type_is_own_name(port_cls):
    """Each standard port is directly below Port, so its type string is
    its own class name."""
    assert issubclass(port_cls, Port)
    assert port_cls.port_type() == port_cls.__name__


@pytest.mark.parametrize("port_cls", ALL_PORTS,
                         ids=[c.__name__ for c in ALL_PORTS])
def test_abstract_methods_raise(port_cls):
    """Every declared method on a bare port raises NotImplementedError —
    they are data-less abstract classes (paper §2)."""
    instance = port_cls()
    for name, member in inspect.getmembers(port_cls,
                                           predicate=inspect.isfunction):
        if name.startswith("_") or name == "port_type" \
                or (port_cls, name) in DEFAULTS:
            continue
        sig = inspect.signature(member)
        nargs = len(sig.parameters) - 1  # drop self
        args = [None] * nargs
        with pytest.raises(NotImplementedError):
            getattr(instance, name)(*args)


def test_patch_rhs_batch_default_loops_evaluate():
    """``evaluate_patches`` is the one port method with a default: a
    provider that only implements ``evaluate`` is called patch by patch,
    a bare port still raises."""
    with pytest.raises(NotImplementedError):
        PatchRHSPort().evaluate_patches(0.0, ["p"], ["a"])

    class PatchByPatch(PatchRHSPort):
        def evaluate(self, t, patch, ghosted):
            return (t, patch, ghosted)

    assert PatchByPatch().evaluate_patches(0.5, ["p", "q"], ["a", "b"]) == \
        [(0.5, "p", "a"), (0.5, "q", "b")]
    assert PatchByPatch().evaluate_patches(0.5, [], []) == []


def test_vector_rhs_provider_rhs_is_callable_directly():
    """A ``VectorRHSPort`` provider is complete with ``rhs`` and
    ``n_state``: the port declares no bracket around a solver's calls, so
    ``rhs`` is called directly, on one state or a block of cells."""

    class Decay(VectorRHSPort):
        def rhs(self, t, y):
            return -y

        def n_state(self):
            return 2

    declared = {name for name, _ in inspect.getmembers(
        VectorRHSPort, predicate=inspect.isfunction)
        if not name.startswith("_") and name != "port_type"}
    assert declared == {"rhs", "n_state"}
    model = Decay()
    assert (model.rhs(0.0, np.ones(2)) == -np.ones(2)).all()
    assert model.rhs(0.0, np.ones((2, 3))).shape == (2, 3)


def test_subclass_of_standard_port_keeps_type():
    """Refinements connect wherever the standard port is expected."""

    class FancyFlux(FluxPort):
        def flux(self, prim_l, prim_r, gamma):
            return None

    class EvenFancier(FancyFlux):
        pass

    assert FancyFlux.port_type() == "FluxPort"
    assert EvenFancier.port_type() == "FluxPort"


def test_docstrings_present():
    """Public API documentation: every standard port carries a
    docstring."""
    for cls in ALL_PORTS:
        assert cls.__doc__ and cls.__doc__.strip()
