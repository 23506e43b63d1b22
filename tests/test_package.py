"""Package-level checks: version, exports, error hierarchy, docs."""

import importlib
import inspect

import pytest

import repro
from repro import errors


def test_version_string():
    assert repro.__version__ == "1.0.0"
    from repro.version import __version__

    assert __version__ == repro.__version__


SUBPACKAGES = [
    "repro.util", "repro.mpi", "repro.samr", "repro.chemistry",
    "repro.transport", "repro.integrators", "repro.hydro", "repro.cca",
    "repro.cca.ports", "repro.components", "repro.apps", "repro.bench",
]


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_subpackage_imports_and_documented(name):
    mod = importlib.import_module(name)
    assert mod.__doc__ and len(mod.__doc__.strip()) > 40


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_all_exports_resolve(name):
    mod = importlib.import_module(name)
    for symbol in getattr(mod, "__all__", []):
        assert hasattr(mod, symbol), f"{name}.{symbol} missing"


def _all_subpackages():
    import pkgutil

    return sorted(m.name for m in pkgutil.iter_modules(
        repro.__path__, prefix="repro.") if m.ispkg)


def _fresh_python(code):
    import os
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("name", _all_subpackages())
def test_subpackage_imports_first_in_a_fresh_interpreter(name):
    """No subpackage may depend on another having been imported before
    it (``import repro.samr`` first used to close an import cycle
    through ``repro.resilience``'s eager re-exports)."""
    proc = _fresh_python(f"import {name}")
    assert proc.returncode == 0, proc.stderr


def test_entry_points_import_neither_scipy_nor_networkx():
    """Start-up budget: SciPy (EFM's ``erf``) and networkx
    (``assembly_graph``) are imported by the calls that need them, not by
    every process that imports an entry point."""
    proc = _fresh_python(
        "import repro.apps, repro.serve, repro.mpi, sys; "
        "assert not {'scipy', 'networkx'} "
        "& {m.split('.')[0] for m in sys.modules}")
    assert proc.returncode == 0, proc.stderr


def test_error_hierarchy_roots():
    assert issubclass(errors.CCAError, errors.ReproError)
    assert issubclass(errors.MPIError, errors.ReproError)
    assert issubclass(errors.MeshError, errors.ReproError)
    assert issubclass(errors.IntegratorError, errors.ReproError)
    assert issubclass(errors.ChemistryError, errors.ReproError)
    assert issubclass(errors.HydroError, errors.ReproError)
    assert issubclass(errors.PortNotConnectedError, errors.CCAError)
    assert issubclass(errors.ConvergenceError, errors.IntegratorError)
    assert issubclass(errors.CommAbortedError, errors.MPIError)


def test_catching_the_root_catches_everything():
    from repro.samr import Box

    with pytest.raises(errors.ReproError):
        Box((0, 0), (1,))


def test_component_table_complete():
    """Every component named in the paper's Tables 1-3 exists in the
    component package under its paper name."""
    import repro.components as comps

    for name in [
        "GrACEComponent", "Initializer", "InitialCondition",
        "ConicalInterfaceIC", "CvodeComponent", "ThermoChemistry",
        "ProblemModeler", "DPDt", "ExplicitIntegrator",
        "DiffusionPhysics", "DRFMComponent", "MaxDiffCoeffEvaluator",
        "ImplicitIntegrator", "ErrorEstAndRegrid", "StatisticsComponent",
        "ExplicitIntegratorRK2", "CharacteristicQuantities",
        "InviscidFlux", "States", "GodunovFlux", "EFMFlux",
        "BoundaryConditions", "GasProperties", "ProlongRestrict",
    ]:
        assert hasattr(comps, name), name
        cls = getattr(comps, name)
        assert cls in comps.ALL_COMPONENTS


def test_public_components_documented():
    import repro.components as comps
    from repro.cca import Component

    for cls in comps.ALL_COMPONENTS:
        assert issubclass(cls, Component)
        assert cls.__doc__ and cls.__doc__.strip(), cls.__name__
        # instantiable without constructor arguments (script requirement)
        sig = inspect.signature(cls)
        required = [p for p in sig.parameters.values()
                    if p.default is p.empty
                    and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)]
        assert not required, f"{cls.__name__} needs ctor args"
