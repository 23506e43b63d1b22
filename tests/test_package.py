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
    "repro.obs", "repro.serve", "repro.analysis", "repro.resilience",
    "repro.exec",
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


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_dir_lists_every_export(name):
    """A lazily re-exported name is listed before it is first used."""
    mod = importlib.import_module(name)
    assert set(getattr(mod, "__all__", [])) <= set(dir(mod))


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


#: what a simulation process, or one that only names the service, never
#: runs: the paper harnesses, the AST passes, the graph/builder/profiling
#: views of an assembly, the trace reducers and sampler, the unused time
#: interpolant, checkpoint files until a hook saves or resumes, and what
#: only those need from the standard library
NOT_AT_START_UP = (
    "repro.analysis.lifecycle", "repro.analysis.scmd", "repro.cca.graph",
    "repro.cca.builder", "repro.cca.profiling", "repro.obs.aggregate",
    "repro.obs.profiler", "repro.samr.time_interp",
    "repro.resilience.checkpoint", "repro.samr.checkpoint", "socket",
    "subprocess", "difflib",
)


def test_start_up_loads_only_what_a_run_uses():
    """Start-up budget: importing the apps and the communicator and
    naming the service loads none of the modules above."""
    proc = _fresh_python(
        "import sys; import repro.apps, repro.mpi; "
        "from repro.serve import SimulationService; "
        f"banned = set({NOT_AT_START_UP!r}); "
        "loaded = sorted(m for m in sys.modules "
        "if m in banned or m.split('.')[:2] == ['repro', 'bench']); "
        "assert not loaded, loaded")
    assert proc.returncode == 0, proc.stderr


_RUN_IMPORTS_NOTHING = """
import sys
import tempfile

import repro.apps as apps
from repro.cca.framework import Framework
from repro.serve import SimulationService


def added(call):
    before = set(sys.modules)
    call()
    return set(sys.modules) - before


for build, config in (
        (apps.build_reaction_diffusion,
         dict(nx=16, ny=16, max_levels=1, n_steps=1, dt=1e-7)),
        (apps.build_shock_interface,
         dict(nx=64, ny=32, max_levels=2, t_end_over_tau=0.1)),
        (apps.build_ignition0d, {})):
    framework = Framework()
    build(framework, **config)
    new = added(lambda: framework.go("Driver"))
    assert not new, (build.__name__, sorted(new))

params = {"ThermoChemistry.mechanism": "h2-lite", "Driver.t_end": 1e-5}
with tempfile.TemporaryDirectory() as root:
    with SimulationService(root, workers=1, batch_size=8) as service:
        def serve():
            service.sweep(apps.IGNITION0D_SCRIPT,
                          {"Initializer.T0": [1000.0, 1050.0, 1100.0]},
                          params=params)
            service.submit(apps.IGNITION0D_SCRIPT,
                           params={**params, "Initializer.T0": 1125.0},
                           backend="threads")
            assert service.drain(60.0)
        new = added(serve)
assert new == {"repro.exec.threads"}, sorted(new)
"""


def test_a_run_imports_nothing():
    """Import cost stays in set-up: a driver's ``go()`` loads no module,
    and a built service loads only the threads backend a single job
    names (the backend registry imports it on first use)."""
    proc = _fresh_python(_RUN_IMPORTS_NOTHING)
    assert proc.returncode == 0, proc.stderr


_MP_WORLD = """
import sys

import repro.apps
from repro.mpi import Op, ZERO_COST, mpirun


def main(comm):
    comm.isend(comm.rank, (comm.rank + 1) % comm.size)
    return comm.allreduce(comm.recv((comm.rank - 1) % comm.size), Op.SUM)


assert mpirun(2, main, machine=ZERO_COST, backend="mp") == [1, 1]
banned = {"secrets", "hashlib", "_hashlib", "socket", "subprocess",
          "selectors"}
loaded = sorted(m for m in sys.modules
                if m in banned or m.split(".")[0] == "multiprocessing")
assert not loaded, loaded
"""


def test_an_mp_world_imports_no_multiprocessing():
    """The ``mp`` backend forks its ranks itself: its first world loads
    neither ``multiprocessing`` nor what that and random segment names
    would pull in."""
    proc = _fresh_python(_MP_WORLD)
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
