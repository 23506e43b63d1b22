"""The supervised runner: detect, restart, bound retries."""

import pytest

from repro.analysis.contracts import default_classes
from repro.resilience import faults
from repro.resilience.runner import supervise, with_resume

FLAME_RC = """\
instantiate GrACEComponent AMR_Mesh
instantiate InitialCondition InitialCondition
instantiate ThermoChemistry ReactionTerms
instantiate CvodeComponent CvodeSolver
instantiate ImplicitIntegrator ImplicitIntegrator
instantiate ExplicitIntegrator ExplicitIntegrator
instantiate DiffusionPhysics DiffusionPhysics
instantiate DRFMComponent DRFM
instantiate MaxDiffCoeffEvaluator MaxDiffCoeff
instantiate ErrorEstAndRegrid ErrEstAndRegrid
instantiate StatisticsComponent Statistics
instantiate ReactionDiffusionDriver Driver
parameter AMR_Mesh nx 16
parameter AMR_Mesh ny 16
parameter AMR_Mesh x_extent 0.01
parameter AMR_Mesh y_extent 0.01
parameter InitialCondition x_extent 0.01
parameter InitialCondition y_extent 0.01
parameter InitialCondition spot_radius 0.0008
parameter Driver n_steps 5
parameter Driver dt 1e-7
parameter Driver checkpoint_path {ck}
parameter Driver checkpoint_interval 1
connect InitialCondition chem ReactionTerms chemistry
connect CvodeSolver rhs ReactionTerms source
connect ImplicitIntegrator solver CvodeSolver solver
connect ImplicitIntegrator data AMR_Mesh data
connect DRFM chem ReactionTerms chemistry
connect DiffusionPhysics transport DRFM transport
connect DiffusionPhysics chem ReactionTerms chemistry
connect DiffusionPhysics mesh AMR_Mesh mesh
connect MaxDiffCoeff mesh AMR_Mesh mesh
connect MaxDiffCoeff data AMR_Mesh data
connect MaxDiffCoeff diffusivity DiffusionPhysics diffusivity
connect ExplicitIntegrator rhs DiffusionPhysics rhs
connect ExplicitIntegrator bound MaxDiffCoeff bound
connect ExplicitIntegrator mesh AMR_Mesh mesh
connect ExplicitIntegrator data AMR_Mesh data
connect ErrEstAndRegrid mesh AMR_Mesh mesh
connect ErrEstAndRegrid data AMR_Mesh data
connect Driver mesh AMR_Mesh mesh
connect Driver data AMR_Mesh data
connect Driver ic InitialCondition ic
connect Driver explicit ExplicitIntegrator integrator
connect Driver implicit ImplicitIntegrator integrator
connect Driver regrid ErrEstAndRegrid regrid
connect Driver chem ReactionTerms chemistry
connect Driver stats Statistics stats
go Driver
"""


def flame_rc(tmp_path):
    return FLAME_RC.format(ck=str(tmp_path / "ck"))


def test_with_resume_injects_before_go():
    text = "instantiate A a\ngo a\n"
    lines = with_resume(text).splitlines()
    assert lines == ["instantiate A a", "parameter a resume 1", "go a"]


def test_clean_run_needs_no_restart(tmp_path):
    report = supervise(flame_rc(tmp_path), default_classes(), retries=2)
    assert report.ok
    assert report.attempts == 1
    assert report.restarts == 0
    assert report.results[0]["n_steps"] == 5


def test_injected_kill_is_survived_via_restart(tmp_path):
    faults.configure(faults.FaultPlan(kill_rank=0, kill_step=3))
    report = supervise(flame_rc(tmp_path), default_classes(), retries=2)
    assert report.ok
    assert report.attempts == 2
    assert report.restarts == 1
    assert report.injected["kills"] == 1
    assert len(report.failures) == 1
    assert "InjectedFault" in report.failures[0] \
        or "RankFailure" in report.failures[0]
    # the resumed run finished the full schedule
    assert report.results[0]["n_steps"] == 5


def test_scmd_rank_kill_is_survived(tmp_path):
    from repro.mpi import ZERO_COST
    faults.configure(faults.FaultPlan(kill_rank=1, kill_step=2))
    report = supervise(flame_rc(tmp_path), default_classes(), nprocs=2,
                       retries=2, machine=ZERO_COST)
    assert report.ok
    assert report.restarts == 1
    assert len(report.results) == 2


def test_retries_exhausted_reports_failure(tmp_path):
    # no checkpoints: every restart begins at step 1 — and the kill
    # re-fires each time it crosses step 2
    text = "\n".join(line for line in flame_rc(tmp_path).splitlines()
                     if "checkpoint" not in line)
    faults.configure(faults.FaultPlan(kill_rank=0, kill_step=2,
                                      kill_max_fires=10**9))
    report = supervise(text, default_classes(), retries=2)
    assert not report.ok
    assert report.attempts == 3
    assert report.restarts == 2
    assert len(report.failures) == 3


def test_bad_script_fails_fast():
    from repro.errors import ScriptError
    with pytest.raises(ScriptError):
        supervise("frobnicate X y\n", default_classes())


class TestRunSupervised:
    """The in-process entry point wrapping supervise()."""

    def test_clean_run_returns_results_and_metrics(self, tmp_path):
        from repro.resilience.runner import run_supervised
        result = run_supervised(flame_rc(tmp_path), retries=0)
        assert result.ok
        assert result.attempts == 1 and result.restarts == 0
        assert result.results[0]["n_steps"] == 5
        doc = result.metrics()
        assert doc["schema"] == 1 and doc["ok"] is True
        names = {r["name"] for r in doc["metrics"]}
        assert {"resilience.attempts", "resilience.restarts",
                "resilience.ok"} <= names

    def test_fault_spec_string_is_armed_and_disarmed(self, tmp_path):
        from repro.resilience.runner import run_supervised
        result = run_supervised(flame_rc(tmp_path), retries=2,
                                fault="kill_rank=0,kill_step=3,"
                                      "kill_max_fires=1")
        assert result.ok
        assert result.restarts == 1
        assert result.injected["kills"] == 1
        assert faults.on is False  # disarmed on the way out

    def test_disarms_even_when_script_is_bad(self):
        from repro.errors import ScriptError
        from repro.resilience.runner import run_supervised
        with pytest.raises(ScriptError):
            run_supervised("frobnicate X y\n", fault="kill_rank=0")
        assert faults.on is False
