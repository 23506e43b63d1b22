"""Transport equivalence: the paper's applications must be *bit
identical* between the thread and multiprocessing backends.

This is the property that lets the result cache refuse to share entries
across backends without anyone losing sleep: equivalence is proven
here, run by run, rather than assumed by the cache key.
"""

from repro.analysis.contracts import default_classes
from repro.apps import run_reaction_diffusion, run_shock_interface
from repro.mpi import ZERO_COST, mpirun
from repro.resilience import faults
from repro.resilience.runner import supervise

from tests.resilience.test_runner import flame_rc


def test_reaction_diffusion_four_ranks_bit_identical():
    def main(comm):
        res = run_reaction_diffusion(
            comm=comm, nx=16, ny=16, max_levels=1, n_steps=2, dt=1e-7)
        return res["T_max"], res["n_steps"]

    thr = mpirun(4, main, machine=ZERO_COST, backend="threads")
    mp = mpirun(4, main, machine=ZERO_COST, backend="mp")
    assert mp == thr  # full-precision equality, not approx


def test_shock_interface_amr_bit_identical():
    def main(comm):
        res = run_shock_interface(comm=comm, nx=32, ny=16, max_levels=2,
                                  t_end_over_tau=0.4, regrid_interval=3,
                                  initial_regrids=1)
        return res["circulation_min"], res["total_cells"]

    thr = mpirun(2, main, machine=ZERO_COST, backend="threads")
    mp = mpirun(2, main, machine=ZERO_COST, backend="mp")
    assert mp == thr


def test_crash_restore_drill_under_mp(tmp_path):
    """PR-4 supervisor drill on the mp backend: kill a worker process
    mid-run, restart from checkpoint, finish — and do NOT re-kill on the
    retry (the injector's counters survive the process boundary)."""
    faults.configure(faults.FaultPlan(kill_rank=1, kill_step=3,
                                      kill_max_fires=1))
    report = supervise(flame_rc(tmp_path), default_classes(), nprocs=2,
                       retries=2, machine=ZERO_COST, backend="mp")
    assert report.ok
    assert report.attempts == 2
    assert report.restarts == 1
    assert report.injected["kills"] == 1
    assert report.results[0]["n_steps"] == 5


def test_supervised_results_identical_across_backends(tmp_path):
    (tmp_path / "thr").mkdir()
    (tmp_path / "mp").mkdir()
    thr = supervise(flame_rc(tmp_path / "thr"), default_classes(),
                    nprocs=2, machine=ZERO_COST, backend="threads")
    mp = supervise(flame_rc(tmp_path / "mp"), default_classes(),
                   nprocs=2, machine=ZERO_COST, backend="mp")
    assert thr.ok and mp.ok
    assert mp.results[0]["T_max"] == thr.results[0]["T_max"]
    assert mp.results[0]["n_steps"] == thr.results[0]["n_steps"]
