"""Integration tests for the 2D reaction-diffusion flame (paper §4.2)."""

import numpy as np
import pytest

from repro.apps import assembly_table, run_reaction_diffusion
from repro.cca import run_scmd
from repro.mpi import ZERO_COST


def small_run(**kw):
    args = dict(nx=16, ny=16, max_levels=1, n_steps=3, dt=1e-7)
    args.update(kw)
    return run_reaction_diffusion(**args)


def test_runs_and_reports(capsys=None):
    res = small_run()
    assert res["n_steps"] == 3
    assert res["t_final"] == pytest.approx(3e-7)
    assert res["total_cells"] == 256
    assert 300.0 < res["T_max"] < 1500.0
    assert np.isfinite(res["T_max"])


def test_diffusion_only_cools_hotspots():
    """With chemistry off the hot spots can only spread and cool."""
    res = small_run(chemistry_on=False, n_steps=5, dt=1e-6)
    assert res["T_max"] < 1400.0


def test_chemistry_changes_solution_only_slightly_in_induction():
    """During early induction (0.3 us) heat release is negligible — the
    chemistry branch must engage (results differ) without changing the
    thermal field materially (initiation is mildly endothermic)."""
    cold = small_run(chemistry_on=False, n_steps=3, dt=1e-7)
    hot = small_run(chemistry_on=True, n_steps=3, dt=1e-7)
    assert hot["T_max"] != cold["T_max"]
    assert hot["T_max"] == pytest.approx(cold["T_max"], abs=1.0)


def test_amr_refines_hotspots():
    res = small_run(max_levels=2, regrid_interval=2, n_steps=2,
                    initial_regrids=1, threshold=0.2)
    assert res["nlevels"] == 2
    assert res["total_cells"] > 256


def test_scmd_parallel_matches_serial():
    """2-rank SCMD run must agree with the serial run (same physics,
    distributed mesh)."""

    def main(comm):
        return run_reaction_diffusion(
            comm=comm, nx=16, ny=16, max_levels=1, n_steps=2, dt=1e-7)

    from repro.mpi import mpirun

    par = mpirun(2, main, machine=ZERO_COST)
    ser = small_run(n_steps=2)
    for res in par:
        assert res["T_max"] == pytest.approx(ser["T_max"], rel=1e-10)
        assert res["total_cells"] == ser["total_cells"]


def test_assembly_table_matches_paper_table2():
    table = assembly_table("reaction_diffusion")
    assert table["Mesh"] == ["GrACEComponent"]
    assert "ExplicitIntegrator" in table["Explicit Integration"]
    assert "DRFMComponent" in table["Explicit Integration"]
    assert table["Adaptors"] == ["ImplicitIntegrator"]


def test_component_reuse_cvode_thermochem():
    """Conclusion item 1: CvodeComponent and ThermoChemistry are reused
    across the 0D and 2D assemblies — same classes, different instances."""
    from repro.apps.ignition0d import IGNITION0D_COMPONENTS
    from repro.apps.reaction_diffusion import RD_COMPONENTS
    from repro.components import CvodeComponent, ThermoChemistry

    for cls in (CvodeComponent, ThermoChemistry):
        assert cls in IGNITION0D_COMPONENTS
        assert cls in RD_COMPONENTS
