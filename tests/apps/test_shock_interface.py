"""Integration tests for the shock-interface application (paper §4.3)."""

import numpy as np
import pytest

from repro.apps import assembly_table, run_shock_interface
from repro.cca import Framework
from repro.apps.shock_interface import build_shock_interface


def small_run(**kw):
    args = dict(nx=48, ny=24, max_levels=1, t_end_over_tau=0.6,
                regrid_interval=0)
    args.update(kw)
    return run_shock_interface(**args)


@pytest.fixture(scope="module")
def godunov_result():
    return small_run()


def test_runs_to_target_time(godunov_result):
    res = godunov_result
    assert res["steps"] > 10
    assert res["t_final"] > 0.0
    assert res["tau"] > 0.0


def test_baroclinic_circulation_is_negative(godunov_result):
    """The shock-interface interaction deposits negative circulation on
    the interface (the paper's Fig. 7 sign)."""
    res = godunov_result
    assert res["circulation_min"] < -0.01
    # circulation magnitude grows during traversal
    series = res["circulation"]
    early = [c for (tt, c) in series if tt < 0.2]
    late = [c for (tt, c) in series if tt > 0.4]
    assert min(late) < min(early) <= 0.01


def test_efm_flux_swap_runs_same_assembly(godunov_result):
    """Conclusion item 3: replace GodunovFlux by EFMFlux — identical
    assembly otherwise, same qualitative physics (no recompilation!)."""
    res = small_run(flux_scheme="efm")
    assert res["circulation_min"] < -0.01
    # EFM is more diffusive: deposited |Gamma| within a factor ~2
    ratio = res["circulation_min"] / godunov_result["circulation_min"]
    assert 0.4 < ratio < 2.0


def test_strong_shock_mach35_efm_survives():
    """The paper's strong-shock case (Mach ~= 3.5) runs with EFMFlux."""
    res = small_run(flux_scheme="efm", mach=3.5, t_end_over_tau=0.4)
    assert np.isfinite(res["circulation_min"])
    assert res["steps"] > 5


def test_refinement_deposits_more_circulation():
    """Fig. 7's convergence direction: finer meshes capture more
    interfacial circulation (|Gamma| grows with resolution)."""
    coarse = small_run(nx=32, ny=16, t_end_over_tau=0.8)
    fine = small_run(nx=64, ny=32, t_end_over_tau=0.8)
    assert abs(fine["circulation_min"]) > abs(coarse["circulation_min"])


def test_amr_run_refines_waves():
    res = small_run(max_levels=2, regrid_interval=3, initial_regrids=1,
                    t_end_over_tau=0.3)
    assert res["nlevels"] == 2
    assert res["total_cells"] > 48 * 24


@pytest.mark.parametrize("scheme, provider", [("godunov", "GodunovFlux"),
                                              ("efm", "EFMFlux")])
def test_one_flux_call_per_rhs_evaluation(scheme, provider):
    """Both RK2 stages hand the rows of every patch of both levels to the
    States component, and their faces to the flux component, in one call
    each; the adaptor still counts patches."""
    fw = Framework()
    build_shock_interface(fw, nx=32, ny=16, max_levels=2, regrid_interval=3,
                          initial_regrids=1, t_end_over_tau=0.2,
                          flux_scheme=scheme)
    res = fw.go("Driver")
    assert res["nlevels"] == 2

    def port(instance, name):
        return fw.services_of(instance).provides[name][0]

    integrator = port("ExplicitIntegratorRK2", "integrator")
    assert integrator.nfe == 2 * res["steps"]
    assert port(provider, "flux").ncalls == integrator.nfe
    assert port("InviscidFlux", "rhs").nfe > 2 * integrator.nfe
    # one reconstruction per RHS evaluation, like the flux
    assert port("States", "states").ncalls == integrator.nfe


def test_amr_circulation_close_to_equivalent_uniform():
    """A 2-level AMR run should land near the uniform run at the same
    effective resolution (the refined region covers the active waves)."""
    amr = small_run(nx=32, ny=16, max_levels=2, regrid_interval=2,
                    initial_regrids=1, t_end_over_tau=0.6)
    uniform = small_run(nx=64, ny=32, t_end_over_tau=0.6)
    assert amr["circulation_min"] == pytest.approx(
        uniform["circulation_min"], rel=0.4)


def test_assembly_table_matches_paper_table3():
    table = assembly_table("shock_interface")
    assert table["Initial Condition"] == ["ConicalInterfaceIC"]
    assert "GodunovFlux" in table["Explicit Integration"]
    assert table["Implicit Integration"] == ["N/A"]
    assert table["Adaptors"] == ["InviscidFlux"]


def test_assembly_reuses_mesh_and_regrid_components():
    """Conclusion item 2: GrACEComponent and ErrorEstAndRegrid instances
    appear in both SAMR assemblies."""
    from repro.apps.reaction_diffusion import RD_COMPONENTS
    from repro.apps.shock_interface import SHOCK_COMPONENTS
    from repro.components import ErrorEstAndRegrid, GrACEComponent

    for cls in (GrACEComponent, ErrorEstAndRegrid):
        assert cls in RD_COMPONENTS
        assert cls in SHOCK_COMPONENTS


def test_describe_assembly_shows_flux_wiring():
    fw = Framework()
    build_shock_interface(fw, flux_scheme="godunov")
    text = fw.describe()
    assert "InviscidFlux.flux -> GodunovFlux.flux" in text
    fw2 = Framework()
    build_shock_interface(fw2, flux_scheme="efm")
    assert "InviscidFlux.flux -> EFMFlux.flux" in fw2.describe()
