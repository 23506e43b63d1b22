"""Tests for the leaf components: thermochemistry, CVode wrapper, DRFM,
gas properties, statistics, flux providers, prolong/restrict, BCs."""

import numpy as np
import pytest

from repro.cca import BuilderService, Framework
from repro.components import (
    BoundaryConditions,
    CvodeComponent,
    DPDt,
    DRFMComponent,
    EFMFlux,
    GasProperties,
    GodunovFlux,
    ProblemModeler,
    ProlongRestrict,
    States,
    StatisticsComponent,
    ThermoChemistry,
)
from repro.errors import CCAError


def fw():
    return Framework()


# ------------------------------------------------------------ ThermoChemistry
def test_thermochem_default_mechanism():
    f = fw()
    BuilderService(f).create(ThermoChemistry, "tc")
    chem = f.services_of("tc").provides["chemistry"][0]
    mech = chem.mechanism()
    assert mech.n_species == 9 and mech.n_reactions == 19
    assert chem.pressure() == 101325.0


def test_thermochem_lite_mechanism_parameter():
    f = fw()
    BuilderService(f).create(ThermoChemistry, "tc").parameter(
        "tc", "mechanism", "h2-lite")
    chem = f.services_of("tc").provides["chemistry"][0]
    assert chem.mechanism().n_species == 8


def test_thermochem_unknown_mechanism():
    f = fw()
    BuilderService(f).create(ThermoChemistry, "tc").parameter(
        "tc", "mechanism", "methane")
    chem = f.services_of("tc").provides["chemistry"][0]
    with pytest.raises(CCAError, match="unknown mechanism"):
        chem.mechanism()


def test_thermochem_source_port_and_database():
    f = fw()
    BuilderService(f).create(ThermoChemistry, "tc")
    srv = f.services_of("tc")
    source = srv.provides["source"][0]
    props = srv.provides["properties"][0]
    assert source.n_state() == 10
    assert props.get("n_reactions") == 19
    assert props.get("weight:H2") == pytest.approx(2.016e-3, rel=1e-3)
    props.set("flame_speed", 2.1)
    assert props.get("flame_speed") == 2.1
    assert "mechanism" in props.keys()
    # source terms: cold pure N2 doesn't react
    y = np.zeros(10)
    y[0] = 300.0
    y[9] = 1.0  # N2
    dy = source.rhs(0.0, y)
    np.testing.assert_allclose(dy, 0.0, atol=1e-20)


def test_thermochem_source_vectorized():
    f = fw()
    BuilderService(f).create(ThermoChemistry, "tc")
    chem = f.services_of("tc").provides["chemistry"][0]
    T = np.full((3, 4), 1200.0)
    Y = np.zeros((9, 3, 4))
    Y[chem.mechanism().species_index("N2")] = 1.0
    dT, dY = chem.source_terms(T, Y)
    assert dT.shape == (3, 4) and dY.shape == (9, 3, 4)


# ---------------------------------------------------------- Cvode + modeler
def build_0d_core():
    f = fw()
    b = BuilderService(f)
    (b.create(ThermoChemistry, "tc")
      .create(DPDt, "dpdt")
      .create(ProblemModeler, "pm")
      .create(CvodeComponent, "cv")
      .connect("dpdt", "chem", "tc", "chemistry")
      .connect("pm", "chem", "tc", "chemistry")
      .connect("pm", "dpdt", "dpdt", "dpdt")
      .connect("cv", "rhs", "pm", "model"))
    return f


def test_problem_modeler_requires_density():
    f = build_0d_core()
    model = f.services_of("pm").provides["model"][0]
    with pytest.raises(CCAError, match="density"):
        model.rhs(0.0, np.ones(11))


def test_problem_modeler_rhs_runs_in_a_session():
    """The model fetches its ports once per solve: an RHS evaluation
    outside a session is refused, and leaving the session (the solver's
    ``integrate``) returns every port it fetched."""
    f = build_0d_core()
    model = f.services_of("pm").provides["model"][0]
    mech = f.services_of("tc").provides["chemistry"][0].mechanism()
    Y = np.zeros(9)
    Y[mech.species_index("N2")] = 1.0
    model.configure(1000.0, 101325.0, Y)
    y = np.concatenate(([1000.0], Y, [101325.0]))
    with pytest.raises(CCAError, match="session"):
        model.rhs(0.0, y)
    with model.session():
        assert np.isfinite(model.rhs(0.0, y)).all()
    solver = f.services_of("cv").provides["solver"][0]
    solver.integrate(0.0, y, 1e-7)
    for name in ("pm", "dpdt", "cv"):
        assert f.services_of(name).port_balances() == {}, name


def test_cvode_component_integrates_decaying_mode():
    """Wire CvodeComponent to the modeler and advance a short inert
    interval: state must stay finite, Y sum preserved."""
    from repro.chemistry.h2_air import stoichiometric_h2_air

    f = build_0d_core()
    model = f.services_of("pm").provides["model"][0]
    solver = f.services_of("cv").provides["solver"][0]
    chem = f.services_of("tc").provides["chemistry"][0]
    mech = chem.mechanism()
    Y = np.zeros(9)
    for nm, v in stoichiometric_h2_air().items():
        Y[mech.species_index(nm)] = v
    model.configure(900.0, 101325.0, Y)
    y0 = np.concatenate(([900.0], Y, [101325.0]))
    y1 = solver.integrate(0.0, y0, 1e-6)
    assert solver.last_nfe() > 0
    assert np.isfinite(y1).all()
    assert y1[1:-1].sum() == pytest.approx(1.0, abs=1e-8)
    # the call accounting survives a checkpoint, Jacobians included
    assert solver.total_nje >= 1 and solver.total_nfe == solver.last_nfe()
    state = f.get_component("cv").checkpoint_state()
    restored = build_0d_core().get_component("cv")
    restored.restore_state(state)
    assert restored.checkpoint_state() == state
    del state["total_nje"]      # a checkpoint from before the counter
    restored.restore_state(state)
    assert restored.solver.total_nje == 0


def test_dpdt_matches_finite_difference():
    f = build_0d_core()
    dpdt = f.services_of("dpdt").provides["dpdt"][0]
    chem = f.services_of("tc").provides["chemistry"][0]
    mech = chem.mechanism()
    Y = np.zeros(9)
    Y[mech.species_index("N2")] = 1.0
    rho = float(mech.density(1000.0, 101325.0, Y))
    dT = 100.0  # K/s, pure heating
    dP = dpdt.dpdt(rho, 1000.0, Y, dT, np.zeros(9))
    # at constant composition: dP/dT = P/T
    assert dP == pytest.approx(101325.0 / 1000.0 * dT, rel=1e-6)


# -------------------------------------------------------------------- DRFM
def test_drfm_component_provides_transport():
    f = fw()
    (BuilderService(f)
     .create(ThermoChemistry, "tc")
     .create(DRFMComponent, "drfm")
     .connect("drfm", "chem", "tc", "chemistry"))
    tr = f.services_of("drfm").provides["transport"][0]
    D = tr.diffusion_coefficients(300.0, 101325.0)
    assert D.shape == (9,)
    assert tr.conductivity(300.0) == pytest.approx(0.026)


# ------------------------------------------------------------ GasProperties
def test_gas_properties_defaults_and_overrides():
    f = fw()
    BuilderService(f).create(GasProperties, "gas")
    props = f.services_of("gas").provides["properties"][0]
    assert props.get("gamma") == 1.4
    f.set_parameter("gas", "gamma", 1.2)
    assert props.get("gamma") == 1.2
    props.set("R", 287.0)
    assert props.get("R") == 287.0
    assert "gamma" in props.keys()
    assert props.get("nope", "dflt") == "dflt"


# --------------------------------------------------------------- Statistics
def test_statistics_series_and_summary():
    f = fw()
    BuilderService(f).create(StatisticsComponent, "st")
    stats = f.services_of("st").provides["stats"][0]
    for i in range(5):
        stats.record("x", float(i), float(i * i))
    assert stats.series("x")[2] == (2.0, 4.0)
    s = stats.summary()["x"]
    assert s["n"] == 5 and s["max"] == 16.0 and s["last"] == 16.0
    with pytest.raises(CCAError):
        stats.series("missing")


# ------------------------------------------------------------ flux providers
def test_flux_components_are_interchangeable():
    gamma = 1.4
    prim = tuple(np.array([v]) for v in (1.0, 0.5, 0.0, 1.0, 0.3))
    f = fw()
    (BuilderService(f).create(GodunovFlux, "god").create(EFMFlux, "efm"))
    god = f.services_of("god").provides["flux"][0]
    efm = f.services_of("efm").provides["flux"][0]
    assert god.port_type() == efm.port_type() == "FluxPort"
    Fg = god.flux(prim, prim, gamma)
    Fe = efm.flux(prim, prim, gamma)
    np.testing.assert_allclose(Fg, Fe, rtol=1e-7)
    assert god.ncalls == 1 and efm.ncalls == 1


def test_states_component_limiter_parameter():
    f = fw()
    BuilderService(f).create(States, "st").parameter("st", "limiter",
                                                     "minmod")
    states = f.services_of("st").provides["states"][0]
    q = np.tile(np.arange(8.0), (5, 1, 1))
    qL, qR = states.interface_states(q, axis=2)
    assert qL.shape[-1] == 5
    assert states.ncalls == 1


# ---------------------------------------------------------- ProlongRestrict
def test_prolong_restrict_component_roundtrip():
    f = fw()
    BuilderService(f).create(ProlongRestrict, "pr")
    interp = f.services_of("pr").provides["interp"][0]
    c = np.random.default_rng(0).random((2, 6, 6))
    fine = interp.prolong(c, 2)
    back = interp.restrict(fine, 2)
    np.testing.assert_allclose(back, c[:, 1:-1, 1:-1], rtol=1e-12)
    assert interp.ncalls == 2


# -------------------------------------------------------- BoundaryConditions
def test_boundary_conditions_face_kinds():
    from repro.samr import Box, Patch

    f = fw()
    b = BuilderService(f).create(BoundaryConditions, "bc")
    b.parameter("bc", "y_low", "reflecting")
    b.parameter("bc", "x_low", "inflow")
    comp = f.get_component("bc")
    port = f.services_of("bc").provides["bc"][0]
    patch = Patch(0, Box((0, 0), (7, 7)), level=0, nghost=2)
    arr = np.random.default_rng(1).random((5, 12, 12)) + 1.0
    # reflecting y_low: my flipped
    port.apply(patch, arr, 1, 0)
    np.testing.assert_allclose(arr[2, :, 1], -arr[2, :, 2])
    # inflow without a state: error
    with pytest.raises(CCAError, match="inflow"):
        port.apply(patch, arr, 0, 0)
    comp.set_inflow_state(np.arange(5.0))
    port.apply(patch, arr, 0, 0)
    np.testing.assert_allclose(arr[:, 0, 5], np.arange(5.0))
    # default outflow on unset faces
    port.apply(patch, arr, 0, 1)
    np.testing.assert_allclose(arr[:, -1, :], arr[:, -3, :])
    assert port.napplied == 4
