"""Tests for NASA-7 thermodynamics and species data: physical sanity
(known cp values, continuity at the range switch, Gibbs consistency)."""

import numpy as np
import pytest

from repro.chemistry import Nasa7, R_UNIVERSAL
from repro.chemistry.thermo_data import available_species, make_species
from repro.errors import ChemistryError


def test_r_universal():
    assert R_UNIVERSAL == pytest.approx(8.314462618, rel=1e-9)


def test_nasa7_validation():
    with pytest.raises(ChemistryError):
        Nasa7(low=(1.0,) * 6, high=(1.0,) * 7)
    with pytest.raises(ChemistryError):
        Nasa7(low=(1.0,) * 7, high=(1.0,) * 7, t_mid=100.0, t_min=200.0)


def test_monatomic_h_cp_is_5_half_R():
    h = make_species("H")
    for T in (300.0, 1000.0, 2500.0):
        assert h.thermo.cp_R(T) == pytest.approx(2.5, rel=1e-6)


def test_n2_cp_room_temperature():
    """N2 cp at 298 K is about 29.1 J/(mol K) (7/2 R)."""
    n2 = make_species("N2")
    assert n2.thermo.cp_mol(298.15) == pytest.approx(29.1, rel=0.01)


def test_h2o_heat_of_formation():
    """H2O enthalpy at 298.15 K ~ -241.8 kJ/mol."""
    h2o = make_species("H2O")
    assert h2o.thermo.h_mol(298.15) == pytest.approx(-241.8e3, rel=0.01)


def test_oh_heat_of_formation():
    """OH enthalpy of formation: GRI 3.0 fits give ~39.3 kJ/mol (the older
    JANAF 9.4 kcal/mol value; modern ATcT is ~37.3)."""
    oh = make_species("OH")
    assert oh.thermo.h_mol(298.15) == pytest.approx(39.3e3, rel=0.02)


def test_continuity_at_range_switch():
    """cp, h, s must be continuous at T_mid (fitted that way)."""
    for name in available_species():
        th = make_species(name).thermo
        below, above = th.t_mid - 1e-6, th.t_mid + 1e-6
        assert th.cp_R(below) == pytest.approx(th.cp_R(above), rel=1e-3)
        assert th.h_RT(below) == pytest.approx(th.h_RT(above), rel=1e-3)
        assert th.s_R(below) == pytest.approx(th.s_R(above), rel=1e-3)


def test_gibbs_identity():
    th = make_species("O2").thermo
    T = np.array([400.0, 1500.0])
    np.testing.assert_allclose(th.g_RT(T), th.h_RT(T) - th.s_R(T))


def test_vectorized_matches_scalar():
    th = make_species("H2O").thermo
    Ts = np.array([300.0, 800.0, 1200.0, 3000.0])
    vec = th.cp_R(Ts)
    for i, T in enumerate(Ts):
        assert vec[i] == pytest.approx(float(th.cp_R(T)))


def test_enthalpy_derivative_is_cp():
    """dh/dT = cp (finite-difference check)."""
    th = make_species("H2").thermo
    for T in (500.0, 1500.0):
        dT = 0.01
        dh = (th.h_mol(T + dT) - th.h_mol(T - dT)) / (2 * dT)
        assert dh == pytest.approx(th.cp_mol(T), rel=1e-5)


def test_molecular_weights():
    assert make_species("H2").weight == pytest.approx(2.016e-3, rel=1e-3)
    assert make_species("O2").weight == pytest.approx(31.999e-3, rel=1e-3)
    assert make_species("H2O").weight == pytest.approx(18.015e-3, rel=1e-3)
    assert make_species("N2").weight == pytest.approx(28.013e-3, rel=1e-3)


def test_species_composition_lookup():
    h2o2 = make_species("H2O2")
    assert h2o2.n_atoms("H") == 2 and h2o2.n_atoms("O") == 2
    assert h2o2.n_atoms("N") == 0


def test_all_nine_species_available():
    names = available_species()
    for nm in ["H2", "O2", "O", "OH", "H2O", "H", "HO2", "H2O2", "N2"]:
        assert nm in names


@pytest.mark.parametrize("mech_name", ["h2-air", "h2-lite"])
def test_species_axis_tables_equal_the_per_species_polynomials(mech_name):
    """``Mechanism`` evaluates all species in one Horner pass over
    (nsp, 7) tables (``thermo``; ``cp_R`` for the transport); every row
    must be the per-species ``Nasa7`` value bit for bit, on both sides of
    ``t_mid`` and at it."""
    from repro.chemistry import h2_air_mechanism, h2_lite_mechanism

    mech = {"h2-air": h2_air_mechanism, "h2-lite": h2_lite_mechanism}[
        mech_name]()
    straddling = np.array([250.0, 999.999, 1000.0, 1000.001, 1733.3, 3400.0])
    for T in [np.float64(640.0), np.float64(1000.0), np.float64(2100.0),
              straddling, straddling.reshape(2, 3)]:
        th = mech.thermo(np.reshape(T, -1))
        rows = {"cp_R": mech.cp_R(T), "h_RT": th.h_RT, "s_R": th.s_R,
                "g_RT": th.h_RT - th.s_R}
        assert th.kinds.shape == (3, mech.n_species, np.size(T))
        for fn, table in rows.items():
            table = table.reshape((mech.n_species,) + np.shape(T))
            for k, sp in enumerate(mech.species):
                assert np.array_equal(table[k], getattr(sp.thermo, fn)(T))
        assert np.array_equal(th.cp_R, mech.cp_R(th.T))
        # the mass-basis specific heats built on them
        W = mech.weights
        for k, sp in enumerate(mech.species):
            assert np.array_equal(mech.cp_mass_species(T)[k],
                                  sp.thermo.cp_mol(T) / W[k])
