"""Tests for reactions, mechanisms and reactor RHS: balance checking,
equilibrium consistency, heat release sign, dP/dt closure."""

import numpy as np
import pytest

from repro.chemistry import (
    Arrhenius,
    ConstantPressureReactor,
    ConstantVolumeReactor,
    Mechanism,
    Reaction,
    h2_air_mechanism,
    h2_lite_mechanism,
)
from repro.chemistry.h2_air import stoichiometric_h2_air
from repro.chemistry.reaction import CAL_TO_J, Falloff
from repro.chemistry.thermo_data import make_species
from repro.errors import ChemistryError


# ------------------------------------------------------------- Arrhenius
def test_arrhenius_temperature_dependence():
    k = Arrhenius(A=1e10, b=0.0, Ea=50e3)
    assert k.k(2000.0) > k.k(1000.0) > k.k(500.0)


def test_arrhenius_zero_ea_power_law():
    k = Arrhenius(A=2.0, b=1.0, Ea=0.0)
    assert k.k(300.0) == pytest.approx(600.0)


def test_from_cgs_units():
    # bimolecular: cm^3/mol/s -> m^3/mol/s is 1e-6
    k = Arrhenius.from_cgs(1e12, 0.0, 1000.0, order=2)
    assert k.A == pytest.approx(1e6)
    assert k.Ea == pytest.approx(1000.0 * CAL_TO_J)
    # unimolecular: no volume factor
    assert Arrhenius.from_cgs(1e12, 0.0, 0.0, order=1).A == pytest.approx(1e12)


# ------------------------------------------------------------- Reactions
def test_reaction_validation():
    with pytest.raises(ChemistryError):
        Reaction({}, {"H": 1}, Arrhenius(1.0))
    with pytest.raises(ChemistryError):
        Reaction({"H": 0}, {"H": 1}, Arrhenius(1.0))
    with pytest.raises(ChemistryError):
        Reaction({"H2": 1}, {"H": 2}, Arrhenius(1.0),
                 falloff=Falloff(Arrhenius(1.0)))  # falloff w/o 3rd body


def test_reaction_equation_string():
    r = Reaction({"H": 1, "O2": 1}, {"OH": 2}, Arrhenius(1.0),
                 third_body={"H2O": 12.0})
    assert r.equation() == "H + O2 + M <=> 2 OH + M"
    assert r.delta_nu() == 0


def test_unbalanced_reaction_caught_by_mechanism():
    sp = [make_species(n) for n in ("H2", "H")]
    bad = Reaction({"H2": 1}, {"H": 1}, Arrhenius(1.0))
    with pytest.raises(ChemistryError, match="unbalanced"):
        Mechanism("bad", sp, [bad])


def test_mechanism_rejects_unknown_species():
    sp = [make_species("H2")]
    r = Reaction({"H2": 1}, {"H": 2}, Arrhenius(1.0))
    with pytest.raises(ChemistryError, match="unknown"):
        Mechanism("bad", sp, [r])


# ------------------------------------------------------------- Mechanisms
def test_h2_air_shape():
    m = h2_air_mechanism()
    assert m.n_species == 9
    assert m.n_reactions == 19
    assert m.names[0] == "H2" and "N2" in m.names


def test_h2_lite_shape():
    m = h2_lite_mechanism()
    assert m.n_species == 8
    assert m.n_reactions == 5


def test_stoichiometric_mixture():
    Y = stoichiometric_h2_air()
    assert sum(Y.values()) == pytest.approx(1.0)
    # fuel-air ratio: Y_H2 ~ 0.0285 for stoichiometric H2-air
    assert Y["H2"] == pytest.approx(0.0285, rel=0.02)


def test_mean_weight_and_density():
    m = h2_air_mechanism()
    Y = np.zeros(9)
    Y[m.species_index("N2")] = 1.0
    assert m.mean_weight(Y) == pytest.approx(28.013e-3, rel=1e-3)
    rho = m.density(300.0, 101325.0, Y)
    assert rho == pytest.approx(1.138, rel=0.01)  # N2 at 300 K, 1 atm
    assert m.pressure(300.0, rho, Y) == pytest.approx(101325.0)


def test_concentrations_sum_to_molar_density():
    m = h2_air_mechanism()
    Y = _stoich_vec(m)
    rho = m.density(1000.0, 101325.0, Y)
    C = m.concentrations(rho, Y)
    # ideal gas: total concentration = P / RT
    assert C.sum() == pytest.approx(101325.0 / (8.314462 * 1000.0), rel=1e-4)


def test_cp_cv_relation():
    m = h2_air_mechanism()
    Y = _stoich_vec(m)
    cp = m.cp_mass(1000.0, Y)
    # cv from each species' own cv = cp - R (molar), mass-weighted
    cv = sum(Y[k] * (sp.thermo.cp_mol(1000.0) - 8.3144626) / sp.weight
             for k, sp in enumerate(m.species))
    W = m.mean_weight(Y)
    assert cp - cv == pytest.approx(8.3144626 / W, rel=1e-8)
    assert cp > cv > 0


def test_wdot_conserves_mass():
    """Sum_i wdot_i * W_i = 0 (element conservation implies mass)."""
    m = h2_air_mechanism()
    Y = _stoich_vec(m, seed_radicals=True)
    rho = m.density(1500.0, 101325.0, Y)
    C = m.concentrations(rho, Y)
    wdot = m.wdot(1500.0, C)
    assert abs(float(np.dot(wdot, m.weights))) < 1e-8 * np.abs(
        wdot * m.weights).max()


def test_wdot_zero_without_radicals_at_low_T():
    """A cold pure H2/O2/N2 mixture barely reacts (chain not started)."""
    m = h2_air_mechanism()
    Y = _stoich_vec(m)
    rho = m.density(300.0, 101325.0, Y)
    C = m.concentrations(rho, Y)
    wdot = m.wdot(300.0, C)
    assert np.abs(wdot).max() < 1e-6


def test_wdot_vectorized_over_cells():
    m = h2_lite_mechanism()
    Y = np.tile(_stoich_vec(m, seed_radicals=True)[:, None], (1, 5))
    T = np.linspace(1000.0, 1400.0, 5)
    rho = m.density(T, 101325.0, Y)
    C = m.concentrations(rho, Y)
    wdot = m.wdot(T, C)
    assert wdot.shape == (8, 5)
    # the seeded H atom is consumed (chain initiation), faster when hotter
    iH = m.species_index("H")
    assert wdot[iH, -1] < wdot[iH, 0] < 0.0
    # products O and OH appear
    assert wdot[m.species_index("OH"), -1] > 0.0


def test_equilibrium_detailed_balance():
    """At equilibrium composition of a single reversible reaction the net
    progress rate vanishes: build C so that Kc is matched exactly."""
    m = h2_air_mechanism()
    T = 1500.0
    # reaction 2: O + H2 <=> H + OH (all bimolecular, delta_nu = 0)
    rxn = m.reactions[1]
    g = {nm: make_species(nm).thermo.g_RT(T) for nm in
         ("O", "H2", "H", "OH")}
    ln_kc = -(g["H"] + g["OH"] - g["O"] - g["H2"])
    kc = np.exp(ln_kc)
    # choose concentrations with [H][OH]/([O][H2]) = Kc
    C = np.zeros((9, 1))
    C[m.species_index("O")] = 1.0
    C[m.species_index("H2")] = 1.0
    C[m.species_index("H")] = np.sqrt(kc)
    C[m.species_index("OH")] = np.sqrt(kc)
    q = m.progress_rates(np.array([T]), C)
    assert abs(q[1, 0]) < 1e-10 * m.reactions[1].rate.k(T)


# ------------------------------------------------------------- reactors
def _stoich_vec(m, seed_radicals=False):
    Y = np.zeros(m.n_species)
    st = stoichiometric_h2_air()
    for nm, val in st.items():
        if nm in m.names:
            Y[m.species_index(nm)] = val
    if seed_radicals:
        iH = m.species_index("H")
        Y[iH] = 1e-5
        Y /= Y.sum()
    return Y


def test_constant_pressure_reactor_heats_up():
    m = h2_air_mechanism()
    r = ConstantPressureReactor(m, 101325.0)
    y0 = r.initial_state(1200.0, _stoich_vec(m, seed_radicals=True))
    dy = r.rhs(0.0, y0)
    assert r.nfe == 1
    assert dy.shape == (10,)
    T, Y = r.unpack(y0)
    assert T == 1200.0 and Y.sum() == pytest.approx(1.0)
    # chain initiation: the H seed is consumed, O and OH are produced
    assert dy[1 + m.species_index("H")] < 0.0
    assert dy[1 + m.species_index("O")] > 0.0
    assert dy[1 + m.species_index("OH")] > 0.0


def test_constant_pressure_mass_fraction_sum_invariant():
    m = h2_air_mechanism()
    r = ConstantPressureReactor(m, 101325.0)
    y0 = r.initial_state(1400.0, _stoich_vec(m, seed_radicals=True))
    dy = r.rhs(0.0, y0)
    assert abs(dy[1:].sum()) < 1e-10 * max(1.0, np.abs(dy[1:]).max())


def test_constant_volume_reactor_state_layout():
    m = h2_air_mechanism()
    r = ConstantVolumeReactor(m, 1000.0, 101325.0, _stoich_vec(m))
    y0 = r.initial_state()
    assert y0.shape == (11,)  # T + 9 species + P
    T, Y, P = r.unpack(y0)
    assert T == 1000.0 and P == 101325.0


def test_constant_volume_dpdt_consistent_with_eos():
    """dP/dt from the closure must match d/dt of the ideal-gas EOS."""
    m = h2_air_mechanism()
    r = ConstantVolumeReactor(m, 1400.0, 101325.0,
                              _stoich_vec(m, seed_radicals=True))
    y0 = r.initial_state()
    dy = r.rhs(0.0, y0)
    eps = 1e-9
    y1 = y0 + eps * dy
    P0 = m.pressure(y0[0], r.rho, y0[1:-1])
    P1 = m.pressure(y1[0], r.rho, np.clip(y1[1:-1], 0, None))
    fd = (P1 - P0) / eps
    assert dy[-1] == pytest.approx(fd, rel=1e-4)


def test_reactor_rejects_bad_inputs():
    m = h2_lite_mechanism()
    with pytest.raises(ChemistryError):
        ConstantPressureReactor(m, -1.0)
    r = ConstantPressureReactor(m, 101325.0)
    with pytest.raises(ChemistryError):
        r.initial_state(300.0, np.ones(m.n_species))  # sums to 8
    with pytest.raises(ChemistryError):
        r.initial_state(300.0, np.ones(3))
    with pytest.raises(ChemistryError):
        ConstantVolumeReactor(m, -5.0, 101325.0, _stoich_vec(m))


def test_a_cells_rates_do_not_depend_on_its_batch():
    """Column independence of the kinetics kernel: a cell evaluated
    alone, in a batch, or inside a patch-shaped array gives the same
    bits (the contract the batched CVode and the serve cache build on)."""
    m = h2_air_mechanism()
    rng = np.random.default_rng(7)
    B = 24
    T = rng.uniform(300.0, 2600.0, B)
    Y = rng.uniform(0.0, 1.0, (m.n_species, B))
    Y /= Y.sum(axis=0)
    rho = m.density(T, 101325.0, Y)
    C = m.concentrations(rho, Y)
    wdot = m.wdot(T, C)
    cp = m.cp_mass(T, Y)
    for j in range(B):
        one = slice(j, j + 1)
        assert np.array_equal(m.wdot(T[one], C[:, one])[:, 0], wdot[:, j])
        assert m.density(T[one], 101325.0, Y[:, one])[0] == rho[j]
        assert m.cp_mass(T[one], Y[:, one])[0] == cp[j]
    assert np.array_equal(
        m.wdot(T.reshape(4, 6), C.reshape(-1, 4, 6)).reshape(-1, B), wdot)
    assert np.array_equal(m.wdot(T[::-1].copy(), C[:, ::-1].copy()),
                          wdot[:, ::-1])
