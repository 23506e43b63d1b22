"""Property-based tests (hypothesis) on thermochemistry invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chemistry import h2_air_mechanism, h2_lite_mechanism
from repro.chemistry.nasa7 import R_UNIVERSAL
from repro.chemistry.reaction import P_REF

MECH = h2_air_mechanism()
LITE = h2_lite_mechanism()

temps = st.floats(300.0, 3000.0, allow_nan=False)


def random_composition(draw, mech, ints):
    raw = np.array([draw(ints) for _ in range(mech.n_species)], dtype=float)
    raw += 1.0
    return raw / raw.sum()


comp_ints = st.integers(0, 50)


@settings(max_examples=40, deadline=None)
@given(temps)
def test_cp_positive_everywhere(T):
    for sp in MECH.species:
        assert sp.thermo.cp_R(T) > 0.0


@settings(max_examples=40, deadline=None)
@given(temps)
def test_enthalpy_increases_with_temperature(T):
    dT = 10.0
    for sp in MECH.species:
        assert sp.thermo.h_mol(T + dT) > sp.thermo.h_mol(T)


@settings(max_examples=30, deadline=None)
@given(temps, st.data())
def test_mass_conservation_of_wdot(T, data):
    """Sum_i wdot_i W_i = 0 for arbitrary states (element conservation)."""
    comp = random_composition(data.draw, MECH, comp_ints)
    rho = MECH.density(T, 101325.0, comp)
    C = MECH.concentrations(rho, comp)
    wdot = MECH.wdot(np.array(T), C)
    scale = max(1e-30, float(np.abs(wdot * MECH.weights).max()))
    assert abs(float(np.dot(wdot, MECH.weights))) < 1e-10 * scale


@settings(max_examples=30, deadline=None)
@given(temps, st.data())
def test_ideal_gas_roundtrip(T, data):
    comp = random_composition(data.draw, MECH, comp_ints)
    P = 101325.0
    rho = MECH.density(T, P, comp)
    assert MECH.pressure(T, rho, comp) == pytest.approx(P, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(temps, st.data())
def test_cp_greater_than_cv(T, data):
    comp = random_composition(data.draw, MECH, comp_ints)
    cv = MECH.cp_mass(T, comp) - R_UNIVERSAL / MECH.mean_weight(comp)
    assert MECH.cp_mass(T, comp) > cv > 0.0


@settings(max_examples=20, deadline=None)
@given(temps)
def test_equilibrium_constant_detailed_balance_all_reactions(T):
    """kr = kf/Kc with Kc from Gibbs energies: at a composition built to
    satisfy Kc for a given reaction, its net rate vanishes."""
    g_RT = np.stack([sp.thermo.g_RT(np.array([T])) for sp in MECH.species])
    for j, rxn in enumerate(MECH.reactions):
        if not rxn.reversible:
            continue
        dg = float((MECH.nu_net[:, j][:, None] * g_RT).sum())
        ln_kc = -dg - rxn.delta_nu() * np.log(R_UNIVERSAL * T / P_REF)
        # avoid overflow pathologies for very large |ln Kc|
        if abs(ln_kc) > 80:
            continue
        kc = np.exp(ln_kc)
        # construct concentrations: reactants at 1, products scaled
        C = np.full((MECH.n_species, 1), 1e-12)
        for nm, nu in rxn.reactants.items():
            C[MECH.species_index(nm)] = 1.0
        n_prod = sum(rxn.products.values())
        for nm, nu in rxn.products.items():
            C[MECH.species_index(nm)] = kc ** (1.0 / n_prod)
        q = MECH.progress_rates(np.array([T]), C)
        kf = rxn.rate.k(T)
        if rxn.falloff is not None or rxn.has_third_body:
            continue  # third-body factor scales both directions equally
        assert abs(q[j, 0]) < 1e-6 * max(kf, 1.0)


@settings(max_examples=25, deadline=None)
@given(temps, st.data())
def test_lite_mech_subset_consistency(T, data):
    """Species shared between the mechanisms carry identical thermo."""
    for nm in LITE.names:
        k9 = MECH.species_index(nm)
        k8 = LITE.species_index(nm)
        assert MECH.species[k9].thermo.h_RT(T) == pytest.approx(
            LITE.species[k8].thermo.h_RT(T))
        assert MECH.weights[k9] == LITE.weights[k8]


@settings(max_examples=20, deadline=None)
@given(st.floats(500.0, 2500.0), st.data())
def test_source_terms_energy_consistency(T, data):
    """Constant-pressure heat release: rho*cp*dT/dt = -sum h_i wdot_i W_i
    (the ThermoChemistry closure is self-consistent)."""
    from repro.cca import BuilderService, Framework
    from repro.components import ThermoChemistry

    comp = random_composition(data.draw, MECH, comp_ints)
    f = Framework()
    BuilderService(f).create(ThermoChemistry, "tc")
    chem = f.services_of("tc").provides["chemistry"][0]
    dT, dY = chem.source_terms(np.array(T), comp)
    rho = MECH.density(T, 101325.0, comp)
    cp = MECH.cp_mass(T, comp)
    h = np.array([sp.thermo.h_mol(T) for sp in MECH.species]) / MECH.weights
    lhs = float(rho * cp * dT)
    rhs = -float(np.einsum("i,i->", h, dY) * rho)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)
