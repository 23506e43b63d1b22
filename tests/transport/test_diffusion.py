"""Tests for mixture-averaged transport properties."""

import numpy as np
import pytest

from repro.chemistry import h2_air_mechanism, h2_lite_mechanism
from repro.chemistry.h2_air import stoichiometric_h2_air
from repro.errors import ChemistryError
from repro.transport import MixtureTransport

from tests.components.test_diffusivity_bound import diffusivity_port, new_patch


@pytest.fixture(scope="module")
def tr():
    return MixtureTransport(h2_air_mechanism())


def stoich(mech):
    Y = np.zeros(mech.n_species)
    for nm, val in stoichiometric_h2_air().items():
        Y[mech.species_index(nm)] = val
    return Y


def test_reference_values_at_300k(tr):
    D = tr.diffusion_coefficients(300.0, 101325.0)
    iH2 = tr.mech.species_index("H2")
    iN2 = tr.mech.species_index("N2")
    assert D[iH2] == pytest.approx(7.8e-5, rel=1e-12)
    assert D[iN2] == pytest.approx(2.0e-5, rel=1e-12)


def test_light_species_diffuse_fastest(tr):
    D = tr.diffusion_coefficients(1000.0, 101325.0)
    names = tr.mech.names
    dmap = {nm: float(D[i]) for i, nm in enumerate(names)}
    assert dmap["H"] > dmap["H2"] > dmap["O2"]


def test_temperature_and_pressure_scaling(tr):
    d300 = tr.diffusion_coefficients(300.0, 101325.0)
    d600 = tr.diffusion_coefficients(600.0, 101325.0)
    np.testing.assert_allclose(d600 / d300, 2.0**1.7)
    d2atm = tr.diffusion_coefficients(300.0, 2 * 101325.0)
    np.testing.assert_allclose(d2atm / d300, 0.5)


def test_vectorized_over_fields(tr):
    T = np.array([[300.0, 600.0], [900.0, 1200.0]])
    D = tr.diffusion_coefficients(T, 101325.0)
    assert D.shape == (9, 2, 2)
    assert np.all(D[:, 1, 1] > D[:, 0, 0])


def test_conductivity_monotone(tr):
    assert tr.conductivity(300.0) == pytest.approx(0.026)
    assert tr.conductivity(1500.0) > tr.conductivity(300.0)


def test_thermal_diffusivity_magnitude(tr):
    """Air-like alpha = lambda / (rho cp) at 300 K, 1 atm is ~2.2e-5
    m^2/s."""
    Y = stoich(tr.mech)
    alpha = tr.conductivity(300.0) / (tr.mech.density(300.0, 101325.0, Y)
                                      * tr.mech.cp_mass(300.0, Y))
    assert 1e-5 < float(alpha) < 5e-5


def test_max_diffusion_coefficient_dominated_by_H(tr):
    """The stability bound's diffusivity (the diffusion operator's
    ``DiffusivityPort``) is H's D at 1 000 K."""
    Y = stoich(tr.mech)
    port, _ = diffusivity_port(tr.mech)
    state = np.concatenate([[1000.0], Y])
    dmax = port.max_diffusivity(new_patch(), state)
    iH = tr.mech.species_index("H")
    D = tr.diffusion_coefficients(1000.0, 101325.0)
    assert dmax == pytest.approx(float(D[iH]))


def test_works_for_lite_mechanism():
    tr8 = MixtureTransport(h2_lite_mechanism())
    D = tr8.diffusion_coefficients(500.0, 101325.0)
    assert D.shape == (8,)


def test_missing_species_rejected():
    from repro.chemistry import Mechanism, Species
    from repro.chemistry.nasa7 import Nasa7

    fake = Species("XY", {"H": 1}, Nasa7((1.0,) * 7, (1.0,) * 7))
    mech = Mechanism("fake", [fake], [])
    with pytest.raises(ChemistryError, match="XY"):
        MixtureTransport(mech)
