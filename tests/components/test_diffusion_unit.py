"""Unit tests for the diffusion RHS kernel (the _div_flux stencil) and
the DiffusionPhysics component's physical behaviour."""

import numpy as np
import pytest

from repro.components.diffusion_physics import _div_flux
from repro.errors import CCAError


def test_div_flux_constant_field_is_zero():
    phi = np.full((2, 8, 8), 3.0)
    B = np.ones_like(phi)
    div = _div_flux(phi, B, 0.1, 0.1)
    assert div.shape == (2, 6, 6)
    np.testing.assert_allclose(div, 0.0, atol=1e-14)


def test_div_flux_linear_field_is_zero():
    """Constant-coefficient Laplacian annihilates linear fields."""
    x = np.arange(8.0)
    phi = (2.0 * x[:, None] + 3.0 * x[None, :])[None]
    B = np.ones_like(phi)
    div = _div_flux(phi, B, 1.0, 1.0)
    np.testing.assert_allclose(div, 0.0, atol=1e-12)


def test_div_flux_quadratic_gives_constant_laplacian():
    """phi = x^2 -> d/dx(B dphi/dx) = 2B exactly for the 3-point stencil."""
    x = np.arange(10.0)
    phi = (x[:, None] ** 2 * np.ones(6)[None, :])[None]
    B = np.full_like(phi, 1.5)
    div = _div_flux(phi, B, 1.0, 1.0)
    np.testing.assert_allclose(div, 3.0, rtol=1e-12)


def test_div_flux_variable_coefficient_face_average():
    """One step in B: flux at the face uses the arithmetic mean."""
    phi = np.zeros((1, 4, 3))
    phi[0, :, :] = np.array([0.0, 1.0, 2.0, 3.0])[:, None]
    B = np.ones_like(phi)
    B[0, 2:, :] = 3.0  # B jumps between cells 1 and 2
    div = _div_flux(phi, B, 1.0, 1.0)
    # interior cell i=1: F_{3/2} = mean(1,3)*1 = 2, F_{1/2} = 1 -> div = 1
    assert div[0, 0, 0] == pytest.approx(1.0)


def test_div_flux_conserves_interior_sum_for_zero_flux_edges():
    """With mirrored ghosts (zero edge flux) the stencil telescopes."""
    rng = np.random.default_rng(0)
    core = rng.random((1, 6, 6))
    phi = np.pad(core, ((0, 0), (1, 1), (1, 1)), mode="edge")
    B = np.ones_like(phi)
    div = _div_flux(phi, B, 1.0, 1.0)
    assert div[0].sum() == pytest.approx(0.0, abs=1e-12)


def _diffusion_component():
    from repro.cca import BuilderService, Framework
    from repro.components import (DRFMComponent, DiffusionPhysics,
                                  GrACEComponent, ThermoChemistry)

    f = Framework()
    (BuilderService(f)
     .create(GrACEComponent, "mesh")
     .create(ThermoChemistry, "tc")
     .create(DRFMComponent, "drfm")
     .create(DiffusionPhysics, "diff")
     .connect("drfm", "chem", "tc", "chemistry")
     .connect("diff", "transport", "drfm", "transport")
     .connect("diff", "chem", "tc", "chemistry")
     .connect("diff", "mesh", "mesh", "mesh"))
    return f.get_component("diff")


def test_diffusion_component_wrong_variable_count():
    from repro.samr import Box, Patch

    patch = Patch(0, Box((0, 0), (3, 3)), 0, nghost=2)
    with pytest.raises(CCAError, match="species"):
        _diffusion_component().evaluate(patch, np.zeros((3, 8, 8)))


def test_diffusion_component_needs_a_ghost_ring():
    """With ``nghost == 0`` the stencil has nothing to difference against;
    the slice arithmetic used to return an empty ``(nvar, 0, 0)`` array."""
    from repro.samr import Box, Patch

    comp = _diffusion_component()
    nvar = comp.services.get_port("chem").mechanism().n_species + 1
    patch = Patch(0, Box((0, 0), (3, 3)), 0, nghost=0)
    with pytest.raises(CCAError, match="needs at least one ghost ring"):
        comp.evaluate(patch, np.ones((nvar, 4, 4)))
