"""Tests for limiters, MUSCL reconstruction, the assembled Euler RHS
(Sod shock-tube evolution), boundary fills and diagnostics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import HydroError
from repro.hydro import (
    EulerState,
    cfl_dt,
    efm_flux,
    euler_rhs,
    euler_rhs_patches,
    godunov_flux,
    fill_inflow,
    fill_outflow,
    fill_reflecting,
    interface_circulation,
    mc_limiter,
    minmod,
    muscl_interface_states,
    prim_to_cons,
    superbee,
    van_leer,
    vorticity,
)
from repro.hydro.state import IMX, IMY, cons_to_prim
from repro.integrators import rk2_step

GAMMA = 1.4
LIMITERS = [minmod, van_leer, mc_limiter, superbee]


# ---------------------------------------------------------------- limiters
@settings(max_examples=50)
@given(st.floats(-10, 10, allow_nan=False), st.floats(-10, 10, allow_nan=False))
def test_limiters_vanish_at_extrema(a, b):
    """Opposite-sign differences (an extremum) must give zero slope."""
    if a * b <= 0:
        for lim in LIMITERS:
            assert lim(np.array([a]), np.array([b]))[0] == 0.0


@settings(max_examples=50)
@given(st.floats(0.01, 10), st.floats(0.01, 10))
def test_limiters_symmetric_and_bounded(a, b):
    for lim in LIMITERS:
        s1 = lim(np.array([a]), np.array([b]))[0]
        s2 = lim(np.array([b]), np.array([a]))[0]
        assert s1 == pytest.approx(s2, rel=1e-12)
        assert 0.0 <= s1 <= 2.0 * min(a, b) + 1e-12


def test_limiters_exact_on_uniform_slope():
    for lim in LIMITERS:
        assert lim(np.array([1.0]), np.array([1.0]))[0] == pytest.approx(1.0)


def test_limiter_diffusivity_ordering():
    """minmod <= van_leer <= MC on a generic smooth pair."""
    a, b = np.array([1.0]), np.array([2.0])
    assert minmod(a, b)[0] <= van_leer(a, b)[0] <= mc_limiter(a, b)[0]


# ------------------------------------------------------------------- MUSCL
def test_muscl_exact_on_linear_data():
    q = np.arange(10, dtype=float)
    qL, qR = muscl_interface_states(q)
    # interface k+3/2 between cells k+1, k+2 -> value k+1.5
    np.testing.assert_allclose(qL, np.arange(1.5, 8.5))
    np.testing.assert_allclose(qR, qL)


def test_muscl_monotone_at_discontinuity():
    q = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    qL, qR = muscl_interface_states(q, limiter="minmod")
    assert np.all(qL >= 0.0) and np.all(qL <= 1.0)
    assert np.all(qR >= 0.0) and np.all(qR <= 1.0)


def test_muscl_axis_and_leading_dims():
    q = np.tile(np.arange(8.0), (3, 5, 1))
    qL, qR = muscl_interface_states(q, axis=2)
    assert qL.shape == (3, 5, 5)
    q_t = np.swapaxes(q, 1, 2)
    qLt, _ = muscl_interface_states(q_t, axis=1)
    np.testing.assert_allclose(np.swapaxes(qLt, 1, 2), qL)


def test_muscl_errors():
    with pytest.raises(HydroError):
        muscl_interface_states(np.zeros(3))
    with pytest.raises(HydroError):
        muscl_interface_states(np.zeros(8), limiter="bogus")


# -------------------------------------------------------------------- RHS
def sod_patch(nx=100, g=2):
    """1-D Sod tube embedded in a 2-D patch (4 cells in y)."""
    ny = 4
    rho = np.where(np.arange(nx) < nx // 2, 1.0, 0.125)
    p = np.where(np.arange(nx) < nx // 2, 1.0, 0.1)
    zeta = np.where(np.arange(nx) < nx // 2, 1.0, 0.0)
    U = prim_to_cons(
        np.tile(rho[:, None], (1, ny)),
        0.0, 0.0,
        np.tile(p[:, None], (1, ny)),
        np.tile(zeta[:, None], (1, ny)), GAMMA)
    Ug = np.zeros((5, nx + 2 * g, ny + 2 * g))
    Ug[:, g:-g, g:-g] = U
    return Ug


def fill_bc_sod(Ug, g=2):
    fill_outflow(Ug, 0, 0, g)
    fill_outflow(Ug, 0, 1, g)
    fill_outflow(Ug, 1, 0, g)
    fill_outflow(Ug, 1, 1, g)


@pytest.mark.parametrize("flux", ["godunov", "efm"])
def test_sod_evolution_matches_exact(flux):
    """March the Sod problem to t = 0.2 and compare with the exact star
    state in the plateau region."""
    nx, g = 100, 2
    dx = 1.0 / nx
    fx = godunov_flux if flux == "godunov" else efm_flux
    Ug = sod_patch(nx, g)
    t, t_end = 0.0, 0.2
    while t < t_end - 1e-12:
        fill_bc_sod(Ug, g)
        dt = min(cfl_dt(Ug[:, g:-g, g:-g], dx, 1.0, GAMMA, cfl=0.4),
                 t_end - t)

        def rhs(tt, U):
            W = U.copy()
            fill_bc_sod(W, g)
            out = np.zeros_like(U)
            out[:, g:-g, g:-g] = euler_rhs(W, dx, 1e9, GAMMA, flux_fn=fx)
            return out

        Ug = rk2_step(rhs, t, Ug, dt)
        t += dt
    rho, u, v, p, zeta = cons_to_prim(Ug[:, g:-g, g:-g], GAMMA)
    mid = rho[:, 2]
    # contact plateau: between contact (~x=0.685) and shock (~x=0.85)
    i_plateau = int(0.75 * nx)
    assert p[i_plateau, 2] == pytest.approx(0.30313, rel=0.05)
    assert u[i_plateau, 2] == pytest.approx(0.92745, rel=0.05)
    # density right of the contact: 0.26557
    assert mid[i_plateau] == pytest.approx(0.26557, rel=0.08)
    # monotonic zeta transition tracks the contact near x ~ 0.685
    icontact = int(np.argmin(np.abs(zeta[:, 2] - 0.5)))
    assert abs(icontact * 1.0 / nx - 0.685) < 0.05


def test_sod_conservation():
    """Mass, momentum, energy exactly conserved with outflow far away."""
    nx, g = 64, 2
    dx = 1.0 / nx
    Ug = sod_patch(nx, g)
    before = Ug[:, g:-g, g:-g].sum(axis=(1, 2))
    fill_bc_sod(Ug, g)
    dU = euler_rhs(Ug, dx, 1e9, GAMMA)
    after = (Ug[:, g:-g, g:-g] + 1e-3 * dU).sum(axis=(1, 2))
    # interior flux differences telescope; only boundary fluxes remain.
    # With symmetric-in-y setup, y-fluxes cancel; x boundary flux is the
    # quiescent left/right states' flux (pressure terms on momentum).
    assert after[0] == pytest.approx(before[0], rel=1e-12)  # mass
    assert after[4] == pytest.approx(before[4], rel=1e-12)  # zeta


def test_rhs_zero_for_uniform_flow():
    g = 2
    W = EulerState(1.0, 0.3, -0.2, 1.0, 0.5).conserved(GAMMA)
    Ug = np.tile(W.reshape(5, 1, 1), (1, 12, 12))
    dU = euler_rhs(Ug, 0.1, 0.1, GAMMA)
    np.testing.assert_allclose(dU, 0.0, atol=1e-10)


def test_rhs_needs_two_ghosts():
    with pytest.raises(HydroError):
        euler_rhs(np.zeros((5, 8, 8)), 0.1, 0.1, GAMMA, nghost=1)


def _front_patch(rng, nx, ny, g):
    """A ghosted patch with an oblique front between two uniform gases
    (faces with equal states on either side of it) and a noisy corner."""
    i, j = np.meshgrid(np.arange(nx + 2 * g), np.arange(ny + 2 * g),
                       indexing="ij")
    behind = i + 0.4 * j < 0.5 * (nx + ny)
    rho = np.where(behind, 2.0, 1.0)
    u = np.where(behind, 0.8, 0.0)
    v = np.where(behind, -0.1, 0.0)
    p = np.where(behind, 2.5, 1.0)
    zeta = (j > ny // 2).astype(float)
    rho[:g + 3, :g + 3] += 0.3 * rng.random((g + 3, g + 3))
    u[:g + 3, :g + 3] += rng.normal(0.0, 0.5, (g + 3, g + 3))
    return prim_to_cons(rho, u, v, p, zeta, GAMMA)


@pytest.mark.parametrize("nghost", [2, 3])
@pytest.mark.parametrize("flux", [godunov_flux, efm_flux])
def test_patches_in_one_flux_call_equal_patch_by_patch(flux, nghost):
    rng = np.random.default_rng(5)
    sizes = [(13, 14), (6, 21), (9, 4)]
    spacings = [(0.1, 0.05), (0.05, 0.025), (0.2, 0.3)]
    Us = [_front_patch(rng, nx, ny, nghost) for nx, ny in sizes]
    batches = []

    def counted(prim_l, prim_r, gamma):
        batches.append(prim_l[0].shape)
        return flux(prim_l, prim_r, gamma)

    together = euler_rhs_patches(Us, spacings, GAMMA, flux_fn=counted,
                                 limiter="mc", nghost=nghost)
    # one flat batch: the x- and y-sweep faces of every patch
    assert batches == [(sum((nx + 1) * ny + nx * (ny + 1)
                            for nx, ny in sizes),)]
    for U, (nx, ny), (dx, dy), dU in zip(Us, sizes, spacings, together):
        assert dU.shape == (5, nx, ny)
        assert np.array_equal(dU, euler_rhs(U, dx, dy, GAMMA, flux_fn=flux,
                                            limiter="mc", nghost=nghost))
    assert euler_rhs_patches([], [], GAMMA) == []


def test_cfl_dt_scales():
    W = EulerState(1.0, 0.0, 0.0, 1.0).conserved(GAMMA)
    U = np.tile(W.reshape(5, 1, 1), (1, 4, 4))
    dt1 = cfl_dt(U, 0.1, 0.1, GAMMA, cfl=0.4)
    dt2 = cfl_dt(U, 0.05, 0.05, GAMMA, cfl=0.4)
    assert dt1 == pytest.approx(2 * dt2)
    with pytest.raises(HydroError):
        cfl_dt(U, 0.1, 0.1, GAMMA, cfl=1.5)


# ---------------------------------------------------------------- BC fills
def test_reflecting_wall_mirrors_and_flips():
    g = 2
    Ug = sod_patch(16, g)
    fill_reflecting(Ug, 0, 0, g)
    # ghost layer g-1 mirrors interior layer g, with mx negated
    np.testing.assert_allclose(Ug[IMX, g - 1, :], -Ug[IMX, g, :])
    np.testing.assert_allclose(Ug[0, g - 1, :], Ug[0, g, :])
    np.testing.assert_allclose(Ug[0, 0, :], Ug[0, 2 * g - 1, :])
    # y-wall flips my instead
    fill_reflecting(Ug, 1, 1, g)
    np.testing.assert_allclose(Ug[IMY, :, -g], -Ug[IMY, :, -g - 1])


def test_reflecting_wall_no_flux_through():
    """A wall-adjacent uniform gas at rest must stay at rest."""
    g = 2
    W = EulerState(1.0, 0.0, 0.0, 1.0).conserved(GAMMA)
    Ug = np.tile(W.reshape(5, 1, 1), (1, 12, 12))
    for axis in (0, 1):
        for side in (0, 1):
            fill_reflecting(Ug, axis, side, g)
    dU = euler_rhs(Ug, 0.1, 0.1, GAMMA)
    np.testing.assert_allclose(dU, 0.0, atol=1e-10)


def test_inflow_fill():
    g = 2
    Ug = sod_patch(16, g)
    state = EulerState(2.0, 3.0, 0.0, 5.0, 1.0).conserved(GAMMA)
    fill_inflow(Ug, 0, 0, g, state)
    np.testing.assert_allclose(Ug[:, 0, 5], state)
    with pytest.raises(HydroError):
        fill_inflow(Ug, 0, 0, g, np.ones(3))


# -------------------------------------------------------------- diagnostics
def test_vorticity_of_solid_body_rotation():
    """u = -Omega*y, v = Omega*x -> omega = 2*Omega everywhere."""
    n, g = 16, 1
    omega0 = 0.7
    x = (np.arange(n + 2 * g) - g + 0.5) * 0.1
    y = (np.arange(n + 2 * g) - g + 0.5) * 0.1
    X, Y = np.meshgrid(x, y, indexing="ij")
    U = prim_to_cons(np.ones_like(X), -omega0 * Y, omega0 * X,
                     np.ones_like(X), np.zeros_like(X), GAMMA)
    w = vorticity(U, 0.1, 0.1, GAMMA)
    np.testing.assert_allclose(w, 2 * omega0, rtol=1e-10)


def test_interface_circulation_band_selection():
    n, g = 16, 1
    shape = (n + 2 * g, n + 2 * g)
    # shear layer: u jumps across y -> negative du/dy -> omega = -du/dy > 0
    y = (np.arange(shape[1]) - g + 0.5) / n
    u = np.tile(np.tanh((y - 0.5) * 20)[None, :], (shape[0], 1))
    zeta = np.tile(((y > 0.4) & (y < 0.6)).astype(float)[None, :] * 0.5,
                   (shape[0], 1))
    U = prim_to_cons(np.ones(shape), u, np.zeros(shape), np.ones(shape),
                     zeta, GAMMA)
    gamma_band = interface_circulation(U, 1.0 / n, 1.0 / n, GAMMA)
    assert gamma_band < 0.0  # omega = -du/dy < 0 in the shear band
    # widening the band can only add magnitude
    gamma_all = interface_circulation(U, 1.0 / n, 1.0 / n, GAMMA,
                                      zeta_lo=-1, zeta_hi=2)
    assert abs(gamma_all) >= abs(gamma_band)


def test_vorticity_too_small_raises():
    with pytest.raises(HydroError):
        vorticity(np.ones((5, 2, 5)), 0.1, 0.1, GAMMA)
