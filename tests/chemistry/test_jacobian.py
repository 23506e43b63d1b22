"""The analytic Jacobian of the constant-pressure source (the
``ThermoChemistry`` ``jacobian`` port) against its finite-difference
oracle, and the flame's chemistry half-step solved with it."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.apps import build_reaction_diffusion
from repro.cca import Framework
from repro.chemistry.zerod import (
    ConstantPressurePass,
    constant_pressure_source,
)
from repro.integrators.cvode import CVode
from tests.chemistry.test_fused_source import MECHS
from tests.integrators.test_cvode_startup import ATOL, RTOL, _flame_hot_cells


def constant_pressure_jacobian(mech, P, T, Y):
    """The analytic Jacobian of :func:`constant_pressure_source` on the
    1-D cells ``T`` (``Y`` (nsp, B)), shape (nsp + 1, nsp + 1, B); a
    clipped (negative) mass fraction has slope 0."""
    pass_ = ConstantPressurePass(mech, P, T, np.maximum(Y, 0.0))
    return pass_.jacobian(Y >= 0.0)


def fd_jacobian(mech, P, T, Y, rel):
    """Central differences of the source, one state entry at a time; a
    mass fraction's step never crosses zero (the source clips there)."""
    x = np.concatenate((T[None], Y))
    J = np.empty((len(x), len(x), len(T)))
    for j in range(len(x)):
        step = rel * np.maximum(np.abs(x[j]), 1.0 if j == 0 else 1e-6)
        up, down = x.copy(), x.copy()
        up[j] += step
        down[j] = np.maximum(down[j] - step, 0.0) if j else down[j] - step
        f_up = constant_pressure_source(mech, P, up[0], up[1:])
        f_down = constant_pressure_source(mech, P, down[0], down[1:])
        J[:, j] = (np.concatenate((f_up[0][None], f_up[1]))
                   - np.concatenate((f_down[0][None], f_down[1]))) \
            / (up[j] - down[j])
    return J


def row_error(J, J_ref):
    """Largest entry difference per row, over the row's largest entry."""
    scale = np.abs(J_ref).max(axis=1, keepdims=True) + 1e-300
    return (np.abs(J - J_ref) / scale).max()


@settings(max_examples=30, deadline=None)
@given(mech=st.sampled_from(sorted(MECHS)),
       P=st.sampled_from([1e4, 101325.0, 1e7]),
       seed=st.integers(0, 2**32 - 1),
       trace=st.sampled_from([0.0, 1e-12, 1e-6]))
def test_analytic_matches_finite_differences(mech, P, seed, trace):
    """Agreement to FD truncation: the analytic-vs-FD gap is no larger
    than the gap between two FD step sizes (plus a floor), also with
    one species at or near zero."""
    mech = MECHS[mech]
    rng = np.random.default_rng(seed)
    B = 4
    T = rng.uniform(700.0, 2500.0, B)
    Y = rng.uniform(0.01, 1.0, (mech.n_species, B))
    Y[rng.integers(0, mech.n_species - 1, B), np.arange(B)] = trace
    Y /= Y.sum(axis=0)
    J = constant_pressure_jacobian(mech, P, T, Y)
    assert J.shape == (mech.n_species + 1, mech.n_species + 1, B)
    fine, coarse = (fd_jacobian(mech, P, T, Y, rel) for rel in (1e-6, 1e-5))
    assert row_error(J, fine) <= 2.0 * row_error(coarse, fine) + 1e-6


def test_jacobian_columns_are_independent():
    mech = MECHS["h2-air"]
    rng = np.random.default_rng(5)
    T = rng.uniform(700.0, 2500.0, 9)
    Y = rng.uniform(0.0, 1.0, (mech.n_species, 9))
    Y /= Y.sum(axis=0)
    J = constant_pressure_jacobian(mech, 101325.0, T, Y)
    for b in (0, 4, 8):
        alone = constant_pressure_jacobian(mech, 101325.0, T[b:b + 1],
                                           Y[:, b:b + 1])
        assert np.array_equal(alone[..., 0], J[..., b])


def test_port_matches_the_source_port_layout():
    """The port's Jacobian is of the ``source`` port's RHS: a 1-D state
    gives ``(n, n)``, a block ``(n, n, B)``, and a cell below the
    temperature floor has no slope in T."""
    framework = Framework()
    build_reaction_diffusion(framework, nx=16, ny=16, max_levels=1)
    services = framework.services_of("CvodeSolver")
    rhs, jac = services.get_port("rhs"), services.get_port("jacobian")
    n = rhs.n_state()
    y = np.full((n, 2), 0.1)
    y[0] = (1200.0, 40.0)
    J = jac.jacobian(0.0, y)
    assert J.shape == (n, n, 2)
    assert np.array_equal(jac.jacobian(0.0, y[:, 0]), J[..., 0])
    assert not J[:, 0, 1].any() and J[:, 0, 0].any()


def test_port_reuses_the_pass_of_the_state_it_just_evaluated():
    """The ``source`` port keeps its last pass for a Jacobian at the same
    state; the Jacobian is the same bits with or without it, and a
    changed state or pressure is evaluated afresh."""
    framework = Framework()
    build_reaction_diffusion(framework, nx=16, ny=16, max_levels=1)
    services = framework.services_of("CvodeSolver")
    rhs, jac = services.get_port("rhs"), services.get_port("jacobian")
    rng = np.random.default_rng(11)
    n = rhs.n_state()
    y = np.concatenate((rng.uniform(700.0, 2000.0, (1, 5)),
                        rng.uniform(0.0, 0.2, (n - 1, 5))))
    mech = MECHS["h2-air"]
    fresh = constant_pressure_jacobian(mech, 101325.0, y[0], y[1:])
    assert np.array_equal(jac.jacobian(0.0, y), fresh)
    f = rhs.rhs(0.0, y)
    assert np.array_equal(jac.jacobian(0.0, y), fresh)
    y2 = y.copy()
    y2[0, 2] += 1.0
    assert np.array_equal(
        jac.jacobian(0.0, y2),
        constant_pressure_jacobian(mech, 101325.0, y2[0], y2[1:]))
    framework.set_parameter("ReactionTerms", "pressure", 2e5)
    assert np.array_equal(
        jac.jacobian(0.0, y2),
        constant_pressure_jacobian(mech, 2e5, y2[0], y2[1:]))
    assert not np.array_equal(rhs.rhs(0.0, y), f)


def test_flame_half_step_with_the_port_stays_in_the_error_band():
    """The 16x16 flame's hot cells with the analytic Jacobian land their
    worst cell within 1.5x of the FD solve's distance from an
    ``rtol = 1e-12`` reference, with one Jacobian per cell and far fewer
    RHS evaluations."""
    rhs, hot = _flame_hot_cells()
    framework = Framework()
    build_reaction_diffusion(framework, nx=16, ny=16, max_levels=1)
    jac = framework.services_of("CvodeSolver").get_port("jacobian").jacobian
    half_dt = 5e-8
    ref = CVode(rhs, 0.0, hot, rtol=1e-12, atol=1e-18).integrate_to(half_dt)
    errors, solvers = [], []
    for j in (None, jac):
        cv = CVode(rhs, 0.0, hot, rtol=RTOL, atol=ATOL, jac=j)
        y = cv.integrate_to(half_dt)
        errors.append((np.abs(y - ref) / (RTOL * np.abs(ref) + ATOL)).max())
        solvers.append(cv)
    fd, analytic = solvers
    assert errors[1] <= 1.5 * errors[0]
    assert analytic.stats.nerrfail.sum() == 0
    assert np.array_equal(analytic.stats.nje, np.ones(analytic.B))
    assert analytic.stats.nfe.sum() < fd.stats.nfe.sum() / 2
