"""Additional CVode coverage: convergence orders, dense output accuracy,
vector tolerances, explicit initial steps, long integrations."""

import numpy as np
import pytest

from repro.integrators import CVode


def test_atol_vector_per_component():
    def f(t, y):
        return np.array([-y[0], -1e-3 * y[1]])

    cv = CVode(f, 0.0, np.array([1.0, 1e-6]), rtol=1e-8,
               atol=np.array([1e-10, 1e-14]))
    y = cv.integrate_to(1.0)
    assert y[0] == pytest.approx(np.exp(-1.0), rel=1e-5)
    assert y[1] == pytest.approx(1e-6 * np.exp(-1e-3), rel=1e-5)


def test_explicit_initial_step_is_starting_guess():
    """h0 seeds the controller; the error test may still shrink it."""
    cv = CVode(lambda t, y: -y, 0.0, np.ones(1), h0=1e-3)
    assert cv.h == 1e-3
    t, _ = cv.step()
    assert 0.0 < t <= 1e-3 + 1e-12


def test_long_integration_many_steps():
    """Decay over 20 time constants: the adaptive machinery must keep
    accuracy without step-count blowup."""
    cv = CVode(lambda t, y: -y, 0.0, np.array([1.0]), rtol=1e-8,
               atol=1e-14)
    y = cv.integrate_to(20.0)
    assert y[0] == pytest.approx(np.exp(-20.0), rel=1e-3)
    assert cv.stats.nsteps < 2000


def test_dense_output_matches_solution_between_nodes():
    cv = CVode(lambda t, y: np.array([np.cos(t)]), 0.0, np.array([0.0]),
               rtol=1e-10, atol=1e-12)
    y = cv.integrate_to(1.5)
    assert y[0] == pytest.approx(np.sin(1.5), abs=1e-7)
    # interpolate at several points inside the final history window
    ts = cv._ts[:cv._nhist[0], 0]
    for frac in (0.25, 0.5, 0.75):
        t_mid = ts.min() + frac * (ts.max() - ts.min())
        assert cv.interpolate(t_mid)[0] == pytest.approx(
            np.sin(t_mid), abs=1e-6)


@pytest.mark.parametrize("method,rtol_band", [
    ("bdf", (1e-7, 2e-3)),
    ("adams", (1e-8, 1e-3)),
])
def test_global_error_tracks_tolerance(method, rtol_band):
    lo, hi = rtol_band
    errs = []
    for rtol in (1e-4, 1e-7):
        cv = CVode(lambda t, y: np.array([y[1], -y[0]]), 0.0,
                   np.array([0.0, 1.0]), rtol=rtol, atol=rtol * 1e-2,
                   method=method)
        y = cv.integrate_to(2.0)
        errs.append(abs(y[0] - np.sin(2.0)))
    assert errs[1] < errs[0]
    assert errs[1] < hi


def test_nonstiff_adams_cheaper_than_bdf():
    """On a smooth non-stiff problem Adams needs no Jacobians at all."""

    def f(t, y):
        return np.array([y[1], -y[0]])

    adams = CVode(f, 0.0, np.array([1.0, 0.0]), method="adams",
                  rtol=1e-7, atol=1e-10)
    adams.integrate_to(10.0)
    bdf = CVode(f, 0.0, np.array([1.0, 0.0]), method="bdf",
                rtol=1e-7, atol=1e-10)
    bdf.integrate_to(10.0)
    assert adams.stats.nje == 0
    assert bdf.stats.nje >= 1


def test_integrate_to_returns_exact_endpoint():
    cv = CVode(lambda t, y: -y, 0.0, np.ones(1))
    y = cv.integrate_to(0.777)
    # interpolation lands exactly on the requested time
    assert cv.t >= 0.777
    assert y[0] == pytest.approx(np.exp(-0.777), rel=1e-4)


def test_repeated_integrate_to_consistent():
    cv = CVode(lambda t, y: -y, 0.0, np.ones(1), rtol=1e-9, atol=1e-12)
    for t_end in (0.5, 1.0, 1.5, 2.0):
        y = cv.integrate_to(t_end)
        assert y[0] == pytest.approx(np.exp(-t_end), rel=1e-6)


def test_decaying_oscillator_stiff_mix():
    """Mixed stiffness: fast decaying mode + slow oscillation."""

    def f(t, y):
        return np.array([
            -1e4 * (y[0] - np.cos(y[2])),
            -y[1],
            np.array(1.0),
        ], dtype=float)

    cv = CVode(f, 0.0, np.array([1.0, 1.0, 0.0]), rtol=1e-6, atol=1e-9,
               method="bdf")
    y = cv.integrate_to(3.0)
    assert y[0] == pytest.approx(np.cos(3.0), abs=1e-3)
    assert y[1] == pytest.approx(np.exp(-3.0), rel=1e-3)
    assert y[2] == pytest.approx(3.0, rel=1e-9)
