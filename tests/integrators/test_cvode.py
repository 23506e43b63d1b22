"""Tests for the CVODE-style integrator: accuracy on known solutions,
stiff robustness (Robertson), order/step adaptation, Adams mode, and the
0D ignition use-case it exists for."""

import numpy as np
import pytest

from repro.errors import IntegratorError
from repro.integrators import CVode


# ----------------------------------------------------------- construction
def test_validation():
    f = lambda t, y: -y
    with pytest.raises(IntegratorError):
        CVode(f, 0.0, np.ones(1), method="rk4")
    with pytest.raises(IntegratorError):
        CVode(f, 0.0, np.ones(1), rtol=2.0)
    with pytest.raises(IntegratorError):
        CVode(f, 0.0, np.ones(1), atol=0.0)
    with pytest.raises(IntegratorError):
        CVode(f, 0.0, np.ones(1), max_order=9)


def test_backwards_integration_rejected():
    cv = CVode(lambda t, y: -y, 1.0, np.ones(1))
    with pytest.raises(IntegratorError):
        cv.integrate_to(0.5)


# ----------------------------------------------------------- accuracy
@pytest.mark.parametrize("method", ["bdf", "adams"])
def test_exponential_decay(method):
    cv = CVode(lambda t, y: -y, 0.0, np.array([1.0]),
               rtol=1e-8, atol=1e-12, method=method)
    y = cv.integrate_to(2.0)
    assert y[0] == pytest.approx(np.exp(-2.0), rel=1e-6)
    assert cv.stats.nsteps > 0
    assert cv.stats.nfe > cv.stats.nsteps


@pytest.mark.parametrize("method", ["bdf", "adams"])
def test_harmonic_oscillator(method):
    def f(t, y):
        return np.array([y[1], -y[0]])

    cv = CVode(f, 0.0, np.array([1.0, 0.0]), rtol=1e-8, atol=1e-10,
               method=method)
    y = cv.integrate_to(np.pi)
    assert y[0] == pytest.approx(-1.0, abs=1e-5)
    assert y[1] == pytest.approx(0.0, abs=1e-5)


def test_tolerance_controls_accuracy():
    errs = []
    for rtol in (1e-4, 1e-8):
        cv = CVode(lambda t, y: -y, 0.0, np.array([1.0]),
                   rtol=rtol, atol=rtol * 1e-3)
        y = cv.integrate_to(1.0)
        errs.append(abs(y[0] - np.exp(-1.0)))
    assert errs[1] < errs[0]


def test_nonautonomous_rhs():
    # y' = 2t -> y = t^2
    cv = CVode(lambda t, y: np.array([2.0 * t]), 0.0, np.array([0.0]),
               rtol=1e-10, atol=1e-12)
    assert cv.integrate_to(3.0)[0] == pytest.approx(9.0, rel=1e-7)


# ----------------------------------------------------------- stiffness
def test_stiff_linear_system():
    """y' = -1000(y - cos t) - sin t; solution y = cos t.  Explicit codes
    need h ~ 1e-3; BDF must take far fewer steps."""

    def f(t, y):
        return np.array([-1000.0 * (y[0] - np.cos(t)) - np.sin(t)])

    cv = CVode(f, 0.0, np.array([1.0]), rtol=1e-7, atol=1e-10, method="bdf")
    y = cv.integrate_to(2.0)
    assert y[0] == pytest.approx(np.cos(2.0), abs=1e-5)
    assert cv.stats.nsteps < 500


def test_robertson_problem():
    """The classic stiff benchmark: rate constants span 9 orders of
    magnitude; mass must be conserved and the known t=40 state matched."""

    def f(t, y):
        return np.array([
            -0.04 * y[0] + 1e4 * y[1] * y[2],
            0.04 * y[0] - 1e4 * y[1] * y[2] - 3e7 * y[1] ** 2,
            3e7 * y[1] ** 2,
        ])

    cv = CVode(f, 0.0, np.array([1.0, 0.0, 0.0]), rtol=1e-7,
               atol=np.array([1e-10, 1e-12, 1e-10]), method="bdf")
    y = cv.integrate_to(40.0)
    assert y.sum() == pytest.approx(1.0, abs=1e-7)
    # reference (LSODE): y(40) ~ [0.7158, 9.186e-6, 0.2842]
    assert y[0] == pytest.approx(0.7158, rel=2e-3)
    assert y[1] == pytest.approx(9.19e-6, rel=0.05)
    assert y[2] == pytest.approx(0.2842, rel=2e-3)


def test_van_der_pol_stiff():
    mu = 100.0

    def f(t, y):
        return np.array([y[1], mu * (1 - y[0] ** 2) * y[1] - y[0]])

    cv = CVode(f, 0.0, np.array([2.0, 0.0]), rtol=1e-6, atol=1e-9,
               method="bdf")
    y = cv.integrate_to(1.0)
    assert np.isfinite(y).all()
    assert 1.5 < y[0] <= 2.01  # slow decay along the relaxation branch


# ----------------------------------------------------------- mechanics
def test_order_ramps_up():
    cv = CVode(lambda t, y: -y, 0.0, np.array([1.0]), rtol=1e-10,
               atol=1e-13)
    cv.integrate_to(5.0)
    assert cv.order > 1


def test_step_grows_on_smooth_problem():
    cv = CVode(lambda t, y: -0.1 * y, 0.0, np.array([1.0]),
               rtol=1e-6, atol=1e-9)
    h_first = cv.h
    cv.integrate_to(10.0)
    assert cv.h > h_first


def test_max_step_respected():
    cv = CVode(lambda t, y: -y, 0.0, np.array([1.0]), max_step=0.01)
    cv.integrate_to(0.5)
    assert cv.h <= 0.01 + 1e-15


def test_interpolation_within_history():
    cv = CVode(lambda t, y: y, 0.0, np.array([1.0]), rtol=1e-9, atol=1e-12)
    cv.integrate_to(1.0)
    mid = (cv._ts[1, 0] + cv._ts[0, 0]) / 2
    assert cv.interpolate(mid)[0] == pytest.approx(np.exp(mid), rel=1e-6)
    with pytest.raises(IntegratorError):
        cv.interpolate(cv.t + 100.0)


def test_stats_accumulate():
    cv = CVode(lambda t, y: -y, 0.0, np.array([1.0]), method="bdf")
    cv.integrate_to(1.0)
    s = cv.stats
    assert s.nsteps > 0 and s.nfe > 0 and s.nni > 0
    assert s.nje >= 1  # at least one Jacobian for BDF


def test_adams_detects_stiffness_eventually():
    """Adams + functional iteration on a very stiff problem either crawls
    or fails — it must raise rather than silently produce garbage."""

    def f(t, y):
        return np.array([-1e7 * y[0]])

    cv = CVode(f, 0.0, np.array([1.0]), method="adams", rtol=1e-6,
               atol=1e-12)
    try:
        y = cv.integrate_to(1e-3)
        # if it survives, the answer must still be right
        assert y[0] == pytest.approx(0.0, abs=1e-4)
    except IntegratorError:
        pass  # acceptable: flagged as failing to converge


# ----------------------------------------------------------- ignition
def test_0d_ignition_constant_volume():
    """The paper's §4.1 case: stoichiometric H2-air at 1000 K, 1 atm in a
    rigid vessel, integrated to 1 ms — it must ignite (T > 2000 K) with
    rising pressure and conserved mass."""
    from repro.chemistry import ConstantVolumeReactor, h2_air_mechanism
    from repro.chemistry.h2_air import stoichiometric_h2_air

    mech = h2_air_mechanism()
    reactor = ConstantVolumeReactor(mech, 1000.0, 101325.0,
                                    stoichiometric_h2_air())
    cv = CVode(reactor.rhs, 0.0, reactor.initial_state(),
               rtol=1e-8, atol=1e-12, method="bdf")
    y = cv.integrate_to(1e-3)
    T, Y, P = reactor.unpack(y)
    assert T > 2000.0          # ignited
    assert P > 2 * 101325.0    # pressure rise in the closed vessel
    assert Y.sum() == pytest.approx(1.0, abs=1e-6)
    assert Y.min() > -1e-8
    # H2 mostly consumed, H2O formed
    assert Y[mech.species_index("H2")] < 0.01
    assert Y[mech.species_index("H2O")] > 0.2
