"""CVode start-up: the seeded ``h f0`` history node, the ``y'' = J f0``
bound on the first step, and the Jacobian kept while only ``gamma``
moves."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.obs as obs
from repro.apps.reaction_diffusion import build_reaction_diffusion
from repro.cca.framework import Framework
from repro.errors import IntegratorError
from repro.integrators import CVode
from repro.obs import trace
from tests.integrators.test_cvode_batched import ATOL, RTOL, flame  # noqa: F401


def _recording_error_estimates(cv):
    """Make ``cv`` append every attempt's same-order error estimate (as
    ``_attempt`` scales it) to the returned list."""
    ests = []
    wrms = cv._wrms

    def spy(e, y):
        norm = wrms(e, y)
        if e.ndim == 3:     # corrector minus the three predictors
            ests.append(norm[1] / (cv._order + 2))
        return norm

    cv._wrms = spy
    return ests


# ------------------------------------------- (a) the first step's size
@pytest.mark.parametrize("method", ["bdf", "adams"])
def test_constant_slope_is_one_exact_step(method):
    """y' = c: the predictor y0 + h c is the solution, so the first
    attempt's error estimate is rounding and nothing limits the step."""
    c = np.array([2.0, -3.0])
    y0 = np.array([1.0, 5.0])
    cv = CVode(lambda t, y: c, 0.0, y0, rtol=1e-8, atol=1e-12,
               method=method)
    ests = _recording_error_estimates(cv)
    t_end = 0.9 * cv.h
    y = cv.integrate_to(t_end)
    assert ests[0] < 1e-6
    assert cv.stats.nsteps == 1 and cv.stats.nerrfail == 0
    np.testing.assert_allclose(y, y0 + t_end * c, rtol=1e-15)


@pytest.mark.parametrize("lam", [1.0, 50.0, 1e4])
def test_first_step_of_a_decay_is_the_curvature_step(lam):
    """y' = -lam y: y'' = lam^2 y, and the first step is accepted at
    between a quarter of and the whole of sqrt(2 / ||y''||_wrms)."""
    rtol, atol = 1e-6, 1e-9
    cv = CVode(lambda t, y: -lam * y, 0.0, np.ones(1), rtol=rtol, atol=atol)
    bound = np.sqrt(2.0 / (lam ** 2 / (rtol + atol)))
    assert cv.h == pytest.approx(0.5 * bound, rel=1e-4)
    t, _ = cv.step()
    assert 0.25 * bound <= t <= bound
    assert cv.stats.nerrfail == 0


def test_adams_keeps_the_slope_guess():
    cv = CVode(lambda t, y: -50.0 * y, 0.0, np.ones(1), rtol=1e-6,
               atol=1e-9, method="adams")
    assert cv.h == pytest.approx(0.01 / 50.0)
    assert cv.stats.nje == 0


def test_nan_curvature_bounds_nothing():
    """A column whose RHS is NaN keeps the slope guess's fallback and
    fails later by index, as it always did."""
    cv = CVode(lambda t, y: np.full(y.shape, np.nan), 0.0, np.ones((2, 1)))
    assert cv.h[0] == 1e-6


# ------------------------------------------------ (b) the seeded node
@pytest.mark.parametrize("method", ["bdf", "adams"])
def test_interpolation_at_t0_is_y0_before_and_after_the_first_step(
        flame, method):
    rhs, pool = flame
    cv = CVode(rhs, 0.0, pool, rtol=RTOL, atol=ATOL, method=method)
    assert np.array_equal(cv.interpolate(0.0), pool)
    cv.step()
    assert np.array_equal(cv.interpolate(0.0), pool)


def test_the_seeded_node_is_not_history():
    cv = CVode(lambda t, y: -y, 1.0, np.ones(1))
    with pytest.raises(IntegratorError, match="outside history"):
        cv.interpolate(1.0 - 0.5 * cv.h)


@pytest.mark.parametrize("method", ["bdf", "adams"])
def test_history_starts_as_the_nordsieck_pair(flame, method):
    """Two nodes on the line through (t0, y0) with slope f0 — for Adams
    with that slope at both."""
    rhs, pool = flame
    cv = CVode(rhs, 0.0, pool, rtol=RTOL, atol=ATOL, method=method)
    f0 = rhs(np.zeros(pool.shape[1]), pool)
    assert np.array_equal(cv._nhist, np.full(cv.B, 2))
    assert np.array_equal(cv._ts[1], -cv.h)
    assert np.array_equal(cv._ys[1], pool - cv.h * f0)
    if method == "adams":
        assert np.array_equal(cv._fs[0], f0)
        assert np.array_equal(cv._fs[1], f0)
    else:
        assert cv._jac_ok.all() and np.array_equal(cv.stats.nje,
                                                   np.ones(cv.B))


# ------------------------------------------- construction is validated
@pytest.mark.parametrize("kwargs", [
    {"h0": 0.0}, {"h0": -1e-3}, {"h0": float("nan")}, {"h0": float("inf")},
    {"max_step": 0.0}, {"max_step": -1.0}, {"max_step": float("nan")},
])
def test_step_arguments_must_be_positive(kwargs):
    with pytest.raises(IntegratorError, match="must be positive"):
        CVode(lambda t, y: -y, 0.0, np.ones(1), **kwargs)


# -------------------------------------- (c) the flame's chemistry half-step
def _flame_hot_cells():
    """The hot cells of the benchmark's ``flame_cvode`` configuration and
    the RHS the assembly integrates them with."""
    framework = Framework()
    build_reaction_diffusion(framework, nx=16, ny=16, max_levels=1,
                             n_steps=1, dt=1e-7)
    services = framework.services_of("Driver")
    services.get_port("mesh").build_base_level()
    mech = services.get_port("chem").mechanism()
    dobj = services.get_port("data").declare("flow", mech.n_species + 1)
    services.get_port("ic").initialize(dobj)
    cells = np.concatenate([dobj.interior(p).reshape(mech.n_species + 1, -1)
                            for p in dobj.owned_patches()], axis=1)
    threshold = float(framework.services_of("ImplicitIntegrator")
                      .get_parameter("skip_below_T"))
    rhs = framework.services_of("CvodeSolver").get_port("rhs").rhs
    return rhs, cells[:, cells[0] >= threshold]


def test_flame_half_step_starts_without_a_failed_attempt():
    rhs, hot = _flame_hot_cells()
    assert hot.shape[1] == 19
    half_dt = 5e-8
    cv = CVode(rhs, 0.0, hot, rtol=RTOL, atol=ATOL)
    with obs.tracing():
        y = cv.integrate_to(half_dt)
    span, = [e for e in trace.events() if e.name == "cvode.integrate_to"]
    assert span.args["rounds"] <= 4
    assert cv.stats.nerrfail.sum() == 0
    assert np.array_equal(cv.stats.nje, np.ones(cv.B))
    ref = CVode(rhs, 0.0, hot, rtol=1e-12, atol=1e-18).integrate_to(half_dt)
    assert (np.abs(y - ref) / (RTOL * np.abs(ref) + ATOL)).max() < 10.0


# ----------------------------------------- (d) when a Jacobian is formed
def _van_der_pol(mu):
    return lambda t, y: np.array([y[1], mu * (1 - y[0] ** 2) * y[1] - y[0]])


def _robertson(t, y):
    return np.array([-0.04 * y[0] + 1e4 * y[1] * y[2],
                     0.04 * y[0] - 1e4 * y[1] * y[2] - 3e7 * y[1] ** 2,
                     3e7 * y[1] ** 2])


def test_a_jacobian_is_formed_only_when_missing_aged_or_failed(monkeypatch):
    """Every ``_fd_jacobians`` call of a long stiff run has one of the
    three reasons; a step-size (gamma) change alone is not one."""
    reasons = []
    last = {}     # what the previous Newton solve and refresh saw
    fd, refresh, solve = (CVode._fd_jacobians, CVode._refresh_jacobians,
                          CVode._solve_bdf)

    def spy_fd(self, cols, t, y):
        if "ok" not in last:
            reasons.append("initial")
        elif not last["ok"]:
            assert not last["converged"]
            reasons.append("failed")
        else:
            assert last["age"] > 20
            reasons.append("aged")
        return fd(self, cols, t, y)

    def spy_refresh(self, idx, t, y):
        last["ok"], last["age"] = self._jac_ok[0], self._jac_age[0]
        return refresh(self, idx, t, y)

    def spy_solve(self, *args):
        out = solve(self, *args)
        last["converged"] = out[1][0]
        return out

    monkeypatch.setattr(CVode, "_fd_jacobians", spy_fd)
    monkeypatch.setattr(CVode, "_refresh_jacobians", spy_refresh)
    monkeypatch.setattr(CVode, "_solve_bdf", spy_solve)
    cv = CVode(_van_der_pol(1000.0), 0.0, np.array([2.0, 0.0]), rtol=1e-6,
               atol=1e-9)
    cv.integrate_to(3000.0)     # through both fast transitions
    assert len(reasons) == cv.stats.nje <= 110     # 295 with the trigger
    assert reasons[0] == "initial" and reasons.count("initial") == 1
    assert {"aged", "failed"} <= set(reasons)
    assert cv.stats.nsteps > 1000


def test_robertson_needs_few_jacobians():
    cv = CVode(_robertson, 0.0, np.array([1.0, 0.0, 0.0]), rtol=1e-6,
               atol=np.array([1e-8, 1e-14, 1e-6]))
    y = cv.integrate_to(4e5)
    assert cv.stats.nje <= 20       # 59 with the gamma-drift trigger
    assert y.sum() == pytest.approx(1.0, abs=1e-6)
    assert y[0] == pytest.approx(4.9383e-3, rel=1e-3)


# ---------------------------- (e) a Jacobian that goes wrong under the solver
def test_a_jumping_jacobian_recovers_through_the_free_retry(monkeypatch):
    """y' = -lam(t) y with lam stepping from 1 to 1e6: the saved J = -1
    stops converging, the attempt is repeated on a fresh one at no cost
    to the step size, and no convergence failure is ever charged."""
    retried = []
    solve = CVode._solve_bdf

    def spy_solve(self, *args):
        out = solve(self, *args)
        retried.append(bool(out[2][0]))
        return out

    monkeypatch.setattr(CVode, "_solve_bdf", spy_solve)
    cv = CVode(lambda t, y: -np.where(t < 1.0, 1.0, 1e6) * y, 0.0,
               np.ones(1), rtol=1e-6, atol=1e-10)
    y = cv.integrate_to(1.5)
    assert any(retried)
    assert cv.stats.nconvfail == 0
    # the attempt after a retry ran on a Jacobian formed for it
    assert cv._jac[0, 0, 0] == pytest.approx(-1e6, rel=1e-3)
    assert cv.stats.nje >= 2
    assert abs(y[0]) < 1e-6


# --------------------------------------- (f) column independence at start-up
_first = {}


def _started_alone(flame, j, method):
    """Column j of the pool as a batch of one: its first step size, and
    its counters after a few steps."""
    if (j, method) not in _first:
        rhs, pool = flame
        _first[j, method] = _start(rhs, pool[:, [j]], method)
    return _first[j, method]


def _start(rhs, y0, method):
    cv = CVode(rhs, 0.0, y0, rtol=RTOL, atol=ATOL, method=method)
    h0 = cv.h
    for _ in range(4):
        cv.step()
    return h0, cv.h, cv.stats


@pytest.mark.parametrize("method", ["bdf", "adams"])
@settings(max_examples=12, deadline=None)
@given(columns=st.lists(st.integers(0, 7), min_size=1, max_size=6))
def test_start_up_of_a_column_ignores_its_batch(flame, method, columns):
    """The first step size (the ``J f0`` product and the norms under
    it), and the step size and counters four steps in, equal those of
    the column started alone — any subset, order or multiplicity."""
    rhs, pool = flame
    h0, h, stats = _start(rhs, pool[:, columns], method)
    for col, j in enumerate(columns):
        h0_alone, h_alone, stats_alone = _started_alone(flame, j, method)
        assert h0[col] == h0_alone[0]
        assert h[col] == h_alone[0]
        for name in ("nsteps", "nfe", "nje", "nerrfail"):
            assert getattr(stats, name)[col] == getattr(stats_alone, name)[0]


# ------------------------------------------------- the counters leave the solver
def test_registry_counts_the_solvers_whole_life():
    """Construction-time evaluations (f0 and the first Jacobians) belong
    to the first ``integrate_to``; a second call adds only its own."""
    cv = CVode(lambda t, y: -100.0 * y, 0.0, np.ones((3, 2)), rtol=1e-8,
               atol=1e-12)
    with obs.tracing():
        cv.integrate_to(0.01)
        first = cv.stats
        cv.integrate_to(0.02)
        reg = obs.get_registry()
        for field, name in (("nfe", "rhs_evals"), ("nje", "jac_evals"),
                            ("nsteps", "steps"), ("nerrfail", "err_fails"),
                            ("nconvfail", "conv_fails")):
            counter = reg.get(f"integrator.{name}", kind="cvode")
            assert counter.value == getattr(cv.stats, field).sum()
    spans = [e.args for e in trace.events() if e.name == "cvode.integrate_to"]
    assert spans[0]["nfe"] == first.nfe.sum()
    assert spans[0]["nje"] == first.nje.sum() >= 2
    assert spans[0]["nfe"] + spans[1]["nfe"] == cv.stats.nfe.sum()
    assert spans[0]["rounds"] >= first.nsteps.max()
