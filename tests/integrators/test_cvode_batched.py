"""The batched CVode: column independence (bit for bit), per-column
statistics, failure isolation, and agreement with the scalar solver it
replaced."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chemistry import ConstantPressureReactor, h2_air_mechanism
from repro.chemistry.h2_air import stoichiometric_h2_air
from repro.errors import IntegratorError
from repro.integrators import CVode

RTOL, ATOL = 1e-8, 1e-12
#: long enough for several steps and order changes per column, short
#: enough for Adams' functional iteration to cope with the stiffness
T_END = {"bdf": 1e-6, "adams": 2e-8}


def _flame_state(mech, T, radicals, burnt):
    Y = np.zeros(mech.n_species)
    for name, value in stoichiometric_h2_air().items():
        Y[mech.species_index(name)] = value
    if burnt:
        Y[mech.species_index("H2O")] += 0.2
        Y[mech.species_index("H2")] *= 0.2
        Y[mech.species_index("O2")] *= 0.3
    Y[mech.species_index("H")] = radicals
    Y[mech.species_index("OH")] = 3.0 * radicals
    return np.concatenate(([T], Y / Y.sum()))


@pytest.fixture(scope="module")
def flame():
    """The constant-pressure flame RHS and a pool of cell states: cold,
    igniting and hot."""
    mech = h2_air_mechanism()
    reactor = ConstantPressureReactor(mech, 101325.0)
    pool = np.array([
        _flame_state(mech, 300.0, 0.0, False),
        _flame_state(mech, 650.0, 1e-8, False),
        _flame_state(mech, 1000.0, 1e-6, False),
        _flame_state(mech, 1150.0, 1e-5, False),
        _flame_state(mech, 1300.0, 1e-4, False),
        _flame_state(mech, 1500.0, 1e-3, False),
        _flame_state(mech, 2000.0, 1e-3, True),
        _flame_state(mech, 2400.0, 5e-3, True),
    ]).T
    return reactor.rhs, pool


def _solve(rhs, y0, method):
    cv = CVode(rhs, 0.0, y0, rtol=RTOL, atol=ATOL, method=method)
    return cv.integrate_to(T_END[method]), cv.stats


_alone = {}


def _solved_alone(flame, j, method):
    """Column j of the pool as a batch of one (each solved once)."""
    if (j, method) not in _alone:
        rhs, pool = flame
        _alone[j, method] = _solve(rhs, pool[:, [j]], method)
    return _alone[j, method]


# ------------------------------------------------- (a) column independence
@pytest.mark.parametrize("method", ["bdf", "adams"])
@settings(max_examples=12, deadline=None)
@given(columns=st.lists(st.integers(0, 7), min_size=1, max_size=6))
def test_every_column_equals_the_column_solved_alone(flame, method, columns):
    """Any subset of the pool, in any order, with duplicates: each
    column's result and statistics are those of the column solved alone,
    bit for bit."""
    rhs, pool = flame
    out, stats = _solve(rhs, pool[:, columns], method)
    for col, j in enumerate(columns):
        alone, alone_stats = _solved_alone(flame, j, method)
        assert np.array_equal(out[:, col], alone[:, 0])
        for name in ("nsteps", "nfe", "nje", "nni", "nerrfail", "nconvfail"):
            assert getattr(stats, name)[col] == getattr(alone_stats, name)[0]


def test_columns_run_their_own_trajectories(flame):
    """The pool really is mixed: the cold column needs one step, the hot
    ones dozens, at different orders."""
    rhs, pool = flame
    cv = CVode(rhs, 0.0, pool, rtol=RTOL, atol=ATOL)
    cv.integrate_to(T_END["bdf"])
    assert cv.stats.nsteps.min() == 1 and cv.stats.nsteps.max() > 50
    assert len(set(cv.order)) > 1
    assert len(set(cv.h)) == cv.B   # each column on its own step size


def test_per_column_times_and_end_points():
    """Columns may start and stop at different times."""
    t0 = np.array([0.0, 1.0, 2.0])
    t_end = np.array([2.0, 1.5, 2.0])   # the last has nothing to do
    cv = CVode(lambda t, y: -y, t0, np.ones((1, 3)), rtol=1e-9, atol=1e-12)
    y = cv.integrate_to(t_end)
    np.testing.assert_allclose(y[0], np.exp(-(t_end - t0)), rtol=1e-7)
    assert y[0, 2] == 1.0 and cv.stats.nsteps[2] == 0
    with pytest.raises(IntegratorError, match="backwards"):
        cv.integrate_to(np.array([3.0, 1.0, 3.0]))


def test_time_dependent_batched_rhs_sees_each_columns_time():
    cv = CVode(lambda t, y: 2.0 * t[None], np.array([0.0, 1.0]),
               np.zeros((1, 2)), rtol=1e-10, atol=1e-12)
    y = cv.integrate_to(3.0)
    np.testing.assert_allclose(y[0], [9.0, 8.0], rtol=1e-7)


# ------------------------------------------------------ (b) statistics
def test_per_column_stats_sum_to_the_calls_made(flame):
    """``nfe`` counts column-evaluations: summed over columns it is the
    total width of all RHS calls, while the number of *calls* is that of
    the slowest column, not the sum."""
    rhs, pool = flame
    widths = []

    def counting(t, y):
        widths.append(y.shape[1])
        return rhs(t, y)

    cv = CVode(counting, 0.0, pool, rtol=RTOL, atol=ATOL)
    cv.integrate_to(T_END["bdf"])
    s = cv.stats
    assert s.nfe.sum() == sum(widths)
    # every evaluation is the initial one, a Jacobian column or a Newton
    # iteration
    n = pool.shape[0]
    assert np.array_equal(s.nfe, 1 + s.nje * (n + 1) + s.nni)
    assert np.array_equal(
        s.nsteps, [_solved_alone(flame, j, "bdf")[1].nsteps[0]
                   for j in range(pool.shape[1])])
    assert len(widths) < 0.4 * s.nfe.sum()


def test_one_columns_args_travel_with_it():
    """Per-column constants follow their column into every call,
    including the finite-difference Jacobian's repeated columns."""
    rates = np.array([1.0, 10.0, 100.0])
    cv = CVode(lambda t, y, k: -k * y, 0.0, np.ones((2, 3)), args=(rates,),
               rtol=1e-9, atol=1e-12)
    y = cv.integrate_to(0.1)
    np.testing.assert_allclose(y, np.exp(-rates * 0.1) * np.ones((2, 1)),
                               rtol=1e-6)
    with pytest.raises(IntegratorError, match="per-column"):
        CVode(lambda t, y: -y, 0.0, np.ones(2), args=(rates,))


def test_a_stuck_column_raises_by_index_and_spares_the_others():
    poisoned = np.array([False, False, True, False])
    rates = np.array([1.0, 50.0, 1.0, 2000.0])

    def rhs(t, y, bad, k):
        return np.where(bad, np.nan, -k * y)

    def fresh(cols):
        return CVode(rhs, 0.0, np.ones((2, len(cols))),
                     args=(poisoned[cols], rates[cols]), rtol=1e-8,
                     atol=1e-12)

    cv = fresh(np.arange(4))
    with pytest.raises(IntegratorError, match="column 2: too many"):
        cv.integrate_to(1.0)
    assert np.isfinite(cv.y[:, ~poisoned]).all()
    assert cv.stats.nsteps[2] == 0 and cv.stats.nconvfail[2] > 10
    # the healthy columns are exactly where a solver of their own is
    # after the same number of steps
    for j in (0, 1, 3):
        alone = fresh(np.array([j]))
        for _ in range(cv.stats.nsteps[j]):
            alone.step()
        assert alone.t[0] == cv.t[j]
        assert np.array_equal(alone.y[:, 0], cv.y[:, j])


def test_a_singular_newton_matrix_costs_its_column_a_step_not_the_batch():
    """y' = y from y = 1 with h = 1: the finite-difference Jacobian is
    exactly 1 and I - h J exactly singular."""
    cv = CVode(lambda t, y, k: k * y, 0.0, np.ones((1, 2)),
               args=(np.array([1.0, -1.0]),), h0=1.0, rtol=1e-6, atol=1e-9)
    y = cv.integrate_to(1.0)
    np.testing.assert_allclose(y[0], [np.e, 1.0 / np.e], rtol=1e-4)
    assert cv.stats.nconvfail[0] >= 1 and cv.stats.nconvfail[1] == 0


# --------------------------------------------------- shapes and errors
def test_one_dimensional_state_reads_as_scalars():
    cv = CVode(lambda t, y: -y, 0.0, np.ones(3))
    y = cv.integrate_to(0.5)
    assert y.shape == (3,) and cv.y.shape == (3,)
    assert isinstance(cv.t, float) and isinstance(cv.h, float)
    assert isinstance(cv.order, int) and isinstance(cv.stats.nfe, int)
    t, y = cv.step()
    assert isinstance(t, float) and y.shape == (3,)


def test_batched_state_needs_a_batched_rhs():
    with pytest.raises(IntegratorError, match="batched"):
        CVode(lambda t, y: np.array([y[1, 0], -y[0, 0]]), 0.0,
              np.ones((2, 3)))
    with pytest.raises(IntegratorError, match=r"\(n,\) or \(n, B\)"):
        CVode(lambda t, y: -y, 0.0, np.ones((2, 2, 2)))


def test_event_location_is_for_a_single_system():
    cv = CVode(lambda t, y: -y, 0.0, np.ones((1, 2)))
    with pytest.raises(IntegratorError, match="1-D y0"):
        cv.integrate_to_event(1.0, lambda t, y: y[0] - 0.5)


# ------------------------------------- agreement with the scalar solver
def test_matches_the_scalar_solver_it_replaced():
    """0D ignition (h2-air, 1000 K, 1 atm, 1 ms) as the per-cell scalar
    CVode of the parent commit computed it, at rtol = 1e-8.  The batched
    solver reorders sums in the RHS and takes its BDF weights from the
    predictor's, so the agreement is to the solver tolerance — a hundred
    rtol over the ~400 steps of the ignition transient — not bitwise."""
    from repro.apps import run_ignition0d

    res = run_ignition0d(mechanism="h2-air", T0=1000.0, t_end=1e-3,
                         rtol=1e-8, atol=1e-12)
    assert res["T_final"] == pytest.approx(2908.62353129949, rel=1e-6)
    assert res["P_final"] == pytest.approx(262593.696344304, rel=1e-6)
    assert res["Y_H2O_final"] == pytest.approx(0.204404874741329, rel=1e-6)
