"""CVODE's ``CV_NORMAL`` task (``integrate_to(t, stop=False)``) and the
solver's trajectory as data (``state`` / ``restore``)."""

import json

import numpy as np
import pytest

from repro.errors import IntegratorError
from repro.integrators import CVode


def _decay(t, y):
    return np.array([-50.0 * y[0] + np.sin(t), -y[1] * y[0]])


def _batched_decay(t, y, rate):
    return np.stack((-rate * y[0] + np.sin(t), -y[1] * y[0]))


def _one(method="bdf"):
    return CVode(_decay, 0.0, np.array([1.0, 2.0]), rtol=1e-7, atol=1e-10,
                 method=method)


def _solvers(method):
    """A 1-D solver and an (n, B) one with per-column args, each with
    the RHS it was built on."""
    return ((_decay, _one(method)),
            (_batched_decay,
             CVode(_batched_decay, 0.0, np.array([[1.0, 0.5], [2.0, 1.0]]),
                   args=(np.array([50.0, 5.0]),), rtol=1e-7, atol=1e-10,
                   method=method)))


@pytest.mark.parametrize("method", ["bdf", "adams"])
def test_steps_do_not_depend_on_the_output_grid(method):
    coarse, fine = _one(method), _one(method)
    end = coarse.integrate_to(0.5, stop=False)
    for t in np.linspace(0.01, 0.5, 37):
        out = fine.integrate_to(t, stop=False)
        assert np.array_equal(out, fine.interpolate(t))
    assert np.array_equal(out, end)
    assert fine.t == coarse.t >= 0.5
    assert fine.stats == coarse.stats
    # the stop-time task lands on its outputs instead
    stopped = _one(method)
    stopped.integrate_to(0.25)
    assert stopped.t == 0.25


def test_an_output_already_passed_is_interpolated():
    cv = _one()
    cv.integrate_to(0.1, stop=False)
    t_reached, nsteps = cv.t, cv.stats.nsteps
    assert t_reached > 0.1
    inside = 0.5 * (0.1 + t_reached)
    assert np.array_equal(cv.integrate_to(inside, stop=False),
                          cv.interpolate(inside))
    assert cv.stats.nsteps == nsteps
    with pytest.raises(IntegratorError, match="backwards"):
        cv.integrate_to(inside)


@pytest.mark.parametrize("method", ["bdf", "adams"])
def test_state_survives_json_and_restore_continues_bitwise(method):
    for rhs, cv in _solvers(method):
        cv.integrate_to(0.05, stop=False)
        doc = json.loads(json.dumps(cv.state()))
        evals = []

        def counted(*args, rhs=rhs):
            evals.append(1)
            return rhs(*args)

        # restore is bookkeeping: it evaluates nothing
        again = CVode.restore(counted, doc, args=cv._args)
        assert not evals
        assert json.dumps(again.state()) == json.dumps(doc)
        for t in (0.1, 0.3):
            assert np.array_equal(again.integrate_to(t, stop=False),
                                  cv.integrate_to(t, stop=False))
        assert np.array_equal(again.stats.nfe, cv.stats.nfe)
        assert np.array_equal(again.h, cv.h)
        assert np.array_equal(again.order, cv.order)
