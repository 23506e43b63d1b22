"""CvodeComponent's kept trajectory: ``start`` + ``continue_to`` (CVODE's
``CV_NORMAL``), its checkpoint, and its independence from one-shot
``integrate`` calls."""

import json

import numpy as np
import pytest

from repro.chemistry.h2_air import stoichiometric_h2_air
from repro.errors import CCAError
from tests.components.test_basic_components import build_0d_core


def _core(T0=1100.0, P0=101325.0):
    """The 0-D core with its modeler configured; returns the framework,
    the solver port and the initial state."""
    f = build_0d_core()
    mech = f.services_of("tc").provides["chemistry"][0].mechanism()
    Y = np.zeros(mech.n_species)
    for nm, v in stoichiometric_h2_air().items():
        Y[mech.species_index(nm)] = v
    f.services_of("pm").provides["model"][0].configure(T0, P0, Y)
    return f, f.services_of("cv").provides["solver"][0], \
        np.concatenate(([T0], Y, [P0]))


def test_continue_to_before_start_raises():
    _, solver, _ = _core()
    with pytest.raises(CCAError, match="start"):
        solver.continue_to(1e-6)


def test_start_and_outputs_account_the_whole_trajectory():
    _, solver, y0 = _core()
    solver.start(0.0, y0)
    nfe = solver.last_nfe()
    assert nfe > 0      # f0 and the first Jacobian's difference quotients
    for t in (1e-5, 2e-5, 3e-5):
        y = solver.continue_to(t)
        nfe += solver.last_nfe()
    assert y.shape == y0.shape and np.isfinite(y).all()
    assert nfe == solver.total_nfe == int(solver.kept.stats.nfe.sum())


def test_kept_trajectory_checkpoint_survives_json_and_continues_bitwise():
    f, solver, y0 = _core()
    solver.start(0.0, y0)
    solver.continue_to(2e-5)
    state = json.loads(json.dumps(f.get_component("cv").checkpoint_state()))
    times = (3e-5, 5e-5)
    want = [solver.continue_to(t) for t in times]
    g, again, _ = _core()
    g.get_component("cv").restore_state(state)
    got = [again.continue_to(t) for t in times]
    for a, b in zip(want, got):
        assert np.array_equal(a, b)
    assert (again.total_nfe, again.total_nje, again.total_steps) == \
        (solver.total_nfe, solver.total_nje, solver.total_steps)
    assert again.last_nfe() == solver.last_nfe()


def test_one_shot_integrate_leaves_the_kept_trajectory_alone():
    f, solver, y0 = _core()
    solver.start(0.0, y0)
    solver.continue_to(1e-5)
    kept = solver.kept
    before = json.dumps(kept.state())
    solver.integrate(0.0, y0, 1e-6)
    assert solver.kept is kept and json.dumps(kept.state()) == before
    _, ref, _ = _core()
    ref.start(0.0, y0)
    ref.continue_to(1e-5)
    assert np.array_equal(solver.continue_to(3e-5), ref.continue_to(3e-5))


def test_one_shot_checkpoint_carries_no_trajectory():
    f, solver, y0 = _core()
    solver.integrate(0.0, y0, 1e-6)
    state = f.get_component("cv").checkpoint_state()
    assert "trajectory" not in state
    g, restored, _ = _core()
    g.get_component("cv").restore_state(state)
    assert restored.kept is None
