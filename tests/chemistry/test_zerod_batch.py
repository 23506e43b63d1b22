"""Batched constant-volume solves: shape contracts and the bitwise
equivalence guarantee against the assembled component path."""

import numpy as np
import pytest

from repro.apps.ignition0d import run_ignition0d, run_ignition0d_batch
from repro.chemistry.h2_lite import h2_lite_mechanism
from repro.chemistry.zerod import ConstantVolumeReactor, constant_volume_rhs
from repro.errors import CCAError


@pytest.fixture(scope="module")
def mech():
    return h2_lite_mechanism()


def test_closure_matches_reactor_rhs_bitwise(mech):
    reactor = ConstantVolumeReactor(mech, 1100.0, 101325.0,
                                    {"H2": 0.028, "O2": 0.226,
                                     "N2": 0.746})
    rhs = constant_volume_rhs(mech, reactor.rho)
    y = reactor.initial_state()
    assert np.array_equal(rhs(0.0, y), reactor.rhs(0.0, y))


def test_batch_validates_conditions():
    """A condition the assembly's parameters could not hold is refused
    before anything is solved."""
    for bad in ({"T0": 0.0}, {"P0": -1.0}, {"phi": float("nan")},
                {"rate_scale": float("inf")}):
        with pytest.raises(CCAError, match="positive and finite"):
            run_ignition0d_batch([{"T0": 1000.0}, bad],
                                 mechanism="h2-lite", t_end=1e-6)


def test_batch_rows_are_independent(mech):
    """Adding a condition to the batch must not perturb another row."""
    base = run_ignition0d_batch([{"T0": 1000.0}], mechanism="h2-lite",
                                t_end=1e-5)
    pair = run_ignition0d_batch([{"T0": 1000.0}, {"T0": 1200.0}],
                                mechanism="h2-lite", t_end=1e-5)
    assert pair[0]["T_final"] == base[0]["T_final"]
    assert pair[0]["nfe"] == base[0]["nfe"]
    assert np.array_equal(pair[0]["Y_final"], base[0]["Y_final"])


def test_batch_is_bitwise_identical_to_assembly_run():
    conditions = [{"T0": 1000.0}, {"T0": 1150.0, "P0": 2e5}]
    batch = run_ignition0d_batch(conditions, mechanism="h2-lite",
                                 t_end=1e-5)
    for cond, got in zip(conditions, batch):
        seq = run_ignition0d(mechanism="h2-lite", t_end=1e-5, **cond)
        assert got["T_final"] == seq["T_final"]
        assert got["P_final"] == seq["P_final"]
        assert got["rho"] == seq["rho"]
        assert got["nfe"] == seq["nfe"]
        assert np.array_equal(got["Y_final"], seq["Y_final"])
        assert got["history_T"] == seq["history_T"]
        assert got["history_P"] == seq["history_P"]


def test_rate_scale_groups_solve_separately(mech):
    plain, scaled = run_ignition0d_batch(
        [{"T0": 1100.0}, {"T0": 1100.0, "rate_scale": 2.0}],
        mechanism="h2-air", t_end=1e-6, n_output=2)
    assert scaled["T_final"] != plain["T_final"]


def test_unknown_keys_rejected():
    with pytest.raises(CCAError, match="unknown batch condition"):
        run_ignition0d_batch([{"temperature": 1000.0}])
    with pytest.raises(CCAError, match="unknown mechanism"):
        run_ignition0d_batch([{}], mechanism="nope")


def test_empty_batch_is_empty():
    assert run_ignition0d_batch([]) == []
