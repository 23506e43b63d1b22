"""The determinism proof: crash + restore == uninterrupted, bit for bit."""

import numpy as np
import pytest

from repro.apps.ignition0d import build_ignition0d
from repro.apps.reaction_diffusion import build_reaction_diffusion
from repro.cca.framework import Framework
from repro.errors import InjectedFault
from repro.mpi import ZERO_COST, mpirun
from repro.mpi.launcher import RankFailure
from repro.resilience import faults

FLAME_KW = dict(nx=16, ny=16, n_steps=6, dt=1e-7, max_levels=2,
                regrid_interval=2, initial_regrids=1)


def _flame_framework(comm=None, ck="", resume=False, **overrides):
    fw = Framework(comm=comm)
    build_reaction_diffusion(fw, **{**FLAME_KW, **overrides})
    if ck:
        fw.set_parameter("Driver", "checkpoint_path", ck)
        fw.set_parameter("Driver", "checkpoint_interval", 1)
    if resume:
        fw.set_parameter("Driver", "resume", 1)
    return fw


def _flame_state(fw):
    mesh = fw.get_component("AMR_Mesh")
    dobj = mesh.data("flow")
    arrays = {p.id: np.array(dobj.array(p)) for p in dobj.owned_patches()}
    owners = {p.id: p.owner
              for p in mesh.require_hierarchy().all_patches()}
    return arrays, owners


def test_flame_serial_crash_restore_is_bit_identical(tmp_path):
    fw1 = _flame_framework()
    res1 = fw1.go("Driver")
    arrays1, owners1 = _flame_state(fw1)

    ck = str(tmp_path / "ck")
    # crashing timeline: checkpoint every step, injected kill at step 3
    faults.configure(faults.FaultPlan(kill_rank=0, kill_step=3))
    fw2 = _flame_framework(ck=ck)
    with pytest.raises(InjectedFault):
        fw2.go("Driver")
    # restart (same process, kill_max_fires=1 spent): run to completion
    fw3 = _flame_framework(ck=ck, resume=True)
    res3 = fw3.go("Driver")
    arrays3, owners3 = _flame_state(fw3)

    assert owners3 == owners1
    assert set(arrays3) == set(arrays1)
    for pid in arrays1:
        assert np.array_equal(arrays3[pid], arrays1[pid])
    assert res3["t_final"] == res1["t_final"]
    assert res3["history_T_max"] == res1["history_T_max"]
    assert res3["total_cells"] == res1["total_cells"]


def test_flame_scmd_4rank_crash_restore_is_bit_identical(tmp_path):
    def run(ck="", resume=False):
        def main(comm):
            fw = _flame_framework(comm=comm, ck=ck, resume=resume)
            fw.go("Driver")
            return _flame_state(fw)
        return mpirun(4, main, machine=ZERO_COST)

    reference = run()

    ck = str(tmp_path / "ck")
    faults.configure(faults.FaultPlan(kill_rank=2, kill_step=3))
    with pytest.raises(RankFailure):
        run(ck=ck)
    restored = run(ck=ck, resume=True)

    for rank in range(4):
        arrays_ref, owners_ref = reference[rank]
        arrays_new, owners_new = restored[rank]
        assert owners_new == owners_ref
        assert set(arrays_new) == set(arrays_ref)
        for pid in arrays_ref:
            assert np.array_equal(arrays_new[pid], arrays_ref[pid])


def test_ignition0d_resume_is_bit_identical(tmp_path):
    def run(ck="", resume=False, n_output=8):
        fw = Framework()
        build_ignition0d(fw, t_end=2e-4)
        fw.set_parameter("Driver", "n_output", n_output)
        if ck:
            fw.set_parameter("Driver", "checkpoint_path", ck)
            fw.set_parameter("Driver", "checkpoint_interval", 1)
        if resume:
            fw.set_parameter("Driver", "resume", 1)
        return fw.go("Driver")

    res1 = run()

    ck = str(tmp_path / "ck")
    faults.configure(faults.FaultPlan(kill_rank=0, kill_step=4))
    with pytest.raises(InjectedFault):
        run(ck=ck)
    res3 = run(ck=ck, resume=True)

    assert res3["T_final"] == res1["T_final"]
    assert res3["P_final"] == res1["P_final"]
    assert np.array_equal(res3["Y_final"], res1["Y_final"])
    assert res3["nfe"] == res1["nfe"]
    assert res3["history_T"] == res1["history_T"]
