"""SCMD parallel runs of the full applications: parallel == serial."""

import numpy as np
import pytest

from repro.apps import run_reaction_diffusion, run_shock_interface
from repro.apps.reaction_diffusion import build_reaction_diffusion
from repro.apps.shock_interface import build_shock_interface
from repro.cca import Framework
from repro.mpi import ZERO_COST, CPLANT, mpirun


def test_shock_interface_parallel_matches_serial():
    kwargs = dict(nx=32, ny=16, max_levels=1, t_end_over_tau=0.5,
                  regrid_interval=0)

    def main(comm):
        res = run_shock_interface(comm=comm, **kwargs)
        return res["circulation_min"], res["steps"]

    ser = run_shock_interface(**kwargs)
    par = mpirun(2, main, machine=ZERO_COST)
    # every face is solved independently of the faces it shares a flux
    # call with, so only the order of the circulation sum is left
    for circ, steps in par:
        assert steps == ser["steps"]
        assert circ == pytest.approx(ser["circulation_min"], rel=1e-13)


def test_shock_interface_amr_parallel_matches_serial():
    kwargs = dict(nx=32, ny=16, max_levels=2, t_end_over_tau=0.4,
                  regrid_interval=3, initial_regrids=1)

    def main(comm):
        res = run_shock_interface(comm=comm, **kwargs)
        return res["circulation_min"], res["steps"], res["total_cells"]

    ser = run_shock_interface(**kwargs)
    par = mpirun(2, main, machine=ZERO_COST)
    for circ, steps, cells in par:
        assert steps == ser["steps"]
        assert cells == ser["total_cells"]
        assert circ == pytest.approx(ser["circulation_min"], rel=1e-13)


REGRID_INTERVAL = 24


def _shock_fields(comm=None):
    """A 2-level shock run (the shock starts just short of the interface)
    with one regrid on the way; returns the step count and this rank's
    share of the conserved fields as ``(level, box, interior)`` chunks."""
    fw = Framework(comm=comm)
    build_shock_interface(fw, nx=32, ny=16, max_levels=2, initial_regrids=1,
                          regrid_interval=REGRID_INTERVAL,
                          t_end_over_tau=0.3)
    for instance in ("ConicalInterfaceIC", "Driver"):
        fw.set_parameter(instance, "shock_x", 0.38)
    res = fw.go("Driver")
    dobj = fw.services_of("AMRMesh").provides["data"][0].data("U")
    return res["steps"], [(p.level, p.box, dobj.interior(p).copy())
                          for p in dobj.owned_patches()]


def _dense(per_rank):
    """The chunks of all ranks as one dense ``(5, nx, ny)`` field per level
    (NaN where the level does not cover), on a 32x16 base refined by 2."""
    levels = [np.full((5, 32, 16), np.nan), np.full((5, 64, 32), np.nan)]
    for _steps, chunks in per_rank:
        for level, box, interior in chunks:
            levels[level][(slice(None),) + box.slices(origin=(0, 0))] = interior
    return levels


@pytest.mark.parametrize("nprocs, backend", [(2, "threads"), (4, "threads"),
                                             (2, "mp")])
def test_shock_amr_fields_do_not_depend_on_the_decomposition(nprocs, backend):
    """Patch splits and owners change with the rank count; every cell's
    conserved state does not — bit for bit."""
    ser = _shock_fields()
    assert REGRID_INTERVAL <= ser[0] < 2 * REGRID_INTERVAL   # one regrid
    par = mpirun(nprocs, _shock_fields, machine=ZERO_COST, backend=backend)
    assert all(steps == ser[0] for steps, _ in par)
    for serial, parallel in zip(_dense([ser]), _dense(par)):
        assert np.isfinite(serial).any()
        assert np.array_equal(serial, parallel, equal_nan=True)


def _reaction_diffusion_frames(comm=None):
    fw = Framework(comm=comm)
    build_reaction_diffusion(fw, nx=16, ny=16, max_levels=1, n_steps=2,
                             dt=1e-7)
    res = fw.go("Driver")
    stats = fw.get_component("Statistics").stats
    return res["T_max"], {k: stats.series(k) for k in stats.summary()}


def test_reaction_diffusion_four_ranks():
    """Every rank gets the serial run's T_max and frames: the T range is
    reduced across ranks and the cell census is global (patch counts
    follow the decomposition)."""
    ser_T, ser_frames = _reaction_diffusion_frames()
    par = mpirun(4, _reaction_diffusion_frames, machine=ZERO_COST)
    for t, frames in par:
        assert t == pytest.approx(ser_T, rel=1e-10)
        assert frames.keys() == ser_frames.keys()
        for key, pts in ser_frames.items():
            if not key.startswith("patches_"):
                np.testing.assert_allclose(frames[key], pts, rtol=1e-10)


def test_virtual_time_sane_under_cplant_model():
    """Running under the CPlant model must produce positive, bounded
    virtual clocks that include communication time."""

    def main(comm):
        run_reaction_diffusion(
            comm=comm, nx=16, ny=16, max_levels=1, n_steps=2, dt=1e-7)
        comm.barrier()
        return comm.clock

    clocks = mpirun(2, main, machine=CPLANT)
    assert all(0.0 < c < 120.0 for c in clocks)
    # barrier synchronizes the exit clocks
    assert abs(clocks[0] - clocks[1]) < 0.2 * max(clocks)
