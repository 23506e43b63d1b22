"""Parallel SAMR stress tests: 4-rank exchanges, balancer-distributed
hierarchies, multi-level parallel consistency."""

import numpy as np
import pytest

from repro.mpi import ZERO_COST, mpirun
from repro.samr import (
    Box,
    DataObject,
    Hierarchy,
    balance_sfc,
    exchange_ghosts,
    flag_gradient,
    regrid,
)


def quad_hierarchy(nranks, nghost=2, max_levels=1):
    """16x16 domain split into four 8x8 quadrant patches."""
    h = Hierarchy((16, 16), extent=(1.0, 1.0), max_levels=max_levels,
                  nghost=nghost, nranks=nranks)
    h.build_base_level(decomposition=[
        Box((0, 0), (7, 7)), Box((0, 8), (7, 15)),
        Box((8, 0), (15, 7)), Box((8, 8), (15, 15)),
    ])
    return h


def fill_global_index(h, d):
    for p in d.owned_patches():
        i = np.arange(p.box.lo[0], p.box.hi[0] + 1)
        j = np.arange(p.box.lo[1], p.box.hi[1] + 1)
        d.interior(p)[0] = 1000.0 * i[:, None] + j[None, :]


def test_four_rank_quadrant_exchange_matches_serial():
    def main(comm):
        h = quad_hierarchy(comm.size)
        d = DataObject("f", h, nvar=1, rank=comm.rank)
        d.fill(np.nan)
        fill_global_index(h, d)
        exchange_ghosts(d, 0, comm=comm)
        return {p.id: d.array(p).copy() for p in d.owned_patches(0)}

    par = {}
    for chunk in mpirun(4, main, machine=ZERO_COST):
        par.update(chunk)
    h = quad_hierarchy(1)
    d = DataObject("f", h, nvar=1)
    d.fill(np.nan)
    fill_global_index(h, d)
    exchange_ghosts(d, 0)
    assert set(par) == {p.id for p in h.level(0).patches}
    for p in h.level(0).patches:
        np.testing.assert_allclose(par[p.id], d.array(p))


def test_corner_ghosts_filled_across_ranks():
    """Diagonal-neighbour data reaches corner ghost cells (needed by the
    2-D diffusion stencil after the two BC sweeps)."""

    def main(comm):
        h = quad_hierarchy(comm.size)
        d = DataObject("f", h, nvar=1, rank=comm.rank)
        d.fill(np.nan)
        fill_global_index(h, d)
        exchange_ghosts(d, 0, comm=comm)
        ok = True
        for p in d.owned_patches(0):
            ok = ok and bool(np.isfinite(d.array(p)).all())
        return ok

    assert all(mpirun(4, main, machine=ZERO_COST))


def test_sfc_balanced_hierarchy_distributes_patches():
    def main(comm):
        h = Hierarchy((16, 16), extent=(1.0, 1.0), max_levels=2,
                      nghost=2, nranks=comm.size, balancer=balance_sfc)
        h.build_base_level(decomposition=[
            Box((0, 0), (7, 7)), Box((0, 8), (7, 15)),
            Box((8, 0), (15, 7)), Box((8, 8), (15, 15)),
        ])
        owners = sorted({p.owner for p in h.level(0).patches})
        return owners

    res = mpirun(2, main, machine=ZERO_COST)
    assert res[0] == [0, 1]  # both ranks own part of the mesh
    assert res[0] == res[1]  # replicated metadata agrees


def test_two_level_parallel_ghost_and_restrict_roundtrip():
    """Fine-level data restricted to coarse, then coarse-fine ghosts
    refilled — all across 2 ranks — must equal the serial result."""
    from repro.samr.ghost import restrict_level

    def main(comm):
        h = quad_hierarchy(comm.size if comm else 1, max_levels=2)
        h.set_level_boxes(1, [Box((8, 8), (23, 23))])
        d = DataObject("f", h, nvar=1, rank=comm.rank if comm else 0)
        for p in d.owned_patches():
            lvl = h.level(p.level)
            x, y = lvl.cell_centers(p, h.origin, ghost=True)
            d.array(p)[0] = np.sin(4 * x[:, None]) * np.cos(3 * y[None, :])
        restrict_level(d, 1, comm=comm)
        exchange_ghosts(d, 0, comm=comm)
        exchange_ghosts(d, 1, comm=comm)
        out = {}
        for p in d.owned_patches():
            out[p.id] = d.array(p).copy()
        return out

    par = {}
    for chunk in mpirun(2, main, machine=ZERO_COST):
        par.update(chunk)

    class _Serial:
        rank = 0
        size = 1

    h = quad_hierarchy(1, max_levels=2)
    h.set_level_boxes(1, [Box((8, 8), (23, 23))])
    d = DataObject("f", h, nvar=1)
    for p in d.owned_patches():
        lvl = h.level(p.level)
        x, y = lvl.cell_centers(p, h.origin, ghost=True)
        d.array(p)[0] = np.sin(4 * x[:, None]) * np.cos(3 * y[None, :])
    from repro.samr.ghost import restrict_level as rl

    rl(d, 1)
    exchange_ghosts(d, 0)
    exchange_ghosts(d, 1)
    for p in h.all_patches():
        np.testing.assert_allclose(par[p.id], d.array(p), rtol=1e-12)


def test_parallel_regrid_three_ranks():
    def main(comm):
        h = Hierarchy((24, 24), extent=(1.0, 1.0), max_levels=2,
                      nghost=2, nranks=comm.size)
        h.build_base_level()
        d = DataObject("f", h, nvar=1, rank=comm.rank)
        for p in d.owned_patches():
            lvl = h.level(p.level)
            x, y = lvl.cell_centers(p, h.origin, ghost=True)
            r2 = (x[:, None] - 0.5) ** 2 + (y[None, :] - 0.5) ** 2
            d.array(p)[0] = np.exp(-r2 / 0.01)

        def flag_fn(level):
            exchange_ghosts(d, level, comm=comm)
            return flag_gradient(d, level, 0.2, comm=comm)

        regrid(h, [d], flag_fn, comm=comm, max_size=16)
        return (h.nlevels,
                tuple((p.id, p.owner) for p in h.level(1).patches))

    res = mpirun(3, main, machine=ZERO_COST)
    assert all(r[0] == 2 for r in res)
    assert res[0][1] == res[1][1] == res[2][1]  # identical metadata


def test_successive_hierarchies_are_distinct_allocators_to_the_sanitizer():
    """Each rank builds, drops and rebuilds hierarchies of its own, with
    no message between them.  CPython hands a freed hierarchy's address
    to the next one, so a sanitizer key made of ``id(hierarchy)`` turned
    two ranks' successive hierarchies into one "shared" allocator and
    reported a race that is not there."""
    import threading

    from repro.mpi import sanitizer

    # rank 1 starts after rank 0 has freed its hierarchies; an Event is
    # invisible to the sanitizer, so no happens-before edge excuses a
    # shared key
    handoff = threading.Event()

    def main(comm):
        if comm.rank == 1:
            assert handoff.wait(60.0)
        for _ in range(50):
            h = Hierarchy((8, 8), nranks=comm.size)
            h.build_base_level()
            del h
        handoff.set()
        return comm.rank

    was = sanitizer.on
    sanitizer.configure()
    try:
        assert mpirun(2, main, machine=ZERO_COST,
                      backend="threads") == [0, 1]
    finally:
        if not was:
            sanitizer.deactivate()


def test_successive_dataobjects_are_distinct_buffers_to_the_sanitizer():
    """The same drill for patch arrays: rank 1 allocates its DataObjects
    after rank 0 freed 50 of the same name over a mesh of its own, with no
    message between them.  A sanitizer key made of ``id(array)`` matched
    rank 1's arrays to rank 0's freed ones and reported a race."""
    import threading

    from repro.mpi import sanitizer

    handoff = threading.Event()  # invisible to the sanitizer, as above

    def main(comm):
        if comm.rank == 1:
            assert handoff.wait(60.0)
        h = Hierarchy((8, 8))
        h.build_base_level()
        for _ in range(50):
            d = DataObject("f", h, nvar=1)
            d.array(h.level(0).patches[0])[...] = comm.rank
            del d
        handoff.set()
        return comm.rank

    was = sanitizer.on
    sanitizer.configure()
    try:
        assert mpirun(2, main, machine=ZERO_COST,
                      backend="threads") == [0, 1]
    finally:
        if not was:
            sanitizer.deactivate()
