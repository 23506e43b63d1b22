"""The transfer schedule replayed neighbour to neighbour: the same bits as
the world ``alltoall`` kept in ``reference_transfers.py``, one message per
neighbour and none to anyone else, and a virtual-time charge that does not
know how many ranks the world has."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.mpi import CPLANT, ZERO_COST, mpirun
from repro.samr import Box, DataObject, Hierarchy, exchange_ghosts
from repro.samr.ghost import restrict_level
from repro.samr.regrid import _rebuild_level
from tests.samr import reference_transfers as reference
from tests.samr.test_schedule import assert_same_arrays, boxes_in, cases
from tests.samr.transfer_cases import FIXED_CASES, Case, fill_interiors

NEW = dict(restrict=restrict_level, exchange=exchange_ghosts,
           rebuild=_rebuild_level)
REFERENCE = dict(restrict=reference.restrict_level,
                 exchange=reference.exchange_ghosts,
                 rebuild=reference.rebuild_level)


def two_fields(case: Case, backend: str | None, regrid_to=None, *,
               restrict, exchange, rebuild) -> dict:
    """``{(name, patch id): array}`` of two DataObjects on one hierarchy
    whose transfers are issued back to back — restriction, optionally a
    rebuild of level 1 over ``regrid_to`` with surviving data, then every
    level's ghost fill — so a message of one can only be told from the
    other's by its place in the (source, tag) queue."""

    def main(comm=None):
        rank = comm.rank if comm else 0
        h = case.build()
        fields = [DataObject("a", h, case.nvar, rank=rank),
                  DataObject("b", h, 2, rank=rank)]
        for dobj in fields:
            fill_interiors(dobj)
        fields[1].scale(-0.5)
        for lev in range(h.nlevels - 1, 0, -1):
            for dobj in fields:
                restrict(dobj, lev, comm=comm)
        if regrid_to is not None:
            h.drop_levels_above(1)
            for dobj in fields:
                dobj.sync_allocation()
            rebuild(h, fields, 1, list(regrid_to), comm)
        for lev in range(h.nlevels):
            for dobj in fields:
                exchange(dobj, lev, comm=comm)
        return {(dobj.name, p.id): dobj.array(p).copy()
                for dobj in fields for p in dobj.owned_patches()}

    if case.nranks == 1:
        return main()
    merged: dict = {}
    for part in mpirun(case.nranks, main, machine=ZERO_COST,
                       backend=backend):
        merged.update(part)
    return merged


# ------------------------------------------------- (i) the same bits
def _strips(n: int, width: int = 4, height: int = 8) -> tuple[Box, ...]:
    return tuple(Box((width * k, 0), (width * k + width - 1, height - 1))
                 for k in range(n))


EDGE_CASES = {
    # one patch, three ranks: two ranks own nothing anywhere
    "more_ranks_than_patches": Case(
        base=(12, 12), decomposition=(Box((0, 0), (11, 11)),),
        fine=((Box((4, 4), (15, 15)),),), nranks=3),
    # level 1 lives on fewer ranks than level 0: a rank owns nothing on it
    "a_rank_without_a_fine_patch": Case(
        base=(16, 8), decomposition=_strips(4),
        fine=((Box((2, 2), (9, 9)),),), nranks=4, nvar=2),
    # level-1 patches far apart: their owners have no level-1 neighbour
    "no_neighbour_on_the_fine_level": Case(
        base=(16, 8), decomposition=_strips(4),
        fine=((Box((0, 0), (5, 5)), Box((26, 10), (31, 15))),), nranks=4),
}


@pytest.mark.parametrize("backend", ["threads", "mp"])
@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_edge_cases_equal_the_alltoall_reference(name, backend):
    case = EDGE_CASES[name]
    got = two_fields(case, backend, **NEW)
    assert_same_arrays(got, two_fields(case, "threads", **REFERENCE))
    assert_same_arrays(got, two_fields(
        dataclasses.replace(case, nranks=1), None, **NEW))


@st.composite
def cases_with_a_regrid(draw):
    """A drawn hierarchy on 1-4 ranks plus new level-1 boxes to rebuild
    that level over (overlapping the old ones or not)."""
    case = dataclasses.replace(draw(cases()), nranks=draw(st.integers(1, 4)))
    nx, ny = case.base
    regrid_to = draw(st.none() | boxes_in(
        (nx * case.ratio, ny * case.ratio), 3))
    return case, regrid_to


@settings(max_examples=30, deadline=None)
@given(cases_with_a_regrid())
def test_drawn_hierarchies_equal_the_alltoall_reference(drawn):
    case, regrid_to = drawn
    got = two_fields(case, "threads", regrid_to, **NEW)
    assert_same_arrays(
        got, two_fields(case, "threads", regrid_to, **REFERENCE))


@settings(max_examples=8, deadline=None)
@given(cases_with_a_regrid())
def test_drawn_hierarchies_on_worker_processes(drawn):
    case, regrid_to = drawn
    got = two_fields(case, "mp", regrid_to, **NEW)
    assert_same_arrays(
        got, two_fields(case, "threads", regrid_to, **REFERENCE))


@pytest.mark.parametrize("backend", ["threads", "mp"])
def test_rebuild_with_surviving_data_crossing_the_rank_boundary(backend):
    """The fixed two-rank case regridded onto boxes that half overlap the
    old ones, so old data changes owner on its way into the new level."""
    case = FIXED_CASES["two_level_two_ranks"]
    regrid_to = (Box((8, 2), (17, 9)), Box((20, 0), (27, 5)))
    assert_same_arrays(
        two_fields(case, backend, regrid_to, **NEW),
        two_fields(case, "threads", regrid_to, **REFERENCE))


# ------------------------------------------------ (ii) who talks to whom
def _strip_world(nranks: int, machine=ZERO_COST, rounds: int = 1):
    """``nranks`` strips of 8 x 8 cells, one per rank; every rank fills its
    ghosts ``rounds`` times and returns ``(strip position, virtual time
    one exchange took)``."""

    def main(comm):
        h = Hierarchy((8 * nranks, 8), nghost=2, nranks=nranks)
        h.build_base_level(decomposition=list(_strips(nranks, width=8)))
        dobj = DataObject("f", h, 3, rank=comm.rank)
        fill_interiors(dobj)
        (mine,) = dobj.owned_patches()
        for _ in range(rounds):
            before = comm.clock
            exchange_ghosts(dobj, 0, comm=comm)
            charge = comm.clock - before
        return mine.box.lo[0] // 8, charge

    return mpirun(nranks, main, machine=machine, backend="threads")


def _metric_totals(*names):
    out = dict.fromkeys(names, 0.0)
    for m in obs.get_registry().snapshot():
        if m["name"] in out:
            out[m["name"]] += m["value"]
    return out


def test_a_strip_of_four_sends_six_messages_a_round_and_no_collective():
    rounds = 3
    with obs.tracing():
        positions = [pos for pos, _ in _strip_world(4, rounds=rounds)]
        totals = _metric_totals("mpi.sends", "mpi.recvs", "mpi.collectives",
                                "samr.ghost_bytes")
        events = obs.trace.events()
    # edge strips have one neighbour, interior strips two: 1 + 2 + 2 + 1
    assert totals["mpi.sends"] == totals["mpi.recvs"] == 6 * rounds
    assert totals["mpi.collectives"] == 0
    # a strip ships 2 ghost columns x 8 rows x 3 variables to a neighbour
    assert totals["samr.ghost_bytes"] == 6 * rounds * (2 * 8 * 3 * 8)
    assert totals["samr.ghost_bytes"] == sum(
        e.args["nbytes"] for e in events if e.name == "samr.ghost_exchange")
    # nobody hears from a rank whose strip does not touch its own
    heard = {(e.rank, e.args["source"]) for e in events
             if e.name == "mpi.recv"}
    assert len(heard) == 6
    assert all(abs(positions[rank] - positions[source]) == 1
               for rank, source in heard)


# ------------------------------------------------------ (iii) virtual time
def test_an_interior_ranks_exchange_costs_the_same_on_4_16_and_48_ranks():
    """Under the CPlant model an exchange charges a rank its two sends and
    the wait for its two neighbours' messages — not ``(P - 1)`` messages
    and a world synchronisation."""
    charges = {}
    for nranks in (4, 16, 48):
        by_position = dict(_strip_world(nranks, machine=CPLANT))
        charges[nranks] = by_position[nranks // 2]
    assert charges[4] > 0.0
    assert charges[4] == charges[16] == charges[48]
    assert charges[48] < CPLANT.alltoall_time(48, 2 * 8 * 3 * 8)
