"""The cached transfer schedule: replay moves the bits the per-call box
algebra moved, and a changed hierarchy is never served a stale plan."""

import dataclasses
import os
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.mpi import ZERO_COST, mpirun
from repro.samr import (Box, DataObject, Hierarchy, exchange_ghosts,
                        flag_gradient, load_checkpoint, regrid,
                        save_checkpoint)
from repro.samr.ghost import fill_from_coarse, restrict_level
from repro.samr.prolong import prolong_bilinear
from repro.samr.schedule import coarse_fine_plan
from tests.samr import reference_transfers as reference
from tests.samr.transfer_cases import (FIXED_CASES, Case, drill,
                                       fill_interiors, run_case)

PINNED = os.path.join(os.path.dirname(__file__), "data",
                      "transfer_parent.npz")
REFERENCE = dict(restrict=reference.restrict_level,
                 exchange=reference.exchange_ghosts)


def assert_same_arrays(got: dict, want: dict) -> None:
    assert got.keys() == want.keys()
    for pid, arr in got.items():
        assert (arr == want[pid]).all(), f"patch {pid} differs"


# ------------------------------------------------------- (a) same bits
@st.composite
def boxes_in(draw, shape, n_max):
    """Up to ``n_max`` boxes inside ``shape`` cells, half of them pushed
    against a domain edge.  They may overlap: ``set_level_boxes`` cuts
    overlaps into abutting siblings."""
    out = []
    for _ in range(draw(st.integers(1, n_max))):
        lo, hi = [], []
        for n in shape:
            size = draw(st.integers(2, max(2, n // 2)))
            start = draw(st.sampled_from([0, n - size]) if draw(st.booleans())
                         else st.integers(0, n - size))
            lo.append(start)
            hi.append(start + size - 1)
        out.append(Box(tuple(lo), tuple(hi)))
    return tuple(out)


@st.composite
def cases(draw):
    nx, ny = draw(st.integers(8, 14)), draw(st.integers(8, 14))
    sx, sy = draw(st.integers(3, nx - 3)), draw(st.integers(3, ny - 3))
    decomposition = draw(st.sampled_from([
        (Box((0, 0), (nx - 1, ny - 1)),),
        (Box((0, 0), (sx - 1, ny - 1)), Box((sx, 0), (nx - 1, ny - 1))),
        (Box((0, 0), (sx - 1, sy - 1)), Box((sx, 0), (nx - 1, sy - 1)),
         Box((0, sy), (sx - 1, ny - 1)), Box((sx, sy), (nx - 1, ny - 1))),
    ]))
    ratio = draw(st.sampled_from([2, 3]))
    fine = [draw(boxes_in((nx * ratio, ny * ratio), 3))]
    if draw(st.booleans()):
        fine.append(draw(boxes_in((nx * ratio**2, ny * ratio**2), 3)))
    return Case(base=(nx, ny), decomposition=decomposition,
                fine=tuple(fine), nranks=draw(st.integers(1, 3)),
                nvar=draw(st.sampled_from([1, 5])), ratio=ratio)


@settings(max_examples=40, deadline=None)
@given(cases())
def test_replay_equals_fresh_build_and_per_call_reference(case):
    replayed = run_case(case, rounds=3)  # the last round only replays
    assert_same_arrays(replayed, run_case(case))
    assert_same_arrays(replayed, run_case(case, **REFERENCE))


@pytest.mark.parametrize("name", sorted(FIXED_CASES))
def test_fixed_cases_equal_the_arrays_pinned_at_the_parent(name):
    with np.load(PINNED) as pinned:
        want = {int(key.split("/")[1]): pinned[key]
                for key in pinned.files if key.startswith(name + "/")}
    assert_same_arrays(run_case(FIXED_CASES[name], rounds=2), want)


@pytest.mark.parametrize("ratio", [2, 3, 4])
def test_prolong_bilinear_equals_the_kron_formulation(ratio):
    rng = np.random.default_rng(ratio)
    for shape in [(5, 7), (3, 4, 6), (2, 5, 3, 3)]:
        coarse = rng.normal(size=shape)
        for limited in (True, False):
            new = prolong_bilinear(coarse, ratio, limited)
            old = reference.prolong_bilinear(coarse, ratio, limited)
            assert new.shape == old.shape
            assert (new == old).all()


@pytest.mark.parametrize("nranks", [1, 2])
def test_grouped_fill_equals_the_per_task_reference(nranks):
    """Ghost-fill and regrid-seeding plans of a three-level hierarchy —
    several buffer shapes each, some with pad cells no coarse patch
    covers — replayed one stack per shape and one buffer per task."""
    case = dataclasses.replace(FIXED_CASES["three_level_nvar5"],
                               nranks=nranks)

    def main(comm=None):
        rank = comm.rank if comm else 0
        h = case.build()
        plans = []
        for lev in (1, 2):
            schedule = h.transfer_schedule(lev, rank)
            plans += [(schedule.tasks, schedule.coarse_fine),
                      coarse_fine_plan(
                          [(p, p.box) for p in h.level(lev).patches],
                          h.level(lev - 1).patches, h.ratio, rank)]
        filled = []
        for fill in (fill_from_coarse, reference.fill_from_coarse):
            dobj = DataObject("f", h, case.nvar, rank=rank)
            fill_interiors(dobj)
            for tasks, route in plans:
                fill(dobj, tasks, route, comm)
            filled.append({p.id: dobj.array(p).copy()
                           for p in dobj.owned_patches()})
        return filled, [[(t.shape, t.holes is not None) for t in tasks]
                        for tasks, _route in plans]

    per_rank = [main()] if nranks == 1 else mpirun(
        nranks, main, machine=ZERO_COST)
    for (grouped, per_task), plans in per_rank:
        assert_same_arrays(grouped, per_task)
        for tasks in plans:
            shapes = [shape for shape, _holes in tasks]
            assert shapes == sorted(shapes)
    ghost_plan = [task for _filled, plans in per_rank for task in plans[2]]
    assert len({shape for shape, _holes in ghost_plan}) >= 3
    assert any(holes for _shape, holes in ghost_plan)


def corner_case(ratio, nranks=1):
    """Unaligned fine patches in the four corners of a 12x12 base level
    split between two coarse patches: every corner's ghost and seeding
    buffers reach past the domain, so each has pad cells to fill."""
    n, w = 12 * ratio, 2 * ratio + 1
    return Case(base=(12, 12),
                decomposition=(Box((0, 0), (5, 11)), Box((6, 0), (11, 11))),
                fine=(tuple(Box((x, y), (x + w - 1, y + w - 1))
                            for x in (0, n - w) for y in (0, n - w)),),
                nranks=nranks, nvar=3, ratio=ratio)


def lonely_rank_case(ratio, nranks):
    """One fine patch under the first coarse patch whose ghost buffers
    reach into the second: on two ranks, one rank owns no coarse-fine
    task but still ships coarse blocks to the other."""
    return Case(base=(8, 8),
                decomposition=(Box((0, 0), (3, 7)), Box((4, 0), (7, 7))),
                fine=((Box((2 * ratio, 2 * ratio),
                           (4 * ratio - 1, 6 * ratio - 1)),),),
                nranks=nranks, nvar=2, ratio=ratio)


def whole_level_case(ratio, nranks):
    """One fine patch over the whole domain: its seeding fill interpolates
    1 296 coarse cells, more than one pass of ``prolong_gathered``."""
    return Case(base=(36, 36), decomposition=(Box((0, 0), (35, 35)),),
                fine=((Box((0, 0), (36 * ratio - 1, 36 * ratio - 1)),),),
                nranks=nranks, ratio=ratio)


def level_plans(h, rank):
    """The ghost-fill and the regrid-seeding plan of every level above 0."""
    plans = []
    for lev in range(1, h.nlevels):
        schedule = h.transfer_schedule(lev, rank)
        plans += [(schedule.tasks, schedule.coarse_fine),
                  coarse_fine_plan([(p, p.box) for p in h.level(lev).patches],
                                   h.level(lev - 1).patches, h.ratio, rank)]
    return plans


def fill_with(fill, h, plans, nvar, comm=None, plant=None):
    """``{patch id: array}`` after replaying ``plans`` with ``fill`` on
    freshly filled interiors (``plant(dobj)`` edits them first)."""
    dobj = DataObject("f", h, nvar, rank=comm.rank if comm else 0)
    fill_interiors(dobj)
    if plant is not None:
        plant(dobj)
    for plan, route in plans:
        fill(dobj, plan, route, comm)
    return {p.id: dobj.array(p).copy() for p in dobj.owned_patches()}


@pytest.mark.parametrize("ratio", [2, 4])
@pytest.mark.parametrize("nranks, backend", [(1, None), (2, "threads"),
                                             (2, "mp")])
@pytest.mark.parametrize("make", [corner_case, lonely_rank_case,
                                  whole_level_case])
def test_compiled_fill_equals_the_per_task_oracle(make, nranks, backend,
                                                  ratio):
    """One prolongation per fill moves the bits one ``prolong_bilinear``
    call per task moved: ghost and seeding plans, pad cells filled at all
    four domain corners, a rank that owns no task and a fill of more
    cells than one pass interpolates."""
    case = make(ratio=ratio, nranks=nranks)

    def main(comm=None):
        rank = comm.rank if comm else 0
        h = case.build()
        plans = level_plans(h, rank)
        corners = {(task.fine.box.lo[0] > 0, task.fine.box.lo[1] > 0)
                   for plan, _route in plans for task in plan
                   if task.holes is not None}
        return ([fill_with(fill, h, plans, case.nvar, comm)
                 for fill in (fill_from_coarse, reference.fill_from_coarse)],
                [len(plan.tasks) for plan, _route in plans],
                any(route.sends for _plan, route in plans), corners)

    per_rank = [main()] if nranks == 1 else mpirun(
        nranks, main, machine=ZERO_COST, backend=backend)
    for (compiled, per_task), _ntasks, _sends, _corners in per_rank:
        assert_same_arrays(compiled, per_task)
    if make is corner_case:
        assert set().union(*(c for *_rest, c in per_rank)) == {
            (False, False), (False, True), (True, False), (True, True)}
    elif make is lonely_rank_case and nranks == 2:
        idle = [sends for _filled, ntasks, sends, _c in per_rank
                if not any(ntasks)]
        assert idle == [True]  # it owns no task and ships blocks


@pytest.mark.parametrize("ratio", [2, 4])
def test_a_nan_reaches_only_the_fine_cells_whose_stencil_reads_it(ratio):
    """Plant a NaN in one coarse cell that sits in several tasks' buffers
    (the ghost strips beside a corner patch and its seeding buffer): it
    must turn exactly the fine cells interpolated at that cell into NaN
    and change no cell whose 5-point stencil does not read it — a
    stencil index straying across a seam of the flat buffer would."""
    case = corner_case(ratio)
    h = case.build()
    plans = level_plans(h, 0)
    nan_at = (2, 2)  # under the low corner patch's edge, off the domain edge

    def plant(dobj):
        patch = next(p for p in h.level(0).patches
                     if p.box.contains_point(nan_at))
        dobj.array(patch)[(0, *(i - lo for i, lo in
                                zip(nan_at, patch.ghost_box.lo)))] = np.nan

    clean = fill_with(fill_from_coarse, h, plans, case.nvar)
    planted = fill_with(fill_from_coarse, h, plans, case.nvar, plant=plant)
    oracle = fill_with(reference.fill_from_coarse, h, plans, case.nvar,
                       plant=plant)
    for patch in h.level(1).patches:
        before, after = clean[patch.id][0], planted[patch.id][0]
        assert np.array_equal(after, oracle[patch.id][0], equal_nan=True)
        assert (planted[patch.id][1:] == clean[patch.id][1:]).all()
        written = before != -7.0  # fill_interiors' ghost value
        x = np.arange(patch.ghost_box.lo[0], patch.ghost_box.hi[0] + 1)
        y = np.arange(patch.ghost_box.lo[1], patch.ghost_box.hi[1] + 1)
        dist = (abs(x // ratio - nan_at[0])[:, None]
                + abs(y // ratio - nan_at[1])[None, :])
        assert (np.isnan(after) == (written & (dist == 0))).all()
        changed = ~((after == before) | (np.isnan(after) & np.isnan(before)))
        assert not (changed & ~(written & (dist <= 1))).any()
        if patch.box.lo == (0, 0):
            # three tasks read the cell: the seed and two ghost regions (a
            # ghost region is a box outside the patch, so no one region
            # holds a cell past the x edge and one past the y edge only)
            past_x, past_y = np.nonzero(np.isnan(after))
            w = patch.box.hi[0] + 1
            assert {(x[i] >= w, y[j] >= w) for i, j in zip(past_x, past_y)
                    } >= {(False, False), (True, False), (False, True)}


# ------------------------------------------------------ (b) invalidation
def three_levels():
    case = FIXED_CASES["three_level_nvar5"]
    return case, case.build()


def assert_matches_reference(h, nvar=2):
    """A drill through the (possibly cached) schedules lands on what the
    per-call reference computes from the hierarchy as it is now."""
    got, want = DataObject("a", h, nvar), DataObject("b", h, nvar)
    fill_interiors(got)
    fill_interiors(want)
    assert_same_arrays(drill(got), drill(want, **REFERENCE))


def test_unchanged_hierarchy_reuses_one_schedule_per_level():
    case, h = three_levels()
    one, five = DataObject("one", h, 1), DataObject("five", h, 5)
    first = [h.transfer_schedule(lev) for lev in range(h.nlevels)]
    for _ in range(10):
        for dobj in (one, five):
            fill_interiors(dobj)
            drill(dobj)
    assert all(h.transfer_schedule(lev) is first[lev]
               for lev in range(h.nlevels))
    assert sorted(h._schedules) == [(0, 0), (1, 0), (2, 0)]


def test_set_level_boxes_invalidates_the_level_and_the_one_above():
    case, h = three_levels()
    old = [h.transfer_schedule(lev) for lev in range(3)]
    h.set_level_boxes(1, list(case.fine[0]))  # equal boxes, new patches
    assert h.transfer_schedule(0) is old[0]  # level 0 reads neither
    assert h.transfer_schedule(1) is not old[1]
    assert h.transfer_schedule(2) is not old[2]
    assert len(h._schedules) == 3


def test_drop_levels_above_then_rebuild_uses_a_new_schedule():
    case, h = three_levels()
    old = h.transfer_schedule(1)
    h.drop_levels_above(0)
    h.set_level_boxes(1, list(case.fine[0])[:2])
    assert h.transfer_schedule(1) is not old
    assert_matches_reference(h)


def test_direct_patch_list_edits_are_seen():
    case, h = three_levels()
    lvl = h.level(1)
    old = h.transfer_schedule(1)
    removed = lvl.patches.pop()
    assert h.transfer_schedule(1) is not old
    h.drop_levels_above(1)  # level 2 nested in the removed patch
    assert_matches_reference(h)
    old = h.transfer_schedule(1)
    lvl.add(removed)
    assert h.transfer_schedule(1) is not old
    assert_matches_reference(h)


def test_regrid_invalidates():
    h = Hierarchy((16, 16), extent=(1.0, 1.0), max_levels=3, nghost=2)
    h.build_base_level()
    d = DataObject("f", h, nvar=1)

    def bump(x0):
        for p in d.owned_patches():
            x, y = h.level(p.level).cell_centers(p, h.origin, ghost=True)
            r2 = (x[:, None] - x0) ** 2 + (y[None, :] - 0.5) ** 2
            d.array(p)[0] = np.exp(-r2 / 0.01)

    def flag_fn(level):
        exchange_ghosts(d, level)
        return flag_gradient(d, level, 0.2)

    bump(0.3)
    regrid(h, [d], flag_fn, max_size=16)
    assert h.nlevels >= 2
    old = [h.transfer_schedule(lev) for lev in range(h.nlevels)]
    bump(0.7)
    regrid(h, [d], flag_fn, max_size=16)
    assert h.transfer_schedule(0) is old[0]
    assert h.transfer_schedule(1) is not old[1]
    assert_matches_reference(h)


def test_the_compiled_plan_lives_and_dies_with_its_schedule():
    """The compiled coarse-fine plan is an attribute of its schedule, not
    an entry of some cache: once a regrid replaces the schedule the old
    plan is freed.  Its indices are flat ``intp`` vectors."""
    h = Hierarchy((16, 16), extent=(1.0, 1.0), max_levels=2, nghost=2)
    h.build_base_level()
    d = DataObject("f", h, nvar=2)

    def bump(x0):
        for p in d.owned_patches():
            x, y = h.level(p.level).cell_centers(p, h.origin, ghost=True)
            d.array(p)[:] = np.exp(-((x[:, None] - x0) ** 2
                                     + (y[None, :] - 0.5) ** 2) / 0.01)

    def flag_fn(level):
        exchange_ghosts(d, level)
        return flag_gradient(d, level, 0.2)

    bump(0.3)
    regrid(h, [d], flag_fn, max_size=16)
    exchange_ghosts(d, 1)
    plan = h.transfer_schedule(1).tasks
    assert plan.stencil.dtype == np.intp and plan.stencil.shape[0] == 5
    assert all(cells.dtype == values.dtype == np.intp
               and cells.ndim == values.ndim == 1
               for _patch, cells, values in plan.scatters)
    old = weakref.ref(plan)
    del plan
    bump(0.7)
    regrid(h, [d], flag_fn, max_size=16)
    exchange_ghosts(d, 1)
    assert old() is None


def test_checkpoint_round_trip_builds_its_own_schedule(tmp_path):
    case, h = three_levels()
    d = DataObject("f", h, case.nvar)
    fill_interiors(d)
    want = drill(d)
    fill_interiors(d)
    path = save_checkpoint(str(tmp_path / "ck"), h, [d])
    h2, dataobjs, _t = load_checkpoint(path)
    assert h2.transfer_schedule(1) is not h.transfer_schedule(1)
    assert_same_arrays(drill(dataobjs["f"]), want)


def test_restrict_needs_a_coarser_level():
    from repro.errors import MeshError

    _case, h = three_levels()
    with pytest.raises(MeshError):
        restrict_level(DataObject("f", h, 1), 0)


# ------------------------------------------- (c) ranks, backends, counters
def _counted_case(nranks):
    return dataclasses.replace(FIXED_CASES["two_level_two_ranks"],
                               nranks=nranks)


def _counter_totals():
    out = {}
    for m in obs.get_registry().snapshot():
        if m["name"] in ("samr.ghost_exchanges", "samr.ghost_bytes"):
            out[m["name"]] = out.get(m["name"], 0.0) + m["value"]
    return out


def test_field_and_counters_on_one_and_two_ranks_threads_and_mp():
    runs = {}
    for key, nranks, backend in [("serial", 1, None),
                                 ("threads", 2, "threads"), ("mp", 2, "mp")]:
        with obs.tracing():
            arrays = run_case(_counted_case(nranks), backend=backend)
            runs[key] = (arrays, _counter_totals())
    for key in ("threads", "mp"):
        assert_same_arrays(runs[key][0], runs["serial"][0])
    # two levels exchanged once: per rank one exchange per level
    assert runs["serial"][1] == {"samr.ghost_exchanges": 2.0,
                                 "samr.ghost_bytes": 0.0}
    assert runs["threads"][1]["samr.ghost_exchanges"] == 4.0
    assert runs["threads"][1]["samr.ghost_bytes"] > 0.0
    assert runs["mp"][1] == runs["threads"][1]


class _CountingComm:
    """Forwards to a communicator and notes the array bytes of every
    message this rank hands to ``isend``."""

    def __init__(self, comm):
        self._comm = comm
        self.shipped: list[int] = []

    def __getattr__(self, name):
        return getattr(self._comm, name)

    def isend(self, batch, dest, tag=0):
        self.shipped.append(sum(
            item.nbytes for message in batch for item in message
            if isinstance(item, np.ndarray)))
        return self._comm.isend(batch, dest, tag=tag)


def test_ghost_bytes_counts_coarse_fine_payloads_too():
    """Two ranks, two levels: ``samr.ghost_bytes`` (and the span's
    ``nbytes``) is every payload byte the exchanges put on the wire — the
    coarse blocks shipped for interpolation as well as the sibling
    copies — in one message per route and neighbour."""
    case = _counted_case(2)

    def main(comm):
        h = case.build()
        dobj = DataObject("f", h, case.nvar, rank=comm.rank)
        fill_interiors(dobj)
        spy = _CountingComm(comm)
        for lev in range(2):
            exchange_ghosts(dobj, lev, comm=spy)
        # replay order: level 0 siblings; level 1 coarse-fine, siblings
        routes = [h.transfer_schedule(0, comm.rank).siblings,
                  h.transfer_schedule(1, comm.rank).coarse_fine,
                  h.transfer_schedule(1, comm.rank).siblings]
        return spy.shipped, [len(route.sends) for route in routes]

    with obs.tracing():
        per_rank = mpirun(2, main, machine=ZERO_COST, backend="threads")
        counted = _counter_totals()["samr.ghost_bytes"]
        spans = sum(e.args["nbytes"] for e in obs.trace.events()
                    if e.name == "samr.ghost_exchange")
    coarse_fine = 0
    for shipped, (n_sib0, n_cf, n_sib1) in per_rank:
        assert len(shipped) == n_sib0 + n_cf + n_sib1
        coarse_fine += sum(shipped[n_sib0:n_sib0 + n_cf])
    assert coarse_fine > 0
    assert counted == spans == sum(sum(shipped) for shipped, _ in per_rank)
