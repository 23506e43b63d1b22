"""ImplicitIntegrator's gather of a half-step's hot cells into batched
solves: which cells it integrates, that it leaves the rest alone, and
that the field does not depend on how the mesh is split across patches,
ranks and solver blocks."""

import numpy as np
import pytest

from repro.apps import build_reaction_diffusion
from repro.cca.framework import Framework
from repro.components.implicit_adaptor import BLOCK_COLUMNS
from repro.mpi import CPLANT, ZERO_COST, mpirun

SKIP_BELOW_T = 600.0   # set by build_reaction_diffusion
HALF_DT = 5e-8


def _flame_on_two_levels(comm=None):
    """The flame assembly brought to the start of its first step by hand
    (as ``ReactionDiffusionDriver.run`` does), on a 2-level hierarchy."""
    framework = Framework(comm=comm)
    build_reaction_diffusion(framework, nx=16, ny=16, max_levels=2,
                             n_steps=1, dt=2 * HALF_DT, initial_regrids=1,
                             threshold=0.15)
    services = framework.services_of("Driver")
    mesh = services.get_port("mesh")
    data = services.get_port("data")
    ic = services.get_port("ic")
    mesh.build_base_level()
    mech = services.get_port("chem").mechanism()
    dobj = data.declare("flow", mech.n_species + 1)
    ic.initialize(dobj)
    hierarchy = mesh.hierarchy()
    services.get_port("regrid").regrid()
    ic.initialize(dobj)
    assert hierarchy.nlevels == 2
    return framework, dobj, hierarchy, services.get_port("implicit")


def _level_fields(dobj, hierarchy):
    """Per level, the owned interiors laid out in the level's index
    space (NaN where this rank owns nothing)."""
    fields = []
    for level in hierarchy.levels:
        field = np.full((dobj.nvar,) + level.domain.shape, np.nan)
        for patch in dobj.owned_patches(level.number):
            field[(slice(None),) + patch.box.slices(
                origin=level.domain.lo)] = dobj.interior(patch)
        fields.append(field)
    return fields


def test_hot_cells_are_integrated_and_cold_cells_untouched():
    framework, dobj, hierarchy, implicit = _flame_on_two_levels()
    solver = framework.services_of("ImplicitIntegrator").get_port("solver")
    before = _level_fields(dobj, hierarchy)
    implicit.advance([dobj], 0.0, HALF_DT)
    after = _level_fields(dobj, hierarchy)

    n_hot = 0
    for was, now in zip(before, after):
        owned = ~np.isnan(was[0])
        hot = owned & (was[0] >= SKIP_BELOW_T)
        cold = owned & ~hot
        n_hot += int(hot.sum())
        assert cold.any() and hot.any()
        # skipped cells: bit for bit what they were
        assert np.array_equal(now[:, cold], was[:, cold])
        assert not np.array_equal(now[:, hot], was[:, hot])
        # a gathered cell is the cell integrated alone
        i, j = np.argwhere(hot)[0]
        alone = solver.integrate(0.0, was[:, i, j], HALF_DT)
        assert np.array_equal(now[:, i, j], alone)
    assert implicit.cells_integrated == n_hot


@pytest.mark.parametrize("backend", ["threads", "mp"])
def test_field_is_the_same_on_one_and_two_ranks(backend):
    def main(comm):
        _, dobj, hierarchy, implicit = _flame_on_two_levels(comm)
        implicit.advance([dobj], 0.0, HALF_DT)
        return _level_fields(dobj, hierarchy), implicit.cells_integrated

    serial_fields, serial_cells = main(None)
    ranks = mpirun(2, main, machine=ZERO_COST, backend=backend)
    assert sum(cells for _, cells in ranks) == serial_cells
    for level, serial in enumerate(serial_fields):
        pieces = [fields[level] for fields, _ in ranks]
        owners = sum(~np.isnan(piece[0]) for piece in pieces)
        assert np.array_equal(owners == 1, ~np.isnan(serial[0]))
        merged = np.where(np.isnan(pieces[0]), pieces[1], pieces[0])
        assert np.array_equal(merged, serial, equal_nan=True)


def test_blocked_solves_equal_one_solve_over_all_columns():
    """A 40 x 40 patch with every cell hot is more than one block: the
    field, the cell count and the work charged to the virtual clock are
    those of a single ``integrate`` over all 1 600 columns."""

    def main(comm):
        framework = Framework(comm=comm)
        build_reaction_diffusion(framework, nx=40, ny=40, max_levels=1,
                                 n_steps=1, dt=2 * HALF_DT)
        framework.set_parameter("ImplicitIntegrator", "skip_below_T", 0.0)
        services = framework.services_of("Driver")
        services.get_port("mesh").build_base_level()
        mech = services.get_port("chem").mechanism()
        dobj = services.get_port("data").declare("flow", mech.n_species + 1)
        services.get_port("ic").initialize(dobj)
        (patch,) = dobj.owned_patches()
        interior = dobj.interior(patch)
        n_cells = interior[0].size
        assert n_cells > BLOCK_COLUMNS

        solver = framework.services_of(
            "ImplicitIntegrator").get_port("solver")
        before = interior.reshape(dobj.nvar, n_cells)
        whole = solver.integrate(0.0, before, HALF_DT)
        whole_nfe = solver.last_nfe()
        assert not np.array_equal(whole, before)

        implicit = services.get_port("implicit")
        comm.reset_clock()
        implicit.advance([dobj], 0.0, HALF_DT)
        assert np.array_equal(interior.reshape(dobj.nvar, n_cells), whole)
        assert implicit.cells_integrated == n_cells
        assert comm.clock == CPLANT.work_time("chem_rhs", whole_nfe)

    mpirun(1, main, machine=CPLANT)
