"""Tests for the SAMR-facing components: GrACEComponent, the integrators,
MaxDiffCoeffEvaluator, ErrorEstAndRegrid."""

import numpy as np
import pytest

from repro.cca import BuilderService, Framework
from repro.components import (
    CvodeComponent,
    DRFMComponent,
    DiffusionPhysics,
    ErrorEstAndRegrid,
    ExplicitIntegrator,
    GrACEComponent,
    ImplicitIntegrator,
    MaxDiffCoeffEvaluator,
    ThermoChemistry,
)
from repro.errors import CCAError


def diffusion_stack(nx=16, max_levels=1, mechanism="h2-lite"):
    """GrACE + chemistry + transport + diffusion + RKC, fully wired."""
    f = Framework()
    b = BuilderService(f)
    (b.create(GrACEComponent, "mesh")
      .create(ThermoChemistry, "tc")
      .create(DRFMComponent, "drfm")
      .create(DiffusionPhysics, "diff")
      .create(MaxDiffCoeffEvaluator, "mdc")
      .create(ExplicitIntegrator, "rkc")
      .create(ErrorEstAndRegrid, "regrid")
      .parameter("mesh", "nx", nx)
      .parameter("mesh", "ny", nx)
      .parameter("mesh", "x_extent", 0.01)
      .parameter("mesh", "y_extent", 0.01)
      .parameter("mesh", "max_levels", max_levels)
      .parameter("tc", "mechanism", mechanism)
      .parameter("regrid", "dataobject", "flow")
      .parameter("regrid", "variables", "0")
      .connect("drfm", "chem", "tc", "chemistry")
      .connect("diff", "transport", "drfm", "transport")
      .connect("diff", "chem", "tc", "chemistry")
      .connect("diff", "mesh", "mesh", "mesh")
      .connect("mdc", "mesh", "mesh", "mesh")
      .connect("mdc", "data", "mesh", "data")
      .connect("mdc", "transport", "drfm", "transport")
      .connect("mdc", "chem", "tc", "chemistry")
      .connect("rkc", "rhs", "diff", "rhs")
      .connect("rkc", "bound", "mdc", "bound")
      .connect("rkc", "mesh", "mesh", "mesh")
      .connect("rkc", "data", "mesh", "data")
      .connect("regrid", "mesh", "mesh", "mesh")
      .connect("regrid", "data", "mesh", "data"))
    return f


def declare_flame(f, hot=(0.005, 0.005), T_hot=900.0):
    mesh = f.services_of("mesh").provides["mesh"][0]
    data = f.services_of("mesh").provides["data"][0]
    chem = f.services_of("tc").provides["chemistry"][0]
    mesh.build_base_level()
    mech = chem.mechanism()
    dobj = data.declare("flow", mech.n_species + 1)
    h = mesh.hierarchy()
    iN2 = mech.species_index("N2")
    for patch in dobj.owned_patches():
        lvl = h.level(patch.level)
        x, y = lvl.cell_centers(patch, h.origin, ghost=True)
        X, Y = np.meshgrid(x, y, indexing="ij")
        r2 = (X - hot[0]) ** 2 + (Y - hot[1]) ** 2
        arr = dobj.array(patch)
        arr[0] = 300.0 + (T_hot - 300.0) * np.exp(-r2 / 0.001**2)
        arr[1:] = 0.0
        arr[1 + iN2] = 1.0
    for lev in range(h.nlevels):
        data.exchange_ghosts("flow", lev)
    return mesh, data, dobj


# ------------------------------------------------------------------ GrACE
def test_grace_builds_hierarchy_with_parameters():
    f = diffusion_stack(nx=24)
    mesh, data, dobj = declare_flame(f)
    h = mesh.hierarchy()
    assert h.levels[0].ncells == 24 * 24
    assert h.dx(0)[0] == pytest.approx(0.01 / 24)
    assert mesh.rank() == 0 and mesh.nranks() == 1
    assert len(mesh.owned_patches(0)) == 1
    assert data.names() == ["flow"]


def test_grace_requires_build_before_use():
    f = diffusion_stack()
    mesh = f.services_of("mesh").provides["mesh"][0]
    with pytest.raises(CCAError, match="not built"):
        mesh.hierarchy()


def test_grace_rejects_double_build_and_duplicate_declare():
    f = diffusion_stack()
    mesh, data, _ = declare_flame(f)
    with pytest.raises(CCAError, match="already built"):
        mesh.build_base_level()
    with pytest.raises(CCAError, match="already declared"):
        data.declare("flow", 2)
    with pytest.raises(CCAError, match="no DataObject"):
        data.data("nope")


def test_grace_direct_regrid_hint():
    f = diffusion_stack()
    mesh, _, _ = declare_flame(f)
    with pytest.raises(CCAError, match="ErrorEstAndRegrid"):
        mesh.regrid()


# ------------------------------------------------------------ MaxDiffCoeff
def test_max_diff_coeff_bound_scales_with_resolution():
    f1 = diffusion_stack(nx=16)
    declare_flame(f1)
    b1 = f1.services_of("mdc").provides["bound"][0].spectral_bound(0.0)
    f2 = diffusion_stack(nx=32)
    declare_flame(f2)
    b2 = f2.services_of("mdc").provides["bound"][0].spectral_bound(0.0)
    # ~4x from the 1/dx^2 scaling (cell-center sampling of the hot spot
    # shifts D_max slightly between resolutions)
    assert 3.0 < b2 / b1 < 5.5
    assert b1 > 0


# ------------------------------------------------------- ExplicitIntegrator
def test_rkc_integrator_diffuses_hotspot():
    f = diffusion_stack(nx=16)
    mesh, data, dobj = declare_flame(f, T_hot=900.0)
    integ = f.services_of("rkc").provides["integrator"][0]
    T_before = dobj.max_norm(k=0)
    total_before = dobj.sum(k=0)
    dt = 1e-5
    t1 = integ.advance([dobj], 0.0, dt)
    assert t1 == dt
    T_after = dobj.max_norm(k=0)
    assert T_after < T_before            # peak diffuses down
    assert T_after > 300.0
    assert integ.nfe >= integ.last_stages
    # adiabatic walls: total T approximately conserved (not exactly — the
    # conserved quantity is rho*cp*T and rho, cp vary with temperature)
    assert dobj.sum(k=0) == pytest.approx(total_before, rel=1e-3)


def test_rkc_stable_dt_positive_and_scales():
    f = diffusion_stack(nx=16)
    _, _, dobj = declare_flame(f)
    integ = f.services_of("rkc").provides["integrator"][0]
    dt = integ.stable_dt([dobj], 0.0)
    assert dt > 0


def test_rkc_rejects_multiple_dataobjects():
    f = diffusion_stack(nx=16)
    _, _, dobj = declare_flame(f)
    integ = f.services_of("rkc").provides["integrator"][0]
    with pytest.raises(CCAError):
        integ.advance([dobj, dobj], 0.0, 1e-6)


@pytest.mark.parametrize("wrong_by", [-5, 5])
def test_unpack_interiors_checks_the_length_before_it_writes(wrong_by):
    """A short vector used to die in ``reshape`` half-way through the
    patches, a long one raised with every patch already overwritten."""
    from repro.components.explicit_integrator import (pack_interiors,
                                                      unpack_interiors)
    f = diffusion_stack(nx=16, max_levels=2)
    mesh, data, dobj = declare_flame(f, T_hot=1200.0)
    f.services_of("regrid").provides["regrid"][0].regrid()
    assert len(list(dobj.owned_patches())) > 1
    before = pack_interiors(dobj)
    with pytest.raises(CCAError, match="state vector length"):
        unpack_interiors(dobj, np.full(before.size + wrong_by, -1.0))
    assert np.array_equal(pack_interiors(dobj), before)
    with pytest.raises(CCAError, match="state vector length"):
        pack_interiors(dobj, out=np.empty(before.size + wrong_by))
    # and the round trip of the right length still is one
    unpack_interiors(dobj, before[::-1].copy())
    assert np.array_equal(pack_interiors(dobj), before[::-1])


# --------------------------------------------------------- ErrorEstAndRegrid
def test_regrid_component_refines_hotspot():
    f = diffusion_stack(nx=16, max_levels=2)
    mesh, data, dobj = declare_flame(f, T_hot=1200.0)
    regrid = f.services_of("regrid").provides["regrid"][0]
    regrid.regrid()
    h = mesh.hierarchy()
    assert h.nlevels == 2
    assert h.level(1).ncells > 0
    assert regrid.nregrids == 1
    # fine data seeded: max T on level 1 close to the hotspot peak
    t_max_fine = max(
        float(dobj.interior(p)[0].max())
        for p in dobj.owned_patches(1))
    assert t_max_fine > 900.0


# --------------------------------------------------------- ImplicitIntegrator
def make_chemistry_stack():
    f = Framework()
    b = BuilderService(f)
    (b.create(GrACEComponent, "mesh")
      .create(ThermoChemistry, "tc")
      .create(CvodeComponent, "cv")
      .create(ImplicitIntegrator, "impl")
      .parameter("mesh", "nx", 4)
      .parameter("mesh", "ny", 4)
      .connect("cv", "rhs", "tc", "source")
      .connect("impl", "solver", "cv", "solver")
      .connect("impl", "data", "mesh", "data"))
    return f


def test_implicit_integrator_ignites_hot_cells():
    from repro.chemistry.h2_air import stoichiometric_h2_air

    f = make_chemistry_stack()
    mesh = f.services_of("mesh").provides["mesh"][0]
    data = f.services_of("mesh").provides["data"][0]
    chem = f.services_of("tc").provides["chemistry"][0]
    mesh.build_base_level()
    mech = chem.mechanism()
    dobj = data.declare("flow", mech.n_species + 1)
    Y = np.zeros(mech.n_species)
    for nm, v in stoichiometric_h2_air().items():
        Y[mech.species_index(nm)] = v
    # seed a trace of H so the chain starts within one step (pure
    # H2/O2 initiation is astronomically slow at 1300 K)
    Y[mech.species_index("H")] = 1e-6
    Y /= Y.sum()
    for p in dobj.owned_patches():
        arr = dobj.array(p)
        arr[0] = 1300.0
        arr[1:] = Y.reshape(-1, 1, 1)
    integ = f.services_of("impl").provides["integrator"][0]
    integ.advance([dobj], 0.0, 2e-6)
    p0 = next(iter(dobj.owned_patches()))
    arr = dobj.interior(p0)
    # induction chemistry: T barely moves (initiation is mildly
    # endothermic) but the radical pool must have appeared
    assert np.all(np.abs(arr[0] - 1300.0) < 50.0)
    iOH = mech.species_index("OH")
    assert np.all(arr[1 + iOH] > 0.0)
    assert integ.cells_integrated == 16
    assert integ.stable_dt([dobj], 0.0) == float("inf")


def test_implicit_integrator_skips_cold_cells():
    f = make_chemistry_stack()
    f.set_parameter("impl", "skip_below_T", 600.0)
    mesh = f.services_of("mesh").provides["mesh"][0]
    data = f.services_of("mesh").provides["data"][0]
    chem = f.services_of("tc").provides["chemistry"][0]
    mesh.build_base_level()
    mech = chem.mechanism()
    dobj = data.declare("flow", mech.n_species + 1)
    for p in dobj.owned_patches():
        arr = dobj.array(p)
        arr[0] = 300.0
        arr[1:] = 0.0
        arr[1 + mech.species_index("N2")] = 1.0
    integ = f.services_of("impl").provides["integrator"][0]
    integ.advance([dobj], 0.0, 1e-5)
    assert integ.cells_integrated == 0  # everything below the threshold
