"""The allocation-free explicit diffusion path against the allocating one
it replaced (``reference_diffusion.py``): same bits, no aliasing between
calls, and a counted allocation budget."""

import dataclasses
import resource
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.reaction_diffusion import build_reaction_diffusion
from repro.cca.framework import Framework
from repro.chemistry.h2_air import h2_air_mechanism, stoichiometric_h2_air
from repro.chemistry.mechanism import Mechanism
from repro.components.diffusion_physics import _div_flux
from repro.components.explicit_integrator import ExplicitIntegrator
from repro.integrators.rkc import rkc_step
from repro.mpi import ZERO_COST, mpirun
from repro.transport import MixtureTransport

from tests.components import reference_diffusion as ref
from tests.components.test_diffusivity_bound import diffusivity_port, new_patch
from tests.resilience.test_determinism import _flame_framework, _flame_state

P0 = 101325.0
H2_AIR = h2_air_mechanism()
#: the same species, each switching NASA-7 range at its own temperature
STAGGERED = Mechanism("staggered", [
    dataclasses.replace(sp, thermo=dataclasses.replace(
        sp.thermo, t_mid=700.0 + 75.0 * k))
    for k, sp in enumerate(H2_AIR.species)], [])
T_MID = STAGGERED._nasa_t_mid


def nasa(mech, name, T):
    """``mech.cp_R``, or an ``h_RT`` / ``s_R`` / ``g_RT`` row of one
    :meth:`Mechanism.thermo` pass, shaped ``(nsp,) + T.shape``."""
    if name == "cp_R":
        return mech.cp_R(T)
    T = np.asarray(T, dtype=float)
    th = mech.thermo(T.reshape(-1))
    rows = {"h_RT": th.h_RT, "s_R": th.s_R, "g_RT": th.h_RT - th.s_R}[name]
    return rows.reshape((mech.n_species,) + T.shape)


def same(got, want):
    """``==`` in value, shape and array-or-scalar kind."""
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)
    assert isinstance(got, np.ndarray) == isinstance(want, np.ndarray)


# ------------------------------------------------- (a) == the reference
@st.composite
def states(draw):
    """(mechanism, T, Y) over scalar, batch and patch shapes — possibly an
    empty batch, possibly non-contiguous views — with every cell below
    the range switches, above them, on both sides, or exactly on one."""
    mech = draw(st.sampled_from([H2_AIR, STAGGERED]))
    shape = draw(st.sampled_from([(), (0,), (1,), (7,), (5, 3), (6, 4)]))
    regime = draw(st.sampled_from(["low", "high", "straddle", "t_mid"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    strided = draw(st.booleans())
    # a view of every other cell of an array twice the size
    big = tuple(2 * n for n in shape)
    cut = tuple(slice(None, None, 2) for _ in shape) if strided else ()
    full = big if strided else shape
    lo, hi = {"low": (250.0, 650.0), "high": (1400.0, 3000.0),
              "straddle": (300.0, 2500.0), "t_mid": (300.0, 2500.0)}[regime]
    T = rng.uniform(lo, hi, full)
    if regime == "t_mid" and T.size:
        T.flat[::2] = rng.choice(mech._nasa_t_mid, size=T.flat[::2].shape)
    Y = rng.uniform(0.0, 1.0, (mech.n_species,) + full)
    return mech, T[cut], Y[(slice(None),) + cut]


def transport_ref(fn, transport, T, *rest):
    """The reference transport function; a scalar state goes in as a
    batch of one.  (The parent's scalar ``**`` was libm's pow, its array
    ``**`` NumPy's loop, and the two may round the last bit differently;
    the in-place code takes the loop for both, so a temperature alone now
    gets the bits it gets in a batch.)"""
    if np.ndim(T):
        return fn(transport, T, *rest)
    rest = [np.asarray(a)[..., None] for a in rest]
    return fn(transport, np.asarray(T)[None], *rest)[..., 0][()]


@settings(max_examples=150, deadline=None)
@given(states())
def test_thermo_and_transport_equal_the_reference(state):
    mech, T, Y = state
    transport = MixtureTransport(mech)
    n = mech.n_species
    want = {name: getattr(ref, name)(mech, *args) for name, args in [
        ("cp_R", (T,)), ("h_RT", (T,)), ("s_R", (T,)), ("g_RT", (T,)),
        ("cp_mass_species", (T,)), ("mean_weight", (Y,)),
        ("density", (T, P0, Y)), ("cp_mass", (T, Y))]}
    want.update({name: transport_ref(getattr(ref, name), transport, *args)
                 for name, args in [
        ("conductivity", (T,)), ("diffusion_coefficients", (T, P0))]})
    for name in ("cp_R", "h_RT", "s_R", "g_RT"):
        same(nasa(mech, name, T), want[name])
    same(mech.cp_mass_species(T), want["cp_mass_species"])
    same(mech.mean_weight(Y), want["mean_weight"])
    same(mech.density(T, P0, Y), want["density"])
    same(mech.cp_mass(T, Y), want["cp_mass"])
    same(transport.conductivity(T), want["conductivity"])
    same(transport.diffusion_coefficients(T, P0),
         want["diffusion_coefficients"])

    # the same calls computing into the caller's arrays
    species = np.full((n,) + T.shape, np.nan)
    cells = np.full(T.shape, np.nan)
    work = np.full((2 * n + 2,) + T.shape, np.nan)
    for name, call in [
            ("cp_R", lambda: mech.cp_R(T, out=species, work=work)),
            ("cp_mass_species",
             lambda: mech.cp_mass_species(T, out=species, work=work)),
            ("diffusion_coefficients",
             lambda: transport.diffusion_coefficients(T, P0, out=species))]:
        assert call() is species
        assert np.array_equal(species, want[name])
    for name, call in [
            ("mean_weight", lambda: mech.mean_weight(Y, out=cells, work=work)),
            ("density",
             lambda: mech.density(T, P0, Y, out=cells, work=work)),
            ("cp_mass", lambda: mech.cp_mass(T, Y, out=cells, work=work)),
            ("conductivity", lambda: transport.conductivity(T, out=cells))]:
        assert call() is cells
        assert np.array_equal(cells, want[name])

    if T.size:
        # the stability bound's diffusivity, through the operator's port
        # (the thermal diffusivity binds once the D_i are scaled down)
        cells_in = (np.asarray(T).reshape(-1), P0, Y.reshape(n, -1))
        state = np.concatenate([np.asarray(T)[None], Y])
        port, _ = diffusivity_port(mech)
        assert port.max_diffusivity(new_patch(), state) == \
            transport_ref(ref.max_diffusion_coefficient, transport, *cells_in)
        port, slow = diffusivity_port(mech, d_scale=1e-3)
        assert port.max_diffusivity(new_patch(), state) == \
            transport_ref(ref.thermal_diffusivity, slow, *cells_in).max()


def test_a_cell_does_not_depend_on_the_cells_it_shares_a_call_with():
    """The range dispatch looks at the whole batch; a cell's bits must
    not: the mixed batch equals its cells evaluated one at a time."""
    T = np.array([300.0, 999.999, 1000.0, 1000.001, 2400.0, *T_MID])
    for mech in (H2_AIR, STAGGERED):
        for name in ("cp_R", "h_RT", "s_R", "g_RT"):
            batch = nasa(mech, name, T)
            for i, Ti in enumerate(T):
                assert np.array_equal(batch[:, i], nasa(mech, name, Ti))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 9), st.integers(1, 9),
       st.integers(0, 2**32 - 1))
def test_div_flux_equals_the_reference(nvar, nx, ny, seed):
    rng = np.random.default_rng(seed)
    phi = rng.uniform(-1.0, 1.0, (nvar, nx + 2, ny + 2))
    B = rng.uniform(0.1, 2.0, phi.shape)
    want = ref._div_flux(phi, B, 0.3, 0.7)
    same(_div_flux(phi, B, 0.3, 0.7), want)
    out = np.full((nvar, nx, ny), np.nan)
    work = np.full((2, nvar * max((nx + 1) * ny, nx * (ny + 1)) + 3), np.nan)
    assert _div_flux(phi, B, 0.3, 0.7, out=out, work=work) is out
    same(out, want)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 9), st.integers(0, 2**32 - 1), st.booleans())
def test_rkc_step_equals_the_reference(stages, seed, with_work):
    rng = np.random.default_rng(seed)
    y = rng.uniform(-1.0, 1.0, (4, 3))
    A = rng.uniform(-1.0, 0.0, y.shape)

    def rhs(t, yy):
        return A * yy + t

    work = np.full((4,) + y.shape, np.nan) if with_work else None
    got = rkc_step(rhs, 0.1, y, 0.05, 2.0, stages=stages, work=work)
    same(got, ref.rkc_step(rhs, 0.1, y, 0.05, 2.0, stages=stages))
    if with_work:
        assert np.shares_memory(got, work)


# ------------------------------------------------------ (b) scalars work
def test_python_floats_in_numpy_scalars_out():
    """0-D ignition (every serve job) calls the mixture properties on
    plain floats."""
    composition = stoichiometric_h2_air()
    Y0 = np.array([composition.get(name, 0.0) for name in H2_AIR.names])
    transport = MixtureTransport(H2_AIR)
    for got, want in [
            (H2_AIR.density(1000.0, P0, Y0), ref.density(H2_AIR, 1000.0, P0, Y0)),
            (H2_AIR.density(1000.0, P0, list(Y0)),
             ref.density(H2_AIR, 1000.0, P0, list(Y0))),
            (H2_AIR.mean_weight(Y0), ref.mean_weight(H2_AIR, Y0)),
            (H2_AIR.cp_mass(1000.0, Y0), ref.cp_mass(H2_AIR, 1000.0, Y0)),
            (transport.conductivity(1000.0),
             ref.conductivity(transport, 1000.0))]:
        assert isinstance(got, np.float64) and isinstance(want, np.float64)
        assert got == want
        float(got)
    state = np.concatenate([[1000.0], Y0])
    port, _ = diffusivity_port(H2_AIR)
    assert port.max_diffusivity(new_patch(), state) == \
        ref.max_diffusion_coefficient(transport, 1000.0, P0, Y0)
    port, slow = diffusivity_port(H2_AIR, d_scale=1e-3)
    assert port.max_diffusivity(new_patch(), state) == \
        ref.thermal_diffusivity(slow, 1000.0, P0, Y0)


# --------------------------------------------------------- (c) aliasing
def test_rkc_step_only_reads_y_and_what_rhs_returns():
    """``rhs`` hands back one reused buffer for every stage (what
    ``ExplicitIntegrator`` does) and keeps a copy of each to compare."""
    rng = np.random.default_rng(3)
    y = rng.uniform(-1.0, 1.0, 12)
    y_before = y.copy()
    first, reused, handed_out = np.empty(12), np.empty(12), []

    def rhs(t, yy):
        if handed_out:  # the previous RHS is still what was returned
            buffer, copy = handed_out[-1]
            assert np.array_equal(buffer, copy)
        buffer = reused if handed_out else first
        buffer[:] = -2.0 * yy + t
        handed_out.append((buffer, buffer.copy()))
        return buffer

    def fresh(t, yy):
        return -2.0 * yy + t

    got = rkc_step(rhs, 0.0, y, 0.1, 2.0, stages=5)
    assert np.array_equal(y, y_before)
    assert len(handed_out) == 5
    assert np.array_equal(first, handed_out[0][1])       # f0 outlives the step
    assert np.array_equal(reused, handed_out[-1][1])
    same(got, ref.rkc_step(fresh, 0.0, y, 0.1, 2.0, stages=5))
    assert not np.shares_memory(got, y)


def _flame(**kwargs):
    fw = Framework()
    build_reaction_diffusion(fw, **{**dict(
        nx=16, ny=16, max_levels=2, n_steps=1, dt=1e-7, initial_regrids=1,
        regrid_interval=0, chemistry_on=False), **kwargs})
    fw.go("Driver")
    return fw


def _rhs_inputs(fw):
    """The RHS port, the flame field and two owned patches of different
    shapes, ghosts filled as a step's first stage fills them (the last
    RKC step leaves them stale)."""
    dobj = fw.get_component("AMR_Mesh").data("flow")
    data = fw.services_of("Driver").get_port("data")
    for lev in range(dobj.hierarchy.nlevels):
        data.exchange_ghosts("flow", lev)
    by_shape = {dobj.array(p).shape: p for p in dobj.owned_patches()}
    assert len(by_shape) >= 2
    a, b = list(by_shape.values())[:2]
    port = fw.services_of("ExplicitIntegrator").get_port("rhs")
    return port, dobj, a, b


def _reference_rhs(fw, dobj, patch):
    chem = fw.services_of("DiffusionPhysics").get_port("chem")
    mech = chem.mechanism()
    dx, dy = dobj.hierarchy.dx(patch.level)
    return ref.evaluate(mech, MixtureTransport(mech), chem.pressure(),
                        patch.nghost, dobj.array(patch), float(dx), float(dy))


def test_rhs_port_result_equals_the_reference_and_survives_the_next_call():
    """Patch B is evaluated on the arena patch A's evaluation used."""
    fw = _flame()
    port, dobj, a, b = _rhs_inputs(fw)
    rhs_a = port.evaluate(0.0, a, dobj.array(a))
    kept = rhs_a.copy()
    rhs_b = port.evaluate(0.0, b, dobj.array(b))
    assert np.array_equal(rhs_a, kept)
    same(rhs_a, _reference_rhs(fw, dobj, a))
    same(rhs_b, _reference_rhs(fw, dobj, b))
    assert np.abs(rhs_a).max() > 0.0
    # into the caller's array: the same bits, and that very array
    out = np.full_like(rhs_a, np.nan)
    assert port.evaluate(0.0, a, dobj.array(a), out=out) is out
    assert np.array_equal(out, kept)


def test_two_frameworks_do_not_share_scratch():
    fw1, fw2 = _flame(), _flame()
    port1, dobj1, a1, _ = _rhs_inputs(fw1)
    port2, dobj2, _, b2 = _rhs_inputs(fw2)
    rhs1 = port1.evaluate(0.0, a1, dobj1.array(a1))
    arena1 = fw1.get_component("DiffusionPhysics")._arena
    before = arena1._buffer.copy()
    port2.evaluate(0.0, b2, dobj2.array(b2))
    assert np.array_equal(arena1._buffer, before, equal_nan=True)
    for name in ("DiffusionPhysics", "ExplicitIntegrator"):
        mine = fw1.get_component(name)._arena
        theirs = fw2.get_component(name)._arena
        assert mine.size > 0
        assert not np.shares_memory(mine._buffer, theirs._buffer)
        assert not np.shares_memory(mine._buffer, rhs1)


# ------------------------------------------------ (d) allocation budget
RANK_PROBLEM = dict(nx=128, ny=64, max_levels=1, n_steps=4, dt=1e-7,
                    chemistry_on=False)
PACKED_STATE = 10 * 128 * 64 * 8       # bytes of one packed state vector


def _per_advance(monkeypatch, begin, end):
    """Run the benchmark's per-rank problem with every
    ``ExplicitIntegrator.advance`` bracketed by ``end(begin())``; returns
    what ``end`` returned, one number per advance."""
    advance = ExplicitIntegrator.advance
    rises = []

    def bracketed(self, *args):
        mark = begin()
        try:
            return advance(self, *args)
        finally:
            rises.append(end(mark))

    monkeypatch.setattr(ExplicitIntegrator, "advance", bracketed)
    _flame(**RANK_PROBLEM)
    assert len(rises) == RANK_PROBLEM["n_steps"]
    return rises


def test_an_advance_after_the_first_allocates_under_two_packed_states(
        monkeypatch):
    """The parent's rise was 15.5 packed states on every advance; the
    arenas are sized by the first one."""
    def traced_now():
        tracemalloc.reset_peak()
        return tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        rises = _per_advance(
            monkeypatch, traced_now,
            lambda base: tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert rises[0] > 2 * PACKED_STATE          # the arenas
    assert max(rises[1:]) <= 2 * PACKED_STATE


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_minflt is counted per process on Linux")
def test_an_advance_after_the_first_takes_no_page_fault_storm(monkeypatch):
    """The peak cannot see thirty 0.6 MB temporaries allocated and freed
    one after another; the kernel's fault count can (parent: ~3 900 per
    advance, each temporary mapped and trimmed again)."""
    def faults(since=0):
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - since

    rises = _per_advance(monkeypatch, faults, faults)
    assert max(rises[1:]) <= 400


def test_one_arena_whatever_the_number_of_patch_shapes(monkeypatch):
    fw = Framework()
    build_reaction_diffusion(
        fw, nx=32, ny=32, max_levels=3, n_steps=4, dt=2e-7,
        regrid_interval=2, initial_regrids=1, threshold=0.15,
        chemistry_on=False)
    component = fw.get_component("DiffusionPhysics")
    evaluate, cores = component.evaluate, set()

    def recording(patch, ghosted, out=None):
        pad = patch.nghost - 1
        cores.add((ghosted.shape[1] - 2 * pad, ghosted.shape[2] - 2 * pad))
        return evaluate(patch, ghosted, out)

    monkeypatch.setattr(component, "evaluate", recording)
    fw.go("Driver")
    assert len(cores) > 3
    nvar = 10
    # 2 nvar + 1 rows of cells and 2 nvar rows of (fewer) faces
    assert 0 < component._arena.size <= (4 * nvar + 1) * max(
        nx * ny for nx, ny in cores)


# ------------------------------- (e) decomposition, backend and restart
FIELD_KW = dict(nx=32, ny=32, max_levels=1, n_steps=3, dt=1e-7,
                chemistry_on=False)


def _diffusion_field(comm=None):
    """This rank's share of the diffusion-only flame after three steps,
    as ``(box, interior)`` chunks."""
    fw = Framework(comm=comm)
    build_reaction_diffusion(fw, **FIELD_KW)
    fw.go("Driver")
    dobj = fw.get_component("AMR_Mesh").data("flow")
    return [(p.box, dobj.interior(p).copy()) for p in dobj.owned_patches()]


def _dense(per_rank):
    field = np.full((10, 32, 32), np.nan)
    for chunks in per_rank:
        for box, interior in chunks:
            field[(slice(None),) + box.slices(origin=(0, 0))] = interior
    return field


@pytest.mark.parametrize("nprocs, backend", [(2, "threads"), (4, "threads"),
                                             (2, "mp"), (4, "mp")])
def test_diffusion_field_does_not_depend_on_the_decomposition(nprocs,
                                                              backend):
    """Patches of other shapes, other ranks' scratch, one range or two
    in a patch: every cell's state is the same bits."""
    serial = _dense([_diffusion_field()])
    assert np.isfinite(serial).all() and serial[0].max() > 1000.0
    parallel = _dense(mpirun(nprocs, _diffusion_field, machine=ZERO_COST,
                             backend=backend))
    assert np.array_equal(serial, parallel)


def test_scratch_is_not_state_restart_mid_run_is_bit_identical(tmp_path):
    """A restored run starts on empty arenas and lands on the same bits."""
    kw = dict(chemistry_on=False, n_steps=4)
    straight = _flame_framework(**kw)
    result = straight.go("Driver")
    arrays, _ = _flame_state(straight)

    ck = str(tmp_path / "ck")
    _flame_framework(ck=ck, **{**kw, "n_steps": 2}).go("Driver")
    resumed = _flame_framework(ck=ck, resume=True, **kw)
    assert resumed.get_component("ExplicitIntegrator")._arena.size == 0
    assert resumed.go("Driver")["T_max"] == result["T_max"]
    restored, _ = _flame_state(resumed)
    assert set(restored) == set(arrays)
    for pid in arrays:
        assert np.array_equal(restored[pid], arrays[pid])
