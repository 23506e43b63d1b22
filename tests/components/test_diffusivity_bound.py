"""The stability bound's diffusivity comes from the operator's own
property pass.

``DiffusionPhysics`` keeps each patch's interior and largest diffusivity
from its last evaluation and answers ``DiffusivityPort.max_diffusivity``
from it; any other interior gets a property pass of its own.  Either way
the number is the one the bound's own property pass used to give,
``reference_diffusion.max_diffusion_coefficient`` on the interior with Y
clipped at zero, to the bit.
"""

import itertools

import numpy as np

from repro.apps.reaction_diffusion import build_reaction_diffusion
from repro.cca import BuilderService, Framework
from repro.components import DiffusionPhysics, DRFMComponent, ThermoChemistry
from repro.integrators.spectral import gershgorin_diffusion
from repro.mpi import ZERO_COST, mpirun
from repro.samr.box import Box
from repro.samr.patch import Patch
from repro.transport import MixtureTransport

from tests.components import reference_diffusion as ref

_ids = itertools.count(1_000_000)


def new_patch() -> Patch:
    """A patch of its own, so the port has never evaluated it."""
    return Patch(next(_ids), Box((0, 0), (0, 0)), 0)


def _slowed(mech, d_scale: float) -> MixtureTransport:
    """Transport on ``mech`` with every D reference times ``d_scale``."""
    transport = MixtureTransport(mech)
    transport._d_ref = transport._d_ref * d_scale
    return transport


_ports: dict = {}


def diffusivity_port(mech, d_scale: float = 1.0):
    """``(diffusivity port, transport)`` of a DiffusionPhysics on
    ``mech`` whose transport has its D references times ``d_scale``."""
    key = (id(mech), d_scale)
    if key not in _ports:
        f = Framework()
        (BuilderService(f)
         .create(ThermoChemistry, "tc")
         .create(DRFMComponent, "drfm")
         .create(DiffusionPhysics, "diff")
         .connect("drfm", "chem", "tc", "chemistry")
         .connect("diff", "transport", "drfm", "transport")
         .connect("diff", "chem", "tc", "chemistry"))
        f.get_component("tc")._mech = mech
        transport = f.get_component("drfm")._transport = _slowed(mech,
                                                                  d_scale)
        _ports[key] = (mech, f.services_of("diff").provides[
            "diffusivity"][0], transport)
    return _ports[key][1:]


# ------------------------------------------------------------- the flame
FLAME = dict(nx=16, ny=16, max_levels=2, n_steps=1, dt=1e-7,
             initial_regrids=1, chemistry_on=False)


def _flame(d_scale: float = 1.0, comm=None, **kwargs) -> Framework:
    fw = Framework(comm=comm)
    build_reaction_diffusion(fw, **{**FLAME, **kwargs})
    if d_scale != 1.0:
        fw.get_component("DRFM")._transport = _slowed(
            fw.get_component("ReactionTerms").mech, d_scale)
    fw.go("Driver")
    return fw


class _Flame:
    """The ports and field of a flame that has taken its step."""

    def __init__(self, fw: Framework) -> None:
        self.fw = fw
        self.dobj = fw.get_component("AMR_Mesh").data("flow")
        self.patches = list(self.dobj.owned_patches())
        self.component = fw.get_component("DiffusionPhysics")
        self.port = fw.services_of("MaxDiffCoeff").get_port("diffusivity")
        self.transport = fw.get_component("DRFM").transport
        self.pressure = fw.get_component("ReactionTerms").pressure

    def evaluate_all(self) -> None:
        """What a step's first stage does: fill the ghosts, evaluate."""
        data = self.fw.services_of("Driver").get_port("data")
        for lev in range(self.dobj.hierarchy.nlevels):
            data.exchange_ghosts("flow", lev)
        rhs = self.fw.services_of("ExplicitIntegrator").get_port("rhs")
        for patch in self.patches:
            rhs.evaluate(0.0, patch, self.dobj.array(patch))

    def reference(self, patch, fn=ref.max_diffusion_coefficient) -> float:
        """The reference bound diffusivity of the patch's interior."""
        interior = self.dobj.interior(patch)
        return fn(self.transport, interior[0], self.pressure,
                  np.clip(interior[1:], 0.0, None))

    def count_passes(self, monkeypatch) -> list:
        passes, properties = [], self.component._properties

        def counted(*args):
            passes.append(args[0].shape)
            return properties(*args)

        monkeypatch.setattr(self.component, "_properties", counted)
        return passes


def test_after_stage_one_the_bound_reads_the_evaluation(monkeypatch):
    flame = _Flame(_flame())
    assert len(flame.patches) > 1
    flame.evaluate_all()
    passes = flame.count_passes(monkeypatch)
    for patch in flame.patches:
        assert flame.port.max_diffusivity(
            patch, flame.dobj.interior(patch)) == flame.reference(patch)
    assert passes == []


def test_a_state_not_evaluated_gets_a_pass_of_its_own(monkeypatch):
    """After a step the patches hold ``y_n+1`` and the last evaluation
    was the last stage's: the dynamic time step (``dt`` = 0) misses."""
    flame = _Flame(_flame())
    passes = flame.count_passes(monkeypatch)
    integrator = flame.fw.services_of("Driver").get_port("explicit")
    dt = integrator.stable_dt([flame.dobj], 1e-7)
    h = flame.dobj.hierarchy
    d_max = max(flame.reference(patch) for patch in flame.patches)
    assert dt == 0.653 * 20**2 / gershgorin_diffusion(d_max,
                                                      h.dx(h.nlevels - 1))
    assert len(passes) == len(flame.patches)
    # a miss keeps nothing: the same state misses again
    for patch in flame.patches:
        assert flame.port.max_diffusivity(
            patch, flame.dobj.interior(patch)) == flame.reference(patch)
    assert len(passes) == 2 * len(flame.patches)


def test_a_state_that_straddles_the_nasa_range_switch(monkeypatch):
    """Every patch's T runs from 300 to 2 500 K across the 1 000 K
    switch of every species, Y somewhere in [-0.1, 1]: hit and miss."""
    flame = _Flame(_flame())
    rng = np.random.default_rng(7)
    for patch in flame.patches:
        interior = flame.dobj.interior(patch)
        interior[0] = rng.uniform(300.0, 2500.0, interior[0].shape)
        interior[0].flat[::3] = 1000.0
        interior[1:] = rng.uniform(-0.1, 1.0, interior[1:].shape)
    flame.evaluate_all()
    passes = flame.count_passes(monkeypatch)
    hits = [flame.port.max_diffusivity(p, flame.dobj.interior(p))
            for p in flame.patches]
    assert passes == []
    for patch, hit in zip(flame.patches, hits):
        assert hit == flame.reference(patch)
        interior = flame.dobj.interior(patch)
        interior[0, 0, 0] += 1.0
        assert flame.port.max_diffusivity(patch, interior) == \
            flame.reference(patch)
    assert len(passes) == len(flame.patches)


def test_where_the_thermal_diffusivity_binds(monkeypatch):
    flame = _Flame(_flame(d_scale=1e-3))
    flame.evaluate_all()
    passes = flame.count_passes(monkeypatch)
    for patch in flame.patches:
        interior = flame.dobj.interior(patch)
        alpha = flame.reference(patch, ref.thermal_diffusivity).max()
        D = ref.diffusion_coefficients(flame.transport, interior[0],
                                       flame.pressure)
        assert alpha > D.max()
        assert flame.port.max_diffusivity(patch, interior) == alpha \
            == flame.reference(patch)
    assert passes == []


def _rank_bound(comm=None):
    """This rank's largest diffusivity, its reference and the bound."""
    flame = _Flame(_flame(comm=comm, nx=32, ny=32, max_levels=1,
                          initial_regrids=0))
    flame.evaluate_all()
    local = max(flame.port.max_diffusivity(p, flame.dobj.interior(p))
                for p in flame.patches)
    want = max(flame.reference(p) for p in flame.patches)
    bound = flame.fw.services_of("ExplicitIntegrator").get_port(
        "bound").spectral_bound(0.0)
    h = flame.dobj.hierarchy
    return local, want, bound, h.dx(h.nlevels - 1)


def test_two_ranks_whose_maxima_differ_reduce_to_the_serial_bound():
    serial = _rank_bound()
    ranks = mpirun(2, _rank_bound, machine=ZERO_COST, backend="mp")
    locals_ = [local for local, *_ in ranks]
    assert locals_[0] != locals_[1]
    assert max(locals_) == serial[0]
    for local, want, bound, dx in ranks:
        assert local == want
        assert bound == gershgorin_diffusion(max(locals_), dx) == serial[2]

