"""Ghosts are filled by their reader.

An RKC step exchanges ghosts before each stage's RHS evaluation and
leaves them as they are at the end of the step: every later reader
(the next step's first stage, the regrid's flagging) exchanges first,
and everything else (chemistry, frames, the bound, ``max_norm``) reads
interiors only.  Here every ghost cell is NaN after each explicit
advance, and a chemistry-on, two-level flame that regrids every two
steps must not notice: every frame and every final interior ``==`` the
unpoisoned run's, serially and on two ``mp`` ranks.
"""

import numpy as np

from repro.apps.reaction_diffusion import build_reaction_diffusion
from repro.cca.component import Component
from repro.cca.framework import Framework
from repro.cca.ports.integrator import IntegratorPort
from repro.mpi import ZERO_COST, mpirun

FLAME = dict(nx=24, ny=24, max_levels=2, n_steps=6, dt=1e-6,
             regrid_interval=2, initial_regrids=1, threshold=0.5,
             chemistry_on=True)


class _Poisoning(IntegratorPort):
    def __init__(self, owner: "PoisonGhosts") -> None:
        self.owner = owner

    def advance(self, dataobjs, t, dt):
        t_end = self.owner.services.ports.inner.advance(dataobjs, t, dt)
        for dobj in dataobjs:
            for patch in dobj.owned_patches():
                interior = dobj.interior(patch).copy()
                dobj.array(patch)[...] = np.nan
                dobj.interior(patch)[...] = interior
        self.owner.poisoned += 1
        return t_end

    def stable_dt(self, dataobjs, t):
        return self.owner.services.ports.inner.stable_dt(dataobjs, t)


class PoisonGhosts(Component):
    """Forwards to the ``inner`` integrator, then sets every ghost cell
    of the advanced DataObjects to NaN."""

    PARAMS = ()

    def set_services(self, services) -> None:
        self.services = services
        self.poisoned = 0
        services.register_uses_port("inner", "IntegratorPort")
        services.add_provides_port(_Poisoning(self), "integrator")


def _run(comm=None, poison=False):
    """Every frame series and the owned interiors after the run."""
    fw = Framework(comm=comm)
    build_reaction_diffusion(fw, **FLAME)
    if poison:
        fw.registry.register_many([PoisonGhosts])
        fw.instantiate("PoisonGhosts", "Poison")
        fw.connect("Poison", "inner", "ExplicitIntegrator", "integrator")
        fw.disconnect("Driver", "explicit")
        fw.connect("Driver", "explicit", "Poison", "integrator")
    result = fw.go("Driver")
    if poison:
        assert fw.get_component("Poison").poisoned == FLAME["n_steps"]
    stats = fw.get_component("Statistics").stats
    dobj = fw.get_component("AMR_Mesh").data("flow")
    h = dobj.hierarchy
    assert h.nlevels == 2 and len(h.levels[1].patches) > 1
    interiors = {(p.level, p.box): dobj.interior(p).copy()
                 for p in dobj.owned_patches()}
    assert all(np.isfinite(a).all() for a in interiors.values())
    return (result, {key: stats.series(key) for key in stats.summary()},
            interiors)


def _assert_same(clean, poisoned):
    result, frames, interiors = clean
    assert poisoned[0] == result
    assert poisoned[1] == frames
    assert poisoned[2].keys() == interiors.keys()
    for key, interior in interiors.items():
        assert np.array_equal(poisoned[2][key], interior), key


def test_nan_ghosts_after_every_advance_change_nothing_serially():
    _assert_same(_run(), _run(poison=True))


def test_nan_ghosts_after_every_advance_change_nothing_on_two_mp_ranks():
    def both(comm):
        return _run(comm), _run(comm, poison=True)

    for clean, poisoned in mpirun(2, both, machine=ZERO_COST, backend="mp"):
        _assert_same(clean, poisoned)
