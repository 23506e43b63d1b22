"""An RKC step costs its stencil evaluations and nothing else.

Per rank of a two-rank ``mp`` run of the chemistry-off flame, six steps
of two stages each (one patch per rank):

* ghost exchanges: one at set-up plus one per stage, ``1 + 2·6`` (an
  extra exchange at the end of each step would make it ``1 + 3·6``);
* property passes (each one conductivity call): one per stage
  evaluation, ``2·6``, and none for the stability bound;
* collectives: one bound reduction per step plus one reduction of all
  the frames' T ranges, ``6 + 1``.
"""

from repro.apps.reaction_diffusion import build_reaction_diffusion
from repro.cca.framework import Framework
import repro.obs as obs
from repro.obs.metrics import get_registry
from repro.mpi import ZERO_COST, mpirun

N_STEPS = 6
FLAME = dict(nx=32, ny=32, max_levels=1, n_steps=N_STEPS, dt=1e-7,
             chemistry_on=False)


def _counted(instance, name: str, counts: dict) -> None:
    """Count the calls of ``instance.name`` in ``counts[name]``."""
    method = getattr(instance, name)
    counts[name] = 0

    def counted(*args, **kwargs):
        counts[name] += 1
        return method(*args, **kwargs)

    setattr(instance, name, counted)


def _collectives(rank: int) -> float:
    return sum(m["value"] for m in get_registry().snapshot()
               if m["name"] == "mpi.collectives"
               and str(m["labels"].get("rank")) == str(rank))


def _rank_budget(comm) -> dict:
    fw = Framework(comm=comm)
    build_reaction_diffusion(fw, **FLAME)
    counts: dict = {}
    _counted(fw.get_component("AMR_Mesh"), "exchange", counts)
    _counted(fw.get_component("DRFM").transport, "conductivity", counts)
    before = _collectives(comm.global_rank)
    fw.go("Driver")
    counts["collectives"] = _collectives(comm.global_rank) - before
    counts["patches"] = len(list(
        fw.get_component("AMR_Mesh").data("flow").owned_patches()))
    counts["stages"] = fw.services_of("Driver").get_port(
        "explicit").last_stages
    return counts


def test_an_rkc_step_fills_ghosts_once_per_stage():
    with obs.tracing():
        budgets = mpirun(2, _rank_budget, machine=ZERO_COST, backend="mp")
    for counts in budgets:
        assert counts["patches"] == 1 and counts["stages"] == 2, counts
        assert counts["exchange"] == 1 + 2 * N_STEPS, counts
        assert counts["conductivity"] == 2 * N_STEPS, counts
        assert counts["collectives"] == N_STEPS + 1, counts
