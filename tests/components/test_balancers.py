"""Tests for the pluggable load-balancer components (future-work item 1)."""

import pytest

from repro.cca import BuilderService, Framework, instrument
from repro.components import GrACEComponent, GreedyBalancer, SFCBalancer
from repro.samr import Box
from repro.samr.loadbalance import balance_sfc


def grace_with(balancer_cls):
    fw = Framework()
    b = BuilderService(fw)
    b.create(GrACEComponent, "mesh")
    b.parameter("mesh", "nx", 16).parameter("mesh", "ny", 16)
    if balancer_cls is not None:
        b.create(balancer_cls, "lb")
        b.connect("mesh", "balancer", "lb", "balancer")
    return fw


@pytest.mark.parametrize("cls,name", [(GreedyBalancer, "greedy-lpt"),
                                      (SFCBalancer, "morton-sfc")])
def test_balancer_components_assign_valid_owners(cls, name):
    fw = Framework()
    BuilderService(fw).create(cls, "lb")
    port = fw.services_of("lb").provides["balancer"][0]
    boxes = [Box((i * 4, 0), (i * 4 + 3, 3)) for i in range(6)]
    owners = port.assign(boxes, 3)
    assert len(owners) == 6
    assert set(owners) <= {0, 1, 2}
    assert port.name() == name
    assert port.ncalls == 1


def test_grace_uses_connected_balancer():
    fw = grace_with(SFCBalancer)
    mesh = fw.services_of("mesh").provides["mesh"][0]
    mesh.build_base_level()
    lb_port = fw.services_of("lb").provides["balancer"][0]
    assert lb_port.ncalls >= 1  # GrACE routed decomposition through it


def test_grace_falls_back_to_parameter_without_connection():
    fw = grace_with(None)
    fw.set_parameter("mesh", "balancer", "sfc")
    mesh = fw.services_of("mesh").provides["mesh"][0]
    mesh.build_base_level()  # must not raise despite unconnected port
    assert mesh.hierarchy().levels[0].patches


def test_balancer_connected_after_build_is_used_at_the_next_regrid():
    """GrACE asks for its balancer at every (re)grid, not once at build:
    one connected afterwards assigns the next level's owners, and a
    profiler registered afterwards counts those calls."""
    fw = grace_with(None)
    fw.set_parameter("mesh", "max_levels", 2)
    mesh = fw.services_of("mesh").provides["mesh"][0]
    mesh.build_base_level()  # the parameter's built-in greedy
    BuilderService(fw).create(SFCBalancer, "lb")
    fw.connect("mesh", "balancer", "lb", "balancer")
    profiler = instrument(fw)
    h = mesh.hierarchy()
    level = h.set_level_boxes(1, [Box((4, 4), (11, 11)),
                                  Box((16, 16), (27, 23))])
    lb_port = fw.services_of("lb").provides["balancer"][0]
    assert lb_port.ncalls == 1
    assert profiler.stats["lb:balancer.assign"].calls == 1
    boxes = [p.box for p in level.patches]
    assert [p.owner for p in level.patches] == balance_sfc(boxes, h.nranks)


def test_balancers_swap_like_flux_components():
    """Same assembly, one connect line changed — both build valid meshes
    (the future-work 'test a number of load balancers' scenario)."""
    metas = []
    for cls in (GreedyBalancer, SFCBalancer):
        fw = grace_with(cls)
        mesh = fw.services_of("mesh").provides["mesh"][0]
        mesh.build_base_level()
        lvl = mesh.hierarchy().levels[0]
        metas.append(sorted((p.box.lo, p.box.hi) for p in lvl.patches))
    # identical geometric decomposition; ownership policy may differ
    assert metas[0] == metas[1]
