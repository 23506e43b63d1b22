"""Deterministic fault injection: flag, hooks, and hot-path neutrality."""

import numpy as np
import pytest

from repro.cca.component import Component
from repro.cca.framework import Framework
from repro.cca.port import Port
from repro.errors import InjectedFault, ResilienceError
from repro.mpi import mpirun
from repro.resilience import faults


def test_off_by_default():
    assert faults.on is False
    assert faults.plan() is None


def test_configure_and_deactivate_toggle_flag():
    faults.configure(faults.FaultPlan(kill_rank=0, kill_step=2))
    assert faults.on is True
    assert faults.plan().kill_step == 2
    faults.deactivate()
    assert faults.on is False
    assert faults.plan() is None


def test_injected_fault_is_a_resilience_error():
    assert issubclass(InjectedFault, ResilienceError)


def test_step_hook_kills_the_configured_rank_step_once():
    faults.configure(faults.FaultPlan(kill_rank=1, kill_step=3))
    faults.step_hook(1, 2)  # wrong step
    faults.step_hook(0, 3)  # wrong rank
    with pytest.raises(InjectedFault):
        faults.step_hook(1, 3)
    # kill_max_fires=1: a restarted timeline re-crossing step 3 survives
    faults.step_hook(1, 3)
    assert faults.injected_counts()["kills"] == 1


def test_send_fates_are_seeded_and_drop_bounded():
    faults.configure(faults.FaultPlan(drop_prob=0.5, drop_max=3, seed=42))
    fates1 = [faults.on_send(0, 1, 0) for _ in range(20)]
    faults.configure(faults.FaultPlan(drop_prob=0.5, drop_max=3, seed=42))
    fates2 = [faults.on_send(0, 1, 0) for _ in range(20)]
    assert fates1 == fates2  # same seed, same ordinals -> same fates
    assert 0 < fates1.count(faults.DROP) <= 3
    # a different seed picks a different (uncapped) drop pattern
    faults.configure(faults.FaultPlan(drop_prob=0.5, seed=42))
    a = [faults.on_send(0, 1, 0) is faults.DROP for _ in range(64)]
    faults.configure(faults.FaultPlan(drop_prob=0.5, seed=43))
    b = [faults.on_send(0, 1, 0) is faults.DROP for _ in range(64)]
    assert a != b


def test_comm_drops_the_doomed_send():
    faults.configure(faults.FaultPlan(drop_prob=1.0, drop_max=1, seed=1))

    def main(comm):
        if comm.rank == 0:
            comm.send("first", 1, tag=1)
            comm.send("second", 1, tag=2)
            return None
        return comm.recv(source=0)

    results = mpirun(2, main)
    assert results[1] == "second"
    assert faults.injected_counts()["drops"] == 1


def test_comm_delay_inflates_virtual_flight_time():
    faults.configure(faults.FaultPlan(delay_prob=1.0, delay_seconds=5.0))

    def main(comm):
        if comm.rank == 0:
            comm.send(np.arange(4.0), 1)
            return 0.0
        comm.recv(source=0)
        return comm.clock

    results = mpirun(2, main)
    assert results[1] >= 5.0
    assert faults.injected_counts()["delays"] == 1


class _EchoPort(Port):
    def echo(self, x):
        return x


class EchoProvider(Component):
    def set_services(self, services):
        self.services = services
        services.add_provides_port(_EchoPort(), "out")


class EchoUser(Component):
    def set_services(self, services):
        self.services = services
        services.register_uses_port("in", "_EchoPort")


def _echo_assembly():
    fw = Framework()
    fw.registry.register_many([EchoProvider, EchoUser])
    fw.instantiate("EchoProvider", "P")
    fw.instantiate("EchoUser", "U")
    fw.connect("U", "in", "P", "out")
    return fw


def test_port_call_injection_fires_on_the_nth_call():
    fw = _echo_assembly()
    faults.configure(faults.FaultPlan(inject_method="P:out.echo",
                                      inject_call=2))
    port = fw.services_of("U").get_port("in")
    assert port.echo(1) == 1
    with pytest.raises(InjectedFault):
        port.echo(2)
    assert port.echo(3) == 3  # inject_max_fires=1: later calls pass
    assert faults.injected_counts()["method_exceptions"] == 1


def _strip_proxy(port):
    # under REPRO_TSAN=1 / REPRO_TRACE=1 get_port hands out a PortProxy
    # even with faults off; these tests only assert the *fault* hook is
    # absent from its chain
    from repro.cca.portproxy import PortProxy

    if isinstance(port, PortProxy):
        *_, inject = object.__getattribute__(port, "_chain")
        assert not inject
        return object.__getattribute__(port, "_target")
    return port


def test_port_wrap_only_for_targeted_label():
    fw = _echo_assembly()
    faults.configure(faults.FaultPlan(inject_method="Other:out.echo"))
    port = _strip_proxy(fw.services_of("U").get_port("in"))
    assert isinstance(port, _EchoPort)  # untargeted port stays raw


def test_disabled_injection_returns_raw_port():
    fw = _echo_assembly()
    port = _strip_proxy(fw.services_of("U").get_port("in"))
    assert isinstance(port, _EchoPort)  # no proxy when faults.on is False
