"""The port-interception seam: what ``get_port`` hands out, when that is
rebuilt, and the order one :class:`PortProxy` runs its hooks in."""

import pytest

from repro.cca import Framework
from repro.cca.portproxy import PortProxy
from repro.cca.profiling import Profiler, instrument
from repro.errors import InjectedFault, PortNotConnectedError
from repro.mpi import sanitizer
from repro.obs import trace
from repro.resilience import faults
from tests.cca.test_framework import Greeter, Runner


@pytest.fixture(autouse=True)
def _all_disarmed():
    """Start from nothing armed (the suite also runs under REPRO_TSAN=1
    REPRO_TRACE=1) and put the process back as found."""
    was_tsan, was_trace = sanitizer.on, trace.on
    sanitizer.deactivate()
    trace.stop()
    faults.deactivate()
    yield
    faults.deactivate()
    sanitizer.deactivate()
    trace.stop()
    if was_tsan:
        sanitizer.configure()
    if was_trace:
        trace.start(clear=False)


def assembled():
    fw = Framework()
    fw.registry.register_many([Greeter, Runner])
    fw.instantiate("Greeter", "g")
    fw.instantiate("Runner", "r")
    fw.connect("r", "words", "g", "greeting")
    return fw


def _exported(fw, instance, port_name):
    return fw.services_of(instance).provides[port_name][0]


_FAULT_PLAN = faults.FaultPlan(inject_method="g:greeting.greet")

ARM_DISARM = {
    "trace": (trace.start, trace.stop),
    "sanitizer": (sanitizer.configure, sanitizer.deactivate),
    "faults": (lambda: faults.configure(_FAULT_PLAN), faults.deactivate),
}


# ------------------------------------------------------ (a) disarmed = raw
@pytest.mark.parametrize("instrument_name", sorted(ARM_DISARM))
def test_disarmed_get_port_is_the_exported_object(instrument_name):
    fw = assembled()
    srv = fw.services_of("r")
    raw = _exported(fw, "g", "greeting")
    assert srv.get_port("words") is raw
    arm, disarm = ARM_DISARM[instrument_name]
    arm()
    try:
        assert isinstance(srv.get_port("words"), PortProxy)
    finally:
        disarm()
    assert srv.get_port("words") is raw


def test_profiler_registration_is_an_arming_too():
    fw = assembled()
    srv = fw.services_of("r")
    raw = _exported(fw, "g", "greeting")
    assert srv.get_port("words") is raw
    instrument(fw)
    assert isinstance(srv.get_port("words"), PortProxy)
    fw.record_port_calls(None)
    assert srv.get_port("words") is raw


def test_resolution_is_cached_until_something_changes():
    fw = assembled()
    srv = fw.services_of("r")
    trace.start()
    proxy = srv.get_port("words")
    assert srv.get_port("words") is proxy
    trace.stop()
    trace.start()
    assert srv.get_port("words") is not proxy


# ------------------------------------------------- (b) one proxy, one chain
class _LoggingProfiler(Profiler):
    def __init__(self, log):
        super().__init__()
        self.log = log

    def begin(self, key):
        self.log.append(("begin", key, _span_open(key)))
        return super().begin(key)

    def end(self, key, token):
        self.log.append(("end", key, _span_open(key)))
        super().end(key, token)


def _span_open(name):
    return any((name, "port") in frames
               for _ident, _thread, _rank, frames in trace.active_stacks())


def test_all_armed_is_one_proxy_running_hooks_in_order(monkeypatch):
    log = []
    key = "g:greeting.greet"
    real_on_port_call = faults.on_port_call

    def record_write(tsan_key):
        log.append(("tsan", tsan_key, _span_open(key)))

    def on_port_call(fault_key):
        log.append(("fault", fault_key, _span_open(key)))
        real_on_port_call(fault_key)

    monkeypatch.setattr(sanitizer, "record_write", record_write)
    monkeypatch.setattr(faults, "on_port_call", on_port_call)

    fw = assembled()
    raw = _exported(fw, "g", "greeting")
    monkeypatch.setattr(
        raw, "greet", lambda: log.append(("target", key, _span_open(key))))
    prof = instrument(fw, _LoggingProfiler(log))
    faults.configure(faults.FaultPlan(inject_method=key, inject_call=2))
    sanitizer.configure()
    trace.start()

    port = fw.services_of("r").get_port("words")
    assert isinstance(port, PortProxy)
    # no proxy wrapping a proxy
    assert object.__getattribute__(port, "_target") is raw

    port.greet()
    tsan_key = f"port {key}() [instance id 0x{id(raw):x}]"
    assert log == [
        ("begin", key, False),      # recorder outermost ...
        ("tsan", tsan_key, True),   # ... then the span, around the rest
        ("fault", key, True),
        ("target", key, True),
        ("end", key, False),
    ]
    assert [e.name for e in trace.events() if e.cat == "port"] == [key]

    # the injected 2nd-call fault fires inside the span, after the
    # sanitizer has recorded the call, and the recorder still closes
    del log[:]
    with pytest.raises(InjectedFault, match=r"call #2"):
        port.greet()
    assert [entry[0] for entry in log] == ["begin", "tsan", "fault", "end"]
    assert [e.name for e in trace.events() if e.cat == "port"] == [key] * 2
    assert prof.stats[key].calls == 2


# ------------------------------------------- (c, d) wrapper cache, passthrough
def test_wrapped_method_is_built_once():
    fw = assembled()
    trace.start()
    port = fw.services_of("r").get_port("words")
    assert port.greet is port.greet
    assert port.greet() == "hello"
    # rebinding the method on the provider drops the stale wrapper
    port.greet = lambda: "rebound"
    assert port.greet() == "rebound"


def test_noncallable_attributes_pass_through():
    fw = assembled()
    trace.start()
    port = fw.services_of("r").get_port("words")
    raw = _exported(fw, "g", "greeting")
    assert port.word == "hello"
    port.word = "hi"
    assert raw.word == "hi"
    assert port.greet() == "hi"


# ------------------------------------------------ stale interception / rewiring
def test_reconnect_relabels_spans_by_the_new_provider():
    fw = assembled()
    fw.instantiate("Greeter", "g2")
    srv = fw.services_of("r")
    trace.start()
    srv.get_port("words").greet()
    fw.disconnect("r", "words")
    fw.connect("r", "words", "g2", "greeting")
    port = srv.get_port("words")
    assert object.__getattribute__(port, "_target") is \
        _exported(fw, "g2", "greeting")
    port.greet()
    assert [e.name for e in trace.events() if e.cat == "port"] == \
        ["g:greeting.greet", "g2:greeting.greet"]


def test_destroy_drops_the_cached_resolution():
    fw = assembled()
    srv = fw.services_of("r")
    trace.start()
    srv.get_port("words")
    srv.release_port("words")
    fw.destroy("g")
    assert "words" not in srv._resolved
    with pytest.raises(PortNotConnectedError):
        srv.get_port("words")


def test_go_port_is_profiled_through_the_same_class():
    fw = assembled()
    prof = instrument(fw)
    trace.start()
    assert fw.go("r") == "hello"
    assert prof.stats["r:go.go"].calls == 1
    names = [e.name for e in trace.events()]
    assert "cca.go:r" in names and "r:go.go" in names
