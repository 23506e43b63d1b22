"""Cross-layer hook coverage: one traced app run emits spans from the
port, SAMR, and integrator layers, and the profiling API stays intact on
top of the metrics registry."""

import repro.obs as obs
from repro.apps.reaction_diffusion import run_reaction_diffusion
from repro.cca import Framework
from repro.cca.portproxy import PortProxy
from repro.cca.profiling import Profiler, instrument
from repro.mpi import sanitizer
from repro.obs import get_registry, trace
from repro.samr.box import Box
from repro.samr.loadbalance import balance_greedy, balance_sfc
from tests.obs.test_scmd_trace import Driver, Worker

#: One small traced flame run, shared across tests (events and the
#: metrics snapshot are captured eagerly — the per-test autouse reset in
#: conftest wipes the live tracer/registry between tests).
_cache: dict = {}


def traced_run():
    if not _cache:
        with obs.tracing():
            result = run_reaction_diffusion(
                nx=16, ny=16, max_levels=2, n_steps=2, dt=1e-7,
                initial_regrids=1)
        _cache["result"] = result
        _cache["events"] = trace.events()
        _cache["metrics"] = get_registry().snapshot()
    return _cache


def _metric(snapshot, name, **labels):
    want = {k: str(v) for k, v in labels.items()}
    for m in snapshot:
        if m["name"] == name and m["labels"] == want:
            return m
    return None


def test_spans_from_three_layers():
    cats = {e.cat for e in traced_run()["events"]}
    assert {"port", "samr", "integrator"} <= cats


def test_port_spans_name_provider_and_method():
    port_names = {e.name for e in traced_run()["events"]
                  if e.cat == "port"}
    assert any(name.startswith("AMR_Mesh:") for name in port_names)
    assert all(":" in name and "." in name for name in port_names)


def test_samr_spans_and_metrics():
    run = traced_run()
    samr = {e.name for e in run["events"] if e.cat == "samr"}
    assert "samr.ghost_exchange" in samr
    assert "samr.regrid" in samr
    assert _metric(run["metrics"], "samr.regrids")["value"] >= 1
    assert any(m["name"] == "samr.ghost_exchanges"
               for m in run["metrics"])


def test_integrator_spans_and_metrics():
    run = traced_run()
    names = {e.name for e in run["events"] if e.cat == "integrator"}
    assert "rkc.advance" in names
    steps = _metric(run["metrics"], "integrator.steps", kind="rkc")
    assert steps is not None and steps["value"] >= 1


def test_session_wall_clock_gauge_set():
    wall = _metric(traced_run()["metrics"], "obs.session_wall_seconds")
    assert wall is not None and wall["value"] > 0.0


def test_tracing_off_leaves_no_events():
    traced_run()  # whatever ran before, tracing is off again now
    assert not trace.on
    result = run_reaction_diffusion(nx=16, ny=16, max_levels=1,
                                    n_steps=1, dt=1e-7)
    assert result["n_steps"] == 1
    assert trace.events() == []


def _echo_assembly():
    fw = Framework()
    fw.registry.register_many([Worker, Driver])
    fw.instantiate("Worker", "w")
    fw.instantiate("Driver", "d")
    fw.connect("d", "work", "w", "work")
    return fw


def test_get_port_returns_raw_port_when_disabled():
    fw = _echo_assembly()
    port = fw.services_of("d").get_port("work")
    # REPRO_TSAN=1 keeps a proxy for the sanitizer's own hook
    assert isinstance(port, PortProxy) == sanitizer.on
    trace.start()
    try:
        traced = fw.services_of("d").get_port("work")
        assert isinstance(traced, PortProxy)
        assert traced.crunch(10) == port.crunch(10)
    finally:
        trace.stop()
    assert any(e.cat == "port" and e.name == "w:work.crunch"
               for e in trace.events())


def test_profiler_instrument_report_derive_from_registry():
    fw = _echo_assembly()
    prof = instrument(fw)
    assert isinstance(prof, Profiler)
    fw.go("d")
    stats = prof.stats
    crunch = stats["w:work.crunch"]
    assert crunch.calls == 2
    assert crunch.cpu_seconds >= 0.0
    # the numbers are *derived* from the profiler's metrics registry
    calls_metric = prof.registry.get("cca.port.calls",
                                     method="w:work.crunch")
    assert calls_metric.value == crunch.calls
    report = prof.report()
    assert "w:work.crunch" in report
    calls, cpu = prof.by_component()["w:work"]
    assert calls == 2
    assert cpu >= 0.0


def test_load_balance_instants_and_gauge():
    boxes = [Box((0, 0), (7, 7)), Box((8, 0), (15, 7)),
             Box((0, 8), (7, 15)), Box((8, 8), (15, 15))]
    trace.start()
    try:
        balance_greedy(boxes, 2)
        balance_sfc(boxes, 2)
    finally:
        trace.stop()
    instants = [e for e in trace.events()
                if e.name == "samr.load_balance"]
    assert {e.args["strategy"] for e in instants} == {"greedy", "sfc"}
    assert all(e.args["imbalance"] >= 1.0 for e in instants)
    g = get_registry().get("samr.load_imbalance", strategy="greedy")
    assert g is not None and g.value >= 1.0
