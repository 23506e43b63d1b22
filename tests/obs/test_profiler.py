"""Sampling profiler: lifecycle, span attribution, folded output."""

import os
import subprocess
import sys
import threading
import time

import pytest

import repro
import repro.obs as obs
from repro.obs import profiler, trace
from repro.obs.profiler import Sample, SamplingProfiler

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _child_env(**extra):
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


@pytest.fixture(autouse=True)
def _clean_profiler_state():
    profiler.stop()
    yield
    profiler.stop()


# ------------------------------------------------------------ construction
def test_invalid_interval_rejected():
    with pytest.raises(ValueError):
        SamplingProfiler(interval=0.0)
    with pytest.raises(ValueError):
        SamplingProfiler(interval=-1.0)


def test_invalid_capacity_rejected():
    with pytest.raises(ValueError):
        SamplingProfiler(capacity=0)


def test_off_by_default():
    assert profiler.on is False
    assert profiler.get() is None or not profiler.get().running


# ----------------------------------------------------------- live sampling
def test_sampler_thread_collects_python_frames():
    stop = threading.Event()

    def busy():
        while not stop.is_set():
            sum(range(200))

    worker = threading.Thread(target=busy, name="busy-worker")
    worker.start()
    try:
        with profiler.profiling(interval=0.002) as prof:
            time.sleep(0.15)
    finally:
        stop.set()
        worker.join()
    assert prof.ticks > 0
    assert prof.samples_taken > 0
    samples = prof.samples()
    assert samples and all(isinstance(s, Sample) for s in samples)
    # the busy worker shows up with a real frame stack, root first
    busy_samples = [s for s in samples if s.thread == "busy-worker"]
    assert busy_samples
    assert any("busy" in f for s in busy_samples for f in s.frames)


def test_sampler_never_names_a_thread_after_a_dead_one():
    """Thread idents are recycled.  Fifty traced rank-threads come and go,
    then a thread that never opens a span takes one of their idents: its
    samples carry its own name and no rank, not the dead thread's."""
    from repro.util.logging import rank_context

    def traced_rank(rank):
        with rank_context(rank), trace.span("step", cat="driver"):
            pass

    with obs.tracing():
        for rank in range(50):
            dead = threading.Thread(target=traced_rank, args=(rank,),
                                    name=f"dead-rank-{rank}")
            dead.start()
            dead.join()
        stop = threading.Event()
        worker = threading.Thread(target=stop.wait, name="busy-worker")
        worker.start()
        try:
            prof = SamplingProfiler(interval=0.002)
            prof._sample_once()
        finally:
            stop.set()
            worker.join()
    by_thread = {s.thread: s.rank for s in prof.samples()}
    assert not [name for name in by_thread if name.startswith("dead-rank")]
    assert by_thread["busy-worker"] is None
    assert not [st for _ident, name, *st in trace.active_stacks()
                if name.startswith("dead-rank")]


def test_sampler_attributes_open_spans_and_rank():
    trace.start()
    stop = threading.Event()
    from repro.util.logging import rank_context

    def worker_main():
        with rank_context(3):
            with trace.span("Integrator:step.advance", cat="port"):
                stop.wait(0.2)

    worker = threading.Thread(target=worker_main, name="rank-3")
    worker.start()
    try:
        with profiler.profiling(interval=0.002) as prof:
            time.sleep(0.1)
    finally:
        stop.set()
        worker.join()
        trace.stop()
    tagged = [s for s in prof.samples() if s.spans]
    assert tagged
    assert tagged[0].rank == 3
    assert tagged[0].spans[-1] == ("Integrator:step.advance", "port")


def test_stop_is_idempotent_and_preserves_samples():
    prof = profiler.start(interval=0.002)
    time.sleep(0.05)
    profiler.stop()
    n = len(prof.samples())
    assert n >= 0 and not prof.running
    profiler.stop()  # second stop: no error
    assert len(prof.samples()) == n
    assert profiler.on is False


def test_ring_buffer_is_bounded():
    prof = SamplingProfiler(interval=0.001, capacity=5)
    for i in range(20):
        prof._ring.append(Sample(float(i), "t", None, (), ("f",)))
    assert len(prof.samples()) == 5
    assert prof.samples()[0].ts == 15.0


# ------------------------------------------------------------- folded text
def _mk(spans, frames, rank=None):
    return Sample(0.0, "t", rank, spans, frames)


def test_folded_kinds_and_rank_prefix():
    samples = [
        _mk((("Driver.go", "driver"), ("Chem:rhs.eval", "port")),
            ("mod.f", "mod.g"), rank=1),
        _mk((), ("mod.idle",)),
    ]
    prof = SamplingProfiler()
    spans = prof.folded("spans", samples=samples)
    assert "rank_1;Driver.go;Chem:rhs.eval 1" in spans
    assert "(no span) 1" in spans
    frames = prof.folded("frames", samples=samples)
    assert "rank_1;mod.f;mod.g 1" in frames
    mixed = prof.folded("mixed", samples=samples)
    assert "rank_1;Driver.go;Chem:rhs.eval;mod.f;mod.g 1" in mixed
    with pytest.raises(ValueError):
        prof.folded("bogus")


def test_folded_aggregates_identical_stacks():
    samples = [_mk((), ("a.f", "a.g"))] * 3
    prof = SamplingProfiler()
    assert prof.folded("frames", samples=samples) == "a.f;a.g 3"


def test_export_folded_writes_file(tmp_path):
    prof = SamplingProfiler()
    prof._ring.append(_mk((), ("a.f",)))
    path = prof.export_folded(str(tmp_path / "sub" / "flame.folded"),
                              kind="frames")
    assert open(path).read() == "a.f 1\n"


# -------------------------------------------------------- component table
def test_component_table_self_and_cumulative():
    prof = SamplingProfiler(interval=0.01)
    # 2 samples inside Chem's port method under the driver, 1 driver-only,
    # 1 with no span at all
    for _ in range(2):
        prof._ring.append(_mk(
            (("driver.step", "driver"), ("Chem:rhs.eval", "port")), ("f",)))
    prof._ring.append(_mk((("driver.step", "driver"),), ("f",)))
    prof._ring.append(_mk((), ("f",)))
    table = prof.component_table()
    assert table["Chem"]["self_seconds"] == pytest.approx(0.02)
    assert table["Chem"]["cum_seconds"] == pytest.approx(0.02)
    assert table["driver.step"]["self_seconds"] == pytest.approx(0.01)
    assert table["driver.step"]["cum_seconds"] == pytest.approx(0.03)
    assert table["(no span)"]["self_seconds"] == pytest.approx(0.01)
    report = prof.report()
    assert "Chem" in report and "driver.step" in report


def test_port_span_attribution_strips_method():
    # Provider:port.method -> the providing component instance
    prof = SamplingProfiler(interval=0.01)
    prof._ring.append(_mk((("Diffusion:flux.compute", "port"),), ()))
    prof._ring.append(_mk((("samr.regrid", "samr"),), ()))
    table = prof.component_table()
    assert "Diffusion" in table
    assert "samr.regrid" in table


# ------------------------------------------------------------ env discipline
def test_repro_profile_env_zero_code_activation(tmp_path):
    """REPRO_PROFILE=1 arms the flight recorder at import and an atexit
    hook writes the folded stacks — same discipline as REPRO_TRACE."""
    out = tmp_path / "profile.folded"
    code = (
        "import time\n"
        "import repro.obs.profiler as profiler\n"
        "assert profiler.on\n"
        "t0 = time.perf_counter()\n"
        "while time.perf_counter() - t0 < 0.1:\n"
        "    sum(range(500))\n"
    )
    env = _child_env(REPRO_PROFILE="1", REPRO_PROFILE_INTERVAL="0.002",
                     REPRO_PROFILE_PATH=str(out))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
    assert out.exists()


def test_repro_profile_env_off_values(tmp_path):
    out = tmp_path / "profile.folded"
    code = "import repro.obs.profiler as profiler\nassert not profiler.on\n"
    env = _child_env(REPRO_PROFILE="0", REPRO_PROFILE_PATH=str(out))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
    assert not out.exists()
