"""Bound ports under arming changes: mid-run, and from racing rank threads.

A component reads ``services.ports.<name>``; an instrument armed or
disarmed at any moment unbinds every live ``Services``, so the next read
binds what the new state calls for.
"""

import sys
import threading
import time
from collections import deque

from repro.apps.reaction_diffusion import build_reaction_diffusion
from repro.cca import Framework
from repro.cca import services as services_module
from repro.cca.portproxy import PortProxy
from repro.mpi import mpirun
from repro.obs import trace
from repro.resilience.hooks import CheckpointHook
from tests.cca.test_portproxy import _all_disarmed  # noqa: F401
from tests.cca.test_portproxy import assembled


def _flame():
    fw = Framework()
    build_reaction_diffusion(fw, nx=16, ny=16, max_levels=1, n_steps=3,
                             dt=2e-7)
    return fw


def test_arming_between_driver_steps_traces_the_later_calls(monkeypatch):
    unarmed = _flame().go("Driver")

    after_step = CheckpointHook.after_step

    def arm_after_step_1(self, step, t, extras=None):
        done = after_step(self, step, t, extras)
        if step == 1:
            trace.start()
        return done

    monkeypatch.setattr(CheckpointHook, "after_step", arm_after_step_1)
    armed = _flame().go("Driver")

    assert armed["T_max"] == unarmed["T_max"]
    assert armed["history_T_max"] == unarmed["history_T_max"]
    steps = [e.args["step"] for e in trace.events()
             if e.name == "driver.step"]
    assert steps == [2, 3]
    ports = {e.name for e in trace.events() if e.cat == "port"}
    # the driver's own calls, and the calls its providers make in turn
    assert {"ExplicitIntegrator:integrator.advance",
            "ImplicitIntegrator:integrator.advance",
            "CvodeSolver:solver.integrate",
            "DiffusionPhysics:rhs.evaluate",
            "Statistics:stats.record"} <= ports


def test_rank_threads_bind_while_tracing_toggles(monkeypatch):
    # widen the window between deciding a binding and storing it, so the
    # arming changes below land inside binds in flight
    decide = services_module.intercept

    def slow_intercept(*args):
        port = decide(*args)
        time.sleep(5e-5)
        return port

    monkeypatch.setattr(services_module, "intercept", slow_intercept)
    done = threading.Event()
    built = [0] * 4                                # frameworks per rank
    recent = [deque(maxlen=64) for _ in range(4)]  # their Services

    def rank_main(comm):
        while not done.is_set():
            srv = assembled().services_of("r")
            assert srv.ports.words.greet() == "hello"
            recent[comm.rank].append(srv)
            built[comm.rank] += 1

    def wait_for_ranks(n_more):
        target = min(built) + n_more
        deadline = time.monotonic() + 60.0
        while min(built) < target and runner.is_alive() \
                and time.monotonic() < deadline:
            time.sleep(0.001)

    def stale_bindings():
        """Bindings that disagree with the current arming state."""
        return [port for ranks in recent for srv in list(ranks)
                for port in list(vars(srv.ports).values())
                if isinstance(port, PortProxy) != trace.on]

    errors = []

    def launch():
        try:
            mpirun(4, rank_main, backend="threads")
        except Exception as exc:  # surfaced below
            errors.append(exc)

    runner = threading.Thread(target=launch)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads finely
    stale = []
    try:
        runner.start()
        for _ in range(40):
            if trace.on:
                trace.stop()
            else:
                trace.start(clear=False)
            wait_for_ranks(16)  # every bind that straddled it finished
            stale += stale_bindings()
        trace.start(clear=False)  # the final state: armed
        wait_for_ranks(16)
    finally:
        done.set()
        runner.join(timeout=120)
        sys.setswitchinterval(switch)
    assert not runner.is_alive()
    assert errors == []
    assert min(built) > 40 * 16
    assert stale == []
    assert stale_bindings() == []
    for ranks in recent:
        for srv in ranks:
            assert isinstance(srv.ports.words, PortProxy)
