"""Cross-process tracing under the ``mp`` backend (ISSUE 10 tentpole a).

Mirror of ``test_scmd_trace.py`` with forked worker *processes* instead
of rank-threads: each worker drains its span buffers, metrics snapshot
and (when armed) profiler samples at teardown and ships them through
the result queue; the parent folds everything into one coherent
rank-attributed trace.  A traced ``backend="mp"`` run must therefore
produce the same single multi-rank artifact a ``threads`` run does.
"""

import time

import pytest

import repro.obs as obs
from repro.apps import run_reaction_diffusion
from repro.mpi import ZERO_COST, mpirun
from repro.obs import chrome_trace_events, get_registry, profiler, trace

NPROCS = 4

_memo: dict = {}


def _rd_main(comm):
    res = run_reaction_diffusion(comm=comm, nx=16, ny=16, max_levels=1,
                                 n_steps=2, dt=1e-7)
    return res["n_steps"]


def _light_main(comm):
    comm.barrier()
    return comm.allreduce(comm.rank)


def _run_traced():
    """One traced 4-rank mp reaction-diffusion run, memoized (the
    parent-side fold is what every test here inspects)."""
    if "events" in _memo:
        return _memo["events"], _memo["metrics"]
    with obs.tracing():
        results = mpirun(NPROCS, _rd_main, machine=ZERO_COST,
                         backend="mp")
        snapshot = get_registry().snapshot()
    assert results == [2] * NPROCS
    _memo["events"] = trace.events()
    _memo["metrics"] = snapshot
    return _memo["events"], _memo["metrics"]


def test_every_rank_ships_its_spans_home():
    events, _ = _run_traced()
    ranks = {e.rank for e in events if e.rank is not None}
    assert ranks == set(range(NPROCS))
    # each worker shipped both port-call and mpi spans
    for rank in range(NPROCS):
        cats = {e.cat for e in events if e.rank == rank}
        assert {"port", "mpi"} <= cats


def test_single_export_holds_all_ranks():
    events, _ = _run_traced()
    records = chrome_trace_events(events)
    tids = {r["tid"] for r in records
            if r["ph"] in ("X", "i") and r["tid"] < 10_000}
    assert set(range(NPROCS)) <= tids
    names = {r["args"]["name"] for r in records
             if r["ph"] == "M" and r["name"] == "thread_name"}
    assert {f"rank {r}" for r in range(NPROCS)} <= names


def test_per_rank_timestamps_monotonic_and_nested():
    """Workers share the parent's perf_counter origin, so every rank's
    shipped track must be internally consistent: timestamps ordered and
    spans properly nested (no partial overlap)."""
    events, _ = _run_traced()
    for rank in range(NPROCS):
        spans = sorted(
            ((e.ts, e.ts + e.dur) for e in events
             if e.rank == rank and e.ph == "X"),
            key=lambda iv: (iv[0], -iv[1]))
        assert spans
        assert all(ts >= 0 for ts, _ in spans)
        stack = []
        for start, end in spans:
            while stack and stack[-1] <= start:
                stack.pop()
            if stack:
                assert end <= stack[-1] + 1e-6, \
                    f"rank {rank}: span [{start}, {end}] partially " \
                    f"overlaps enclosing span ending {stack[-1]}"
            stack.append(end)


def test_world_span_encloses_worker_spans():
    """The parent's ``mpi.world`` launcher span brackets the forked
    workers' timelines — the joint a serve trace hangs off."""
    events, _ = _run_traced()
    worlds = [e for e in events
              if e.name == "mpi.world" and e.ph == "X"]
    assert len(worlds) == 1
    w = worlds[0]
    assert w.args["backend"] == "mp" and w.args["nprocs"] == NPROCS
    ranked = [e for e in events if e.rank is not None and e.ph == "X"]
    assert min(e.ts for e in ranked) >= w.ts - 1.0
    assert max(e.ts + e.dur for e in ranked) <= w.ts + w.dur + 1.0


def test_worker_metrics_fold_into_parent_registry():
    """Satellite 1 regression: before trace shipping, a REPRO_BACKEND=mp
    run lost every counter incremented inside the workers."""
    _, metrics = _run_traced()
    by_name: dict[str, set] = {}
    for rec in metrics:
        by_name.setdefault(rec["name"], set()).add(
            rec["labels"].get("rank"))
    colls = by_name.get("mpi.collectives", set())
    assert {str(r) for r in range(NPROCS)} <= {str(r) for r in colls
                                               if r is not None}
    # teardown rank clocks (parent-side gauges fed by shipped clocks)
    assert "mpi.rank_clock_seconds" in by_name


def test_trace_context_propagates_into_workers():
    """A trace context set in the parent (e.g. a serve job id) must tag
    the spans each forked worker ships back."""
    with obs.tracing():
        with trace.context(trace_id="tr-ctx-test", job="j-ctx"):
            results = mpirun(NPROCS, _light_main, machine=ZERO_COST,
                             backend="mp")
        events = trace.events()
    assert results == [sum(range(NPROCS))] * NPROCS
    ranked = [e for e in events if e.rank is not None]
    assert ranked
    for e in ranked:
        assert e.args and e.args.get("trace_id") == "tr-ctx-test"
        assert e.args.get("job") == "j-ctx"


def test_obs_ship_kill_switch(monkeypatch):
    """REPRO_OBS_SHIP=0 disables shipping (the overhead-bench baseline):
    worker spans stay in the workers and die with them."""
    monkeypatch.setenv("REPRO_OBS_SHIP", "0")
    with obs.tracing():
        mpirun(NPROCS, _light_main, machine=ZERO_COST, backend="mp")
        events = trace.events()
    assert not [e for e in events if e.rank is not None]
    # the parent's own launcher span is still there
    assert [e for e in events if e.name == "mpi.world"]


def _busy_main(comm):
    deadline = time.time() + 0.15
    total = 0
    while time.time() < deadline:
        total += sum(i * i for i in range(2000))
    comm.barrier()
    return comm.rank


def test_profiler_samples_ship_rank_tagged():
    """Satellite 2: REPRO_PROFILE armed in the parent re-arms inside each
    forked worker; folded samples come home tagged with the rank."""
    profiler.start(interval=0.005)
    try:
        with obs.tracing():
            mpirun(NPROCS, _busy_main, machine=ZERO_COST, backend="mp")
    finally:
        prof = profiler.stop()
    assert prof is not None
    ranks = {s.rank for s in prof.samples() if s.rank is not None}
    assert len(ranks) >= 2, f"worker samples missing, got ranks {ranks}"
    folded = prof.folded()
    assert any(line.startswith("rank_")
               for line in folded.splitlines())
