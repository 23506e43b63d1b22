"""Cross-rank aggregation reducers and the mpirun teardown hook."""

import pytest

from repro.mpi import mpirun
from repro.obs import aggregate, get_registry, trace
from repro.obs.aggregate import (
    CLOCK_MAX_METRIC,
    CLOCK_MEAN_METRIC,
    IMBALANCE_METRIC,
    RANK_CLOCK_METRIC,
    imbalance,
    percentile,
    rank_clock_summary,
    rank_trace_summary,
    record_rank_clocks,
    reduce_rank_traces,
    summarize,
)
from repro.obs.metrics import MetricsRegistry


# --------------------------------------------------------------- percentile
def test_percentile_exact_order_statistics():
    data = [4.0, 1.0, 3.0, 2.0]
    assert percentile(data, 0.0) == 1.0
    assert percentile(data, 100.0) == 4.0
    assert percentile(data, 50.0) == pytest.approx(2.5)
    # numpy-style linear interpolation: pos = 0.95 * 3 = 2.85
    assert percentile(data, 95.0) == pytest.approx(3.85)


def test_percentile_single_value_and_clamping():
    assert percentile([7.0], 50.0) == 7.0
    assert percentile([1.0, 2.0], -10.0) == 1.0
    assert percentile([1.0, 2.0], 400.0) == 2.0


def test_percentile_empty_raises():
    with pytest.raises(ValueError):
        percentile([], 50.0)


# ---------------------------------------------------------------- imbalance
def test_imbalance_ratio_max_over_avg():
    # one rank takes twice the average: (2+2/3)/... use explicit numbers
    assert imbalance([1.0, 1.0, 1.0, 1.0]) == pytest.approx(1.0)
    assert imbalance([1.0, 3.0]) == pytest.approx(1.5)
    assert imbalance([2.0, 2.0, 8.0]) == pytest.approx(2.0)


def test_imbalance_degenerate_inputs():
    assert imbalance([]) == 1.0
    assert imbalance([0.0, 0.0]) == 1.0
    # equal clocks (what a counted virtual clock produces): the rounded
    # mean of 48 of them lies above the value itself
    assert imbalance([3.349554288] * 48) == 1.0


def test_summarize_block():
    stats = summarize([1.0, 2.0, 3.0, 4.0])
    assert stats["n"] == 4
    assert stats["min"] == 1.0
    assert stats["max"] == 4.0
    assert stats["mean"] == pytest.approx(2.5)
    assert stats["p50"] == pytest.approx(2.5)
    assert stats["p95"] == pytest.approx(3.85)
    assert stats["imbalance"] == pytest.approx(1.6)
    with pytest.raises(ValueError):
        summarize([])


def test_rank_clock_summary_shape():
    s = rank_clock_summary([2.0, 4.0])
    assert s["per_rank"] == [2.0, 4.0]
    assert s["stats"]["imbalance"] == pytest.approx(4.0 / 3.0)


def test_record_rank_clocks_sets_gauges():
    reg = MetricsRegistry()
    record_rank_clocks([1.0, 2.0, 3.0, 6.0], registry=reg)
    assert reg.gauge(RANK_CLOCK_METRIC, rank=0).value == 1.0
    assert reg.gauge(RANK_CLOCK_METRIC, rank=3).value == 6.0
    assert reg.gauge(IMBALANCE_METRIC).value == pytest.approx(2.0)
    assert reg.gauge(CLOCK_MAX_METRIC).value == 6.0
    assert reg.gauge(CLOCK_MEAN_METRIC).value == 3.0


# ------------------------------------------------------------ trace roll-up
def test_rank_trace_summary_and_reduction():
    def ev(name, cat, ph, dur, rank):
        return trace.Event(ph=ph, name=name, cat=cat, ts=0.0, dur=dur,
                           rank=rank, thread="t", args=None)

    events = [
        ev("a", "mpi", "X", 2e6, 0),
        ev("b", "mpi", "X", 4e6, 1),
        ev("c", "app", "X", 1e6, 1),
        ev("i", "app", "i", 0.0, 1),
        ev("untagged", "app", "X", 9e6, None),
    ]
    per_rank = rank_trace_summary(events)
    assert sorted(per_rank) == [0, 1]
    assert per_rank[0]["busy_seconds"] == {"mpi": pytest.approx(2.0)}
    assert per_rank[1]["events"] == 3
    assert per_rank[1]["busy_seconds"]["mpi"] == pytest.approx(4.0)
    reduced = reduce_rank_traces(per_rank)
    assert reduced["busy.mpi"]["max"] == pytest.approx(4.0)
    assert reduced["busy.mpi"]["imbalance"] == pytest.approx(4.0 / 3.0)
    # rank 0 has no app spans -> counted as 0.0, not skipped
    assert reduced["busy.app"]["min"] == 0.0
    assert reduce_rank_traces({}) == {}


def test_format_rank_summary_text():
    text = aggregate.format_rank_summary(rank_clock_summary([1.0, 3.0]))
    assert "rank 0: 1" in text
    assert "rank 1: 3" in text
    assert "load imbalance (max/avg): 1.5000" in text


# ------------------------------------------- mpirun teardown (4-rank SCMD)
def test_mpirun_teardown_records_four_rank_summary():
    """A traced 4-rank SCMD run emits the aggregated per-rank clock
    summary (gauges + teardown instant with max/avg imbalance)."""
    trace.start()
    try:
        def main(comm):
            # unequal per-rank work -> a real imbalance statistic
            comm.advance(1.0 + comm.rank)
            return comm.rank

        results = mpirun(4, main)
        assert results == [0, 1, 2, 3]
        reg = get_registry()
        clocks = [reg.gauge(RANK_CLOCK_METRIC, rank=r).value
                  for r in range(4)]
        assert clocks == sorted(clocks) and clocks[0] >= 1.0
        imb = reg.gauge(IMBALANCE_METRIC).value
        assert imb == pytest.approx(max(clocks) * 4 / sum(clocks))
        teardown = [e for e in trace.events()
                    if e.name == "mpi.world_teardown"]
        assert len(teardown) == 1
        assert teardown[0].args["nprocs"] == 4
        assert teardown[0].args["imbalance"] == pytest.approx(imb)
    finally:
        trace.stop()


def test_mpirun_no_aggregation_when_tracing_off():
    def main(comm):
        comm.advance(1.0)
        return comm.rank

    assert trace.on is False
    mpirun(4, main)
    assert len(get_registry()) == 0
    assert trace.events() == []
