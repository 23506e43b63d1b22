"""Unit tests for the MPI substrate, on every execution backend (the
``run`` fixture): point-to-point semantics, collectives, communicator
splitting, and failure propagation."""

import numpy as np
import pytest

from repro.errors import MPIError
from repro.mpi import (
    ANY_SOURCE,
    ANY_TAG,
    Comm,
    Op,
    Status,
    World,
)
from repro.mpi.launcher import RankFailure


# ---------------------------------------------------------------- basics
def test_world_requires_positive_size():
    with pytest.raises(MPIError):
        World(0)


def test_single_rank_runs_inline(run):
    def main(comm):
        assert comm.rank == 0 and comm.size == 1
        return "ok"

    assert run(1, main) == ["ok"]


def test_ranks_see_distinct_identities(run):
    def main(comm):
        return (comm.rank, comm.size)

    assert run(4, main) == [(r, 4) for r in range(4)]


# ---------------------------------------------------------------- p2p
def test_send_recv_roundtrip_object(run):
    def main(comm):
        if comm.rank == 0:
            comm.send({"a": 1, "b": [1, 2]}, dest=1, tag=7)
            return None
        return comm.recv(source=0, tag=7)

    assert run(2, main)[1] == {"a": 1, "b": [1, 2]}


def test_send_recv_numpy_is_isolated(run):
    """Receiver must get a copy — mutating the sent array post-send must
    not leak (MPI buffer semantics)."""

    def main(comm):
        if comm.rank == 0:
            data = np.arange(10.0)
            comm.send(data, dest=1)
            data[:] = -1.0
            return None
        got = comm.recv(source=0)
        return got.tolist()

    assert run(2, main)[1] == list(map(float, range(10)))


def test_recv_any_source_any_tag(run):
    def main(comm):
        if comm.rank == 0:
            status = Status()
            got = comm.recv(source=ANY_SOURCE, tag=ANY_TAG, status=status)
            return got, status.source, status.tag
        comm.send(f"hello-{comm.rank}", dest=0, tag=comm.rank * 10)
        return None

    got, src, tag = run(2, main)[0]
    assert got == "hello-1" and src == 1 and tag == 10


def test_tag_matching_skips_nonmatching_messages(run):
    def main(comm):
        if comm.rank == 0:
            comm.send("first", dest=1, tag=1)
            comm.send("second", dest=1, tag=2)
            return None
        second = comm.recv(source=0, tag=2)
        first = comm.recv(source=0, tag=1)
        return (first, second)

    assert run(2, main)[1] == ("first", "second")


def test_message_order_preserved_per_sender_tag(run):
    def main(comm):
        if comm.rank == 0:
            for i in range(20):
                comm.send(i, dest=1, tag=3)
            return None
        return [comm.recv(source=0, tag=3) for _ in range(20)]

    assert run(2, main)[1] == list(range(20))


def test_sendrecv_pairwise_exchange_no_deadlock(run):
    def main(comm):
        peer = 1 - comm.rank
        return comm.sendrecv(comm.rank, dest=peer, source=peer)

    assert run(2, main) == [1, 0]


def test_isend_irecv(run):
    def main(comm):
        if comm.rank == 0:
            req = comm.isend(np.ones(4), dest=1)
            req.wait()
            return None
        req = comm.irecv(source=0)
        arr = req.wait()
        return float(arr.sum())

    assert run(2, main)[1] == 4.0


def test_iprobe_and_probe(run):
    def main(comm):
        if comm.rank == 0:
            comm.send("x", dest=1, tag=5)
            return None
        st = comm.probe(source=0)
        assert st.tag == 5 and st.source == 0
        assert comm.iprobe(source=0, tag=5)
        comm.recv(source=0, tag=5)
        assert not comm.iprobe(source=0, tag=5)
        return True

    assert run(2, main)[1] is True


def test_send_to_invalid_rank_raises(run):
    def main(comm):
        comm.send(1, dest=5)

    with pytest.raises(RankFailure):
        run(2, main)


# ---------------------------------------------------------------- collectives
def test_barrier_completes(run):
    def main(comm):
        for _ in range(3):
            comm.barrier()
        return True

    assert all(run(4, main))


def test_bcast_from_each_root(run):
    def main(comm):
        out = []
        for root in range(comm.size):
            obj = {"root": root} if comm.rank == root else None
            out.append(comm.bcast(obj, root=root)["root"])
        return out

    for res in run(3, main):
        assert res == [0, 1, 2]


def test_allreduce_sum_scalar_and_array(run):
    def main(comm):
        s = comm.allreduce(comm.rank + 1, op=Op.SUM)
        a = comm.allreduce(np.full(3, float(comm.rank)), op=Op.SUM)
        return s, a.tolist()

    for s, a in run(4, main):
        assert s == 10
        assert a == [6.0, 6.0, 6.0]


@pytest.mark.parametrize(
    "op,expect", [(Op.MIN, 0), (Op.MAX, 3), (Op.PROD, 0), (Op.SUM, 6)]
)
def test_allreduce_ops(run, op, expect):
    def main(comm):
        return comm.allreduce(comm.rank, op=op)

    assert run(4, main) == [expect] * 4


def test_allreduce_logical(run):
    def main(comm):
        any_true = comm.allreduce(comm.rank == 2, op=Op.LOR)
        all_true = comm.allreduce(comm.rank < 10, op=Op.LAND)
        return bool(any_true), bool(all_true)

    assert run(4, main) == [(True, True)] * 4


def test_reduce_only_root_gets_result(run):
    def main(comm):
        return comm.reduce(comm.rank, op=Op.SUM, root=1)

    res = run(3, main)
    assert res == [None, 3, None]


def test_gather_allgather(run):
    def main(comm):
        g = comm.gather(comm.rank * 2, root=0)
        ag = comm.allgather(comm.rank * 3)
        return g, ag

    res = run(3, main)
    assert res[0][0] == [0, 2, 4]
    assert res[1][0] is None
    assert all(r[1] == [0, 3, 6] for r in res)


def test_scatter(run):
    def main(comm):
        data = [f"item{i}" for i in range(comm.size)] if comm.rank == 0 else None
        return comm.scatter(data, root=0)

    assert run(3, main) == ["item0", "item1", "item2"]


def test_scatter_wrong_length_raises(run):
    def main(comm):
        data = [1] if comm.rank == 0 else None
        comm.scatter(data, root=0)

    with pytest.raises(RankFailure):
        run(2, main)


def test_alltoall(run):
    def main(comm):
        out = [f"{comm.rank}->{j}" for j in range(comm.size)]
        return comm.alltoall(out)

    res = run(3, main)
    assert res[1] == ["0->1", "1->1", "2->1"]


def test_collectives_interleave_with_p2p(run):
    def main(comm):
        comm.barrier()
        if comm.rank == 0:
            comm.send(42, dest=1)
        total = comm.allreduce(1, op=Op.SUM)
        got = comm.recv(source=0) if comm.rank == 1 else None
        comm.barrier()
        return total, got

    res = run(2, main)
    assert res == [(2, None), (2, 42)]


# ---------------------------------------------------------------- split/dup
def test_split_into_even_odd_cohorts(run):
    def main(comm):
        color = comm.rank % 2
        sub = comm.split(color)
        total = sub.allreduce(comm.rank, op=Op.SUM)
        return color, sub.rank, sub.size, total

    res = run(4, main)
    # evens: ranks 0,2 -> sum 2 ; odds: ranks 1,3 -> sum 4
    assert res[0] == (0, 0, 2, 2)
    assert res[2] == (0, 1, 2, 2)
    assert res[1] == (1, 0, 2, 4)
    assert res[3] == (1, 1, 2, 4)


def test_split_key_reorders_ranks(run):
    def main(comm):
        sub = comm.split(color=0, key=-comm.rank)
        return sub.rank

    assert run(3, main) == [2, 1, 0]


def test_dup_gives_independent_message_space(run):
    def main(comm):
        dup = comm.dup()
        if comm.rank == 0:
            comm.send("world", dest=1, tag=1)
            dup.send("dup", dest=1, tag=1)
            return None
        got_dup = dup.recv(source=0, tag=1)
        got_world = comm.recv(source=0, tag=1)
        return got_world, got_dup

    assert run(2, main)[1] == ("world", "dup")


def test_split_of_split_agrees_on_ids_everywhere(run):
    """Child ids are derived, not allocated: ``parent/seq:color`` on
    every rank of every backend."""

    def main(comm):
        half = comm.split(comm.rank // 2)
        comm.dup()                              # parent's 2nd split
        pair = half.split(half.rank, key=0)     # half's 1st
        again = half.split(0, key=-half.rank)   # half's 2nd, reordered
        return [(c.id, c.rank, c.size) for c in (half, pair, again)]

    assert run(4, main) == [
        [("w/1:0", 0, 2), ("w/1:0/1:0", 0, 1), ("w/1:0/2:0", 1, 2)],
        [("w/1:0", 1, 2), ("w/1:0/1:1", 0, 1), ("w/1:0/2:0", 0, 2)],
        [("w/1:1", 0, 2), ("w/1:1/1:0", 0, 1), ("w/1:1/2:0", 1, 2)],
        [("w/1:1", 1, 2), ("w/1:1/1:1", 0, 1), ("w/1:1/2:0", 0, 2)],
    ]


# ---------------------------------------------------------------- failures
def test_rank_exception_aborts_world_and_reports(run):
    def main(comm):
        if comm.rank == 1:
            raise ValueError("boom")
        # rank 0 would block forever without abort propagation
        comm.recv(source=1)

    with pytest.raises(RankFailure) as excinfo:
        run(2, main)
    assert 1 in excinfo.value.failures
    err = excinfo.value.failures[1]
    # threads delivers the exception object itself; mp re-raises it as a
    # RemoteRankError carrying the original type name and traceback
    assert isinstance(err, ValueError) \
        or getattr(err, "remote_type", "") == "ValueError"


def test_rank_raising_mid_collective_is_the_only_failure_reported(run):
    """Peers blocked in an ``allreduce`` the failing rank never joins
    are unblocked by the abort and stay out of the report."""

    def main(comm):
        comm.barrier()
        if comm.rank == 2:
            raise ValueError("boom before the allreduce")
        return comm.allreduce(np.ones(4), op=Op.SUM)

    with pytest.raises(RankFailure, match="boom before") as excinfo:
        run(4, main)
    assert set(excinfo.value.failures) == {2}


def test_return_values_in_rank_order(run):
    def main(comm):
        return comm.rank**2

    assert run(5, main) == [0, 1, 4, 9, 16]
