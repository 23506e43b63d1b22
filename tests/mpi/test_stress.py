"""Stress and edge-case tests for the MPI substrate: many ranks, nested
splits, mixed traffic, and per-sender ordering under contention."""

import numpy as np

from repro.mpi import Op


def test_sixteen_ranks_allreduce(run):
    def main(comm):
        return comm.allreduce(comm.rank, op=Op.SUM)

    assert run(16, main) == [120] * 16


def test_ring_pass_large_arrays(run):
    """Pass a 100k-element array around a ring; every hop must preserve
    content (buffer isolation under concurrency)."""

    def main(comm):
        data = np.full(100_000, float(comm.rank))
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        got = comm.sendrecv(data, dest=right, source=left)
        assert np.all(got == float(left))
        return float(got[0])

    res = run(4, main)
    assert res == [3.0, 0.0, 1.0, 2.0]


def test_split_of_split(run):
    """Nested communicator splitting: quadrant cohorts."""

    def main(comm):
        half = comm.split(comm.rank // 4)        # two halves of 4
        quarter = half.split(half.rank // 2)     # four pairs
        return (half.size, quarter.size,
                quarter.allreduce(comm.rank, op=Op.SUM))

    res = run(8, main)
    for rank, (hs, qs, total) in enumerate(res):
        assert hs == 4 and qs == 2
        base = (rank // 2) * 2
        assert total == base + base + 1


def test_many_messages_per_sender_keep_order(run):
    def main(comm):
        if comm.rank == 0:
            for dest in range(1, comm.size):
                for i in range(50):
                    comm.send((dest, i), dest=dest, tag=9)
            return None
        got = [comm.recv(source=0, tag=9)[1] for _ in range(50)]
        return got == list(range(50))

    res = run(4, main)
    assert all(r in (None, True) for r in res)
    assert res[1] and res[2] and res[3]


def test_mixed_collectives_and_p2p_interleaving(run):
    """Randomized but deterministic interleaving of barriers, reductions
    and point-to-point must not deadlock or corrupt payloads."""

    def main(comm):
        acc = 0
        for round_no in range(10):
            acc += comm.allreduce(1, op=Op.SUM)
            peer = (comm.rank + round_no) % comm.size
            if peer != comm.rank:
                got = comm.sendrecv((comm.rank, round_no), dest=peer,
                                    sendtag=round_no,
                                    source=(comm.rank - round_no)
                                    % comm.size, recvtag=round_no)
                assert got[1] == round_no
            comm.barrier()
        return acc

    assert run(6, main) == [60] * 6


def test_gather_scatter_roundtrip_many_ranks(run):
    def main(comm):
        rows = comm.gather(np.full(8, comm.rank + 0.5), root=2)
        if comm.rank == 2:
            back = [r * 2 for r in rows]
        else:
            back = None
        mine = comm.scatter(back, root=2)
        return float(mine[0])

    res = run(8, main)
    assert res == [2 * (r + 0.5) for r in range(8)]


def test_return_clocks_all_ranks(run):
    def main(comm):
        comm.advance(1.0 + comm.rank)
        comm.barrier()
        return comm.rank

    res = run(3, main, return_clocks=True)
    values = [v for v, _ in res]
    clocks = [c for _, c in res]
    assert values == [0, 1, 2]
    assert all(c >= 3.0 for c in clocks)  # barrier syncs to slowest
