"""The multiprocessing backend: what only real worker processes have.

The communicator semantics both backends share are held to one suite,
``tests/mpi/test_comm.py`` and ``test_stress.py`` run per backend; here
is what is the ``mp`` transport's own — distinct processes, the shared
memory segment threshold and its clean-up, what rank 0 posts back from a
collective, remote tracebacks, dead workers, the sanitizer's warning.
"""

import os
import signal
import time
import warnings

import numpy as np
import pytest

from repro.mpi import Op, ZERO_COST, mpirun, sanitizer
from repro.mpi.launcher import RankFailure


def run(n, fn, **kw):
    return mpirun(n, fn, machine=ZERO_COST, backend="mp", **kw)


# -------------------------------------------------------------------- basics
def test_ranks_are_distinct_processes():
    def main(comm):
        return (comm.rank, comm.size, os.getpid())

    out = run(3, main)
    assert [(r, s) for r, s, _ in out] == [(r, 3) for r in range(3)]
    pids = {pid for _, _, pid in out}
    assert len(pids) == 3 and os.getpid() not in pids


def test_env_selection(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "mp")

    def main(comm):
        return os.getpid()

    pids = mpirun(2, main, machine=ZERO_COST)
    assert os.getpid() not in pids


# ----------------------------------------------------------------------- p2p
@pytest.mark.parametrize("side", ["pipe", "segment"])
def test_send_recv_array_either_side_of_the_segment_threshold(side):
    """One element under the threshold the array rides the pipe, at it a
    shared segment; either way the receiver gets an exact, isolated copy
    (mutating it cannot reach the sender)."""
    from repro.exec.shm import min_shm_bytes

    n = min_shm_bytes() // 8 - (1 if side == "pipe" else 0)

    def main(comm):
        data = np.arange(float(n)) + comm.rank
        if comm.rank == 0:
            comm.send(data, dest=1)
            comm.barrier()
            return float(data.sum())
        got = comm.recv(source=0)
        ok = bool(np.array_equal(got, np.arange(float(n))))
        got[:] = -1.0  # must not corrupt anything anywhere
        comm.barrier()
        return ok

    total, ok = run(2, main)
    assert ok is True
    assert total == float(np.arange(float(n)).sum())


# ----------------------------------------------------------------- collectives
def test_a_member_is_posted_its_own_share_of_a_collective():
    """Rank 0 runs ``finish`` and posts results; what it packs for member
    *r* is what member *r* returns — one ``alltoall`` row, one ``scatter``
    item, nothing to a ``gather``'s non-roots — not the whole outcome to
    everyone (P times the bytes)."""
    from repro.exec import shm

    item = 64 * 1024    # bytes per array, far above the pickle framing

    def block(src, dest):
        return np.full(item // 8, 10.0 * src + dest)

    def main(comm):
        packed = []
        encode = shm.encode_message

        def counting(obj, names=None):
            envelope, nbytes = encode(obj, names)
            packed.append(nbytes)
            return envelope, nbytes

        shm.encode_message = counting
        try:
            calls = [
                lambda: comm.alltoall([block(comm.rank, dest)
                                       for dest in range(comm.size)]),
                lambda: comm.scatter([block(0, dest)
                                      for dest in range(comm.size)]
                                     if comm.rank == 0 else None, root=0),
                lambda: comm.gather(block(comm.rank, 0), root=0),
                lambda: comm.reduce(block(comm.rank, 0), op=Op.SUM, root=0),
            ]
            results, posted = [], []
            for call in calls:
                del packed[:]
                results.append(call())
                posted.append(list(packed))
        finally:
            shm.encode_message = encode
        return results, posted

    out = run(4, main)
    threads = mpirun(4, main, machine=ZERO_COST, backend="threads")
    slack = 2048
    for (results, posted), (want, _) in zip(out, threads):
        for got, expected in zip(results, want):
            np.testing.assert_equal(got, expected)
    # rank 0 packs one envelope per other member, in member order
    alltoall, scatter, gather, reduce = out[0][1]
    assert len(alltoall) == len(scatter) == len(gather) == len(reduce) == 3
    assert all(4 * item <= n <= 4 * item + slack for n in alltoall)
    assert all(item <= n <= item + slack for n in scatter)
    assert all(n <= slack for n in gather + reduce)
    # the others pack their contribution and nothing else
    for _, posted in out[1:]:
        assert [len(p) for p in posted] == [1, 1, 1, 1]


# -------------------------------------------------------------------- failure
def test_exception_carries_remote_traceback():
    def main(comm):
        if comm.rank == 2:
            raise ValueError("boom on rank 2")
        comm.barrier()
        return comm.rank

    with pytest.raises(RankFailure) as excinfo:
        run(4, main)
    msg = str(excinfo.value)
    assert "rank 2" in msg and "ValueError" in msg
    assert "boom on rank 2" in msg
    # the child's *actual* traceback rode home, not a parent-side stub
    failure = excinfo.value.failures[2]
    assert "boom on rank 2" in getattr(failure, "remote_traceback", "")


def test_sigkill_surfaces_as_worker_death():
    def main(comm):
        if comm.rank == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        comm.barrier()
        return comm.rank

    with pytest.raises(RankFailure) as excinfo:
        run(2, main)
    assert "WorkerDied" in str(excinfo.value)


# ------------------------------------------------- segments outlive nobody
MIB = np.ones(1 << 17)   # 1 MiB of float64: a segment per message


def _shm_listing():
    return sorted(os.listdir("/dev/shm"))


def test_sigkilled_worker_leaves_no_segment_behind():
    """Two ranks keep 1 MiB messages in flight to each other and one is
    SIGKILLed mid-exchange: the world fails, and what its ranks had
    created and nobody consumed is gone when ``mpirun`` returns — while
    this process, whose resource tracker would reclaim it at exit, is
    still running."""
    def main(comm):
        peer = 1 - comm.rank
        for i in range(40):
            comm.isend(MIB, peer)
            comm.isend(MIB, peer)
            if comm.rank == 1 and i == 10:
                os.kill(os.getpid(), signal.SIGKILL)
            comm.recv(peer)

    before = _shm_listing()
    with pytest.raises(RankFailure) as excinfo:
        run(2, main)
    assert "WorkerDied" in str(excinfo.value)
    assert _shm_listing() == before


@pytest.mark.parametrize("victim", [0, 2])
def test_sigkill_mid_collective_aborts_the_survivors(victim):
    """A rank SIGKILLed while its peers wait in an ``allreduce`` — for
    the root's shares when the victim is comm rank 0, for the victim's
    contribution otherwise: the reaper names it ``WorkerDied`` and trips
    the abort, the survivors leave the collective as secondary
    ``CommAbortedError`` (not reported next to a primary failure) within
    the reaper's grace, and the contributions in flight are unlinked."""
    from repro.exec.mp import _DEATH_GRACE

    def main(comm):
        comm.barrier()
        if comm.rank == victim:
            os.kill(os.getpid(), signal.SIGKILL)
        comm.allreduce(MIB, op=Op.SUM)

    before = _shm_listing()
    t0 = time.monotonic()
    with pytest.raises(RankFailure) as excinfo:
        run(4, main)
    elapsed = time.monotonic() - t0
    assert set(excinfo.value.failures) == {victim}
    assert excinfo.value.failures[victim].remote_type == "WorkerDied"
    assert elapsed < _DEATH_GRACE + 2.0
    assert _shm_listing() == before


def test_aborted_world_leaves_no_segment_behind():
    def main(comm):
        comm.isend(MIB, 1 - comm.rank)   # never received
        comm.barrier()
        if comm.rank == 0:
            raise ValueError("boom with a segment in flight")
        comm.recv(0, tag=99)             # blocks until the abort

    before = _shm_listing()
    with pytest.raises(RankFailure, match="boom with a segment"):
        run(2, main)
    assert _shm_listing() == before


def test_dropped_send_leaves_no_segment_behind():
    """A fault plan that drops every send: each segment is discarded by
    its own sender the moment the send is dropped."""
    from repro.resilience import faults

    def main(comm):
        comm.send(MIB, 1 - comm.rank)
        comm.barrier()                   # both sends dropped by now
        return _shm_listing()

    before = _shm_listing()
    faults.configure(faults.FaultPlan(drop_prob=1.0))
    try:
        during = run(2, main)
    finally:
        faults.deactivate()
    assert during == [before, before]
    assert _shm_listing() == before


# ------------------------------------------------------------------ sanitizer
def test_armed_sanitizer_degrades_with_warning():
    was = sanitizer.on
    sanitizer.configure()
    try:
        def main(comm):
            return comm.allreduce(comm.rank)

        with pytest.warns(RuntimeWarning, match="thread-backend only"):
            out = run(2, main)
        assert out == [1, 1]  # degraded, not broken
    finally:
        if not was:
            sanitizer.deactivate()


def test_unarmed_sanitizer_emits_no_warning():
    was = sanitizer.on
    sanitizer.deactivate()
    try:
        def main(comm):
            return comm.rank

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(2, main) == [0, 1]
    finally:
        if was:
            sanitizer.configure()


# -------------------------------------------------------------- virtual time
def test_virtual_clocks_returned_in_rank_order():
    def main(comm):
        comm.barrier()
        return comm.rank

    pairs = mpirun(3, main, machine=ZERO_COST, backend="mp",
                   return_clocks=True)
    assert [v for v, _ in pairs] == [0, 1, 2]
    assert all(clock >= 0.0 for _, clock in pairs)
