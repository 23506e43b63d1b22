"""Tests for the virtual-time model: clocks, machine-model costs, and the
scaling-shape properties the paper's §5.2 experiments rely on."""

import numpy as np
import pytest

from repro.errors import MPIError
from repro.mpi import CPLANT, MachineModel, Op, ZERO_COST, mpirun
from repro.mpi.perfmodel import BEOWULF, LOCALHOST


# ------------------------------------------------------------ machine model
def test_p2p_time_is_latency_plus_bytes_over_bw():
    m = MachineModel("m", latency=1e-5, bandwidth=1e8)
    assert m.p2p_time(0) == pytest.approx(1e-5)
    assert m.p2p_time(10**8) == pytest.approx(1.0 + 1e-5)


def test_collective_costs_grow_logarithmically():
    m = CPLANT
    t2 = m.barrier_time(2)
    t4 = m.barrier_time(4)
    t32 = m.barrier_time(32)
    assert 0 < t2 <= t4 <= t32
    assert t32 == pytest.approx(5 * t2)  # log2(32) = 5 tree levels


def test_single_rank_collectives_are_free():
    m = CPLANT
    assert m.barrier_time(1) == 0.0
    assert m.bcast_time(1, 100) == 0.0
    assert m.allreduce_time(1, 100) == 0.0


def test_zero_cost_model_charges_nothing():
    assert ZERO_COST.p2p_time(10**9) == 0.0
    assert ZERO_COST.barrier_time(64) == 0.0


def test_presets_are_ordered_fast_to_slow():
    # localhost beats Myrinet beats fast Ethernet for a 1 MB transfer
    n = 2**20
    assert LOCALHOST.p2p_time(n) < CPLANT.p2p_time(n) < BEOWULF.p2p_time(n)


# ------------------------------------------------------------ clock mechanics
def test_advance_and_clock():
    def main(comm):
        comm.advance(2.5)
        comm.advance(0.5)
        return comm.clock

    (value, clock), = mpirun(1, main, machine=ZERO_COST, return_clocks=True)
    assert value >= 3.0
    assert clock >= 3.0


def test_advance_negative_raises():
    def main(comm):
        comm.advance(-1.0)

    from repro.mpi.launcher import RankFailure

    with pytest.raises(RankFailure):
        mpirun(1, main, machine=ZERO_COST)


def test_recv_clock_includes_message_flight_time():
    """Receiver that posted early must wait for sender clock + flight."""
    machine = MachineModel("t", latency=1.0, bandwidth=1e12)

    def main(comm):
        if comm.rank == 0:
            comm.advance(10.0)  # sender is busy for 10 virtual seconds
            comm.send(b"x", dest=1)
            return comm.clock
        comm.recv(source=0)
        return comm.clock

    clocks = mpirun(2, main, machine=machine)
    # receiver completes no earlier than send time (10) + latency (1)
    assert clocks[1] >= 11.0


def test_barrier_synchronizes_clocks_to_slowest():
    def main(comm):
        comm.advance(float(comm.rank) * 5.0)
        comm.barrier()
        return comm.clock

    clocks = mpirun(4, main, machine=ZERO_COST)
    slowest = 15.0
    assert all(c >= slowest for c in clocks)
    assert max(clocks) - min(clocks) < 1.0  # all leave together


def test_compute_is_charged_automatically():
    """Real CPU work between MPI calls lands on the virtual clock."""

    def main(comm):
        comm.reset_clock()
        # burn measurable CPU
        x = np.random.default_rng(0).random(400_000)
        for _ in range(5):
            x = np.sqrt(x * x + 1.0)
        return comm.clock

    (clock,) = mpirun(1, main, machine=ZERO_COST)
    assert clock > 0.0


def test_a_priced_model_charges_counted_work_and_no_host_time():
    """CPLANT carries work prices: CPU burnt between MPI calls does not
    reach the clock, ``charge`` does, at the price times ``flop_scale`` —
    the same number on any host.  A model without prices (the measured
    mode above) takes the charge for free."""
    import dataclasses

    def main(comm):
        x = np.random.default_rng(0).random(200_000)
        for _ in range(5):
            x = np.sqrt(x * x + 1.0)
        idle = comm.clock
        comm.charge("cell_stage", 1000)
        comm.charge("flux_face", 10)
        return idle, comm.clock

    slow = dataclasses.replace(CPLANT, flop_scale=3.0)
    for machine in (CPLANT, slow):
        ((idle, clock),) = mpirun(1, main, machine=machine)
        assert idle == 0.0
        assert clock == machine.flop_scale * 1000 * CPLANT.prices.cell_stage \
            + machine.flop_scale * 10 * CPLANT.prices.flux_face
    assert ZERO_COST.prices is None
    assert ZERO_COST.work_time("chem_rhs", 10**9) == 0.0


def test_flop_scale_rescales_compute():
    def main(comm):
        comm.reset_clock()
        x = np.random.default_rng(0).random(300_000)
        for _ in range(5):
            x = np.sqrt(x * x + 1.0)
        return comm.clock

    (fast,) = mpirun(1, main, machine=MachineModel("f", 0, float("inf"), flop_scale=1.0))
    (slow,) = mpirun(1, main, machine=MachineModel("s", 0, float("inf"), flop_scale=10.0))
    assert slow > 3.0 * fast  # 10x scale with measurement noise margin


# ------------------------------------------------------------ scaling shapes
def _ghost_exchange_step(comm, n_local, nvar=9):
    """One halo-exchange + reduction step on an n_local x n_local patch —
    the communication skeleton of the reaction-diffusion update."""
    ghost = np.zeros((n_local, nvar))
    left = (comm.rank - 1) % comm.size
    right = (comm.rank + 1) % comm.size
    if comm.size > 1:
        comm.sendrecv(ghost, dest=right, sendtag=0, source=left, recvtag=0)
        comm.sendrecv(ghost, dest=left, sendtag=1, source=right, recvtag=1)
    comm.allreduce(1.0, op=Op.MAX)


def test_weak_scaling_is_flat_in_rank_count():
    """Fixed per-rank workload: modeled time must be ~independent of P
    (the paper's Fig 8)."""

    def main(comm, n_local):
        comm.reset_clock()
        for _ in range(5):
            comm.advance(n_local * n_local * 1e-6)  # modeled compute
            _ghost_exchange_step(comm, n_local)
        return comm.clock

    # pinned to the thread backend: the shape bound is calibrated to its
    # exact message sizing (mp's pickle framing shifts comm costs a bit)
    t2 = max(mpirun(2, main, args=(50,), machine=CPLANT,
                    backend="threads"))
    t8 = max(mpirun(8, main, args=(50,), machine=CPLANT,
                    backend="threads"))
    assert t8 < 1.2 * t2


def test_weak_scaling_time_tracks_problem_size():
    """Bigger per-rank patches take proportionally longer (Table 5)."""

    def main(comm, n_local):
        comm.reset_clock()
        for _ in range(5):
            comm.advance(n_local * n_local * 1e-6)
            _ghost_exchange_step(comm, n_local)
        return comm.clock

    t50 = max(mpirun(4, main, args=(50,), machine=CPLANT))
    t100 = max(mpirun(4, main, args=(100,), machine=CPLANT))
    t175 = max(mpirun(4, main, args=(175,), machine=CPLANT))
    assert 2.5 < t100 / t50 < 5.0     # ~(100/50)^2 = 4 with comm offsets
    assert 2.0 < t175 / t100 < 4.0    # ~(175/100)^2 = 3.06


def test_strong_scaling_efficiency_degrades_for_small_problems():
    """Fixed global size: efficiency at high P drops when the per-rank
    patch shrinks toward the comm cost (the paper's Fig 9 knee)."""

    def main(comm, n_global):
        comm.reset_clock()
        n_local = max(1, n_global // comm.size)
        for _ in range(5):
            comm.advance(n_local * n_global * 1e-6)
            _ghost_exchange_step(comm, n_global)
        return comm.clock

    def efficiency(n_global, p):
        # thread backend: the 0.9-efficiency knee is calibrated to its
        # exact message sizing, see test_weak_scaling_is_flat_...
        t1 = max(mpirun(1, main, args=(n_global,), machine=CPLANT,
                        backend="threads"))
        tp = max(mpirun(p, main, args=(n_global,), machine=CPLANT,
                        backend="threads"))
        return t1 / (p * tp)

    e_small = efficiency(64, 16)
    e_large = efficiency(512, 16)
    assert e_large > e_small
    assert e_large > 0.9
