#!/usr/bin/env python3
"""SCMD parallel execution with virtual-time accounting.

Runs the reaction-diffusion assembly on 1, 2 and 4 rank-threads under the
CPlant machine model: identical frameworks per rank (the CCAFFEINE
multiplexer), mesh strips per rank, genuine ghost-exchange message
traffic, and per-rank virtual clocks combining counted work (cells x RKC
stages, CVODE RHS evaluations) with modeled communication cost.

Run:  python examples/parallel_scmd.py
"""

from repro.bench.scaling import scaling_case
from repro.mpi import CPLANT, mpirun


def main() -> None:
    n_local = 32  # per-rank mesh is n_local x n_local

    for nprocs in (1, 2, 4):
        def rank_main(comm):
            # strip decomposition along x; 5 steps of 1e-7 s, every cell
            # through RKC diffusion and its own CVODE integration
            scaling_case(comm, nprocs * n_local, n_local)
            comm.barrier()
            return comm.clock

        clocks = mpirun(nprocs, rank_main, machine=CPLANT)
        print(f"P={nprocs}: global mesh {nprocs * n_local}x{n_local}, "
              f"per-rank {n_local}x{n_local}, "
              f"virtual run time {max(clocks):.3f} s "
              f"(weak scaling: should stay ~flat)")


if __name__ == "__main__":
    main()
