#!/usr/bin/env python3
"""The 2D reaction-diffusion flame with SAMR (paper §4.2, scaled down).

Three hot spots in a stoichiometric H2-air mixture on a 10 mm square
domain; Strang-split chemistry (one CVode integration per cell) plus RKC
diffusion, with the adaptive hierarchy tracking the fronts.

Run:  python examples/reaction_diffusion_flame.py [--fine]
"""

import sys

from repro.apps import run_reaction_diffusion
from repro.apps.assemblies import format_assembly_table


def main() -> None:
    fine = "--fine" in sys.argv
    print(format_assembly_table("reaction_diffusion"))
    print()
    result = run_reaction_diffusion(
        nx=48 if fine else 24,
        ny=48 if fine else 24,
        extent=0.01,                 # 10 mm
        max_levels=2,
        n_steps=10 if fine else 5,
        dt=2e-7,                     # explicit macro step
        regrid_interval=3,
        initial_regrids=1,
        threshold=0.15,
    )
    print(f"steps           : {result['n_steps']}")
    print(f"simulated time  : {result['t_final'] * 1e6:.2f} us")
    print(f"levels          : {result['nlevels']}")
    print(f"total cells     : {result['total_cells']}")
    print(f"peak temperature: {result['T_max']:.1f} K")
    print()
    print("T_max history:")
    for t, T in result["history_T_max"]:
        print(f"  {t * 1e6:7.3f} us   {T:8.2f} K")


if __name__ == "__main__":
    main()
