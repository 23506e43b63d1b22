#!/usr/bin/env python3
"""Writing your own component.

The paper's thesis is that "components implementing an agreed-to, well
defined interface can be developed in complete isolation".  This example
develops a new initial-condition component — a single off-center ignition
kernel instead of the stock three hot spots — and drops it into the
unchanged reaction-diffusion assembly.  Only one `connect` line differs.

Run:  python examples/custom_component.py
"""

import numpy as np

from repro.apps.reaction_diffusion import RD_COMPONENTS, build_reaction_diffusion
from repro.cca import Component, Framework, Param
from repro.cca.ports import InitialConditionPort
from repro.chemistry.h2_air import stoichiometric_h2_air


class _KernelIC(InitialConditionPort):
    def __init__(self, owner):
        self.owner = owner

    def initialize(self, dobj):
        # a connected uses port is an attribute of services.ports
        services = self.owner.services
        mech = services.ports.chem.mechanism()
        # defaults, types and ranges come from the class's PARAMS
        cx = services.get_parameter("x")
        cy = services.get_parameter("y")
        radius = services.get_parameter("radius")
        Y = np.zeros(mech.n_species)
        for nm, val in stoichiometric_h2_air().items():
            Y[mech.species_index(nm)] = val
        h = dobj.hierarchy
        for patch in dobj.owned_patches():
            lvl = h.level(patch.level)
            x, y = lvl.cell_centers(patch, h.origin, ghost=True)
            X, Yc = np.meshgrid(x, y, indexing="ij")
            r2 = (X - cx) ** 2 + (Yc - cy) ** 2
            arr = dobj.array(patch)
            arr[0] = 300.0 + 1200.0 * np.exp(-r2 / radius**2)
            arr[1:] = Y.reshape(-1, 1, 1)


class SingleKernelIC(Component):
    """A user-written Initial Condition component."""

    # the rc-script parameters it reads, declared once: the contract
    # checks (python -m repro.analysis, serve admission) and
    # Framework.set_parameter's typo warning read them too
    PARAMS = (
        Param("x", "float", 0.0025, doc="kernel centre [m]"),
        Param("y", "float", 0.0025, doc="kernel centre [m]"),
        Param("radius", "float", 0.0008, min=1e-6, doc="kernel radius [m]"),
    )

    def set_services(self, services):
        self.services = services
        services.register_uses_port("chem", "ChemistryPort")
        services.add_provides_port(_KernelIC(self), "ic")


def main() -> None:
    framework = Framework()
    build_reaction_diffusion(framework, nx=24, ny=24, max_levels=2,
                             n_steps=4, dt=2e-7, regrid_interval=2,
                             initial_regrids=1)
    # swap the stock IC for ours: disconnect one line, connect another
    framework.registry.register(SingleKernelIC)
    framework.instantiate("SingleKernelIC", "KernelIC")
    framework.connect("KernelIC", "chem", "ReactionTerms", "chemistry")
    framework.disconnect("Driver", "ic")
    framework.connect("Driver", "ic", "KernelIC", "ic")

    result = framework.go("Driver")
    print("ran the unchanged assembly with a user-written IC component:")
    print(f"  levels      = {result['nlevels']}")
    print(f"  total cells = {result['total_cells']}")
    print(f"  T_max       = {result['T_max']:.1f} K")
    # the refined region sits around the single kernel now
    mesh = framework.services_of("Driver").ports.mesh
    for lvl in mesh.hierarchy().levels:
        print(f"  level {lvl.number}: {len(lvl.patches)} patches, "
              f"{lvl.ncells} cells")


if __name__ == "__main__":
    main()
