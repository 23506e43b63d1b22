"""Flow diagnostics: vorticity and interfacial circulation.

The paper's Fig. 7 plots the circulation deposited on the gas-gas
interface, ``Γ = ∫_{0.001 <= ζ <= 0.999} ω · dA``, as the convergence
observable for the shock-interface run (analytic estimate of the maximum
deposition: −0.592).
"""

from __future__ import annotations

import numpy as np

from repro.errors import HydroError
from repro.hydro.state import cons_to_prim


def vorticity(U: np.ndarray, dx: float, dy: float,
              gamma: float) -> np.ndarray:
    """ω = dv/dx - du/dy by central differences.

    ``U`` must carry at least one ghost layer; the result covers the array
    shrunk by one cell per face.
    """
    if U.shape[1] < 3 or U.shape[2] < 3:
        raise HydroError("field too small for vorticity stencil")
    _, u, v, _, _ = cons_to_prim(U, gamma, check=False)
    dv_dx = (v[2:, 1:-1] - v[:-2, 1:-1]) / (2.0 * dx)
    du_dy = (u[1:-1, 2:] - u[1:-1, :-2]) / (2.0 * dy)
    return dv_dx - du_dy


def hierarchy_interface_circulation(dobj, gamma: float, comm=None,
                                    zeta_lo: float = 0.001,
                                    zeta_hi: float = 0.999) -> float:
    """Γ over a whole AMR hierarchy: each level contributes only the cells
    not covered by a finer level (composite integral, no double counting).

    ``dobj`` is a 5-variable SAMR DataObject with current ghost cells.
    """
    h = dobj.hierarchy
    total = 0.0
    for lev_no in range(h.nlevels):
        dx, dy = h.dx(lev_no)
        # what the next level covers is geometry its schedule already holds
        covered = (h.transfer_schedule(lev_no + 1, dobj.rank).covered
                   if lev_no + 1 < h.nlevels else {})
        for patch in dobj.owned_patches(lev_no):
            arr = dobj.array(patch)
            g = patch.nghost
            # vorticity over the patch interior (uses one ghost ring)
            pad = g - 1
            core = arr if pad == 0 else arr[:, pad:-pad, pad:-pad]
            omega = vorticity(core, dx, dy, gamma)
            rho = core[0, 1:-1, 1:-1]
            zeta = core[4, 1:-1, 1:-1] / rho
            band = (zeta >= zeta_lo) & (zeta <= zeta_hi)
            mask = np.ones_like(band)
            for under_finer in covered.get(patch.id, ()):
                mask[under_finer] = False
            total += float((omega * band * mask).sum() * dx * dy)
    if comm is not None and comm.size > 1:
        from repro.mpi.comm import Op

        total = float(comm.allreduce(total, op=Op.SUM))
    return total


def interface_circulation(U: np.ndarray, dx: float, dy: float,
                          gamma: float,
                          zeta_lo: float = 0.001,
                          zeta_hi: float = 0.999) -> float:
    """Γ over cells whose interface function sits in (zeta_lo, zeta_hi).

    ``U`` is a ghosted patch array; the ghost ring feeds the vorticity
    stencil and is excluded from the integral itself.
    """
    omega = vorticity(U, dx, dy, gamma)
    rho = U[0, 1:-1, 1:-1]
    zeta = U[4, 1:-1, 1:-1] / rho
    band = (zeta >= zeta_lo) & (zeta <= zeta_hi)
    return float((omega * band).sum() * dx * dy)
