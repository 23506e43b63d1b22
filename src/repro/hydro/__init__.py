"""Compressible-flow finite-volume kernels.

The shock-interface application (paper §4.3) solves the 2-D compressible
Euler equations with an interface-tracking function ζ using a Godunov
method: MUSCL slope-limited reconstruction, an exact Riemann solver, and —
for strong shocks — the more diffusive Equilibrium Flux Method of Pullin
as a drop-in replacement (the ``GodunovFlux`` → ``EFMFlux`` component swap
the paper highlights).

* :mod:`repro.hydro.state` — conserved/primitive conversions and the
  gamma-law EOS.
* :mod:`repro.hydro.limiters` — slope limiters.
* :mod:`repro.hydro.reconstruction` — MUSCL interface states.
* :mod:`repro.hydro.riemann_exact` — the exact gamma-law Riemann solver
  (Toro's two-shock/two-rarefaction Newton iteration) over a flat batch
  of faces, each solved independently of the others.
* :mod:`repro.hydro.godunov` / :mod:`repro.hydro.efm` — interface fluxes.
* :mod:`repro.hydro.fluxes` — dimension-by-dimension RHS assembly on
  ghosted patches, one reconstruction and one flux call for all of them.
* :mod:`repro.hydro.bc` — reflecting / outflow / inflow ghost fills.
* :mod:`repro.hydro.diagnostics` — vorticity and interfacial circulation
  (the paper's Fig 7 observable).
"""

from repro.hydro.state import (
    EulerState,
    NVARS,
    IRHO,
    IMX,
    IMY,
    IE,
    IZETA,
    cons_to_prim,
    prim_to_cons,
    sound_speed,
    max_wavespeed,
)
from repro.hydro.limiters import minmod, van_leer, mc_limiter, superbee
from repro.hydro.reconstruction import muscl_interface_states
from repro.hydro.riemann_exact import riemann_exact, sample_riemann
from repro.hydro.godunov import godunov_flux
from repro.hydro.efm import efm_flux
from repro.hydro.fluxes import euler_rhs, euler_rhs_patches, cfl_dt
from repro.hydro.bc import fill_reflecting, fill_outflow, fill_inflow
from repro.hydro.diagnostics import vorticity, interface_circulation

__all__ = [
    "EulerState",
    "NVARS",
    "IRHO",
    "IMX",
    "IMY",
    "IE",
    "IZETA",
    "cons_to_prim",
    "prim_to_cons",
    "sound_speed",
    "max_wavespeed",
    "minmod",
    "van_leer",
    "mc_limiter",
    "superbee",
    "muscl_interface_states",
    "riemann_exact",
    "sample_riemann",
    "godunov_flux",
    "efm_flux",
    "euler_rhs",
    "euler_rhs_patches",
    "cfl_dt",
    "fill_reflecting",
    "fill_outflow",
    "fill_inflow",
    "vorticity",
    "interface_circulation",
]
