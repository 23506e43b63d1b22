"""DiffusionPhysics: the diffusive transport source term.

Evaluates ``K ∇·(B ∇Φ)`` of the paper's Eq. 3, patch by patch:
``Φ = [T, Y_1..Y_N]``, ``K = (1/ρ)[1/cp, 1, ..., 1]``,
``B = [λ, ρD_1, ..., ρD_N]`` — heat conduction plus mixture-averaged
Fickian species diffusion.  Face coefficients are arithmetic means of the
cell-centered values; the stencil needs one ghost ring.

Provides ``rhs`` (PatchRHSPort); uses ``transport`` and ``chem``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.cca.component import Component
from repro.cca.ports.rhs import PatchRHSPort
from repro.errors import CCAError
from repro.util.arena import Arena


def _div_flux(phi: np.ndarray, B: np.ndarray, dx: float, dy: float,
              out: np.ndarray | None = None,
              work: np.ndarray | None = None) -> np.ndarray:
    """∇·(B ∇φ) over the interior of ``(nvar, nx + 2, ny + 2)`` arrays
    (one ghost ring), computed into ``out``.  ``work`` is two rows of
    face scratch, each at least ``nvar * max((nx+1) ny, nx (ny+1))``
    long, that the x and the y sweep share."""
    nvar, nx, ny = phi.shape[0], phi.shape[1] - 2, phi.shape[2] - 2
    if out is None:
        out = np.empty((nvar, nx, ny))
    if work is None:
        work = np.empty((2, nvar * max((nx + 1) * ny, nx * (ny + 1))))
    inner = slice(1, -1)
    _sweep(phi[:, :, inner], B[:, :, inner], dx, 1, out, work)
    # the y sweep lands where its own Δφ was: dead once the flux is formed
    div_y = work[1][:out.size].reshape(out.shape)
    _sweep(phi[:, inner, :], B[:, inner, :], dy, 2, div_y, work)
    out += div_y
    return out


def _sweep(phi: np.ndarray, B: np.ndarray, h: float, axis: int,
           out: np.ndarray, work: np.ndarray) -> None:
    """``out = (f[i+1/2] - f[i-1/2]) / h`` along ``axis`` for the face
    flux ``f = mean(B) Δφ / h``; ``phi`` and ``B`` are already cut to the
    interior of the other axis."""
    lo = tuple(slice(None, -1) if ax == axis else slice(None)
               for ax in range(3))
    hi = tuple(slice(1, None) if ax == axis else slice(None)
               for ax in range(3))
    faces = phi[lo].shape
    flux, dphi = (row[:math.prod(faces)].reshape(faces) for row in work)
    np.add(B[hi], B[lo], out=flux)
    flux *= 0.5
    np.subtract(phi[hi], phi[lo], out=dphi)
    flux *= dphi
    flux /= h
    np.subtract(flux[hi], flux[lo], out=out)
    out /= h


class _DiffusionRHS(PatchRHSPort):
    def __init__(self, owner: "DiffusionPhysics") -> None:
        self.owner = owner
        self.nfe = 0

    def evaluate(self, t: float, patch, ghosted: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
        self.nfe += 1
        return self.owner.evaluate(patch, ghosted, out)


class DiffusionPhysics(Component):
    """Diffusive RHS of the reaction-diffusion system (see module doc).

    Every array an evaluation needs besides its result is carved out of
    one :class:`~repro.util.arena.Arena` this instance owns; the result
    itself is ``out`` or a fresh array, never a view of the arena.
    """

    def set_services(self, services) -> None:
        self.services = services
        self._arena = Arena()
        services.register_uses_port("transport", "TransportPort")
        services.register_uses_port("chem", "ChemistryPort")
        services.register_uses_port("mesh", "MeshPort")
        services.add_provides_port(_DiffusionRHS(self), "rhs")

    def evaluate(self, patch, ghosted: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
        chem = self.services.get_port("chem")
        transport = self.services.get_port("transport")
        mech = chem.mechanism()
        nsp, nvar = mech.n_species, mech.n_species + 1
        if ghosted.shape[0] != nvar:
            raise CCAError(
                f"DiffusionPhysics expects T + {nsp} species, "
                f"got {ghosted.shape[0]} variables")
        if patch.nghost < 1:
            raise CCAError(
                "DiffusionPhysics needs at least one ghost ring, patch "
                f"{patch} has nghost = {patch.nghost}")
        dx, dy = self._spacing(patch)
        pad = patch.nghost - 1
        core = ghosted if pad == 0 else ghosted[:, pad:-pad, pad:-pad]
        NX, NY = core.shape[1:]
        nx, ny = NX - 2, NY - 2
        if out is None:
            out = np.empty((nvar, nx, ny))
        # cell-centred properties on the core, then two rows of faces
        # that the interior-sized cp scratch reuses once the fluxes are
        # differenced
        cells, faces = self._arena.carve(
            (2 * nvar + 1, NX, NY),
            (2, nvar * max((nx + 1) * ny, nx * (ny + 1))))
        T, rho, Y, B = cells[0], cells[1], cells[2:nvar + 1], cells[nvar + 1:]
        np.maximum(core[0], 50.0, out=T)
        np.clip(core[1:], 0.0, None, out=Y)
        P = chem.pressure()
        mech.density(T, P, Y, out=rho, work=B[1:])
        transport.conductivity(T, out=B[0])
        transport.diffusion_coefficients(T, P, out=B[1:])
        B[1:] *= rho
        _div_flux(core, B, dx, dy, out=out, work=faces)
        interior = (slice(1, -1), slice(1, -1))
        rho_in = rho[interior]
        cp_work = faces.reshape(-1)[:nvar * 2 * nx * ny].reshape(
            2 * nvar, nx, ny)
        rho_cp = mech.cp_mass(T[interior], Y[(slice(None),) + interior],
                              out=cp_work[-1], work=cp_work)
        rho_cp *= rho_in
        out[0] /= rho_cp
        out[1:] /= rho_in
        return out

    def _spacing(self, patch) -> tuple[float, float]:
        hierarchy = self.services.get_port("mesh").hierarchy()
        dx, dy = hierarchy.dx(patch.level)
        return float(dx), float(dy)
