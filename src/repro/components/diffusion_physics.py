"""DiffusionPhysics: the diffusive transport source term.

Evaluates ``K ∇·(B ∇Φ)`` of the paper's Eq. 3, patch by patch:
``Φ = [T, Y_1..Y_N]``, ``K = (1/ρ)[1/cp, 1, ..., 1]``,
``B = [λ, ρD_1, ..., ρD_N]`` — heat conduction plus mixture-averaged
Fickian species diffusion.  Face coefficients are arithmetic means of the
cell-centered values; the stencil needs one ghost ring.

The same property pass gives the interior's largest diffusivity,
``max(max_i D_i, λ/(ρ cp))``, kept with the interior until the patch's
next evaluation: the stability bound of that state is read, not redone.

Provides ``rhs`` (PatchRHSPort) and ``diffusivity`` (DiffusivityPort);
uses ``transport``, ``chem`` and ``mesh``.
"""

from __future__ import annotations

import math
import weakref

import numpy as np

from repro.cca.component import Component
from repro.cca.ports.rhs import DiffusivityPort, PatchRHSPort
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
    np.subtract(phi[hi], phi[lo], out=dphi)
    flux *= dphi
    # the face mean's 0.5 is exact, so it joins the 1/h: same bits
    flux /= 2.0 * h
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


class _Diffusivity(DiffusivityPort):
    def __init__(self, owner: "DiffusionPhysics") -> None:
        self.owner = owner

    def max_diffusivity(self, patch, interior: np.ndarray) -> float:
        return self.owner.max_diffusivity(patch, interior)


class DiffusionPhysics(Component):
    """Diffusive RHS of the reaction-diffusion system (see module doc).

    Every array an evaluation needs besides its result is carved out of
    one :class:`~repro.util.arena.Arena` this instance owns; the result
    itself is ``out`` or a fresh array, never a view of the arena.
    """

    PARAMS = ()

    def set_services(self, services) -> None:
        self.services = services
        self._arena = Arena()
        #: per live patch: (pressure, interior, largest diffusivity)
        self._last = weakref.WeakKeyDictionary()
        services.register_uses_port("transport", "TransportPort")
        services.register_uses_port("chem", "ChemistryPort")
        services.register_uses_port("mesh", "MeshPort")
        services.add_provides_port(_DiffusionRHS(self), "rhs")
        services.add_provides_port(_Diffusivity(self), "diffusivity")

    def evaluate(self, patch, ghosted: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
        services = self.services
        mech = services.ports.chem.mechanism()
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
        P = services.ports.chem.pressure()
        T, rho, Y, B = self._properties(core, cells, mech, P)
        interior = (slice(1, -1), slice(1, -1))
        d_max = B[(slice(1, None),) + interior].max()
        B[1:] *= rho
        _div_flux(core, B, dx, dy, out=out, work=faces)
        rho_in = rho[interior]
        cp_work = faces.reshape(-1)[:nvar * 2 * nx * ny].reshape(
            2 * nvar, nx, ny)
        rho_cp = mech.cp_mass(T[interior], Y[(slice(None),) + interior],
                              out=cp_work[-1], work=cp_work)
        rho_cp *= rho_in
        alpha = np.divide(B[(0,) + interior], rho_cp, out=cp_work[0])
        kept = self._last.get(patch, (P, None))[1]
        if kept is None or kept.shape != (nvar, nx, ny):
            kept = np.empty((nvar, nx, ny))
        np.copyto(kept, core[(slice(None),) + interior])
        self._last[patch] = (P, kept, float(max(d_max, alpha.max())))
        out[0] /= rho_cp
        out[1:] /= rho_in
        return out

    def max_diffusivity(self, patch, interior: np.ndarray) -> float:
        """The largest diffusivity over ``interior`` (see module doc)."""
        chem = self.services.ports.chem
        mech, P = chem.mechanism(), chem.pressure()
        last = self._last.get(patch)
        if last is not None and last[0] == P and \
                np.array_equal(last[1], interior):
            return last[2]
        nvar, shape = len(interior), interior.shape[1:]
        cells, work = self._arena.carve((2 * nvar + 1,) + shape,
                                        (2 * nvar,) + shape)
        T, rho, Y, B = self._properties(interior, cells, mech, P)
        rho_cp = mech.cp_mass(T, Y, out=work[-1, ...], work=work)
        rho_cp *= rho
        alpha = np.divide(B[0, ...], rho_cp, out=work[0, ...])
        return float(max(B[1:].max(), alpha.max()))

    def _properties(self, phi: np.ndarray, cells: np.ndarray, mech,
                    P: float) -> tuple[np.ndarray, ...]:
        """T (floored at 50 K), ρ, Y (clipped at 0) and ``B = [λ, D_1..
        D_N]`` (not yet times ρ) of ``phi``'s cells, in ``cells``' rows."""
        nvar = len(phi)
        # ``[k, ...]`` is a view even of 0-d cells
        T, rho = cells[0, ...], cells[1, ...]
        Y, B = cells[2:nvar + 1], cells[nvar + 1:]
        np.maximum(phi[0], 50.0, out=T)
        np.clip(phi[1:], 0.0, None, out=Y)
        mech.density(T, P, Y, out=rho, work=B[1:])
        transport = self.services.ports.transport
        transport.conductivity(T, out=B[0, ...])
        transport.diffusion_coefficients(T, P, out=B[1:])
        return T, rho, Y, B

    def _spacing(self, patch) -> tuple[float, float]:
        hierarchy = self.services.ports.mesh.hierarchy()
        dx, dy = hierarchy.dx(patch.level)
        return float(dx), float(dy)
