"""Dimension-by-dimension Euler RHS on ghosted patches.

``euler_rhs_patches`` is the right-hand side the paper's ``InviscidFlux``
adaptor supplies to the RK2 integrator.  Per evaluation it makes **one**
MUSCL reconstruction (``States``) over the sweep rows of every patch laid
end to end, **one** interface-flux call (``GodunovFlux`` or ``EFMFlux``)
over the faces of every patch and both sweeps, and the conservative
divergence per patch.  ``euler_rhs`` is its one-patch case.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.errors import HydroError
from repro.hydro.godunov import godunov_flux
from repro.hydro.reconstruction import muscl_interface_states
from repro.hydro.state import IE, IMX, IMY, IRHO, IZETA, NVARS, max_wavespeed
from repro.util.arena import Arena

FluxFn = Callable[[tuple, tuple, float], np.ndarray]

#: Positivity floors applied to cell and reconstructed interface states.
_RHO_FLOOR = 1e-12
_P_FLOOR = 1e-12
#: y-sweep row order: normal and tangential momentum exchanged.
_SWAP = [0, 2, 1, 3, 4]
#: Cells a MUSCL interface reads to either side of itself.
_HALO = 2


class _RowLayout(NamedTuple):
    """Where the sweep rows of a list of patches sit in the flat array:
    a block of x-sweep rows per patch (``nx + 4`` cells each), then a
    block of y-sweep rows per patch (``ny + 4`` cells each)."""

    key: tuple          # (ghosted (NX, NY) of each patch, nghost)
    cells: list[slice]  # the cells of each block: x blocks, then y blocks
    keep: np.ndarray    # interfaces whose four cells lie in one row
    faces: list[slice]  # the kept interfaces of each block, same order


def _row_layout(key: tuple) -> _RowLayout:
    shapes, g = key
    inner = [(NX - 2 * g, NY - 2 * g) for NX, NY in shapes]
    lengths = ([nx + 2 * _HALO for nx, _ in inner]
               + [ny + 2 * _HALO for _, ny in inner])
    counts = [ny for _, ny in inner] + [nx for nx, _ in inner]
    ends = np.cumsum(np.repeat(lengths, counts))
    # reconstruction yields interfaces 0 .. ncells-4 and interface k reads
    # cells k .. k+3: the three before each seam straddle two rows
    keep = np.ones(ends[-1] - 3, dtype=bool)
    keep[(ends[:-1, None] - (1, 2, 3)).ravel()] = False
    cells, faces = [], []
    for n, count in zip(lengths, counts):
        for blocks, size in ((cells, n * count), (faces, (n - 3) * count)):
            start = blocks[-1].stop if blocks else 0
            blocks.append(slice(start, start + size))
    return _RowLayout(key, cells, np.flatnonzero(keep), faces)


class RHSScratch:
    """What a caller that evaluates :func:`euler_rhs_patches` again and
    again keeps between calls: the arena the flat arrays are carved from
    and the row layout of the patch shapes seen last (rebuilt when they
    change, that is after a regrid).  Scratch, not state."""

    def __init__(self) -> None:
        self.arena = Arena()
        self._layout: _RowLayout | None = None

    def layout(self, shapes: tuple, nghost: int) -> _RowLayout:
        key = (shapes, nghost)
        if self._layout is None or self._layout.key != key:
            self._layout = _row_layout(key)
        return self._layout


def _prim_in_place(W: np.ndarray, gamma: float, work: np.ndarray) -> None:
    """Conserved rows of ``W`` -> floored ``(rho, u, v, p, zeta)`` rows:
    :func:`repro.hydro.state.cons_to_prim` operation for operation, in
    three ``work`` rows."""
    rho, u, v, p, zeta = W[IRHO], W[IMX], W[IMY], W[IE], W[IZETA]
    half_rho, uu, vv = work
    u /= rho
    v /= rho
    zeta /= rho
    np.multiply(rho, 0.5, out=half_rho)
    np.multiply(u, u, out=uu)
    np.multiply(v, v, out=vv)
    uu += vv
    half_rho *= uu
    p -= half_rho
    p *= gamma - 1.0
    np.maximum(rho, _RHO_FLOOR, out=rho)
    np.maximum(p, _P_FLOOR, out=p)


def euler_rhs_patches(Us: Sequence[np.ndarray],
                      spacings: Sequence[tuple[float, float]],
                      gamma: float,
                      flux_fn: FluxFn = godunov_flux,
                      limiter: str = "van_leer",
                      nghost: int = 2,
                      reconstruct_fn: Callable | None = None,
                      scratch: RHSScratch | None = None
                      ) -> list[np.ndarray]:
    """dU/dt over the interiors of several ghosted patches, from **one**
    ``reconstruct_fn`` and **one** ``flux_fn`` call.

    ``Us[k]`` has shape ``(5, nx_k + 2*nghost, ny_k + 2*nghost)`` with
    ghosts already filled and ``spacings[k]`` is its ``(dx, dy)``; the
    k-th return value has interior shape ``(5, nx_k, ny_k)``.  ``nghost``
    must be >= 2 (MUSCL stencil).

    The rows of every patch — along x for the x-sweep, along y with the
    momenta swapped for the y-sweep, each with its 2-cell halo — are laid
    end to end in one flat ``(5, N)`` array and reconstructed together;
    the interfaces whose stencil crosses from one row into the next are
    dropped (so no patch sees another's cells), and the rest go to
    ``flux_fn`` as one flat left/right pair: ``flux_fn`` must be
    face-independent (see ``FluxPort.flux``).

    ``reconstruct_fn(prim, axis) -> (qL, qR)`` overrides the built-in
    MUSCL reconstruction — the hook the ``States`` component plugs into;
    see ``StatesPort.interface_states`` for what the flat call asks of it.
    ``scratch`` is the caller's :class:`RHSScratch` when it has one to
    reuse.
    """
    if nghost < 2:
        raise HydroError("euler_rhs needs at least 2 ghost cells")
    if not Us:
        return []
    g = nghost
    if reconstruct_fn is None:
        reconstruct_fn = lambda q, axis: muscl_interface_states(  # noqa: E731
            q, axis=axis, limiter=limiter)
    scratch = scratch or RHSScratch()
    layout = scratch.layout(tuple(U.shape[1:] for U in Us), g)
    # the three work rows of the primitives and, once those exist, the
    # kept left/right interface states share one stretch of the arena
    npatch = len(Us)
    ncells, nfaces = layout.cells[-1].stop, layout.faces[-1].stop
    W, shared = scratch.arena.carve(
        (NVARS, ncells), (max(3 * ncells, 2 * NVARS * nfaces),))
    work = shared[:3 * ncells].reshape(3, ncells)
    left, right = shared[:2 * NVARS * nfaces].reshape(2, NVARS, nfaces)

    extra = g - _HALO  # ghost layers the stencil does not reach
    for k, U in enumerate(Us):
        NX, NY = U.shape[1:]
        x_rows, y_rows = layout.cells[k], layout.cells[npatch + k]
        W[:, x_rows].reshape(NVARS, NY - 2 * g, -1)[...] = \
            U[:, extra:NX - extra, g:-g].transpose(0, 2, 1)
        W[:, y_rows].reshape(NVARS, NX - 2 * g, -1)[...] = \
            U[:, g:-g, extra:NY - extra]
    _prim_in_place(W, gamma, work)
    # y-sweep: the normal velocity is v
    y_half = slice(layout.cells[npatch].start, None)
    un, ut, swap = W[IMX, y_half], W[IMY, y_half], work[0, y_half]
    swap[...] = un
    un[...] = ut
    ut[...] = swap

    states = reconstruct_fn(W, 1)
    for q, kept in zip(states, (left, right)):
        q.take(layout.keep, axis=1, out=kept, mode="clip")
        # positivity floors on the reconstructed (rho, un, ut, p, zeta)
        np.maximum(kept[0], _RHO_FLOOR, out=kept[0])
        np.maximum(kept[3], _P_FLOOR, out=kept[3])
    del states, q  # full-length arrays the flux call should not carry
    flux = flux_fn(tuple(left), tuple(right), gamma)

    out = []
    for k, (U, (dx, dy)) in enumerate(zip(Us, spacings)):
        nx, ny = U.shape[1] - 2 * g, U.shape[2] - 2 * g
        F = flux[:, layout.faces[k]].reshape(
            NVARS, ny, nx + 1).transpose(0, 2, 1)
        G = flux[:, layout.faces[npatch + k]].reshape(
            NVARS, nx, ny + 1)[_SWAP]
        dU = np.zeros_like(U[:, g:-g, g:-g])
        dU -= (F[:, 1:, :] - F[:, :-1, :]) / dx
        dU -= (G[:, :, 1:] - G[:, :, :-1]) / dy
        out.append(dU)
    return out


def euler_rhs(U: np.ndarray, dx: float, dy: float, gamma: float,
              flux_fn: FluxFn = godunov_flux,
              limiter: str = "van_leer",
              nghost: int = 2,
              reconstruct_fn: Callable | None = None) -> np.ndarray:
    """dU/dt over the interior of one ghosted patch: the one-patch case of
    :func:`euler_rhs_patches`."""
    return euler_rhs_patches([U], [(dx, dy)], gamma, flux_fn=flux_fn,
                             limiter=limiter, nghost=nghost,
                             reconstruct_fn=reconstruct_fn)[0]


def cfl_dt(U: np.ndarray, dx: float, dy: float, gamma: float,
           cfl: float = 0.4) -> float:
    """Stable step from the characteristic speeds
    (``CharacteristicQuantities``): ``dt = cfl / (smax/dx + smax/dy)``."""
    if not (0.0 < cfl <= 1.0):
        raise HydroError(f"cfl must be in (0, 1], got {cfl}")
    smax = max_wavespeed(U, gamma)
    if smax <= 0.0:
        raise HydroError("zero wavespeed field")
    return cfl / (smax / dx + smax / dy)
