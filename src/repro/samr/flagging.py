"""Error estimation: flagging cells for refinement.

"The coarseness of the mesh causes errors (suitably defined) in regions of
high gradients.  Based on an error threshold, grid points in these regions
are flagged..."  (paper §3).  The estimator used by ``ErrorEstAndRegrid``
"estimates the gradients at a cell and flags regions for
refinement/coarsening" (§4.2) — we use undivided differences, the standard
SAMR choice.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MeshError
from repro.samr.box import Box
from repro.samr.dataobject import DataObject


def undivided_gradient(field: np.ndarray) -> np.ndarray:
    """Max-over-axes undivided central difference |f_{i+1} - f_{i-1}| / 2.

    ``field`` must carry at least one ghost layer on each face; the result
    covers the interior (each axis shrinks by 2).
    """
    if any(n < 3 for n in field.shape):
        raise MeshError(f"field too small for gradient: shape {field.shape}")
    est = None
    for axis in range(field.ndim):
        hi = np.take(field, range(2, field.shape[axis]), axis=axis)
        lo = np.take(field, range(0, field.shape[axis] - 2), axis=axis)
        grad = 0.5 * np.abs(hi - lo)
        # clip the other axes to the interior
        idx = tuple(
            slice(None) if ax == axis else slice(1, -1)
            for ax in range(field.ndim)
        )
        grad = grad[idx]
        est = grad if est is None else np.maximum(est, grad)
    return est


def flag_gradient(
    dobj: DataObject,
    level: int,
    threshold: float,
    variables: list[int] | None = None,
    relative: bool = True,
    comm=None,
) -> dict[int, np.ndarray]:
    """Flag cells whose undivided gradient exceeds ``threshold``.

    With ``relative=True`` the threshold is a fraction of each variable's
    global max-gradient on the level (robust across problems); otherwise it
    is an absolute value applied to every variable.

    Returns ``{patch_id: bool array over the patch interior}`` for owned
    patches.  The patch ghost layers must be current (call
    :func:`repro.samr.ghost.exchange_ghosts` first).
    """
    if threshold <= 0:
        raise MeshError(f"threshold must be positive, got {threshold}")
    variables = variables if variables is not None else list(range(dobj.nvar))
    grads: dict[int, np.ndarray] = {}   # pid -> (nsel, *interior) gradients
    gmax = np.zeros(len(variables))
    for patch in dobj.owned_patches(level):
        arr = dobj.array(patch)
        per_var = []
        for k in variables:
            # use exactly one ghost ring around the interior
            pad = patch.nghost - 1
            core = arr[k]
            if pad > 0:
                core = core[(slice(pad, -pad),) * (arr.ndim - 1)]
            per_var.append(undivided_gradient(core))
        stack = np.stack(per_var)
        grads[patch.id] = stack
        if stack.size:
            gmax = np.maximum(gmax, stack.reshape(len(variables), -1).max(axis=1))
    if relative:
        if comm is not None:
            from repro.mpi.comm import Op

            gmax = comm.allreduce(gmax, op=Op.MAX)
        cutoff = threshold * np.where(gmax > 0, gmax, 1.0)
    else:
        cutoff = np.full(len(variables), threshold)
    flags: dict[int, np.ndarray] = {}
    for pid, stack in grads.items():
        flags[pid] = np.any(
            stack > cutoff.reshape((-1,) + (1,) * (stack.ndim - 1)), axis=0)
    return flags


def buffer_flags(flags: np.ndarray, n: int) -> np.ndarray:
    """Dilate a boolean flag field by ``n`` cells so refined patches keep a
    safety margin around features as they move."""
    if n < 0:
        raise MeshError("buffer width must be non-negative")
    if n == 0 or not flags.any():
        return flags.copy()
    # the n-fold full-connectivity dilation is a (2n+1)^d box, which is
    # separable: OR the field with itself shifted by up to n along each
    # axis in turn (cells shifted in from outside the array are unflagged)
    out = flags.astype(bool)
    for axis in range(out.ndim):
        src = out
        out = src.copy()
        for shift in range(1, min(n, src.shape[axis] - 1) + 1):
            lo = [slice(None)] * src.ndim
            hi = [slice(None)] * src.ndim
            lo[axis], hi[axis] = slice(None, -shift), slice(shift, None)
            out[tuple(hi)] |= src[tuple(lo)]
            out[tuple(lo)] |= src[tuple(hi)]
    return out


def assemble_level_flags(
    hierarchy,
    level: int,
    patch_flags: dict[int, np.ndarray],
    comm=None,
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Combine per-patch interior flags into one dense boolean array over
    the level's domain index space.  In parallel every rank contributes its
    owned patches and the union is allreduced.

    Returns ``(flags, origin)`` where ``origin`` is the domain's lo corner.
    """
    domain = hierarchy.domain_at(level)
    dense = np.zeros(domain.shape, dtype=bool)
    for patch in hierarchy.level(level).patches:
        arr = patch_flags.get(patch.id)
        if arr is None:
            continue
        dense[patch.box.slices(origin=domain.lo)] |= arr
    if comm is not None and comm.size > 1:
        from repro.mpi.comm import Op

        dense = comm.allreduce(dense, op=Op.LOR)
    return dense, domain.lo
