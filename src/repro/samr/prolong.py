"""Prolongation: coarse-to-fine interpolation (cell-centered).

"New patches are created and initialized with data from the coarse meshes
... This process is called prolongation."  (paper §3)

Both operators act on the *last two* axes so they apply directly to
``(nvar, nx, ny)`` blocks.  ``prolong_constant`` is the conservative
injection used to seed brand-new patches when smoothness is uncertain;
``prolong_bilinear`` is the second-order limited-slope operator used for
coarse-fine ghost filling (``ProlongRestrict`` component).
"""

from __future__ import annotations

import numpy as np

from repro.errors import MeshError


def prolong_constant(coarse: np.ndarray, ratio: int) -> np.ndarray:
    """Piecewise-constant injection: each coarse cell fills an
    ``ratio x ratio`` block of fine cells.  Conservative by construction."""
    if ratio < 1:
        raise MeshError(f"ratio must be >= 1, got {ratio}")
    out = np.repeat(coarse, ratio, axis=-2)
    return np.repeat(out, ratio, axis=-1)


def prolong_bilinear(coarse: np.ndarray, ratio: int,
                     limited: bool = True) -> np.ndarray:
    """Slope-reconstruction prolongation.

    ``coarse`` must include exactly **one ghost ring** on each of the last
    two axes; the result covers the fine image of the coarse *interior*:
    output shape ``(..., (nx-2)*ratio, (ny-2)*ratio)``.

    Per coarse cell, a linear profile ``c + sx*ξ + sy*η`` is sampled at the
    fine-cell centers (ξ, η ∈ (-1/2, 1/2) in coarse-cell units).  With
    ``limited=True`` slopes use minmod, keeping the operator monotone (no
    new extrema — essential next to shocks and flame fronts).  The fine
    average over each coarse cell equals the coarse value, so the operator
    is conservative.
    """
    if ratio < 1:
        raise MeshError(f"ratio must be >= 1, got {ratio}")
    nx, ny = coarse.shape[-2], coarse.shape[-1]
    if nx < 3 or ny < 3:
        raise MeshError(
            f"prolong_bilinear needs a ghost ring: shape {(nx, ny)}")
    c = coarse[..., 1:-1, 1:-1]
    if ratio == 1:
        return c.copy()
    sx = _slope(coarse[..., 2:, 1:-1], c, coarse[..., :-2, 1:-1], limited)
    sy = _slope(coarse[..., 1:-1, 2:], c, coarse[..., 1:-1, :-2], limited)
    # offsets of fine-cell centers inside a coarse cell, in coarse units
    off = (np.arange(ratio) + 0.5) / ratio - 0.5

    def blocks(a: np.ndarray) -> np.ndarray:
        """``a`` with a length-1 fine axis after each of the last two."""
        return a[..., :, None, :, None]

    # (c + sx*xi) + sy*eta on axes (..., nx, ratio, ny, ratio)
    fine = ((blocks(c) + blocks(sx) * off[:, None, None])
            + blocks(sy) * off)
    return fine.reshape(*c.shape[:-2], c.shape[-2] * ratio,
                        c.shape[-1] * ratio)


def _slope(up: np.ndarray, mid: np.ndarray, dn: np.ndarray,
           limited: bool) -> np.ndarray:
    fwd = up - mid
    bwd = mid - dn
    if not limited:
        return 0.5 * (fwd + bwd)
    # minmod
    same_sign = (fwd * bwd) > 0.0
    return np.where(same_sign, np.sign(fwd) * np.minimum(np.abs(fwd),
                                                         np.abs(bwd)), 0.0)
