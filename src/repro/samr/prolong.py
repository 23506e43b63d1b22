"""Prolongation: coarse-to-fine interpolation (cell-centered).

"New patches are created and initialized with data from the coarse meshes
... This process is called prolongation."  (paper §3)

Both operators act on the *last two* axes so they apply directly to
``(nvar, nx, ny)`` blocks.  ``prolong_constant`` is the conservative
injection used to seed brand-new patches when smoothness is uncertain;
``prolong_bilinear`` is the second-order limited-slope operator
(``ProlongRestrict`` component).  ``prolong_gathered`` evaluates the same
limited profile for coarse cells gathered from anywhere in a flat buffer:
a coarse-fine fill lays every padded coarse buffer of a level end to end
and interpolates them all in one call, each fine value the same float
``prolong_bilinear`` gives it.
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


#: coarse cells :func:`prolong_gathered` interpolates per pass: its
#: temporaries stay a few ``(nvar, 1024)`` arrays when a regrid seeds a
#: whole level in one fill
_CELLS_PER_PASS = 1024


def prolong_gathered(values: np.ndarray, stencil: np.ndarray,
                     ratio: int) -> np.ndarray:
    """``prolong_bilinear`` (limited) of the coarse cells ``stencil``
    names in ``values``.

    ``values`` is ``(nvar, n)``; ``stencil`` is ``(5, m)`` positions in it:
    each coarse cell, then its +x, +y, -x and -y neighbour.  Returns
    ``(nvar, ratio**2 * m)``: the fine cell at offset ``(a, b)`` inside
    coarse cell ``k`` is column ``(a * ratio + b) * m + k``, so every
    operation runs along the cells.  Slopes and the ``(c + sx*ξ) + sy*η``
    evaluation order are those of ``prolong_bilinear``.
    """
    nvar, cells = len(values), stencil.shape[1]
    off = (np.arange(ratio) + 0.5) / ratio - 0.5
    fine = np.empty((nvar, ratio, ratio, cells))
    for lo in range(0, cells, _CELLS_PER_PASS):
        near = np.take(values, stencil[:, lo:lo + _CELLS_PER_PASS], axis=1)
        slopes = _slope(near[:, 1:3], near[:, :1], near[:, 3:], True)
        sx, sy = slopes[:, 0, None, None], slopes[:, 1, None, None]
        fine[..., lo:lo + _CELLS_PER_PASS] = (
            (near[:, 0, None, None] + sx * off[:, None, None])
            + sy * off[:, None])
    return fine.reshape(nvar, -1)


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
