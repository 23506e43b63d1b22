"""Slope limiters for MUSCL reconstruction.

Each limiter maps forward/backward differences ``(a, b)`` to a limited
slope; all are vectorized and symmetric (``phi(a, b) == phi(b, a)``).

A limiter writes its result into ``out`` and keeps its intermediates
there and in ``work`` (shape ``(2,) + out.shape``; only ``superbee``
touches the second plane), so a caller that reconstructs again and again
hands both out of one arena (DESIGN.md §5, "allocation discipline");
without them they are allocated.  ``out`` and ``work`` must not overlap
``a`` or ``b``.
"""

from __future__ import annotations

import numpy as np


def _buffers(a, b, out, work) -> tuple[np.ndarray, np.ndarray]:
    shape = np.broadcast(a, b).shape
    if out is None:
        out = np.empty(shape)
    if work is None:
        work = np.empty((2, *shape))
    return out, work


def _zero_unless(keep: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out = np.where(keep, out, 0.0)``, in place."""
    np.copyto(out, 0.0, where=~keep)
    return out


def minmod(a, b, out=None, work=None) -> np.ndarray:
    """The most diffusive TVD limiter: smallest-magnitude same-sign slope."""
    out, work = _buffers(a, b, out, work)
    w = work[0, ...]
    same = np.multiply(a, b, out=out) > 0.0
    np.minimum(np.abs(a, out=out), np.abs(b, out=w), out=out)
    np.multiply(np.sign(a, out=w), out, out=out)
    return _zero_unless(same, out)


def van_leer(a, b, out=None, work=None) -> np.ndarray:
    """Harmonic-mean limiter: smooth, second-order away from extrema."""
    out, work = _buffers(a, b, out, work)
    denom = np.add(a, b, out=work[0, ...])
    safe = np.abs(denom, out=out) > 1e-300
    np.copyto(denom, 1.0, where=~safe)
    ab = np.multiply(a, b, out=out)
    safe &= ab > 0.0
    ab *= 2.0
    ab /= denom
    return _zero_unless(safe, out)


def mc_limiter(a, b, out=None, work=None) -> np.ndarray:
    """Monotonized central: min(2|a|, 2|b|, |a+b|/2), sharper than minmod."""
    out, work = _buffers(a, b, out, work)
    w = work[0, ...]
    same = np.multiply(a, b, out=out) > 0.0
    np.abs(a, out=out)
    out *= 2.0
    np.abs(b, out=w)
    w *= 2.0
    np.minimum(out, w, out=out)
    np.abs(np.add(a, b, out=w), out=w)
    w *= 0.5
    np.minimum(out, w, out=out)
    np.multiply(np.sign(a, out=w), out, out=out)
    return _zero_unless(same, out)


def superbee(a, b, out=None, work=None) -> np.ndarray:
    """The most compressive TVD limiter."""
    out, work = _buffers(a, b, out, work)
    abs_a, abs_b = work[0, ...], work[1, ...]
    same = np.multiply(a, b, out=out) > 0.0
    np.abs(a, out=abs_a)
    np.abs(b, out=abs_b)
    m1 = np.minimum(np.multiply(abs_a, 2.0, out=out), abs_b, out=out)
    abs_b *= 2.0
    m2 = np.minimum(abs_a, abs_b, out=abs_a)
    np.maximum(m1, m2, out=out)
    np.multiply(np.sign(a, out=abs_a), out, out=out)
    return _zero_unless(same, out)


LIMITERS = {
    "minmod": minmod,
    "van_leer": van_leer,
    "mc": mc_limiter,
    "superbee": superbee,
}
