"""Runge-Kutta-Chebyshev: stabilized explicit integration for diffusion.

Implements the second-order damped RKC scheme of Sommeijer, Shampine &
Verwer ("RKC: an explicit solver for parabolic PDEs", J. Comp. Appl. Math.
88, 1998) — the paper's ``ExplicitIntegrator``.  The stage count ``s`` is
chosen so the stability interval ``beta(s)`` (exact; asymptotically
``~ 0.653 s^2``) covers ``dt * rho`` where ``rho`` bounds the spectral
radius of the diffusion operator (supplied by ``MaxDiffCoeffEvaluator``
in the component assembly).
"""

from __future__ import annotations

import math
import time
from typing import Callable

import numpy as np

from repro.errors import IntegratorError
from repro.obs import trace as _obs
from repro.obs.metrics import get_registry as _obs_registry

RHS = Callable[[float, np.ndarray], np.ndarray]

#: Damping parameter of the standard scheme.
_EPS = 2.0 / 13.0


def beta(s: int) -> float:
    """Exact damped stability boundary of the ``s``-stage scheme.

    ``beta(s) = (1 + w0) T''_s(w0) / T'_s(w0)`` with ``w0 = 1 + eps/s^2``
    (Sommeijer et al. eq. 2.4).  The familiar ``0.653 s^2`` is its large-s
    asymptote and *over*estimates it for small ``s`` — stage selection must
    use the exact value or steps near the boundary are unstable.
    """
    if s < 2:
        raise IntegratorError(f"RKC needs at least 2 stages, got {s}")
    w0 = 1.0 + _EPS / s**2
    _T, dT, ddT = _cheb_row(s, w0)
    return (1.0 + w0) * ddT[s] / dT[s]


def stages_for(dt: float, rho: float, safety: float = 1.05) -> int:
    """Smallest stage count whose stability region covers ``dt * rho``."""
    if dt <= 0.0:
        raise IntegratorError(f"dt must be positive, got {dt}")
    if rho < 0.0:
        raise IntegratorError(f"spectral radius must be >= 0, got {rho}")
    z = safety * dt * rho
    # Asymptotic first guess, then correct against the exact boundary
    # (beta(s) <= 0.653 s^2, so at most a step or two of adjustment).
    s = max(2, int(math.ceil(math.sqrt(z / 0.653 + 1.0))))
    while s > 2 and beta(s - 1) >= z:
        s -= 1
    while beta(s) < z:
        s += 1
    return s


def _cheb_row(s: int, w0: float) -> tuple[list[float], list[float], list[float]]:
    """Chebyshev values T_j(w0), T'_j(w0), T''_j(w0) for j = 0..s."""
    T = [1.0, w0]
    dT = [0.0, 1.0]
    ddT = [0.0, 0.0]
    for j in range(2, s + 1):
        T.append(2.0 * w0 * T[j - 1] - T[j - 2])
        dT.append(2.0 * T[j - 1] + 2.0 * w0 * dT[j - 1] - dT[j - 2])
        ddT.append(4.0 * dT[j - 1] + 2.0 * w0 * ddT[j - 1] - ddT[j - 2])
    return T, dT, ddT


def rkc_step(rhs: RHS, t: float, y: np.ndarray, dt: float, rho: float,
             stages: int | None = None,
             work: np.ndarray | None = None) -> np.ndarray:
    """One second-order RKC step from ``t`` to ``t + dt``.

    ``rho`` is an upper bound on the spectral radius of df/dy; ``stages``
    overrides the automatic stage-count selection.

    The step computes in ``work``, a float array of shape
    ``(4,) + y.shape`` (a fresh one if not given), and returns a view of
    it.  ``y`` and the arrays ``rhs`` returns are only read.  Every stage
    uses the RHS at ``y`` again, so the array the first call returned
    must outlive the step; each later one is done with before ``rhs`` is
    called again, so ``rhs`` may hand those back in one reused buffer.
    """
    s = stages if stages is not None else stages_for(dt, rho)
    if s < 2:
        raise IntegratorError(f"RKC needs at least 2 stages, got {s}")
    w0 = 1.0 + _EPS / s**2
    T, dT, ddT = _cheb_row(s, w0)
    w1 = dT[s] / ddT[s]

    b = [0.0] * (s + 1)
    for j in range(2, s + 1):
        b[j] = ddT[j] / dT[j] ** 2
    b[0] = b[2]
    b[1] = 1.0 / w0

    if work is None:
        work = np.empty((4,) + np.shape(y))
    # one product at a time, and the three stage vectors in rotation
    term, *ring = (work[k, ...] for k in range(4))
    f0 = rhs(t, y)
    y_jm2 = y
    mu1_t = b[1] * w1
    y_jm1 = ring[0]
    np.multiply(f0, mu1_t * dt, out=y_jm1)
    y_jm1 += y
    c_jm2, c_jm1 = 0.0, mu1_t
    for j in range(2, s + 1):
        mu = 2.0 * b[j] * w0 / b[j - 1]
        nu = -b[j] / b[j - 2]
        mu_t = mu * w1 / w0
        a_jm1 = 1.0 - b[j - 1] * T[j - 1]
        gamma_t = -a_jm1 * mu_t
        f = rhs(t + c_jm1 * dt, y_jm1)
        # (1 - mu - nu) y + mu y_jm1 + nu y_jm2 + mu_t dt f + gamma_t dt f0,
        # summed left to right
        y_j = ring[(j - 1) % 3]
        np.multiply(y, 1.0 - mu - nu, out=y_j)
        y_j += np.multiply(y_jm1, mu, out=term)
        y_j += np.multiply(y_jm2, nu, out=term)
        y_j += np.multiply(f, mu_t * dt, out=term)
        y_j += np.multiply(f0, gamma_t * dt, out=term)
        c_j = mu * c_jm1 + nu * c_jm2 + mu_t + gamma_t
        y_jm2, y_jm1 = y_jm1, y_j
        c_jm2, c_jm1 = c_jm1, c_j
    return y_jm1


class RKC:
    """Driver advancing a state over macro-steps with per-step stage
    selection and RHS-evaluation accounting.

    Parameters
    ----------
    rhs:
        ``f(t, y)``.
    rho_fn:
        ``rho(t, y) -> float`` spectral-radius bound, re-evaluated each
        macro step (the ``MaxDiffCoeffEvaluator`` hook).
    """

    def __init__(self, rhs: RHS, rho_fn: Callable[[float, np.ndarray], float]):
        self.rhs = rhs
        self.rho_fn = rho_fn
        self.nfe = 0
        self.nsteps = 0
        self.last_stages = 0

    def _counted_rhs(self, t: float, y: np.ndarray) -> np.ndarray:
        self.nfe += 1
        return self.rhs(t, y)

    def advance(self, t: float, y: np.ndarray, dt: float) -> np.ndarray:
        """One macro step of size ``dt``."""
        t0 = time.perf_counter() if _obs.on else 0.0
        nfe0 = self.nfe
        rho = float(self.rho_fn(t, y))
        s = stages_for(dt, rho)
        self.last_stages = s
        self.nsteps += 1
        out = rkc_step(self._counted_rhs, t, y, dt, rho, stages=s)
        if _obs.on:
            _obs.complete("rkc.advance", "integrator", t0,
                          dt=dt, stages=s, rho=rho, nfe=self.nfe - nfe0)
            reg = _obs_registry()
            reg.counter("integrator.steps", kind="rkc").inc()
            reg.counter("integrator.rhs_evals", kind="rkc").inc(
                self.nfe - nfe0)
            reg.gauge("integrator.rkc_stages").set(s)
        return out

    def integrate_to(self, t0: float, y: np.ndarray, t_end: float,
                     dt: float) -> np.ndarray:
        """March from ``t0`` to ``t_end`` in macro steps of ``dt`` (the last
        one clipped)."""
        if t_end < t0:
            raise IntegratorError("cannot integrate backwards")
        t = t0
        while t < t_end - 1e-15 * max(1.0, abs(t_end)):
            step = min(dt, t_end - t)
            y = self.advance(t, y, step)
            t += step
        return y
