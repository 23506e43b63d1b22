"""Exact Riemann solver for the gamma-law gas (face-independent Toro solver).

Given left/right primitive states at a batch of interfaces, finds the
star-region pressure/velocity by Newton iteration on the pressure function
(Toro, *Riemann Solvers and Numerical Methods for Fluid Dynamics*, ch. 4)
and samples the self-similar solution on the interface ray ``x/t = 0``.
Tangential velocity and the interface function ζ ride passively with the
contact wave.

Every face is solved on its own: inputs of any shape are flattened to one
1-D batch, a face whose two states are equal is its own solution, every
other face iterates until *its own* change is below ``_TOL`` and is then
frozen, and each wave branch is evaluated on the faces that take it.  A
face's result therefore does not depend, bit for bit, on which other faces
share the call — callers may gather faces of many patches into one batch.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConvergenceError, HydroError

_MAX_NEWTON = 40
_TOL = 1e-10


def _flat(*xs) -> tuple[tuple[int, ...], list[np.ndarray]]:
    """The common shape of ``xs`` and each as a 1-D float array."""
    arrays = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in xs))
    return arrays[0].shape, [a.ravel() for a in arrays]


def _pressure_function(p, rho_k, p_k, a_k, gamma, derivative: bool = True):
    """f_K(p) and its derivative for one side: the shock branch on the
    faces with ``p > p_K``, the rarefaction branch on the others."""
    g1 = (gamma - 1.0) / (2.0 * gamma)
    f = np.empty_like(p)
    df = np.empty_like(p) if derivative else None
    shock = p > p_k
    i = shock.nonzero()[0]
    if i.size:
        ps, pk = p[i], p_k[i]
        A = 2.0 / ((gamma + 1.0) * rho_k[i])
        B = (gamma - 1.0) / (gamma + 1.0) * pk
        sq = np.sqrt(A / (ps + B))
        f[i] = (ps - pk) * sq
        if derivative:
            df[i] = sq * (1.0 - 0.5 * (ps - pk) / (B + ps))
    i = (~shock).nonzero()[0]
    if i.size:
        ak = a_k[i]
        pr = np.maximum(p[i] / p_k[i], 1e-300)
        f[i] = 2.0 * ak / (gamma - 1.0) * (pr**g1 - 1.0)
        if derivative:
            df[i] = pr ** (-(gamma + 1.0) / (2.0 * gamma)) / (rho_k[i] * ak)
    return f, df


def _star_states(rho_l, u_l, p_l, rho_r, u_r, p_r, gamma):
    """(p*, u*) of a flat batch, plus what the sampler needs of the faces
    that had to be solved: their indices and, gathered on them, the
    ``(rho, u, p, a)`` of either side.

    A face with equal states is its own star state — exactly what the
    iteration returns for it: the PVRS guess is ``p``, both pressure
    functions vanish (``1.0**x == 1.0``) and Newton does not move.
    """
    if np.any(rho_l <= 0) or np.any(rho_r <= 0) or np.any(p_l <= 0) \
            or np.any(p_r <= 0):
        raise HydroError("Riemann solver fed non-physical states")
    p_star, u_star = p_l.copy(), u_l.copy()
    active = ((rho_l != rho_r) | (u_l != u_r) | (p_l != p_r)).nonzero()[0]
    if not active.size:
        return p_star, u_star, active, None, None
    rho_l, u_l, p_l, rho_r, u_r, p_r = (
        x[active] for x in (rho_l, u_l, p_l, rho_r, u_r, p_r))
    a_l = np.sqrt(gamma * p_l / rho_l)
    a_r = np.sqrt(gamma * p_r / rho_r)
    du = u_r - u_l
    # vacuum generation check (Toro eq. 4.40)
    if np.any(2.0 * (a_l + a_r) / (gamma - 1.0) <= du):
        raise HydroError("vacuum generated between states (expansion too strong)")
    # PVRS initial guess, floored
    p = 0.5 * (p_l + p_r) - 0.125 * du * (rho_l + rho_r) * (a_l + a_r)
    p = np.maximum(p, 1e-8 * np.minimum(p_l, p_r))
    solved = np.empty_like(p)
    # one row per quantity the iteration reads, one column per face still
    # iterating: converged faces are frozen by dropping their columns
    live = np.arange(p.size)
    work = np.stack([p, du, 1e-10 * np.minimum(p_l, p_r),
                     rho_l, p_l, a_l, rho_r, p_r, a_r])
    for _ in range(_MAX_NEWTON):
        p, ddu, floor, rl, pl, al, rr, pr, ar = work
        f_l, df_l = _pressure_function(p, rl, pl, al, gamma)
        f_r, df_r = _pressure_function(p, rr, pr, ar, gamma)
        delta = (f_l + f_r + ddu) / (df_l + df_r)
        p_new = np.maximum(p - delta, floor)
        change = np.abs(p_new - p) / np.maximum(p_new, 1e-300)
        solved[live] = p_new
        moving = (~(change < _TOL)).nonzero()[0]
        if not moving.size:
            break
        work[0] = p_new
        if moving.size < live.size:
            live = live[moving]
            work = work.take(moving, axis=1)
    else:
        raise ConvergenceError(
            f"Riemann star-pressure Newton did not converge "
            f"(max change {float(change.max()):.2e})")
    f_l, _ = _pressure_function(solved, rho_l, p_l, a_l, gamma,
                                derivative=False)
    f_r, _ = _pressure_function(solved, rho_r, p_r, a_r, gamma,
                                derivative=False)
    p_star[active] = solved
    u_star[active] = 0.5 * (u_l + u_r) + 0.5 * (f_r - f_l)
    return (p_star, u_star, active,
            (rho_l, u_l, p_l, a_l), (rho_r, u_r, p_r, a_r))


def riemann_exact(rho_l, u_l, p_l, rho_r, u_r, p_r,
                  gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Star-region (p*, u*) for arrays of left/right states."""
    shape, flat = _flat(rho_l, u_l, p_l, rho_r, u_r, p_r)
    p_star, u_star = _star_states(*flat, gamma)[:2]
    return p_star.reshape(shape)[()], u_star.reshape(shape)[()]


def _sample_side(sign, rho_k, u_k, p_k, a_k, p_star, u_star, gamma):
    """(rho, u, p) on the ray x/t = 0 for faces where it lies on side K of
    the contact: ``sign`` is +1 for the left side, -1 for the mirrored
    right side.  Only the wave pattern a face has is evaluated."""
    g6 = (gamma - 1.0) / (gamma + 1.0)
    g1 = (gamma - 1.0) / (2.0 * gamma)
    # ahead of the K wave the ray sees the undisturbed state
    rho, u, p = rho_k.copy(), u_k.copy(), p_k.copy()
    shock = p_star > p_k

    i = shock.nonzero()[0]
    if i.size:
        pr = p_star[i] / p_k[i]
        s = u_k[i] - sign * a_k[i] * np.sqrt(
            (gamma + 1.0) / (2 * gamma) * pr + g1)
        behind = ~(sign * s >= 0.0)
        i, pr = i[behind], pr[behind]
        rho[i] = rho_k[i] * (pr + g6) / (g6 * pr + 1.0)
        u[i] = u_star[i]
        p[i] = p_star[i]

    # rarefactions whose head has passed the ray
    i = (~shock & ~(sign * (u_k - sign * a_k) >= 0.0)).nonzero()[0]
    if i.size:
        pr = p_star[i] / p_k[i]
        tail = u_star[i] - sign * (a_k[i] * pr**g1)
        star = sign * tail <= 0.0
        j = i[star]
        rho[j] = rho_k[j] * pr[star] ** (1.0 / gamma)
        u[j] = u_star[j]
        p[j] = p_star[j]
        # the ray is inside the fan (a sonic rarefaction)
        j = i[~star]
        if j.size:
            rk, uk, ak = rho_k[j], u_k[j], a_k[j]
            fac = 2.0 / (gamma + 1.0) + sign * (g6 / ak * uk)
            fac = np.maximum(fac, 1e-12)
            rho[j] = rk * fac ** (2.0 / (gamma - 1.0))
            u[j] = 2.0 / (gamma + 1.0) * (sign * ak + (gamma - 1.0) / 2.0 * uk)
            p[j] = p_k[j] * fac ** (2.0 * gamma / (gamma - 1.0))
    return rho, u, p


def sample_riemann(rho_l, u_l, v_l, p_l, zeta_l,
                   rho_r, u_r, v_r, p_r, zeta_r,
                   gamma: float) -> tuple[np.ndarray, ...]:
    """Solve and sample at the interface ray x/t = 0.

    Returns primitive arrays ``(rho, u, v, p, zeta)`` of the state sitting
    on the interface — exactly what the Godunov flux needs.
    """
    shape, (rho_l, u_l, v_l, p_l, zeta_l, rho_r, u_r, v_r, p_r, zeta_r) = \
        _flat(rho_l, u_l, v_l, p_l, zeta_l, rho_r, u_r, v_r, p_r, zeta_r)
    p_star, u_star, active, left, right = _star_states(
        rho_l, u_l, p_l, rho_r, u_r, p_r, gamma)
    # passive quantities follow the contact
    left_of_contact = u_star >= 0.0
    v = np.where(left_of_contact, v_l, v_r)
    zeta = np.where(left_of_contact, zeta_l, zeta_r)
    # a face with equal states sits in that state
    rho, u, p = rho_l.copy(), u_l.copy(), p_l.copy()
    if active.size:
        p_star, u_star = p_star[active], u_star[active]
        left_of_contact = left_of_contact[active]
        for sign, pick, side in ((+1, left_of_contact, left),
                                 (-1, ~left_of_contact, right)):
            i = pick.nonzero()[0]
            if i.size:
                j = active[i]
                rho[j], u[j], p[j] = _sample_side(
                    sign, *(x[i] for x in side), p_star[i], u_star[i], gamma)
    return tuple(x.reshape(shape)[()] for x in (rho, u, v, p, zeta))
