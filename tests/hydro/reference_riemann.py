"""The all-branches Riemann solver that ``repro.hydro.riemann_exact``
replaced, kept as the test reference.

It evaluates the shock, rarefaction and fan expressions of both sides on
every face and picks with ``np.where``, and iterates Newton until *all*
faces of the call have converged — so a face gets this solver's own
answer only when it is solved alone.  ``test_riemann_batched.py`` feeds it
one face at a time and requires the face-independent solver to return the
same bits for that face inside any batch.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConvergenceError, HydroError

_MAX_NEWTON = 40
_TOL = 1e-10


def _pressure_function(p, rho_k, p_k, a_k, gamma):
    """f_K(p) and its derivative for one side."""
    g1 = (gamma - 1.0) / (2.0 * gamma)
    A = 2.0 / ((gamma + 1.0) * rho_k)
    B = (gamma - 1.0) / (gamma + 1.0) * p_k
    shock = p > p_k
    sq = np.sqrt(A / (p + B))
    f_shock = (p - p_k) * sq
    df_shock = sq * (1.0 - 0.5 * (p - p_k) / (B + p))
    pr = np.maximum(p / p_k, 1e-300)
    f_rare = 2.0 * a_k / (gamma - 1.0) * (pr**g1 - 1.0)
    df_rare = pr ** (-(gamma + 1.0) / (2.0 * gamma)) / (rho_k * a_k)
    return (np.where(shock, f_shock, f_rare),
            np.where(shock, df_shock, df_rare))


def riemann_exact(rho_l, u_l, p_l, rho_r, u_r, p_r,
                  gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Star-region (p*, u*) for arrays of left/right states."""
    rho_l, u_l, p_l, rho_r, u_r, p_r = (
        np.asarray(x, dtype=float)
        for x in (rho_l, u_l, p_l, rho_r, u_r, p_r))
    if np.any(rho_l <= 0) or np.any(rho_r <= 0) or np.any(p_l <= 0) \
            or np.any(p_r <= 0):
        raise HydroError("Riemann solver fed non-physical states")
    a_l = np.sqrt(gamma * p_l / rho_l)
    a_r = np.sqrt(gamma * p_r / rho_r)
    du = u_r - u_l
    # vacuum generation check (Toro eq. 4.40)
    if np.any(2.0 * (a_l + a_r) / (gamma - 1.0) <= du):
        raise HydroError("vacuum generated between states (expansion too strong)")
    # PVRS initial guess, floored
    p = 0.5 * (p_l + p_r) - 0.125 * du * (rho_l + rho_r) * (a_l + a_r)
    p = np.maximum(p, 1e-8 * np.minimum(p_l, p_r))
    for _ in range(_MAX_NEWTON):
        f_l, df_l = _pressure_function(p, rho_l, p_l, a_l, gamma)
        f_r, df_r = _pressure_function(p, rho_r, p_r, a_r, gamma)
        delta = (f_l + f_r + du) / (df_l + df_r)
        p_new = np.maximum(p - delta, 1e-10 * np.minimum(p_l, p_r))
        change = np.abs(p_new - p) / np.maximum(p_new, 1e-300)
        p = p_new
        if np.all(change < _TOL):
            break
    else:
        raise ConvergenceError(
            f"Riemann star-pressure Newton did not converge "
            f"(max change {float(change.max()):.2e})")
    f_l, _ = _pressure_function(p, rho_l, p_l, a_l, gamma)
    f_r, _ = _pressure_function(p, rho_r, p_r, a_r, gamma)
    u = 0.5 * (u_l + u_r) + 0.5 * (f_r - f_l)
    return p, u


def sample_riemann(rho_l, u_l, v_l, p_l, zeta_l,
                   rho_r, u_r, v_r, p_r, zeta_r,
                   gamma: float) -> tuple[np.ndarray, ...]:
    """Solve and sample at the interface ray x/t = 0.

    Returns primitive arrays ``(rho, u, v, p, zeta)`` of the state sitting
    on the interface — exactly what the Godunov flux needs.
    """
    args = [np.asarray(x, dtype=float) for x in
            (rho_l, u_l, v_l, p_l, zeta_l, rho_r, u_r, v_r, p_r, zeta_r)]
    rho_l, u_l, v_l, p_l, zeta_l, rho_r, u_r, v_r, p_r, zeta_r = args
    p_star, u_star = riemann_exact(rho_l, u_l, p_l, rho_r, u_r, p_r, gamma)
    a_l = np.sqrt(gamma * p_l / rho_l)
    a_r = np.sqrt(gamma * p_r / rho_r)
    g6 = (gamma - 1.0) / (gamma + 1.0)
    g1 = (gamma - 1.0) / (2.0 * gamma)

    left_of_contact = u_star >= 0.0

    # ---- assemble the left-side solution at xi = 0 --------------------------
    pr_l = p_star / p_l
    shock_l = p_star > p_l
    # left shock branch
    s_l = u_l - a_l * np.sqrt((gamma + 1.0) / (2 * gamma) * pr_l + g1)
    rho_shock_l = rho_l * (pr_l + g6) / (g6 * pr_l + 1.0)
    # left rarefaction branch
    a_star_l = a_l * pr_l**g1
    sh_l = u_l - a_l          # head
    st_l = u_star - a_star_l  # tail
    rho_rare_l = rho_l * pr_l ** (1.0 / gamma)
    # inside-fan state at xi = 0
    fac_l = 2.0 / (gamma + 1.0) + g6 / a_l * u_l
    fac_l = np.maximum(fac_l, 1e-12)
    rho_fan_l = rho_l * fac_l ** (2.0 / (gamma - 1.0))
    u_fan_l = 2.0 / (gamma + 1.0) * (a_l + (gamma - 1.0) / 2.0 * u_l)
    p_fan_l = p_l * fac_l ** (2.0 * gamma / (gamma - 1.0))

    rho_left = np.where(
        shock_l,
        np.where(s_l >= 0.0, rho_l, rho_shock_l),
        np.where(sh_l >= 0.0, rho_l,
                 np.where(st_l <= 0.0, rho_rare_l, rho_fan_l)))
    u_left = np.where(
        shock_l,
        np.where(s_l >= 0.0, u_l, u_star),
        np.where(sh_l >= 0.0, u_l,
                 np.where(st_l <= 0.0, u_star, u_fan_l)))
    p_left = np.where(
        shock_l,
        np.where(s_l >= 0.0, p_l, p_star),
        np.where(sh_l >= 0.0, p_l,
                 np.where(st_l <= 0.0, p_star, p_fan_l)))

    # ---- mirrored right side -------------------------------------------------
    pr_r = p_star / p_r
    shock_r = p_star > p_r
    s_r = u_r + a_r * np.sqrt((gamma + 1.0) / (2 * gamma) * pr_r + g1)
    rho_shock_r = rho_r * (pr_r + g6) / (g6 * pr_r + 1.0)
    a_star_r = a_r * pr_r**g1
    sh_r = u_r + a_r
    st_r = u_star + a_star_r
    rho_rare_r = rho_r * pr_r ** (1.0 / gamma)
    fac_r = 2.0 / (gamma + 1.0) - g6 / a_r * u_r
    fac_r = np.maximum(fac_r, 1e-12)
    rho_fan_r = rho_r * fac_r ** (2.0 / (gamma - 1.0))
    u_fan_r = 2.0 / (gamma + 1.0) * (-a_r + (gamma - 1.0) / 2.0 * u_r)
    p_fan_r = p_r * fac_r ** (2.0 * gamma / (gamma - 1.0))

    rho_right = np.where(
        shock_r,
        np.where(s_r <= 0.0, rho_r, rho_shock_r),
        np.where(sh_r <= 0.0, rho_r,
                 np.where(st_r >= 0.0, rho_rare_r, rho_fan_r)))
    u_right = np.where(
        shock_r,
        np.where(s_r <= 0.0, u_r, u_star),
        np.where(sh_r <= 0.0, u_r,
                 np.where(st_r >= 0.0, u_star, u_fan_r)))
    p_right = np.where(
        shock_r,
        np.where(s_r <= 0.0, p_r, p_star),
        np.where(sh_r <= 0.0, p_r,
                 np.where(st_r >= 0.0, p_star, p_fan_r)))

    rho = np.where(left_of_contact, rho_left, rho_right)
    u = np.where(left_of_contact, u_left, u_right)
    p = np.where(left_of_contact, p_left, p_right)
    # passive quantities follow the contact
    v = np.where(left_of_contact, v_l, v_r)
    zeta = np.where(left_of_contact, zeta_l, zeta_r)
    return rho, u, v, p, zeta
