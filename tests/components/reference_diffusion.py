"""The allocating explicit-diffusion path that the in-place one replaced,
kept verbatim as the test reference.

Every function here is the body the parent commit had in
``repro.chemistry.mechanism`` (NASA-7 by a per-cell ``(nsp, 7, cells)``
coefficient gather, the mixture properties), ``repro.transport.diffusion``,
``repro.components.diffusion_physics`` (``_div_flux``, the RHS assembly)
and ``repro.integrators.rkc`` (``rkc_step``): one fresh NumPy temporary
per operation.  Methods became functions of the mechanism / transport
object; nothing else changed.  ``test_diffusion_inplace.py`` requires the
in-place code to return the same bits.
"""

from __future__ import annotations

import numpy as np

from repro.chemistry.nasa7 import R_UNIVERSAL
from repro.integrators.rkc import _EPS, _cheb_row

_T_REF = 300.0
_P_REF = 101325.0
_D_EXPONENT = 1.7
_LAMBDA_REF = 0.026
_LAMBDA_EXPONENT = 0.8


def species_sum(terms):
    acc = terms[0]
    for k in range(1, len(terms)):
        acc = acc + terms[k]
    return acc


# ------------------------------------------------------------- mechanism
def _nasa_coeffs(mech, T):
    """Range-selected coefficients, shape ``(nsp, 7) + T.shape``."""
    cells = (None,) * T.ndim
    use_high = T >= mech._nasa_t_mid[(slice(None), None) + cells]
    table = (slice(None), slice(None)) + cells
    return np.where(use_high, mech._nasa_high[table], mech._nasa_low[table])


def cp_R(mech, T):
    T = np.asarray(T, dtype=float)
    a = _nasa_coeffs(mech, T)
    return a[:, 0] + T * (a[:, 1] + T * (a[:, 2] + T * (a[:, 3]
                                                        + T * a[:, 4])))


def h_RT(mech, T):
    T = np.asarray(T, dtype=float)
    a = _nasa_coeffs(mech, T)
    return (a[:, 0] + T * (a[:, 1] / 2 + T * (a[:, 2] / 3 + T * (
        a[:, 3] / 4 + T * a[:, 4] / 5))) + a[:, 5] / T)


def s_R(mech, T):
    T = np.asarray(T, dtype=float)
    a = _nasa_coeffs(mech, T)
    return (a[:, 0] * np.log(T) + T * (a[:, 1] + T * (a[:, 2] / 2 + T * (
        a[:, 3] / 3 + T * a[:, 4] / 4))) + a[:, 6])


def g_RT(mech, T):
    return h_RT(mech, T) - s_R(mech, T)


def mean_weight(mech, Y):
    Y = np.asarray(Y)
    return 1.0 / species_sum(Y * mech.per_species(1.0 / mech.weights, Y))


def density(mech, T, P, Y):
    W = mean_weight(mech, Y)
    return np.asarray(P) * W / (R_UNIVERSAL * np.asarray(T))


def cp_mass_species(mech, T):
    cp = cp_R(mech, T)
    return cp * R_UNIVERSAL / mech.per_species(mech.weights, cp)


def cp_mass(mech, T, Y):
    return species_sum(np.asarray(Y) * cp_mass_species(mech, T))


# ------------------------------------------------------------- transport
def diffusion_coefficients(transport, T, P):
    T = np.asarray(T, dtype=float)
    scale = (T / _T_REF) ** _D_EXPONENT * (_P_REF / np.asarray(P))
    return transport._d_ref.reshape((-1,) + (1,) * T.ndim) * scale


def conductivity(transport, T):
    T = np.asarray(T, dtype=float)
    return _LAMBDA_REF * (T / _T_REF) ** _LAMBDA_EXPONENT


def thermal_diffusivity(transport, T, P, Y):
    rho = density(transport.mech, T, P, Y)
    cp = cp_mass(transport.mech, T, Y)
    return conductivity(transport, T) / (rho * cp)


def max_diffusion_coefficient(transport, T, P, Y):
    d = diffusion_coefficients(transport, T, P)
    alpha = thermal_diffusivity(transport, T, P, Y)
    return float(max(d.max(), np.asarray(alpha).max()))


# ------------------------------------------------------ DiffusionPhysics
def _div_flux(phi, B, dx, dy):
    """∇·(B ∇φ) over the interior (arrays carry >= 1 ghost ring); operates
    on the last two axes of (nvar, NX, NY) inputs."""
    Bx = 0.5 * (B[:, 1:, :] + B[:, :-1, :])       # faces along x
    fx = Bx * (phi[:, 1:, :] - phi[:, :-1, :]) / dx
    div_x = (fx[:, 1:, 1:-1] - fx[:, :-1, 1:-1]) / dx
    By = 0.5 * (B[:, :, 1:] + B[:, :, :-1])
    fy = By * (phi[:, :, 1:] - phi[:, :, :-1]) / dy
    div_y = (fy[:, 1:-1, 1:] - fy[:, 1:-1, :-1]) / dy
    return div_x + div_y


def evaluate(mech, transport, P, nghost, ghosted, dx, dy):
    """``DiffusionPhysics.evaluate`` with its port look-ups resolved."""
    pad = nghost - 1
    core = ghosted if pad == 0 else ghosted[:, pad:-pad, pad:-pad]
    T = np.maximum(core[0], 50.0)
    Y = np.clip(core[1:], 0.0, None)
    rho = density(mech, T, P, Y)
    lam = conductivity(transport, T)
    D = diffusion_coefficients(transport, T, P)
    B = np.concatenate([lam[None], rho[None] * D])
    div = _div_flux(core, B, dx, dy)
    rho_in = rho[1:-1, 1:-1]
    cp_in = cp_mass(mech, T[1:-1, 1:-1], Y[:, 1:-1, 1:-1])
    out = np.empty_like(div)
    out[0] = div[0] / (rho_in * cp_in)
    out[1:] = div[1:] / rho_in
    return out


# ------------------------------------------------------------------- RKC
def rkc_step(rhs, t, y, dt, rho, stages):
    s = stages
    w0 = 1.0 + _EPS / s**2
    T, dT, ddT = _cheb_row(s, w0)
    w1 = dT[s] / ddT[s]

    b = [0.0] * (s + 1)
    for j in range(2, s + 1):
        b[j] = ddT[j] / dT[j] ** 2
    b[0] = b[2]
    b[1] = 1.0 / w0

    f0 = rhs(t, y)
    y_jm2 = y
    mu1_t = b[1] * w1
    y_jm1 = y + mu1_t * dt * f0
    c_jm2, c_jm1 = 0.0, mu1_t
    for j in range(2, s + 1):
        mu = 2.0 * b[j] * w0 / b[j - 1]
        nu = -b[j] / b[j - 2]
        mu_t = mu * w1 / w0
        a_jm1 = 1.0 - b[j - 1] * T[j - 1]
        gamma_t = -a_jm1 * mu_t
        f = rhs(t + c_jm1 * dt, y_jm1)
        y_j = ((1.0 - mu - nu) * y + mu * y_jm1 + nu * y_jm2
               + mu_t * dt * f + gamma_t * dt * f0)
        c_j = mu * c_jm1 + nu * c_jm2 + mu_t + gamma_t
        y_jm2, y_jm1 = y_jm1, y_j
        c_jm2, c_jm1 = c_jm1, c_j
    return y_jm1
