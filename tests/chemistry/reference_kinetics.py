"""The chemistry source evaluation that the fused pass replaced, kept
verbatim as the test reference.

Every function here is the body the parent commit had in
``repro.chemistry.mechanism`` (``progress_rates``, ``wdot``, the dense
``_weighted_sum`` reductions, the per-quantity NASA-7 passes and the
mixture properties they feed) and ``repro.chemistry.zerod``
(``constant_pressure_source``, ``constant_volume_source``).  Methods
became functions of the mechanism, the parent's ``__init__`` tables are
rebuilt by :func:`_tables`, and the mixture properties lost the
``out`` / ``work`` arguments the sources never passed; nothing else
changed.
``test_fused_source.py`` requires the fused pass to return the same bits.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from repro.chemistry.nasa7 import R_UNIVERSAL
from repro.chemistry.reaction import P_REF

_TABLES: dict = {}


def _tables(mech):
    """The parent's ``Mechanism.__init__`` tables, built once per
    mechanism object from its species and reactions."""
    try:
        return _TABLES[id(mech)][1]
    except KeyError:
        pass
    index = {sp.name: k for k, sp in enumerate(mech.species)}
    ns = len(mech.species)

    def slot_table(sides):
        width = max((sum(side.values()) for side in sides), default=0)
        table = np.full((width, len(sides)), ns, dtype=int)
        for j, side in enumerate(sides):
            slot = 0
            for nm, nu in side.items():
                table[slot:slot + nu, j] = index[nm]
                slot += nu
        return table

    rxns = mech.reactions
    tab = SimpleNamespace()
    tab._inv_weights = 1.0 / mech.weights
    tab._nasa_low = np.array([sp.thermo.low for sp in mech.species])
    tab._nasa_high = np.array([sp.thermo.high for sp in mech.species])
    tab._nasa_t_mid = np.array([sp.thermo.t_mid for sp in mech.species])
    tab._nasa_switch = (float(tab._nasa_t_mid.min()),
                        float(tab._nasa_t_mid.max()))
    tab._rate_A = np.array([rxn.rate.A for rxn in rxns])
    tab._rate_b = np.array([rxn.rate.b for rxn in rxns])
    tab._rate_Ea_R = np.array([rxn.rate.Ea / R_UNIVERSAL for rxn in rxns])
    tab._delta_nu = np.array([float(rxn.delta_nu()) for rxn in rxns])
    tab._reversible = np.array([rxn.reversible for rxn in rxns], dtype=bool)
    tab._react_slots = slot_table([rxn.reactants for rxn in rxns])
    tab._prod_slots = slot_table([rxn.products for rxn in rxns])
    tab._third_body = [j for j, rxn in enumerate(rxns) if rxn.has_third_body]
    tab._efficiency = np.ones((len(tab._third_body), ns))
    for row, j in enumerate(tab._third_body):
        for nm, eff in rxns[j].third_body.items():
            tab._efficiency[row, index[nm]] = eff
    # the mechanism rides along so its id is not reused while cached
    _TABLES[id(mech)] = (mech, tab)
    return tab


def species_sum(terms: np.ndarray) -> np.ndarray:
    acc = terms[0]
    for k in range(1, len(terms)):
        acc = acc + terms[k]
    return acc


def _weighted_sum(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    column = (slice(None),) + (None,) * (values.ndim - 1)
    acc = np.zeros((weights.shape[1],) + values.shape[1:])
    for k in range(len(weights)):
        acc += weights[k][column] * values[k]
    return acc


# ------------------------------------------------------------- NASA-7
def _cp_R(a, T, out):
    np.multiply(T, a[:, 4], out=out)
    for k in (3, 2, 1):
        out += a[:, k]
        out *= T
    out += a[:, 0]
    return out


def _h_RT(a, T, out):
    np.multiply(T, a[:, 4], out=out)
    out /= 5
    for k in (3, 2, 1):
        out += a[:, k] / (k + 1)
        out *= T
    out += a[:, 0]
    out += a[:, 5] / T
    return out


def _s_R(a, T, out):
    np.multiply(T, a[:, 4], out=out)
    out /= 4
    for k in (3, 2):
        out += a[:, k] / k
        out *= T
    out += a[:, 1]
    out *= T
    out += a[:, 0] * np.log(T)
    out += a[:, 6]
    return out


def _g_RT(a, T, out):
    _h_RT(a, T, out)
    out -= _s_R(a, T, np.empty_like(out))
    return out


def _nasa(mech, kernel, T):
    tab = _tables(mech)
    T = np.asarray(T, dtype=float)
    out = np.empty((mech.n_species,) + T.shape)
    column = (slice(None), slice(None)) + (None,) * T.ndim
    low, high = tab._nasa_low[column], tab._nasa_high[column]
    first, last = tab._nasa_switch
    hot = T >= first
    n_hot = np.count_nonzero(hot)
    if n_hot == 0:
        return kernel(low, T, out)
    if n_hot == T.size and (first == last or T.min() >= last):
        return kernel(high, T, out)
    kernel(low, T, out)
    T_hot = T[hot]
    high_hot = np.empty(mech.n_species * n_hot).reshape(-1, n_hot)
    kernel(tab._nasa_high[:, :, None], T_hot, high_hot)
    if first != last:
        high_hot = np.where(T_hot >= tab._nasa_t_mid[:, None], high_hot,
                            out[:, hot])
    out[:, hot] = high_hot
    return out


# ------------------------------------------------------ mixture properties
def mean_weight(mech, Y):
    tab = _tables(mech)
    Y = np.asarray(Y)
    terms = np.multiply(Y, mech.per_species(tab._inv_weights, Y))
    return np.divide(1.0, species_sum(terms))


def density(mech, T, P, Y):
    W = mean_weight(mech, Y)
    RT = np.multiply(R_UNIVERSAL, T)
    return np.divide(np.multiply(P, W), RT)


def concentrations(mech, rho, Y):
    Y = np.asarray(Y)
    return np.asarray(rho) * Y / mech.per_species(mech.weights, Y)


def cp_mass(mech, T, Y):
    cp = _nasa(mech, _cp_R, T)
    cp *= R_UNIVERSAL
    cp /= mech.per_species(mech.weights, cp)
    return species_sum(np.multiply(Y, cp, out=cp))


def cv_mass(mech, T, Y):
    W = mean_weight(mech, Y)
    return cp_mass(mech, T, Y) - R_UNIVERSAL / W


def h_mass_species(mech, T):
    T = np.asarray(T, dtype=float)
    h = _nasa(mech, _h_RT, T) * R_UNIVERSAL * T
    return h / mech.per_species(mech.weights, h)


def u_mass_species(mech, T):
    T = np.asarray(T, dtype=float)
    h = h_mass_species(mech, T)
    return h - R_UNIVERSAL * T / mech.per_species(mech.weights, h)


# ------------------------------------------------------------- kinetics
def _blend(falloff, k_inf, T, conc_m):
    """``Falloff.blend``."""
    low = falloff.low
    k0 = low.A * T**low.b * np.exp(-low.Ea / (R_UNIVERSAL * T))
    pr = np.maximum(k0 * conc_m / np.maximum(k_inf, 1e-300), 1e-300)
    f = pr / (1.0 + pr)
    if falloff.troe is not None:
        a = falloff.troe[0]
        t3, t1 = falloff.troe[1], falloff.troe[2]
        fcent = (1.0 - a) * np.exp(-T / t3) + a * np.exp(-T / t1)
        if len(falloff.troe) > 3 and falloff.troe[3] > 0.0:
            fcent = fcent + np.exp(-falloff.troe[3] / T)
        fcent = np.maximum(fcent, 1e-300)
        log_fc = np.log10(fcent)
        c = -0.4 - 0.67 * log_fc
        n = 0.75 - 1.27 * log_fc
        log_pr = np.log10(pr)
        inner = (log_pr + c) / (n - 0.14 * (log_pr + c))
        log_f = log_fc / (1.0 + inner**2)
        f = f * 10.0**log_f
    return k_inf * f


def progress_rates(mech, T, C):
    tab = _tables(mech)
    T = np.asarray(T, dtype=float)
    C = np.maximum(np.asarray(C, dtype=float), 0.0)
    per_rxn = (slice(None),) + (None,) * T.ndim
    log_T = np.log(T)
    kf = tab._rate_A[per_rxn] * np.exp(
        tab._rate_b[per_rxn] * log_T - tab._rate_Ea_R[per_rxn] / T)
    conc_m = None
    if tab._third_body:
        conc_m = _weighted_sum(tab._efficiency.T, C)
        for row, j in enumerate(tab._third_body):
            falloff = mech.reactions[j].falloff
            if falloff is not None:
                kf[j] = _blend(falloff, kf[j], T, conc_m[row])
    dg = _weighted_sum(mech.nu_net, _nasa(mech, _g_RT, T))
    ln_kc = -dg - tab._delta_nu[per_rxn] * np.log(
        R_UNIVERSAL * T / P_REF)
    kr = kf * np.exp(-np.clip(ln_kc, -600, 600))
    kr[~tab._reversible] = 0.0
    C1 = np.concatenate((C, np.ones((1,) + C.shape[1:])))
    fwd = kf
    for slot in tab._react_slots:
        fwd = fwd * C1[slot]
    rev = kr
    for slot in tab._prod_slots:
        rev = rev * C1[slot]
    q = fwd - rev
    for row, j in enumerate(tab._third_body):
        if mech.reactions[j].falloff is None:
            q[j] *= conc_m[row]
    return q


def wdot(mech, T, C):
    return _weighted_sum(mech.nu_net.T, progress_rates(mech, T, C))


# ------------------------------------------------------------- reactors
def constant_pressure_source(mech, pressure, T, Y):
    T = np.asarray(T, dtype=float)
    Y = np.clip(np.asarray(Y, dtype=float), 0.0, None)
    rho = density(mech, T, pressure, Y)
    C = concentrations(mech, rho, Y)
    mass_rate = wdot(mech, T, C) * mech.per_species(mech.weights, Y)
    dY = mass_rate / rho
    h = h_mass_species(mech, T)
    cp = cp_mass(mech, T, Y)
    dT = -species_sum(h * mass_rate) / (rho * cp)
    return dT, dY


def constant_volume_source(mech, rho, y):
    y = np.asarray(y, dtype=float)
    T = np.maximum(y[0], 50.0)
    Y = np.clip(y[1:-1], 0.0, None)
    C = concentrations(mech, rho, Y)
    mass_rate = wdot(mech, T, C) * mech.per_species(mech.weights, Y)
    dY = mass_rate / rho
    u = u_mass_species(mech, T)
    cv = cv_mass(mech, T, Y)
    dT = -species_sum(u * mass_rate) / (rho * cv)
    return T, Y, dT, dY
