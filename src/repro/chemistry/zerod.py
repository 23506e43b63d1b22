"""Zero-dimensional reactor models.

The paper's 0D ignition problem (§4.1) solves ``dΦ/dt = G(Φ)`` with
``Φ = {T, Y_1, ..., Y_{N-1}, P0}`` in a rigid, adiabatic vessel (constant
mass and volume); the pressure equation is supplied by the ``dPdt``
component.  :class:`ConstantVolumeReactor` mirrors that state layout.
:class:`ConstantPressureReactor` is the per-cell chemistry model of the 2D
reaction-diffusion flame ("pressure is assumed to be constant in time and
space, i.e. burning in an open domain").
"""

from __future__ import annotations

import numpy as np

from repro.chemistry.mechanism import (
    Mechanism,
    Thermo,
    cell_blocks,
    species_sum,
)
from repro.chemistry.nasa7 import R_UNIVERSAL
from repro.errors import ChemistryError


class ConstantPressureReactor:
    """Adiabatic constant-pressure reactor.

    State vector: ``y = [T, Y_0, ..., Y_{ns-1}]`` (length ``ns + 1``).
    """

    def __init__(self, mech: Mechanism, pressure: float) -> None:
        if pressure <= 0.0:
            raise ChemistryError(f"non-positive pressure {pressure}")
        self.mech = mech
        self.pressure = float(pressure)
        self.nfe = 0  #: number of RHS calls (Table 4's NFE)

    @property
    def n_state(self) -> int:
        return self.mech.n_species + 1

    def initial_state(self, T0: float, Y0: dict[str, float] | np.ndarray
                      ) -> np.ndarray:
        return _pack_state(self.mech, T0, Y0)

    def unpack(self, y: np.ndarray) -> tuple[float, np.ndarray]:
        return float(y[0]), np.asarray(y[1:])

    def rhs(self, t, y: np.ndarray) -> np.ndarray:
        """dy/dt = G(y) at constant pressure; ``y`` is one state or one
        column per cell, ``(ns + 1, B)``."""
        self.nfe += 1
        y = np.asarray(y, dtype=float)
        dT, dY = constant_pressure_source(self.mech, self.pressure,
                                          np.maximum(y[0], 50.0), y[1:])
        return np.concatenate((dT[None], dY))


def constant_pressure_source(mech: Mechanism, pressure: float, T, Y
                             ) -> tuple[np.ndarray, np.ndarray]:
    """``(dT/dt, dY/dt)`` of adiabatic constant-pressure chemistry,
    vectorized over trailing cell axes: ``T`` shape (...), ``Y`` shape
    (nsp, ...).  Shared by :class:`ConstantPressureReactor` and the
    ``ThermoChemistry`` component."""
    T = np.asarray(T, dtype=float)
    Y = np.maximum(np.asarray(Y, dtype=float), 0.0)
    Tf, Yf = T.reshape(-1), Y.reshape(len(Y), -1)
    dT, dY = np.empty(Tf.shape), np.empty(Yf.shape)
    for cols in cell_blocks(Tf.size):
        p = ConstantPressurePass(mech, pressure, Tf[cols], Yf[:, cols])
        dT[cols], dY[:, cols] = p.dT, p.dY
    return dT.reshape(T.shape), dY.reshape(Y.shape)


def _mixture_sums(mech: Mechanism, th: Thermo, Y: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(cp_k, Σ Y_k / W_k, cp)`` on the 1-D cells of ``th``: the
    per-species and mixture specific heats and the inverse mean weight,
    both sums in one accumulation."""
    cp_k = th.cp_R * R_UNIVERSAL / mech._w_col
    terms = np.empty((len(Y), 2) + th.T.shape)
    np.multiply(Y, mech._inv_w_col, out=terms[:, 0])
    np.multiply(Y, cp_k, out=terms[:, 1])
    inv_W, cp = species_sum(terms)
    return cp_k, inv_W, cp


class ConstantPressurePass:
    """One fused evaluation of :func:`constant_pressure_source` on 1-D
    cells (``T`` (B,), ``Y`` (nsp, B) clipped at zero): ``dT`` and
    ``dY``, and the intermediates :meth:`jacobian` differentiates."""

    def __init__(self, mech: Mechanism, pressure: float, T: np.ndarray,
                 Y: np.ndarray) -> None:
        self.mech, self.Y = mech, Y
        self.th = th = mech.thermo(T)
        self.cp_k, inv_W, self.cp = _mixture_sums(mech, th, Y)
        self.W = 1.0 / inv_W
        self.rho = rho = pressure * self.W / th.RT
        self.kin = mech.kinetics(th, rho * Y / mech._w_col)
        self.wdot = mech.species_net(self.kin.q)
        mass_rate = self.wdot * mech._w_col
        self.dY = mass_rate / rho
        h = th.h_RT * R_UNIVERSAL * T / mech._w_col
        self.dT = -species_sum(h * mass_rate) / (rho * self.cp)

    def jacobian(self, pos: np.ndarray) -> np.ndarray:
        """``J[i, j, b] = ∂f_i/∂x_j`` with ``f = (dT/dt, dY/dt)`` and
        ``x = (T, Y)`` of cell ``b``, shape (nsp + 1, nsp + 1, B);
        ``pos`` (nsp, B) is the clip's slope, ``Y >= 0`` of the
        unclipped fractions.

        The chain rule through ρ(T, Y) and C = ρ Y / W applied to the
        pass's rate constants, concentrations, enthalpies and heat
        capacities.  Elementwise along the cells, so column independent.
        """
        mech, th, rho, W = self.mech, self.th, self.rho, self.W
        T = th.T
        dq_dT, dq_dC, euler = mech.rate_derivatives(th, self.kin)
        # ∂C_i/∂T = -C_i/T and ∂C_i/∂Y_l = (ρ δ_il - C_i W̄) pos_l / W_l;
        # column 0 is T
        live = pos / mech._w_col
        n = mech.n_species
        dq = np.empty((mech.n_reactions, n + 1) + T.shape)
        dq[:, 0] = dq_dT - euler / T
        dq[:, 1:] = (rho * dq_dC - (W * euler)[:, None]) * live
        dw = mech.species_net(dq)                    # (nsp, nsp + 1, B)
        # dY/dt = W_k ω̇_k / ρ: ∂ρ/∂T = -ρ/T, ∂ρ/∂Y_l = -ρ W̄ live_l
        dln_rho = np.concatenate(((-1.0 / T)[None], -W * live))
        J = np.empty((n + 1, n + 1) + T.shape)
        J[1:] = (mech._w_col / rho)[:, None] \
            * (dw - self.wdot[:, None] * dln_rho)
        # dT/dt = -Q / (ρ cp), Q = Σ H_k ω̇_k with H_k the molar enthalpy
        H = th.h_RT * th.RT
        dQ = species_sum(H[:, None] * dw)
        dQ[0] += species_sum(th.cp_R * R_UNIVERSAL * self.wdot)
        dcp_dT = species_sum(self.Y * mech.dcp_R_dT(T) * R_UNIVERSAL
                             / mech._w_col)
        dln_cp = np.concatenate((dcp_dT[None], self.cp_k * pos)) / self.cp
        J[0] = -dQ / (rho * self.cp) - self.dT * (dln_rho + dln_cp)
        return J


class ConstantVolumeReactor:
    """Adiabatic constant-mass, constant-volume reactor (rigid walls).

    State vector: ``y = [T, Y_0, ..., Y_{ns-1}, P]`` — pressure rides along
    exactly as in the paper's Φ, with its own evolution equation (the
    ``dPdt`` closure).
    """

    def __init__(self, mech: Mechanism, T0: float, P0: float,
                 Y0: dict[str, float] | np.ndarray) -> None:
        if T0 <= 0.0 or P0 <= 0.0:
            raise ChemistryError("initial T and P must be positive")
        self.mech = mech
        state0 = _pack_state(mech, T0, Y0)
        #: fixed density set by the initial fill [kg/m^3]
        self.rho = float(mech.density(T0, P0, state0[1:]))
        self._y0 = np.concatenate((state0, [P0]))
        self._rhs = constant_volume_rhs(mech, self.rho)
        self.nfe = 0

    @property
    def n_state(self) -> int:
        return self.mech.n_species + 2

    def initial_state(self) -> np.ndarray:
        return self._y0.copy()

    def unpack(self, y: np.ndarray) -> tuple[float, np.ndarray, float]:
        return float(y[0]), np.asarray(y[1:-1]), float(y[-1])

    def rhs(self, t, y: np.ndarray) -> np.ndarray:
        """dy/dt = G(y) at constant mass and volume; ``y`` is one state
        or one column per cell, ``(ns + 2, B)``."""
        self.nfe += 1
        return self._rhs(t, y)


def constant_volume_source(mech: Mechanism, rho, y: np.ndarray
                           ) -> tuple[np.ndarray, ...]:
    """``(T, Y, dT/dt, dY/dt)`` of the rigid adiabatic vessel — the
    constant-volume heat equation (cv and internal energies) over
    ``y = [T, Y..., P]``, one state or one column per cell with a
    matching per-column ``rho``.

    The one place this arithmetic lives: :func:`constant_volume_dydt`
    and the ``ProblemModeler`` component both call it and then add their
    pressure closure.
    """
    y = np.asarray(y, dtype=float)
    T = np.maximum(y[0], 50.0)
    Y = np.maximum(y[1:-1], 0.0)
    cells = T.shape
    n = len(Y)
    Tf, Yf = T.reshape(-1), Y.reshape(n, -1)
    rho_f = np.reshape(rho, (-1,)) if np.ndim(rho) else rho
    dT, dY = np.empty(Tf.shape), np.empty(Yf.shape)
    for cols in cell_blocks(Tf.size):
        r = rho_f[cols] if np.ndim(rho_f) else rho_f
        th = mech.thermo(Tf[cols])
        _, inv_W, cp = _mixture_sums(mech, th, Yf[:, cols])
        kin = mech.kinetics(th, r * Yf[:, cols] / mech._w_col)
        mass_rate = mech.species_net(kin.q) * mech._w_col
        dY[:, cols] = mass_rate / r
        h = th.h_RT * R_UNIVERSAL * th.T / mech._w_col
        u = h - th.RT / mech._w_col
        cv = cp - R_UNIVERSAL / (1.0 / inv_W)
        dT[cols] = -species_sum(u * mass_rate) / (r * cv)
    return T, Y, dT.reshape(cells), dY.reshape(Y.shape)


def rigid_vessel_dpdt(mech: Mechanism, rho, T, Y: np.ndarray, dT,
                      dY: np.ndarray):
    """Pressure evolution for the rigid adiabatic vessel.

    From P = ρ R T / W̄ with ρ fixed:
    dP/dt = ρ R (dT/dt / W̄ + T Σ_i (dY_i/dt) / W_i).
    This is exactly what the paper's ``dPdt`` component supplies to the
    heat equation through the ``problemModeler`` adaptor.
    """
    inv_weights = mech.per_species(1.0 / mech.weights, Y)
    inv_W = species_sum(Y * inv_weights)
    dinv_W = species_sum(dY * inv_weights)
    return rho * R_UNIVERSAL * (dT * inv_W + T * dinv_W)


def constant_volume_dydt(mech: Mechanism, rho, y: np.ndarray) -> np.ndarray:
    """dy/dt of rigid adiabatic vessels of fixed density over
    ``y = [T, Y..., P]``: one state with a scalar ``rho``, or one column
    per vessel, ``(ns + 2, B)``, with ``rho`` a scalar or ``(B,)``.

    Shares :func:`constant_volume_source` and :func:`rigid_vessel_dpdt`
    with the assembled component path (``ProblemModeler`` + ``DPDt``),
    and both are column independent (see
    :mod:`repro.chemistry.mechanism`), so a column solved against this
    function is bitwise identical to the same condition solved through
    the CCA assembly — the contract the :mod:`repro.serve` batch planner
    relies on when it answers a job from a coalesced solve instead of a
    framework run.
    """
    T, Y, dT, dY = constant_volume_source(mech, rho, y)
    dP = rigid_vessel_dpdt(mech, rho, T, Y, dT, dY)
    return np.concatenate((dT[None], dY, dP[None]))


def constant_volume_rhs(mech: Mechanism, rho: float):
    """``f(t, y) -> dy/dt`` closing :func:`constant_volume_dydt` over one
    fixed vessel density."""
    rho = float(rho)

    def rhs(t, y: np.ndarray) -> np.ndarray:
        return constant_volume_dydt(mech, rho, y)

    return rhs


def _pack_state(mech: Mechanism, T0: float,
                Y0: dict[str, float] | np.ndarray) -> np.ndarray:
    if isinstance(Y0, dict):
        Y = np.zeros(mech.n_species)
        for nm, val in Y0.items():
            Y[mech.species_index(nm)] = val
    else:
        Y = np.asarray(Y0, dtype=float)
        if Y.shape != (mech.n_species,):
            raise ChemistryError(
                f"Y0 must have {mech.n_species} entries, got {Y.shape}")
    total = Y.sum()
    if not np.isclose(total, 1.0, atol=1e-8):
        raise ChemistryError(f"mass fractions sum to {total}, expected 1")
    return np.concatenate(([float(T0)], Y / total))
