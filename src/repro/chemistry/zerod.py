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

from repro.chemistry.mechanism import Mechanism, species_sum
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
    Y = np.clip(np.asarray(Y, dtype=float), 0.0, None)
    rho = mech.density(T, pressure, Y)
    C = mech.concentrations(rho, Y)
    mass_rate = mech.wdot(T, C) * mech.per_species(mech.weights, Y)
    dY = mass_rate / rho
    h = mech.h_mass_species(T)
    cp = mech.cp_mass(T, Y)
    dT = -species_sum(h * mass_rate) / (rho * cp)
    return dT, dY


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
    Y = np.clip(y[1:-1], 0.0, None)
    C = mech.concentrations(rho, Y)
    mass_rate = mech.wdot(T, C) * mech.per_species(mech.weights, Y)
    dY = mass_rate / rho
    u = mech.u_mass_species(T)
    cv = mech.cv_mass(T, Y)
    dT = -species_sum(u * mass_rate) / (rho * cv)
    return T, Y, dT, dY


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


class BatchAdvanceResult:
    """States and per-condition solver statistics of one batched advance."""

    __slots__ = ("states", "nfe", "nsteps")

    def __init__(self, states: np.ndarray, nfe: np.ndarray,
                 nsteps: np.ndarray) -> None:
        self.states = states    #: (B, n_state) advanced state rows
        self.nfe = nfe          #: (B,) RHS evaluations per condition
        self.nsteps = nsteps    #: (B,) solver steps per condition

    def __len__(self) -> int:
        return self.states.shape[0]


def advance_batch(mech: Mechanism, rhos: np.ndarray, states: np.ndarray,
                  t0: float, t1: float, *, rtol: float = 1e-8,
                  atol: float = 1e-12,
                  method: str = "bdf") -> BatchAdvanceResult:
    """Advance a batch of independent constant-volume reactors from
    ``t0`` to ``t1`` in one batched stiff solve.

    ``states`` has shape ``(B, n_species + 2)`` — one ``[T, Y..., P]``
    row per condition — and ``rhos`` the matching fixed vessel
    densities.  The rows become the columns of one
    :class:`~repro.integrators.cvode.CVode`; every condition keeps its
    own adaptive step/order trajectory there, and column independence
    makes each row bitwise identical to solving that condition alone
    (as :class:`~repro.components.cvode_component.CvodeComponent` does
    per ``integrate`` call).
    """
    states = np.asarray(states, dtype=float)
    rhos = np.asarray(rhos, dtype=float)
    if states.ndim != 2 or states.shape[1] != mech.n_species + 2:
        raise ChemistryError(
            f"states must be (B, {mech.n_species + 2}), got {states.shape}")
    if rhos.shape != (states.shape[0],):
        raise ChemistryError(
            f"rhos must be ({states.shape[0]},), got {rhos.shape}")
    from repro.integrators.cvode import CVode

    cv = CVode(lambda t, y, rho: constant_volume_dydt(mech, rho, y),
               float(t0), np.ascontiguousarray(states.T), args=(rhos,),
               rtol=rtol, atol=atol, method=method)
    out = cv.integrate_to(float(t1))
    return BatchAdvanceResult(np.ascontiguousarray(out.T), cv.stats.nfe,
                              cv.stats.nsteps)


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
