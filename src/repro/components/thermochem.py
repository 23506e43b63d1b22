"""ThermoChemistry: chemical source terms + gas-property database.

"The ThermoChemistry component embodies the chemical interactions; it
provides the source terms for temperature and species due to chemistry ...
ThermoChemistry also serves as a Database subsystem, i.e. it holds the gas
properties."  (paper §4.1)

Provides
--------
``source``      VectorRHSPort — constant-pressure [T, Y...] source terms.
``jacobian``    JacobianPort — their analytic Jacobian (optional to use).
``chemistry``   ChemistryPort — the mechanism object + vectorized sources.
``properties``  ParameterPort — gas-property database (weights, name...).

Parameters: ``mechanism`` (``h2-air`` | ``h2-lite``), ``pressure`` [Pa],
``rate_scale`` (uniform forward-rate perturbation factor, default 1.0).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.cca.component import Component
from repro.cca.ports.parameter import ParameterPort
from repro.cca.ports.physics import ChemistryPort
from repro.cca.ports.rhs import JacobianPort, VectorRHSPort
from repro.chemistry.h2_air import h2_air_mechanism
from repro.chemistry.h2_lite import h2_lite_mechanism
from repro.chemistry.mechanism import BLOCK, Mechanism
from repro.chemistry.zerod import (
    ConstantPressurePass,
    constant_pressure_source,
)
from repro.errors import CCAError

_MECHS = {
    "h2-air": h2_air_mechanism,
    "h2-lite": h2_lite_mechanism,
}


class _Source(VectorRHSPort):
    """Constant-pressure reactor RHS over y = [T, Y_0..Y_{ns-1}], one
    column per cell (``y`` shape ``(ns + 1, B)``, or a single 1-D state)."""

    def __init__(self, owner: "ThermoChemistry") -> None:
        self.owner = owner
        self.nfe = 0  #: calls (each may carry many cells)

    def rhs(self, t, y: np.ndarray) -> np.ndarray:
        self.nfe += 1
        y = np.asarray(y, dtype=float)
        if y.ndim == 2 and y.shape[1] <= BLOCK:
            p = self.owner.state_pass(y)
            return np.concatenate((p.dT[None], p.dY))
        dT, dY = self.owner.source_terms(np.maximum(y[0], 50.0), y[1:])
        return np.concatenate((dT[None], dY))

    def n_state(self) -> int:
        return self.owner.mech.n_species + 1


class _Jacobian(JacobianPort):
    """∂(dT/dt, dY/dt)/∂(T, Y) of :class:`_Source`'s RHS, analytic."""

    def __init__(self, owner: "ThermoChemistry") -> None:
        self.owner = owner

    def jacobian(self, t, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        cells = y.reshape(len(y), -1)
        J = self.owner.state_pass(cells).jacobian(cells[1:] >= 0.0)
        J[:, 0] *= cells[0] >= 50.0      # the temperature floor's slope
        return J.reshape(J.shape[:2] + y.shape[1:])


class _Chem(ChemistryPort):
    def __init__(self, owner: "ThermoChemistry") -> None:
        self.owner = owner

    def mechanism(self) -> Mechanism:
        return self.owner.mech

    def pressure(self) -> float:
        return self.owner.pressure

    def source_terms(self, T, Y):
        return self.owner.source_terms(T, Y)


class _Properties(ParameterPort):
    def __init__(self, owner: "ThermoChemistry") -> None:
        self.owner = owner

    def get(self, key: str, default: Any = None) -> Any:
        mech = self.owner.mech
        builtin = {
            "mechanism": mech.name,
            "n_species": mech.n_species,
            "n_reactions": mech.n_reactions,
            "species_names": mech.names,
            "pressure": self.owner.pressure,
        }
        if key in builtin:
            return builtin[key]
        if key.startswith("weight:"):
            return float(mech.weights[mech.species_index(key[7:])])
        return self.owner.extra.get(key, default)

    def set(self, key: str, value: Any) -> None:
        self.owner.extra[key] = value

    def keys(self) -> list[str]:
        return sorted(
            ["mechanism", "n_species", "n_reactions", "species_names",
             "pressure"] + list(self.owner.extra))


class ThermoChemistry(Component):
    """Chemistry source terms + gas-property database (see module doc)."""

    def set_services(self, services) -> None:
        self.services = services
        self.extra: dict[str, Any] = {}
        self._mech: Mechanism | None = None
        #: (mechanism, pressure, state, pass) of the last state_pass
        self._last_pass: tuple | None = None
        services.add_provides_port(_Source(self), "source")
        services.add_provides_port(_Jacobian(self), "jacobian")
        services.add_provides_port(_Chem(self), "chemistry")
        services.add_provides_port(_Properties(self), "properties")

    # -- lazy configuration ------------------------------------------------------
    @property
    def mech(self) -> Mechanism:
        if self._mech is None:
            name = self.services.get_parameter("mechanism", "h2-air")
            scale = float(self.services.get_parameter("rate_scale", 1.0))
            try:
                mech = _MECHS[name]()
            except KeyError:
                raise CCAError(
                    f"unknown mechanism {name!r}; have {sorted(_MECHS)}"
                ) from None
            # rate_scale != 1 perturbs every forward rate uniformly (UQ
            # ensembles, serve batch sweeps); scaled(1.0) is the identity
            self._mech = mech.scaled(scale)
        return self._mech

    @property
    def pressure(self) -> float:
        return float(self.services.get_parameter("pressure", 101325.0))

    def source_terms(self, T, Y):
        """(dT/dt, dY/dt) at constant pressure, vectorized over cells.

        ``T`` shape (...), ``Y`` shape (nsp, ...).
        """
        return constant_pressure_source(self.mech, self.pressure, T, Y)

    def state_pass(self, y: np.ndarray) -> ConstantPressurePass:
        """The fused constant-pressure pass at the states ``y`` (one
        column per cell; T floored at 50 K, Y clipped at zero): the last
        call's if ``y`` is that call's state — a stiff solver forms its
        Jacobian where it has just evaluated the RHS — else a new one,
        kept for the next call."""
        mech, pressure = self.mech, self.pressure
        last = self._last_pass
        if (last is not None and last[0] is mech and last[1] == pressure
                and last[2].shape == y.shape and np.array_equal(last[2], y)):
            return last[3]
        p = ConstantPressurePass(mech, pressure, np.maximum(y[0], 50.0),
                                 np.maximum(y[1:], 0.0))
        self._last_pass = (mech, pressure, y.copy(), p)
        return p
