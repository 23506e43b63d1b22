"""Initial-condition components for the three applications.

* :class:`Initializer` — 0D ignition: "a vector of double precision
  numbers specifying the stoichiometric mass fractions for the species,
  the initial temperature (1000 K), and the initial pressure (1 atm)".
* :class:`InitialCondition` — 2D reaction-diffusion: "initializes a
  configuration with three hot-spots" in a stoichiometric H2-air mixture.
* :class:`ConicalInterfaceIC` — shock-interface: "a shock tube with Air
  and Freon (density ratio 3) separated by an oblique (30 deg from the
  vertical) interface which is ruptured by a Mach 1.5 shock".
"""

from __future__ import annotations

import numpy as np

from repro.cca.component import Component, Param
from repro.cca.ports.ic import InitialConditionPort, VectorICPort
from repro.chemistry.h2_air import h2_air_phi, stoichiometric_h2_air
from repro.errors import CCAError
from repro.hydro.state import prim_to_cons
from repro.samr.dataobject import DataObject


# --------------------------------------------------------------- 0D ignition
class _VectorIC(VectorICPort):
    def __init__(self, owner: "Initializer") -> None:
        self.owner = owner

    def initial_state(self) -> np.ndarray:
        owner = self.owner
        mech = owner.services.ports.chem.mechanism()
        T0 = owner.services.get_parameter("T0")
        P0 = owner.services.get_parameter("P0")
        phi = owner.services.get_parameter("phi")
        Y = np.zeros(mech.n_species)
        for nm, val in h2_air_phi(phi).items():
            if nm in mech.names:
                Y[mech.species_index(nm)] = val
        Y /= Y.sum()
        return np.concatenate(([T0], Y, [P0]))


class Initializer(Component):
    """0D initial condition: Φ0 = [T0, Y(phi), P0].

    Parameters: ``T0`` (1000 K), ``P0`` (1 atm), ``phi`` (equivalence
    ratio, 1.0 = the paper's stoichiometric fill).
    """

    PARAMS = (
        Param("T0", "float", 1000.0, min=200.0, max=5000.0,
              doc="initial temperature [K]"),
        Param("P0", "float", 101325.0, min=1000.0, max=100000000.0,
              doc="initial pressure [Pa]"),
        Param("phi", "float", 1.0, min=0.05, max=10.0,
              doc="equivalence ratio"),
    )

    def set_services(self, services) -> None:
        self.services = services
        services.register_uses_port("chem", "ChemistryPort")
        services.add_provides_port(_VectorIC(self), "ic")


# --------------------------------------------------------- 2D hot-spot flame
class _HotspotIC(InitialConditionPort):
    def __init__(self, owner: "InitialCondition") -> None:
        self.owner = owner

    def initialize(self, dobj: DataObject) -> None:
        owner = self.owner
        services = owner.services
        mech = services.ports.chem.mechanism()
        if dobj.nvar != mech.n_species + 1:
            raise CCAError(
                f"flame DataObject needs T + {mech.n_species} species, "
                f"got nvar={dobj.nvar}")
        T_cold = services.get_parameter("T_cold")
        T_hot = services.get_parameter("T_hot")
        radius = services.get_parameter("spot_radius")
        spots = owner.hotspots()
        Y = np.zeros(mech.n_species)
        for nm, val in stoichiometric_h2_air().items():
            if nm in mech.names:
                Y[mech.species_index(nm)] = val
        Y /= Y.sum()
        h = dobj.hierarchy
        for patch in dobj.owned_patches():
            lvl = h.level(patch.level)
            x, y = lvl.cell_centers(patch, h.origin, ghost=True)
            X, Yc = np.meshgrid(x, y, indexing="ij")
            T = np.full_like(X, T_cold)
            for (cx, cy) in spots:
                r2 = (X - cx) ** 2 + (Yc - cy) ** 2
                T = np.maximum(
                    T, T_cold + (T_hot - T_cold) * np.exp(-r2 / radius**2))
            arr = dobj.array(patch)
            arr[0] = T
            for k in range(mech.n_species):
                arr[1 + k] = Y[k]


class InitialCondition(Component):
    """Three-hot-spot flame IC (paper §4.2, Fig. 3 leftmost frame).

    Parameters: ``T_cold``, ``T_hot``, ``spot_radius`` and
    ``spot<k>_x`` / ``spot<k>_y`` (k = 1..3; defaults give three spots in
    a unit-normalized domain at (0.3, 0.3), (0.7, 0.4), (0.4, 0.75)).
    The spot keys are computed, so the class is ``OPEN_PARAMETERS``.
    """

    PARAMS = (
        Param("T_cold", "float", 300.0, min=100.0, max=3000.0),
        Param("T_hot", "float", 1400.0, min=300.0, max=4000.0),
        Param("spot_radius", "float", 0.06, min=1e-06),
        Param("x_extent", "float", 1.0, min=1e-09),
        Param("y_extent", "float", 1.0, min=1e-09),
    )
    OPEN_PARAMETERS = True

    def set_services(self, services) -> None:
        self.services = services
        services.register_uses_port("chem", "ChemistryPort")
        services.add_provides_port(_HotspotIC(self), "ic")

    def hotspots(self) -> list[tuple[float, float]]:
        services = self.services
        scale_x = services.get_parameter("x_extent")
        scale_y = services.get_parameter("y_extent")
        defaults = [(0.3, 0.3), (0.7, 0.4), (0.4, 0.75)]
        spots = []
        for k in range(1, 4):
            x = services.get_parameter(f"spot{k}_x")
            y = services.get_parameter(f"spot{k}_y")
            spots.append(
                (defaults[k - 1][0] * scale_x if x is None else float(x),
                 defaults[k - 1][1] * scale_y if y is None else float(y)))
        return spots


# ------------------------------------------------------- shock-interface IC
class _ConicalIC(InitialConditionPort):
    def __init__(self, owner: "ConicalInterfaceIC") -> None:
        self.owner = owner

    def initialize(self, dobj: DataObject) -> None:
        owner = self.owner
        services = owner.services
        gamma = float(services.ports.gas.get("gamma", 1.4))
        mach = services.get_parameter("mach")
        ratio = services.get_parameter("density_ratio")
        angle = np.deg2rad(services.get_parameter("angle_deg"))
        x_shock = services.get_parameter("shock_x")
        x_interface = services.get_parameter("interface_x")

        # quiescent "air" ahead of the shock
        rho1, p1 = 1.0, 1.0
        a1 = np.sqrt(gamma * p1 / rho1)
        # Rankine-Hugoniot post-shock state for a Mach `mach` shock
        m2 = mach * mach
        rho2 = rho1 * (gamma + 1.0) * m2 / ((gamma - 1.0) * m2 + 2.0)
        p2 = p1 * (2.0 * gamma * m2 - (gamma - 1.0)) / (gamma + 1.0)
        u2 = mach * a1 * (2.0 * (m2 - 1.0)) / ((gamma + 1.0) * m2)
        owner.post_shock = (rho2, u2, 0.0, p2, 0.0)

        h = dobj.hierarchy
        tan_a = np.tan(angle)
        for patch in dobj.owned_patches():
            lvl = h.level(patch.level)
            x, y = lvl.cell_centers(patch, h.origin, ghost=True)
            X, Y = np.meshgrid(x, y, indexing="ij")
            # oblique interface: x = x_interface + y*tan(angle)
            behind_interface = X >= (x_interface + Y * tan_a)
            rho = np.where(behind_interface, ratio * rho1, rho1)
            zeta = np.where(behind_interface, 1.0, 0.0)
            pr = np.full_like(X, p1)
            u = np.zeros_like(X)
            # post-shock region (shock left of the interface, moving right)
            post = X <= x_shock
            rho = np.where(post, rho2, rho)
            pr = np.where(post, p2, pr)
            u = np.where(post, u2, u)
            dobj.array(patch)[...] = prim_to_cons(
                rho, u, 0.0, pr, zeta, gamma)


class ConicalInterfaceIC(Component):
    """Shock tube + oblique density interface (paper §4.3, Table 3).

    Parameters: ``mach`` (1.5), ``density_ratio`` (3), ``angle_deg`` (30),
    ``shock_x``, ``interface_x``.  After ``initialize`` the post-shock
    state is available as ``post_shock`` (used for inflow BCs).
    """

    PARAMS = (
        Param("mach", "float", 1.5, min=1.0, max=20.0),
        Param("density_ratio", "float", 3.0, min=0.001),
        Param("angle_deg", "float", 30.0, min=0.0, max=89.0),
        Param("shock_x", "float", 0.2, min=0.0, max=1.0),
        Param("interface_x", "float", 0.4, min=0.0, max=1.0),
    )

    def set_services(self, services) -> None:
        self.services = services
        self.post_shock: tuple | None = None
        services.register_uses_port("gas", "ParameterPort")
        services.add_provides_port(_ConicalIC(self), "ic")
