"""Elementary reactions: Arrhenius rates, third bodies, falloff,
reversibility through equilibrium.

Rate constants follow the modified Arrhenius form ``k = A T^b exp(-Ea/RT)``
(SI units internally).  Reverse rates come from the equilibrium constant
computed from NASA-7 Gibbs energies — the standard Chemkin convention the
paper's F77 thermochemistry libraries implement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.chemistry.nasa7 import R_UNIVERSAL
from repro.errors import ChemistryError

#: Reference pressure for equilibrium constants [Pa].
P_REF = 101325.0

#: Calories per Joule conversion for input decks.
CAL_TO_J = 4.184


@dataclass(frozen=True)
class Arrhenius:
    """Modified Arrhenius parameters (SI: mol, m^3, s, J/mol)."""

    A: float
    b: float = 0.0
    Ea: float = 0.0

    def k(self, T: np.ndarray | float) -> np.ndarray:
        """Rate constant at temperature(s) ``T``."""
        T = np.asarray(T, dtype=float)
        return self.A * T**self.b * np.exp(-self.Ea / (R_UNIVERSAL * T))

    @staticmethod
    def from_cgs(A: float, b: float, Ea_cal: float, order: int) -> "Arrhenius":
        """Convert deck units: A in (cm^3/mol)^(order-1)/s, Ea in cal/mol.

        ``order`` is the molecularity of the (forward) reaction including
        any third body.
        """
        return Arrhenius(A * (1e-6) ** (order - 1), b, Ea_cal * CAL_TO_J)


@dataclass(frozen=True)
class Falloff:
    """Lindemann / Troe pressure falloff between ``low`` (k0) and the
    high-pressure limit.  ``troe`` holds (a, T***, T*, T**) or None for
    pure Lindemann blending."""

    low: Arrhenius
    troe: tuple[float, ...] | None = None

    # The blend ``k = k_inf Pr / (1 + Pr) F`` with ``Pr = k0 [M] / k_inf``
    # is evaluated for every falloff reaction at once by
    # :class:`~repro.chemistry.mechanism.Mechanism`; what is left per
    # reaction is Troe's broadening factor ``F``.
    def _troe_terms(self, T: np.ndarray, pr: np.ndarray):
        a = self.troe[0]
        t3, t1 = self.troe[1], self.troe[2]
        fcent = (1.0 - a) * np.exp(-T / t3) + a * np.exp(-T / t1)
        if len(self.troe) > 3 and self.troe[3] > 0.0:
            fcent = fcent + np.exp(-self.troe[3] / T)
        fcent = np.maximum(fcent, 1e-300)
        log_fc = np.log10(fcent)
        c = -0.4 - 0.67 * log_fc
        n = 0.75 - 1.27 * log_fc
        log_pr = np.log10(pr)
        inner = (log_pr + c) / (n - 0.14 * (log_pr + c))
        return fcent, log_fc, log_pr + c, n, inner

    def troe_factor(self, T: np.ndarray, pr: np.ndarray) -> np.ndarray:
        """Troe's ``F`` at reduced pressure ``pr`` (``troe`` must be set)."""
        _, log_fc, _, _, inner = self._troe_terms(T, pr)
        log_f = log_fc / (1.0 + inner**2)
        return 10.0**log_f

    def troe_slopes(self, T: np.ndarray, pr: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
        """``(d ln F / d ln Pr, d ln F / dT at fixed Pr)`` of Troe's ``F``."""
        fcent, log_fc, x, n, inner = self._troe_terms(T, pr)
        a = self.troe[0]
        t3, t1 = self.troe[1], self.troe[2]
        dfcent = -(1.0 - a) / t3 * np.exp(-T / t3) - a / t1 * np.exp(-T / t1)
        if len(self.troe) > 3 and self.troe[3] > 0.0:
            dfcent = dfcent + self.troe[3] / T**2 * np.exp(-self.troe[3] / T)
        denom = n - 0.14 * x
        # log10 F = L / (1 + inner^2), inner = x / (n - 0.14 x) with
        # x = log10 Pr + c(L), n = n(L) and L = log10 Fcent(T)
        d_inner = -2.0 * log_fc * inner / (1.0 + inner**2) ** 2
        dx = n / denom**2                   # d inner / d x
        dn = -x / denom**2                  # d inner / d n
        d_pr = d_inner * dx
        d_log_fc = 1.0 / (1.0 + inner**2) + d_inner * (-0.67 * dx - 1.27 * dn)
        return d_pr, d_log_fc * dfcent / fcent


@dataclass(frozen=True)
class Reaction:
    """One (possibly reversible) elementary reaction.

    Attributes
    ----------
    reactants / products:
        ``{species_name: stoichiometric coefficient}``.
    rate:
        High-pressure / plain Arrhenius parameters.
    reversible:
        Reverse rate from equilibrium when True.
    third_body:
        ``None`` (no third body) or a dict of collision efficiencies
        (default efficiency 1.0 for unlisted species).
    falloff:
        Optional pressure falloff (requires a third body).
    """

    reactants: dict[str, int]
    products: dict[str, int]
    rate: Arrhenius
    reversible: bool = True
    third_body: dict[str, float] | None = None
    falloff: Falloff | None = None

    def __post_init__(self) -> None:
        if not self.reactants or not self.products:
            raise ChemistryError("reaction needs reactants and products")
        if self.falloff is not None and self.third_body is None:
            raise ChemistryError("falloff reactions need a third body")
        for side in (self.reactants, self.products):
            for name, nu in side.items():
                if nu < 1:
                    raise ChemistryError(
                        f"stoichiometric coefficient of {name} must be >= 1")

    @property
    def has_third_body(self) -> bool:
        return self.third_body is not None

    def scaled(self, factor: float) -> "Reaction":
        """This reaction with every forward pre-exponential multiplied
        by ``factor`` (the falloff low-pressure limit scales too, so the
        blended rate scales uniformly across the pressure range).

        Reverse rates come from equilibrium (``kr = kf / Kc``), so they
        pick up the same factor — a uniform kinetic-rate perturbation,
        the standard knob of UQ ensembles over a mechanism.
        """
        factor = float(factor)
        if factor <= 0.0:
            raise ChemistryError(
                f"rate scale factor must be positive, got {factor}")
        from dataclasses import replace
        falloff = self.falloff
        if falloff is not None:
            falloff = replace(
                falloff, low=replace(falloff.low, A=falloff.low.A * factor))
        return replace(self, rate=replace(self.rate, A=self.rate.A * factor),
                       falloff=falloff)

    def equation(self) -> str:
        """Human-readable equation string."""

        def side(d: dict[str, int]) -> str:
            terms = [(f"{nu} " if nu > 1 else "") + name
                     for name, nu in d.items()]
            return " + ".join(terms)

        m = ""
        if self.has_third_body:
            m = " (+M)" if self.falloff else " + M"
        arrow = " <=> " if self.reversible else " => "
        return side(self.reactants) + m + arrow + side(self.products) + m

    def delta_nu(self) -> int:
        """Mole change products - reactants (gas phase, no third body)."""
        return sum(self.products.values()) - sum(self.reactants.values())

    def check_balance(self, species_by_name: dict) -> None:
        """Verify elemental balance; raises ChemistryError if violated."""
        elements: dict[str, int] = {}
        for name, nu in self.reactants.items():
            for el, n in species_by_name[name].composition.items():
                elements[el] = elements.get(el, 0) + nu * n
        for name, nu in self.products.items():
            for el, n in species_by_name[name].composition.items():
                elements[el] = elements.get(el, 0) - nu * n
        bad = {el: n for el, n in elements.items() if n != 0}
        if bad:
            raise ChemistryError(
                f"unbalanced reaction {self.equation()}: {bad}")

    def __repr__(self) -> str:
        return f"Reaction({self.equation()})"
