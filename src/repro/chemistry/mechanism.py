"""Mechanism: species + reactions with vectorized rate evaluation.

This is the computational heart of the ``ThermoChemistry`` component: given
temperature and concentrations over a batch of cells it returns net molar
production rates.  Everything is NumPy-vectorized over the cell axis so a
patch's worth of chemistry is one call.

**Column independence.**  A cell's result must not depend, bit for bit,
on which other cells share the call (the batched CVODE, SCMD
decomposition-independence and the serve cache all rely on it).  Every
operation here is therefore elementwise along the cell axes, and every
reduction over species or reactions is an explicit accumulation in index
order (:func:`species_sum`) — never ``np.dot`` / ``einsum`` /
``tensordot`` / ``sum(axis=0)``, whose summation order changes with the
array shape.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.chemistry.nasa7 import R_UNIVERSAL
from repro.chemistry.reaction import P_REF, Reaction
from repro.chemistry.species import Species
from repro.errors import ChemistryError


def species_sum(terms: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """Sum over the leading (species / reaction) axis, one add per row in
    index order — the same float operations per cell whatever the shape
    of the trailing cell axes.  ``out``, an array of a row's shape (not
    itself one of rows 2..), takes the accumulation."""
    if out is None:  # ``+``, not ``np.add``: a 0-D state adds scalars
        acc = terms[0]
        for k in range(1, len(terms)):
            acc = acc + terms[k]
        return acc
    np.copyto(out, terms[0])
    for k in range(1, len(terms)):
        out += terms[k]
    return out


def _weighted_sum(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``out[m] = sum_k weights[k, m] * values[k]`` accumulated in index
    order (the :func:`species_sum` of the products, without holding them
    all): ``weights`` is (K, M), ``values`` (K, ...), ``out`` (M, ...)."""
    column = (slice(None),) + (None,) * (values.ndim - 1)
    acc = np.zeros((weights.shape[1],) + values.shape[1:])
    for k in range(len(weights)):
        acc += weights[k][column] * values[k]
    return acc


def _rows(work: np.ndarray | None, start: int, stop: int
          ) -> np.ndarray | None:
    """Rows ``start:stop`` of a ``(k, *cells)`` work array, if there is one."""
    return None if work is None else work[start:stop]


# The three NASA-7 kernels keep the expression order of
# :class:`~repro.chemistry.nasa7.Nasa7` term for term (up to commuting an
# add or a multiply), so each species row is bitwise the per-species
# value.  ``a`` is a range's ``(nsp, 7, 1, ...)`` coefficient columns.
def _cp_R(a: np.ndarray, T: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``a0 + T (a1 + T (a2 + T (a3 + T a4)))`` into ``out``."""
    np.multiply(T, a[:, 4], out=out)
    for k in (3, 2, 1):
        out += a[:, k]
        out *= T
    out += a[:, 0]
    return out


def _h_RT(a: np.ndarray, T: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``a0 + T (a1/2 + T (a2/3 + T (a3/4 + T a4/5))) + a5/T``."""
    np.multiply(T, a[:, 4], out=out)
    out /= 5
    for k in (3, 2, 1):
        out += a[:, k] / (k + 1)
        out *= T
    out += a[:, 0]
    out += a[:, 5] / T
    return out


def _s_R(a: np.ndarray, T: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``a0 ln T + T (a1 + T (a2/2 + T (a3/3 + T a4/4))) + a6``."""
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


def _g_RT(a: np.ndarray, T: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``h/(RT) - s/R``."""
    _h_RT(a, T, out)
    out -= _s_R(a, T, np.empty_like(out))
    return out


class Mechanism:
    """A reaction mechanism over a fixed species set.

    Parameters
    ----------
    name:
        Identifier used in reports (e.g. ``"h2-air-9sp-19rxn"``).
    species:
        Ordered species list; array layouts follow this order.
    reactions:
        Elementary reactions (balance-checked on construction).
    """

    def __init__(self, name: str, species: Sequence[Species],
                 reactions: Sequence[Reaction]) -> None:
        self.name = name
        self.species = list(species)
        self.reactions = list(reactions)
        if not self.species:
            raise ChemistryError("mechanism needs at least one species")
        self._index = {sp.name: k for k, sp in enumerate(self.species)}
        if len(self._index) != len(self.species):
            raise ChemistryError("duplicate species names")
        by_name = {sp.name: sp for sp in self.species}
        for rxn in self.reactions:
            for side in (rxn.reactants, rxn.products):
                for nm in side:
                    if nm not in self._index:
                        raise ChemistryError(
                            f"reaction {rxn.equation()} uses unknown "
                            f"species {nm!r}")
            rxn.check_balance(by_name)
        ns, nr = len(self.species), len(self.reactions)
        self.nu_react = np.zeros((ns, nr))
        self.nu_prod = np.zeros((ns, nr))
        for j, rxn in enumerate(self.reactions):
            for nm, nu in rxn.reactants.items():
                self.nu_react[self._index[nm], j] = nu
            for nm, nu in rxn.products.items():
                self.nu_prod[self._index[nm], j] = nu
        self.nu_net = self.nu_prod - self.nu_react
        #: Molecular weights [kg/mol], shape (nspecies,).
        self.weights = np.array([sp.weight for sp in self.species])
        self._inv_weights = 1.0 / self.weights
        # species-axis NASA-7 tables: (nsp, 7) per range, (nsp,) switch
        self._nasa_low = np.array([sp.thermo.low for sp in self.species])
        self._nasa_high = np.array([sp.thermo.high for sp in self.species])
        self._nasa_t_mid = np.array([sp.thermo.t_mid for sp in self.species])
        #: below the first / from the second on, one range serves all species
        self._nasa_switch = (float(self._nasa_t_mid.min()),
                             float(self._nasa_t_mid.max()))
        # reaction-axis rate tables (see progress_rates)
        self._rate_A = np.array([rxn.rate.A for rxn in self.reactions])
        self._rate_b = np.array([rxn.rate.b for rxn in self.reactions])
        self._rate_Ea_R = np.array([rxn.rate.Ea / R_UNIVERSAL
                                    for rxn in self.reactions])
        self._delta_nu = np.array([float(rxn.delta_nu())
                                   for rxn in self.reactions])
        self._reversible = np.array([rxn.reversible
                                     for rxn in self.reactions], dtype=bool)
        self._react_slots = self._slot_table(
            [rxn.reactants for rxn in self.reactions])
        self._prod_slots = self._slot_table(
            [rxn.products for rxn in self.reactions])
        #: reactions with a third body, and their collision efficiencies
        self._third_body = [j for j, rxn in enumerate(self.reactions)
                            if rxn.has_third_body]
        self._efficiency = np.ones((len(self._third_body), ns))
        for row, j in enumerate(self._third_body):
            for nm, eff in self.reactions[j].third_body.items():
                self._efficiency[row, self._index[nm]] = eff

    def _slot_table(self, sides: Sequence[dict[str, int]]) -> np.ndarray:
        """One side of every reaction as ``(slots, nr)`` species indices,
        a species of coefficient ν filling ν slots; unused slots hold
        ``n_species``, the row of ones :meth:`progress_rates` appends to
        the concentrations."""
        width = max((sum(side.values()) for side in sides), default=0)
        table = np.full((width, len(sides)), len(self.species), dtype=int)
        for j, side in enumerate(sides):
            slot = 0
            for nm, nu in side.items():
                table[slot:slot + nu, j] = self._index[nm]
                slot += nu
        return table

    # -- bookkeeping ---------------------------------------------------------
    @property
    def n_species(self) -> int:
        return len(self.species)

    @property
    def n_reactions(self) -> int:
        return len(self.reactions)

    @property
    def names(self) -> list[str]:
        return [sp.name for sp in self.species]

    def species_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ChemistryError(
                f"no species {name!r} in mechanism {self.name}") from None

    def scaled(self, factor: float) -> "Mechanism":
        """A new mechanism with every reaction's forward rate scaled by
        ``factor`` (see :meth:`repro.chemistry.reaction.Reaction.scaled`)
        — the uniform rate perturbation used by UQ ensembles and the
        :mod:`repro.serve` batch planner's ``rate_scale`` condition.

        ``factor == 1.0`` returns ``self`` unchanged, so the unperturbed
        path stays bitwise identical to a mechanism built directly.
        """
        if float(factor) == 1.0:
            return self
        return Mechanism(self.name, self.species,
                         [rxn.scaled(factor) for rxn in self.reactions])

    # -- species-axis NASA-7 (all species in one Horner pass) ------------------
    def _nasa(self, kernel, T: np.ndarray | float,
              out: np.ndarray | None = None,
              work: np.ndarray | None = None) -> np.ndarray:
        """``kernel`` on the temperature range each cell lies in, shape
        ``(nsp,) + T.shape``: one pass over the coefficient columns of
        the range all cells share, else the low range everywhere and the
        high range again on the compressed cells that some species has
        switched in (``work`` holds those) — the same float operations
        per cell either way, and no per-cell coefficient gather."""
        T = np.asarray(T, dtype=float)
        if out is None:
            out = np.empty((self.n_species,) + T.shape)
        column = (slice(None), slice(None)) + (None,) * T.ndim
        low, high = self._nasa_low[column], self._nasa_high[column]
        first, last = self._nasa_switch
        hot = T >= first
        n_hot = np.count_nonzero(hot)
        if n_hot == 0:
            return kernel(low, T, out)
        if n_hot == T.size and (first == last or T.min() >= last):
            return kernel(high, T, out)
        kernel(low, T, out)
        T_hot = T[hot]
        size = self.n_species * n_hot
        high_hot = (np.empty(size) if work is None
                    else work.reshape(-1)[:size]).reshape(-1, n_hot)
        kernel(self._nasa_high[:, :, None], T_hot, high_hot)
        if first != last:
            # a cell takes a species' high range from that species' switch
            high_hot = np.where(T_hot >= self._nasa_t_mid[:, None], high_hot,
                                out[:, hot])
        out[:, hot] = high_hot
        return out

    def cp_R(self, T: np.ndarray | float, out: np.ndarray | None = None,
             work: np.ndarray | None = None) -> np.ndarray:
        """cp/R of every species, shape ``(nsp,) + T.shape``; ``work``
        (nsp rows) is used when ``T`` straddles a range switch."""
        return self._nasa(_cp_R, T, out, work)

    def h_RT(self, T: np.ndarray | float) -> np.ndarray:
        """h/(RT) of every species, shape ``(nsp,) + T.shape``."""
        return self._nasa(_h_RT, T)

    def s_R(self, T: np.ndarray | float) -> np.ndarray:
        """s/R (standard state) of every species."""
        return self._nasa(_s_R, T)

    def g_RT(self, T: np.ndarray | float) -> np.ndarray:
        """g/(RT) = h/(RT) - s/R of every species."""
        return self._nasa(_g_RT, T)

    def per_species(self, values: np.ndarray, like: np.ndarray) -> np.ndarray:
        """``(nsp,)`` constants shaped to broadcast against ``like``'s
        trailing cell axes (``like`` has shape ``(nsp, ...)``)."""
        return values.reshape((-1,) + (1,) * (np.ndim(like) - 1))

    # -- mixture thermodynamics (mass basis, vectorized over cells) ----------
    # ``out`` is NumPy's own: the array the result is computed into (and
    # returned).  ``work`` is float scratch of shape ``(k, *cells)`` with
    # at least the stated number of rows; given both, a call allocates
    # nothing of cell size.  Without them the same ufunc calls allocate
    # their results, scalars in, scalar out.
    def mean_weight(self, Y: np.ndarray, out: np.ndarray | None = None,
                    work: np.ndarray | None = None) -> np.ndarray:
        """Mixture molecular weight [kg/mol]; ``Y`` shape (nsp, ...),
        ``work`` nsp rows."""
        Y = np.asarray(Y)
        terms = np.multiply(Y, self.per_species(self._inv_weights, Y),
                            out=_rows(work, 0, len(Y)))
        return np.divide(1.0, species_sum(terms, out=out), out=out)

    def density(self, T: np.ndarray, P: np.ndarray | float, Y: np.ndarray,
                out: np.ndarray | None = None,
                work: np.ndarray | None = None) -> np.ndarray:
        """Ideal-gas density [kg/m^3]; ``work`` nsp rows."""
        W = self.mean_weight(Y, out=out, work=work)
        # W is in ``out`` by now; ``[0, ...]`` is a view even of 0-d cells
        RT = np.multiply(R_UNIVERSAL, T,
                         out=None if work is None else work[0, ...])
        return np.divide(np.multiply(P, W, out=out), RT, out=out)

    def pressure(self, T: np.ndarray, rho: np.ndarray,
                 Y: np.ndarray) -> np.ndarray:
        """Ideal-gas pressure [Pa]."""
        W = self.mean_weight(Y)
        return np.asarray(rho) * R_UNIVERSAL * np.asarray(T) / W

    def concentrations(self, rho: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Molar concentrations [mol/m^3], shape (nsp, ...)."""
        Y = np.asarray(Y)
        return np.asarray(rho) * Y / self.per_species(self.weights, Y)

    def cp_mass_species(self, T: np.ndarray, out: np.ndarray | None = None,
                        work: np.ndarray | None = None) -> np.ndarray:
        """Per-species specific heats cp [J/(kg K)], shape (nsp, ...);
        ``work`` nsp rows."""
        cp = self.cp_R(T, out=out, work=work)
        cp *= R_UNIVERSAL
        cp /= self.per_species(self.weights, cp)
        return cp

    def cp_mass(self, T: np.ndarray, Y: np.ndarray,
                out: np.ndarray | None = None,
                work: np.ndarray | None = None) -> np.ndarray:
        """Mixture specific heat at constant pressure [J/(kg K)];
        ``work`` 2 nsp rows."""
        n = self.n_species
        cp = self.cp_mass_species(T, out=_rows(work, 0, n),
                                  work=_rows(work, n, 2 * n))
        return species_sum(np.multiply(Y, cp, out=cp), out=out)

    def cv_mass(self, T: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Mixture specific heat at constant volume [J/(kg K)]."""
        W = self.mean_weight(Y)
        return self.cp_mass(T, Y) - R_UNIVERSAL / W

    def h_mass_species(self, T: np.ndarray) -> np.ndarray:
        """Per-species specific enthalpies [J/kg], shape (nsp, ...)."""
        T = np.asarray(T, dtype=float)
        h = self.h_RT(T) * R_UNIVERSAL * T
        return h / self.per_species(self.weights, h)

    def u_mass_species(self, T: np.ndarray) -> np.ndarray:
        """Per-species specific internal energies [J/kg]."""
        T = np.asarray(T, dtype=float)
        h = self.h_mass_species(T)
        return h - R_UNIVERSAL * T / self.per_species(self.weights, h)

    def h_mass(self, T: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Mixture specific enthalpy [J/kg]."""
        return species_sum(np.asarray(Y) * self.h_mass_species(T))

    # -- kinetics -------------------------------------------------------------
    def progress_rates(self, T: np.ndarray, C: np.ndarray) -> np.ndarray:
        """Net rate of progress per reaction [mol/(m^3 s)].

        ``T`` shape (...,), ``C`` shape (nsp, ...).  Reverse rates follow
        from NASA-7 equilibrium constants.  All reactions are evaluated
        together on ``(nr, ...)`` arrays; only the few third-body and
        falloff reactions get a line of their own.
        """
        T = np.asarray(T, dtype=float)
        C = np.maximum(np.asarray(C, dtype=float), 0.0)
        per_rxn = (slice(None),) + (None,) * T.ndim
        log_T = np.log(T)
        # k = A T^b exp(-Ea/RT), the transcendental on a fresh array
        kf = self._rate_A[per_rxn] * np.exp(
            self._rate_b[per_rxn] * log_T - self._rate_Ea_R[per_rxn] / T)
        conc_m = None
        if self._third_body:
            conc_m = _weighted_sum(self._efficiency.T, C)
            for row, j in enumerate(self._third_body):
                falloff = self.reactions[j].falloff
                if falloff is not None:
                    kf[j] = falloff.blend(kf[j], T, conc_m[row])
        # equilibrium: ln Kc = -Σ ν g/RT - Δν ln(RT/P_ref)
        dg = _weighted_sum(self.nu_net, self.g_RT(T))
        ln_kc = -dg - self._delta_nu[per_rxn] * np.log(
            R_UNIVERSAL * T / P_REF)
        kr = kf * np.exp(-np.clip(ln_kc, -600, 600))
        kr[~self._reversible] = 0.0
        # mass action: each side's concentrations, one slot at a time
        C1 = np.concatenate((C, np.ones((1,) + C.shape[1:])))
        fwd = kf
        for slot in self._react_slots:
            fwd = fwd * C1[slot]
        rev = kr
        for slot in self._prod_slots:
            rev = rev * C1[slot]
        q = fwd - rev
        for row, j in enumerate(self._third_body):
            if self.reactions[j].falloff is None:
                q[j] *= conc_m[row]
        return q

    def wdot(self, T: np.ndarray, C: np.ndarray) -> np.ndarray:
        """Net molar production rates [mol/(m^3 s)], shape (nsp, ...)."""
        return _weighted_sum(self.nu_net.T, self.progress_rates(T, C))

    def __repr__(self) -> str:
        return (f"Mechanism({self.name}: {self.n_species} species, "
                f"{self.n_reactions} reactions)")
