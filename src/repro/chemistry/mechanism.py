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
order (:func:`species_sum`) — never ``np.dot`` /
``einsum`` / ``tensordot`` / ``sum(axis=0)``, whose summation order
changes with the array shape.

**One fused pass.**  A source evaluation is a fixed number of NumPy calls
whatever the mechanism's size: :meth:`Mechanism.thermo` makes one NASA-7
range decision and one Horner pass for cp/R, h/RT and s/R together, and
:meth:`Mechanism.kinetics` reduces over the stoichiometry through slot
tables built once here (each reaction's species with a nonzero net
coefficient, each species' reactions), gathered and accumulated in index
order, with the falloff and mass-action terms batched.  A reduction skips
exact zeros and starts from its first term instead of ``0 +`` it, which
changes no value (``x + 0 == x``; only a ``-0.0`` could become ``+0.0``).
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from repro.chemistry.nasa7 import R_UNIVERSAL
from repro.chemistry.reaction import P_REF, Reaction
from repro.chemistry.species import Species
from repro.errors import ChemistryError

#: widest cell block one fused pass is evaluated on (measured on calls of
#: 209 to 11 264 cells: a narrower block pays more per-block dispatch, a
#: wider one more page faults on its temporaries)
BLOCK = 256


def cell_blocks(B: int) -> list[slice]:
    """The blocks a call on ``B`` 1-D cells is evaluated in: every
    operation of a pass is elementwise along the cells, so blocking
    changes no bit."""
    return [slice(lo, lo + BLOCK) for lo in range(0, B, BLOCK)] or [
        slice(0, 0)]


def species_sum(terms: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """Sum over the leading (species / reaction) axis, one add per row in
    index order, starting from the first row — the same float operations
    per cell whatever the shape of the trailing cell axes.  ``out``, an
    array of a row's shape (not itself one of rows 2..), takes the
    accumulation."""
    if out is None:
        if len(terms) == 1:
            return terms[0]
        # ``+``, not ``np.add``: a 0-D state adds scalars
        acc = terms[0] + terms[1]
        for k in range(2, len(terms)):
            acc += terms[k]
        return acc
    np.copyto(out, terms[0])
    for k in range(1, len(terms)):
        out += terms[k]
    return out


def _rows(work: np.ndarray | None, start: int, stop: int
          ) -> np.ndarray | None:
    """Rows ``start:stop`` of a ``(k, *cells)`` work array, if there is one."""
    return None if work is None else work[start:stop]


def _cp_R(a: np.ndarray, T: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``a0 + T (a1 + T (a2 + T (a3 + T a4)))`` into ``out``; ``a`` is a
    range's ``(nsp, 7, 1, ...)`` coefficient columns.  The in-place
    kernel of the transport's property pass; same operations as
    :class:`_Horner`'s cp/R row."""
    np.multiply(T, a[:, 4], out=out)
    for k in (3, 2, 1):
        out += a[:, k]
        out *= T
    out += a[:, 0]
    return out


class _Horner:
    """The NASA-7 coefficients ``(nsp, 7)`` of one temperature range,
    stacked so that one Horner pass yields ``(3, nsp, B)``: cp/R, h/RT and
    s/R of every species on ``B`` cells.

    The three polynomials share their shape,
    ``((T a4 / d + c3) T + c2) T + c1) T + tail``, and keep the
    expression order of :class:`~repro.chemistry.nasa7.Nasa7` term for
    term (up to commuting an add or a multiply), so each row is bitwise
    the per-species value: ``d`` is 1, 5, 4 (``x / 1 == x``), the ``c``
    rows are the coefficients over 1, k + 1 and k, and the tails are
    ``+ a0``, ``+ a0 + a5/T`` and ``+ a0 ln T + a6``.
    """

    #: divisors of ``a4 .. a1`` in the cp/R, h/RT and s/R rows
    _DIV = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 4.0, 3.0, 2.0],
                     [1.0, 3.0, 2.0, 1.0]]).T[:, :, None, None]
    #: the divisor of ``T a4`` in each row
    div = np.array([1.0, 5.0, 4.0])[:, None, None]

    def __init__(self, a: np.ndarray) -> None:
        a = a[..., None]                           # (nsp, 7, 1)
        # (4, 3, nsp, 1): a4, a3, a2, a1 over their divisors
        self.a4, self.c3, self.c2, self.c1 = \
            a[:, 4:0:-1].transpose(1, 0, 2)[:, None] / self._DIV
        self.a0 = a[None, :, 0]                    # (1, nsp, 1)
        self.a0_s, self.a5, self.a6 = a[:, 0], a[:, 5], a[:, 6]

    def __call__(self, T: np.ndarray, log_T: np.ndarray) -> np.ndarray:
        X = np.multiply(T, self.a4)
        X /= self.div
        X += self.c3
        X *= T
        X += self.c2
        X *= T
        X += self.c1
        X *= T
        X[:2] += self.a0
        X[1] += self.a5 / T
        X[2] += self.a0_s * log_T
        X[2] += self.a6
        return X


class Thermo(NamedTuple):
    """One NASA-7 pass over ``B`` cells (see :meth:`Mechanism.thermo`)."""

    T: np.ndarray       #: (B,) temperatures
    log_T: np.ndarray   #: (B,) ln T
    RT: np.ndarray      #: (B,) R T
    kinds: np.ndarray   #: (3, nsp, B): cp/R, h/RT, s/R

    @property
    def cp_R(self) -> np.ndarray:
        return self.kinds[0]

    @property
    def h_RT(self) -> np.ndarray:
        return self.kinds[1]

    @property
    def s_R(self) -> np.ndarray:
        return self.kinds[2]


class Kinetics(NamedTuple):
    """The rates of one kinetics pass (see :meth:`Mechanism.kinetics`)."""

    C: np.ndarray       #: (nsp, B) concentrations, clipped at zero
    k: np.ndarray       #: (2, nr, B) forward, reverse rate constants
    slots: list         #: W x (2, nr, B): the mass-action factors, slot by slot
    flux: np.ndarray    #: (2, nr, B) forward, reverse mass-action rates
    conc_m: np.ndarray  #: (n_eff, B) [M] per distinct efficiency row
    q: np.ndarray       #: (nr, B) net rates of progress
    ln_inv_kc: np.ndarray   #: (nr, B) -ln Kc before the ±600 clip
    falloff: tuple | None   #: (k_inf, k0, Pr), each (n_falloff, B)


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
        ns, nr = len(self.species), len(self.reactions)
        nu = np.zeros((2, ns, nr))
        # mass action: each side of each reaction as a list of species
        # indices, a species of coefficient ν filling ν slots
        sides: list[list[int]] = []
        for j, rxn in enumerate(self.reactions):
            for side, stoich in enumerate((rxn.reactants, rxn.products)):
                for nm in stoich:
                    if nm not in self._index:
                        raise ChemistryError(
                            f"reaction {rxn.equation()} uses unknown "
                            f"species {nm!r}")
            rxn.check_balance(by_name)
            for side, stoich in enumerate((rxn.reactants, rxn.products)):
                slots = []
                for nm, n in stoich.items():
                    k = self._index[nm]
                    nu[side, k, j] = n
                    slots += [k] * n
                sides.append(slots)
        self.nu_react, self.nu_prod = nu
        self.nu_net = self.nu_prod - self.nu_react
        #: Molecular weights [kg/mol], shape (nspecies,).
        self.weights = np.array([sp.weight for sp in self.species])
        self._inv_weights = 1.0 / self.weights
        self._w_col = self.weights[:, None]
        self._inv_w_col = self._inv_weights[:, None]
        # species-axis NASA-7 tables: (nsp, 7) per range, (nsp,) switch
        self._nasa_low = np.array([sp.thermo.low for sp in self.species])
        self._nasa_high = np.array([sp.thermo.high for sp in self.species])
        self._nasa_t_mid = np.array([sp.thermo.t_mid for sp in self.species])
        #: below the first / from the second on, one range serves all species
        self._nasa_switch = (float(self._nasa_t_mid.min()),
                             float(self._nasa_t_mid.max()))
        self._horner_low = _Horner(self._nasa_low)
        self._horner_high = _Horner(self._nasa_high)
        #: both ranges as one table, the high range's species after the low
        both = np.concatenate((self._nasa_low, self._nasa_high))
        self._horner_both = _Horner(both)
        #: k a_k, k = 1..4: the coefficients of d(cp/R)/dT, both ranges
        self._dcp_coeffs = (both[:, 1:5] * np.arange(1.0, 5.0)).T[..., None]

        # reaction-axis rate tables, ``(nr, 1)`` columns against the cells
        rxns = self.reactions
        self._rate_A = np.array([[rxn.rate.A] for rxn in rxns])
        self._rate_b = np.array([[rxn.rate.b] for rxn in rxns])
        self._rate_Ea_R = np.array([[rxn.rate.Ea / R_UNIVERSAL]
                                    for rxn in rxns])
        self._delta_nu = np.array([[float(rxn.delta_nu())] for rxn in rxns])
        self._irreversible = np.array(
            [j for j, rxn in enumerate(rxns) if not rxn.reversible],
            dtype=int)
        # (slots, 2, nr) species indices, reactants then products; unused
        # slots hold ``ns``, the row of ones appended to the concentrations
        width = max(map(len, sides), default=1)
        self._mass_action = np.array(
            [slots + [ns] * (width - len(slots)) for slots in sides],
            dtype=int).reshape(nr, 2, width).transpose(2, 1, 0).copy()
        #: (2, nr, 1) reaction order of each side, third body aside
        self._order = np.array([len(slots) for slots in sides],
                               dtype=int).reshape(nr, 2).T[..., None].copy()
        #: Σ_k ν_kj x_k per reaction (Δg), Σ_j ν_kj x_j per species (ω̇)
        self.reaction_sum = _SlotSum(self.nu_net)
        self.species_net = _SlotSum(self.nu_net.T)
        # third bodies: one [M] per distinct efficiency row
        tb = [j for j, rxn in enumerate(rxns) if rxn.has_third_body]
        rows: dict[tuple, int] = {}     # distinct efficiency rows
        tb_eff = np.zeros(len(tb), dtype=int)
        for row, j in enumerate(tb):
            eff = [1.0] * ns
            for nm, e in rxns[j].third_body.items():
                eff[self._index[nm]] = e
            tb_eff[row] = rows.setdefault(tuple(eff), len(rows))
        unique = np.array(list(rows), dtype=float).reshape(-1, ns)
        self._efficiency = unique                    # (n_eff, nsp)
        self._eff_cols = unique.T[:, :, None]        # (nsp, n_eff, 1)
        plain = [row for row, j in enumerate(tb) if rxns[j].falloff is None]
        fall = [row for row, j in enumerate(tb) if rxns[j].falloff is not None]
        self._plain_tb = np.array([tb[r] for r in plain], dtype=int)
        self._plain_eff = tb_eff[plain]
        self._falloff_rxn = np.array([tb[r] for r in fall], dtype=int)
        self._falloff_eff = tb_eff[fall]
        lows = [rxns[tb[r]].falloff.low for r in fall]
        self._falloff_A = np.array([[low.A] for low in lows])
        self._falloff_b = [low.b for low in lows]
        self._falloff_neg_Ea = np.array([[-low.Ea] for low in lows])
        self._troe = [(row, rxns[tb[r]].falloff)
                      for row, r in enumerate(fall)
                      if rxns[tb[r]].falloff.troe is not None]

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

    # -- species-axis NASA-7 ---------------------------------------------------
    def thermo(self, T: np.ndarray) -> Thermo:
        """cp/R, h/RT and s/R of every species on the 1-D cells ``T``: one
        range decision and one Horner pass — over the range all cells
        share, else over both ranges at once, each cell then taking a
        species' high range from that species' switch on.  The same float
        operations per cell either way, and no per-cell coefficient
        gather."""
        log_T = np.log(T)
        first, last = self._nasa_switch
        n_hot = np.count_nonzero(T >= first)
        if n_hot and n_hot == T.size and (first == last
                                          or T.min() >= last):
            kinds = self._horner_high(T, log_T)
        elif not n_hot:
            kinds = self._horner_low(T, log_T)
        else:
            n = self.n_species
            both = self._horner_both(T, log_T)
            kinds = np.where(T >= self._nasa_t_mid[:, None], both[:, n:],
                             both[:, :n])
        return Thermo(T, log_T, R_UNIVERSAL * T, kinds)

    def _nasa(self, T: np.ndarray | float, out: np.ndarray | None = None,
              work: np.ndarray | None = None) -> np.ndarray:
        """cp/R in place (see :meth:`cp_R`): one pass over the coefficient
        columns of the range all cells share, else the low range
        everywhere and the high range again on the compressed cells that
        some species has switched in (``work`` holds those)."""
        T = np.asarray(T, dtype=float)
        if out is None:
            out = np.empty((self.n_species,) + T.shape)
        column = (slice(None), slice(None)) + (None,) * T.ndim
        low, high = self._nasa_low[column], self._nasa_high[column]
        first, last = self._nasa_switch
        hot = T >= first
        n_hot = np.count_nonzero(hot)
        if n_hot == 0:
            return _cp_R(low, T, out)
        if n_hot and n_hot == T.size and (first == last
                                          or T.min() >= last):
            return _cp_R(high, T, out)
        _cp_R(low, T, out)
        T_hot = T[hot]
        size = self.n_species * n_hot
        high_hot = (np.empty(size) if work is None
                    else work.reshape(-1)[:size]).reshape(-1, n_hot)
        _cp_R(self._nasa_high[:, :, None], T_hot, high_hot)
        if first != last:
            high_hot = np.where(T_hot >= self._nasa_t_mid[:, None], high_hot,
                                out[:, hot])
        out[:, hot] = high_hot
        return out

    def cp_R(self, T: np.ndarray | float, out: np.ndarray | None = None,
             work: np.ndarray | None = None) -> np.ndarray:
        """cp/R of every species, shape ``(nsp,) + T.shape``; ``work``
        (nsp rows) is used when ``T`` straddles a range switch."""
        return self._nasa(T, out, work)

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

    # -- kinetics -------------------------------------------------------------
    def kinetics(self, th: Thermo, C: np.ndarray) -> Kinetics:
        """Rates of progress on the cells of ``th`` at concentrations
        ``C`` (nsp, B).  Reverse rates follow from NASA-7 equilibrium
        constants.  All reactions are evaluated together on ``(nr, B)``
        arrays, the falloff blends on ``(n_falloff, B)``; only a Troe
        broadening factor gets a line per reaction."""
        T, log_T = th.T, th.log_T
        ns, nr = self.n_species, self.n_reactions
        C1 = np.empty((ns + 1,) + T.shape)
        C = np.maximum(C, 0.0, out=C1[:ns])
        C1[ns] = 1.0
        k = np.empty((2, nr) + T.shape)
        kf = k[0]
        # k = A T^b exp(-Ea/RT), the transcendental on a fresh array
        np.multiply(self._rate_A, np.exp(self._rate_b * log_T
                                         - self._rate_Ea_R / T), out=kf)
        conc_m = species_sum(self._eff_cols * C[:, None])
        falloff = None
        if self._falloff_b:
            # Lindemann: k = k_inf Pr / (1 + Pr) [F], Pr = k0 [M] / k_inf
            k_inf = kf[self._falloff_rxn]
            power = np.array([T ** b for b in self._falloff_b])
            k0 = self._falloff_A * power * np.exp(self._falloff_neg_Ea
                                                  / th.RT)
            pr = np.maximum(k0 * conc_m[self._falloff_eff]
                            / np.maximum(k_inf, 1e-300), 1e-300)
            f = pr / (1.0 + pr)
            for row, falloff in self._troe:
                f[row] = f[row] * falloff.troe_factor(T, pr[row])
            kf[self._falloff_rxn] = k_inf * f
            falloff = (k_inf, k0, pr)
        # equilibrium: kr = kf / Kc with ln Kc = -Σ ν g/RT - Δν ln(RT/P_ref)
        dg = self.reaction_sum(th.h_RT - th.s_R)
        ln_inv_kc = dg + self._delta_nu * np.log(th.RT / P_REF)
        # np.clip's bounds as two ufuncs, without its Python wrapper
        np.exp(np.minimum(np.maximum(ln_inv_kc, -600.0), 600.0), out=k[1])
        k[1] *= kf
        if self._irreversible.size:
            k[1, self._irreversible] = 0.0
        # mass action: both sides' concentrations, one slot at a time
        slots = [C1[side] for side in self._mass_action]
        flux = k * slots[0]
        for slot in slots[1:]:
            flux *= slot
        q = flux[0] - flux[1]
        if self._plain_tb.size:
            q[self._plain_tb] *= conc_m[self._plain_eff]
        return Kinetics(C, k, slots, flux, conc_m, q, ln_inv_kc, falloff)

    def _cells(self, T, C) -> tuple[np.ndarray, np.ndarray, tuple]:
        T = np.asarray(T, dtype=float)
        C = np.asarray(C, dtype=float)
        cells = np.broadcast_shapes(T.shape, C.shape[1:])
        return (np.broadcast_to(T, cells).reshape(-1),
                np.broadcast_to(C, C.shape[:1] + cells).reshape(len(C), -1),
                cells)

    def _blockwise(self, T, C, n_rows: int, rates) -> np.ndarray:
        """``rates(kinetics)`` of one pass per :func:`cell_blocks` block,
        shape ``(n_rows,) + cells``."""
        T, C, cells = self._cells(T, C)
        out = np.empty((n_rows, T.size))
        for cols in cell_blocks(T.size):
            out[:, cols] = rates(self.kinetics(self.thermo(T[cols]),
                                               C[:, cols]))
        return out.reshape((n_rows,) + cells)

    def progress_rates(self, T: np.ndarray, C: np.ndarray) -> np.ndarray:
        """Net rate of progress per reaction [mol/(m^3 s)].

        ``T`` shape (...,), ``C`` shape (nsp, ...).
        """
        return self._blockwise(T, C, self.n_reactions, lambda kin: kin.q)

    def wdot(self, T: np.ndarray, C: np.ndarray) -> np.ndarray:
        """Net molar production rates [mol/(m^3 s)], shape (nsp, ...)."""
        return self._blockwise(T, C, self.n_species,
                               lambda kin: self.species_net(kin.q))

    # -- analytic derivatives of the kinetics ----------------------------------
    def rate_derivatives(self, th: Thermo, kin: Kinetics
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(∂q/∂T at fixed C, ∂q/∂C, Σ_i C_i ∂q/∂C_i)`` of
        :meth:`kinetics`' net rates of progress, shapes ``(nr, B)``,
        ``(nr, nsp, B)`` and ``(nr, B)``, from the pass's own
        intermediates; :meth:`species_net` turns them into ω̇'s.  The last
        is Euler's theorem on the mass-action products — each side's
        order times its rate — so a caller changing variables through
        ``C`` needs no species-by-species sum.  Elementwise along the
        cells like the pass itself, so column independent."""
        T = th.T
        ns, nr = self.n_species, self.n_reactions
        fwd, rev = kin.flux
        q0 = fwd - rev
        # ∂(k Π C)/∂C_i: the rate times the product over the other slots
        slots = kin.slots
        dq_dC = np.zeros((nr, ns + 1) + T.shape)
        rows = np.arange(nr)
        for s in range(len(slots)):
            others = kin.k
            for t, slot in enumerate(slots):
                if t != s:
                    others = others * slot
            dq_dC[rows, self._mass_action[s, 0]] += others[0]
            dq_dC[rows, self._mass_action[s, 1]] -= others[1]
        dq_dC = dq_dC[:, :ns]
        euler = self._order[0] * fwd - self._order[1] * rev
        # d ln k / dT at fixed C: Arrhenius, the falloff blend, equilibrium
        dlnkf = (self._rate_b + self._rate_Ea_R / T) / T
        if kin.falloff is not None:
            j, eff = self._falloff_rxn, self._falloff_eff
            k_inf, k0, pr = kin.falloff
            slope = 1.0 / (1.0 + pr)
            dlnF_dT = 0.0
            if self._troe:
                dlnF_dT = np.zeros_like(pr)
                for row, falloff in self._troe:
                    dlnF_dlnpr, dlnF_dT[row] = falloff.troe_slopes(T, pr[row])
                    slope[row] += dlnF_dlnpr
            # d ln kf / d ln Pr, zero where Pr sits on its floor
            slope = np.where(pr > 1e-300, slope, 0.0)
            dlnk0 = (np.array(self._falloff_b)[:, None]
                     - self._falloff_neg_Ea / th.RT) / T
            dlnkf[j] = dlnkf[j] + (dlnk0 - dlnkf[j]) * slope + dlnF_dT
            # ∂q/∂[M] = q0 d ln kf / d[M] = q0 slope / [M]
            m = kin.conc_m[eff]
            dq_dM = np.divide(q0[j] * slope, m, out=np.zeros_like(m),
                              where=m > 0.0)
            dq_dC[j] += dq_dM[:, None] * self._efficiency[eff][:, :, None]
            euler[j] += q0[j] * slope
        dlnkc = (self.reaction_sum(th.h_RT) - self._delta_nu) / T
        dlnkr = dlnkf - np.where(np.abs(kin.ln_inv_kc) < 600, dlnkc, 0.0)
        dq_dT = fwd * dlnkf - rev * dlnkr
        if self._plain_tb.size:
            j, eff = self._plain_tb, self._plain_eff
            m = kin.conc_m[eff]
            dq_dC[j] = dq_dC[j] * m[:, None] \
                + q0[j][:, None] * self._efficiency[eff][:, :, None]
            dq_dT[j] *= m
            euler[j] = (euler[j] + q0[j]) * m
        return dq_dT, dq_dC, euler

    def dcp_R_dT(self, T: np.ndarray) -> np.ndarray:
        """d(cp/R)/dT of every species on the 1-D cells ``T``."""
        c1, c2, c3, c4 = self._dcp_coeffs
        d = c4 * T
        d += c3
        d *= T
        d += c2
        d *= T
        d += c1
        n = self.n_species
        return np.where(T >= self._nasa_t_mid[:, None], d[n:], d[:n])

    def __repr__(self) -> str:
        return (f"Mechanism({self.name}: {self.n_species} species, "
                f"{self.n_reactions} reactions)")


class _SlotSum:
    """``out[m] = Σ_k ν[k, m] values[k]`` over the nonzero entries of a
    ``(K, M)`` weight matrix, accumulated in increasing ``k`` from each
    column's first term.

    The terms ``ν values[k]`` are gathered slot-major: slot ``s`` holds
    the s-th nonzero of each column, short columns padded with
    ``0 values[0]`` (an ``x + 0`` that changes no value), and the
    ``(S, M, ...)`` block is summed with :func:`species_sum`.
    """

    def __init__(self, weights: np.ndarray) -> None:
        K, M = weights.shape
        if K == 0:              # nothing to sum: zero rows of ν values
            weights = np.zeros((1, M))
        # built in Python: NumPy's reductions and masked assignments size
        # iterator buffers, which the peak resident set of a process that
        # only builds the mechanism would keep (~128 KiB each)
        cols = weights.T.tolist()
        rows = [[k for k, w in enumerate(col) if w != 0.0] for col in cols]
        S = max([1, *map(len, rows)])
        # slot s: each column's s-th nonzero row, in increasing k; a short
        # column is padded with row 0 at weight 0
        self.index = np.array([[r[s] if s < len(r) else 0 for r in rows]
                               for s in range(S)], dtype=int)
        self.nu = np.array([[col[r[s]] if s < len(r) else col[0] * 0.0
                             for col, r in zip(cols, rows)]
                            for s in range(S)])

    def __call__(self, values: np.ndarray) -> np.ndarray:
        if not len(values):
            return np.zeros(self.nu.shape[1:] + values.shape[1:])
        terms = values[self.index]
        terms *= self.nu.reshape(self.nu.shape + (1,) * (values.ndim - 1))
        return species_sum(terms)
