"""The fused source pass returns the same bits as the evaluation it
replaced (kept in ``reference_kinetics``), and a cell's result does not
depend on which other cells share the call."""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.chemistry import Mechanism, h2_air_mechanism, h2_lite_mechanism
from repro.chemistry.mechanism import BLOCK
from repro.chemistry.reaction import Falloff
from repro.chemistry.zerod import (
    constant_pressure_source,
    constant_volume_source,
)
from tests.chemistry import reference_kinetics as ref


def troe_mechanism() -> Mechanism:
    """h2-air with Troe broadening on both falloff reactions (one with
    the optional fourth parameter), so the per-reaction Troe lines run."""
    base = h2_air_mechanism()
    rxns = list(base.reactions)
    for j, troe in ((8, (0.8, 1e2, 1e3, 5e3)), (14, (0.5, 1e-30, 1e30))):
        rxns[j] = replace(rxns[j], falloff=Falloff(rxns[j].falloff.low,
                                                   troe=troe))
    return Mechanism("h2-air-troe", base.species, rxns)


def staggered_mechanism() -> Mechanism:
    """h2-air with each species switching NASA-7 range at its own
    temperature (900 K up to 1100 K), so a straddling call takes the
    per-species range selection."""
    base = h2_air_mechanism()
    n = base.n_species
    species = [replace(sp, thermo=replace(sp.thermo,
                                          t_mid=900.0 + 200.0 * k / (n - 1)))
               for k, sp in enumerate(base.species)]
    return Mechanism("h2-air-staggered", species, base.reactions)


MECHS = {
    "h2-air": h2_air_mechanism(),
    "h2-lite": h2_lite_mechanism(),
    "h2-air x2.5": h2_air_mechanism().scaled(2.5),
    "h2-air-troe": troe_mechanism(),
}
#: the fused pass is also checked on a mechanism whose species switch
#: range at different temperatures (its NASA-7 data are discontinuous
#: there, so the Jacobian tests leave it out)
FUSED_MECHS = {**MECHS, "h2-air-staggered": staggered_mechanism()}
#: low range only, high range only, both ranges in one call
T_RANGES = {"low": (300.0, 999.0), "high": (1000.0, 3000.0),
            "straddle": (600.0, 1500.0)}


def states(mech, B, T_range, seed, zero_frac, clip_frac):
    """Temperatures and mass fractions on ``B`` cells: some fractions
    exactly zero, some slightly negative (the sources clip them), the
    last species always present so no cell is empty."""
    rng = np.random.default_rng(seed)
    T = rng.uniform(*T_RANGES[T_range], B)
    Y = rng.uniform(0.0, 1.0, (mech.n_species, B))
    Y[rng.uniform(size=Y.shape) < zero_frac] = 0.0
    Y[rng.uniform(size=Y.shape) < clip_frac] *= -1e-3
    Y[-1] = np.abs(Y[-1]) + 0.1
    Y /= np.abs(Y).sum(axis=0)
    return T, Y


def same(a, b) -> bool:
    return all(np.array_equal(u, v) for u, v in zip(a, b))


cases = st.fixed_dictionaries({
    "mech": st.sampled_from(sorted(FUSED_MECHS)),
    "B": st.integers(1, 300),
    "T_range": st.sampled_from(sorted(T_RANGES)),
    "seed": st.integers(0, 2**32 - 1),
    "zero_frac": st.sampled_from([0.0, 0.3, 1.0]),
    "clip_frac": st.sampled_from([0.0, 0.1]),
})


@settings(max_examples=60, deadline=None)
@given(cases)
def test_fused_pass_is_bitwise_the_reference(case):
    mech = FUSED_MECHS[case.pop("mech")]
    T, Y = states(mech, **case)
    P = 101325.0
    assert same(constant_pressure_source(mech, P, T, Y),
                ref.constant_pressure_source(mech, P, T, Y))
    rho = np.random.default_rng(case["seed"]).uniform(0.1, 2.0, len(T))
    y = np.concatenate((T[None], Y, np.full((1, len(T)), 1e5)))
    assert same(constant_volume_source(mech, rho, y),
                ref.constant_volume_source(mech, rho, y))
    C = np.clip(Y, 0.0, None) * 10.0
    assert np.array_equal(mech.progress_rates(T, C),
                          ref.progress_rates(mech, T, C))
    assert np.array_equal(mech.wdot(T, C), ref.wdot(mech, T, C))


def test_scalar_and_2d_cells_are_bitwise_the_reference():
    mech = MECHS["h2-air"]
    T, Y = states(mech, 12, "straddle", 7, 0.3, 0.1)
    P = 101325.0
    assert same(constant_pressure_source(mech, P, T[0], Y[:, 0]),
                ref.constant_pressure_source(mech, P, T[0], Y[:, 0]))
    T2, Y2 = T.reshape(3, 4), Y.reshape(-1, 3, 4)
    assert same(constant_pressure_source(mech, P, T2, Y2),
                ref.constant_pressure_source(mech, P, T2, Y2))
    y = np.concatenate(([T[0]], Y[:, 0], [1e5]))
    assert same(constant_volume_source(mech, 1.1, y),
                ref.constant_volume_source(mech, 1.1, y))


@settings(max_examples=25, deadline=None)
@given(cases, st.integers(0, 2**32 - 1))
def test_columns_are_independent(case, perm_seed):
    """A column alone, in its batch, or in a permuted batch: same bits."""
    mech = FUSED_MECHS[case.pop("mech")]
    T, Y = states(mech, **case)
    P = 101325.0
    dT, dY = constant_pressure_source(mech, P, T, Y)
    perm = np.random.default_rng(perm_seed).permutation(len(T))
    pT, pY = constant_pressure_source(mech, P, T[perm], Y[:, perm])
    assert np.array_equal(pT, dT[perm]) and np.array_equal(pY, dY[:, perm])
    for b in {0, len(T) // 2, len(T) - 1}:
        aT, aY = constant_pressure_source(mech, P, T[b:b + 1], Y[:, b:b + 1])
        assert aT[0] == dT[b] and np.array_equal(aY[:, 0], dY[:, b])


def test_wide_calls_are_blocked_without_changing_bits():
    """Past the block width (and the padded-sum width) a call is split;
    every cell must still equal its own single-cell evaluation."""
    mech = MECHS["h2-air"]
    T, Y = states(mech, 1100, "straddle", 3, 0.3, 0.1)
    P = 101325.0
    dT, dY = constant_pressure_source(mech, P, T, Y)
    assert same((dT, dY), ref.constant_pressure_source(mech, P, T, Y))
    C = np.clip(Y, 0.0, None) * 10.0
    assert np.array_equal(mech.progress_rates(T, C),
                          ref.progress_rates(mech, T, C))
    assert np.array_equal(mech.wdot(T, C), ref.wdot(mech, T, C))
    for b in (0, BLOCK - 1, BLOCK, 1099):
        aT, aY = constant_pressure_source(mech, P, T[b:b + 1], Y[:, b:b + 1])
        assert aT[0] == dT[b] and np.array_equal(aY[:, 0], dY[:, b])
